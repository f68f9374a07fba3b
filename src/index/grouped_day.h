// GroupedDay: one day of records, grouped by value once at ingest.
//
// BuildIndex (paper Section 2.2) counts the entries each bucket needs and
// then fills the buckets. A GroupedDay holds one day already in that form:
// its distinct values in ascending std::string order (the directory's
// layout order), and per value one run of postings. A packed build over
// several days merges the days' sorted value lists and concatenates their
// runs; nothing regroups entries by value after ingest.

#ifndef WAVEKIT_INDEX_GROUPED_DAY_H_
#define WAVEKIT_INDEX_GROUPED_DAY_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "index/entry.h"
#include "index/record.h"
#include "util/day.h"

namespace wavekit {

/// \brief One day's index entries in columns, grouped by value.
///
/// Four parts: the distinct values back to back in ascending order, one run
/// offset per value, one record id per record, and per entry a u32 record
/// index with the u32 aux, in record-then-position order within each run.
/// Immutable once built.
class GroupedDay {
 public:
  /// One entry of a run: its record's index in the day, and its aux.
  struct Posting {
    uint32_t record = 0;
    uint32_t aux = 0;
  };

  /// Groups `batch` by value: one hash pass over the values, a sort of the
  /// distinct values, then a counting sort of the entries. Each run lists
  /// its value's entries in record order, then in position order within a
  /// record, so run v holds exactly the bucket a map keyed by value would
  /// collect. This is the only code that groups a DayBatch by value. A day
  /// holds fewer than 2^32 records, entries and distinct-value bytes; past
  /// that the process aborts.
  static GroupedDay From(const DayBatch& batch);

  Day day() const { return day_; }

  /// Number of distinct values, which is the number of runs.
  size_t value_count() const { return run_offsets_.size() - 1; }

  /// Distinct value `v`; values ascend in std::string order.
  std::string_view value(size_t v) const {
    return std::string_view(values_.data() + value_offsets_[v],
                            value_offsets_[v + 1] - value_offsets_[v]);
  }

  /// The postings of value `v`.
  std::span<const Posting> run(size_t v) const {
    return std::span<const Posting>(postings_.data() + run_offsets_[v],
                                    run_offsets_[v + 1] - run_offsets_[v]);
  }

  /// The index entry `posting` stands for.
  Entry EntryOf(const Posting& posting) const {
    return Entry{record_ids_[posting.record], day_, posting.aux};
  }

  size_t record_count() const { return record_ids_.size(); }

  /// Number of index entries (sum of value multiplicities over records).
  uint64_t EntryCount() const { return postings_.size(); }

  /// Heap bytes of the four columns.
  uint64_t bytes() const {
    return values_.size() +
           (value_offsets_.size() + run_offsets_.size()) * sizeof(uint32_t) +
           record_ids_.size() * sizeof(uint64_t) +
           postings_.size() * sizeof(Posting);
  }

 private:
  GroupedDay() = default;

  Day day_ = 0;
  /// The distinct values back to back; value v is
  /// values_[value_offsets_[v], value_offsets_[v + 1]).
  std::string values_;
  std::vector<uint32_t> value_offsets_{0};
  /// Run v is postings_[run_offsets_[v], run_offsets_[v + 1]).
  std::vector<uint32_t> run_offsets_{0};
  std::vector<uint64_t> record_ids_;
  std::vector<Posting> postings_;
};

/// \brief The DayBatch adapters' shim: groups each batch with
/// GroupedDay::From and lends the results out as the span the GroupedDay
/// APIs take.
class GroupedBatches {
 public:
  explicit GroupedBatches(std::span<const DayBatch* const> batches);

  std::span<const GroupedDay* const> days() const { return pointers_; }

 private:
  std::vector<GroupedDay> days_;
  std::vector<const GroupedDay*> pointers_;
};

}  // namespace wavekit

#endif  // WAVEKIT_INDEX_GROUPED_DAY_H_
