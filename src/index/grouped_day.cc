#include "index/grouped_day.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "util/status.h"

namespace wavekit {

namespace {

constexpr uint64_t kMaxColumn = std::numeric_limits<uint32_t>::max();

void CheckFits(uint64_t n, const char* what) {
  if (n >= kMaxColumn) {
    Status::OutOfRange(std::string("a grouped day holds fewer than 2^32 ") +
                       what)
        .Abort("GroupedDay::From");
  }
}

// Numbers a day's values densely in first-seen order. An open-addressing
// table of (id + 1, hash) slots; each new value's bytes are copied into one
// arena, so a lookup compares against bytes that sit together instead of
// chasing a string of some earlier record.
class ValueIds {
 public:
  ValueIds() : slots_(1024) {}

  uint32_t Intern(std::string_view value) {
    const uint64_t h = std::hash<std::string_view>{}(value);
    const uint32_t hash = static_cast<uint32_t>(h ^ (h >> 32));
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.id_plus_one == 0) {
        const uint32_t id = static_cast<uint32_t>(size());
        CheckFits(arena_.size() + value.size(), "distinct-value bytes");
        arena_.append(value);
        starts_.push_back(static_cast<uint32_t>(arena_.size()));
        slot = Slot{id + 1, hash};
        if (2 * size() > slots_.size()) Grow();
        return id;
      }
      if (slot.hash == hash && View(slot.id_plus_one - 1) == value) {
        return slot.id_plus_one - 1;
      }
    }
  }

  size_t size() const { return starts_.size() - 1; }

  /// Bytes of all distinct values together.
  size_t bytes() const { return arena_.size(); }

  std::string_view View(uint32_t id) const {
    return std::string_view(arena_.data() + starts_[id],
                            starts_[id + 1] - starts_[id]);
  }

 private:
  struct Slot {
    uint32_t id_plus_one = 0;
    uint32_t hash = 0;
  };

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    for (const Slot& slot : old) {
      if (slot.id_plus_one == 0) continue;
      size_t i = slot.hash & (slots_.size() - 1);
      while (slots_[i].id_plus_one != 0) i = (i + 1) & (slots_.size() - 1);
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::string arena_;
  std::vector<uint32_t> starts_{0};
};

}  // namespace

GroupedDay GroupedDay::From(const DayBatch& batch) {
  GroupedDay day;
  day.day_ = batch.day;
  const uint64_t entries = batch.EntryCount();
  CheckFits(batch.records.size(), "records");
  CheckFits(entries, "entries");

  // Pass 1: number each value in first-seen order, note every entry's
  // number and count each value's entries.
  ValueIds ids;
  std::vector<uint32_t> entry_ids;
  entry_ids.reserve(entries);
  std::vector<uint32_t> counts;
  day.record_ids_.reserve(batch.records.size());
  for (const Record& record : batch.records) {
    day.record_ids_.push_back(record.record_id);
    for (const Value& value : record.values) {
      const uint32_t id = ids.Intern(value);
      if (id == counts.size()) counts.push_back(0);
      ++counts[id];
      entry_ids.push_back(id);
    }
  }

  // Pass 2: sort the distinct values, lay out their bytes and runs in that
  // order, and note where each value's run starts.
  const size_t n = ids.size();
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&ids](uint32_t a, uint32_t b) {
    return ids.View(a) < ids.View(b);
  });
  std::vector<uint32_t> next(n);
  day.values_.reserve(ids.bytes());
  day.value_offsets_.reserve(n + 1);
  day.run_offsets_.reserve(n + 1);
  for (const uint32_t id : order) {
    day.values_.append(ids.View(id));
    day.value_offsets_.push_back(static_cast<uint32_t>(day.values_.size()));
    next[id] = day.run_offsets_.back();
    day.run_offsets_.push_back(next[id] + counts[id]);
  }

  // Pass 3: a counting sort. Entries are visited in record-then-position
  // order, so each run keeps that order.
  day.postings_.resize(entry_ids.size());
  size_t e = 0;
  for (size_t r = 0; r < batch.records.size(); ++r) {
    const Record& record = batch.records[r];
    for (size_t i = 0; i < record.values.size(); ++i) {
      day.postings_[next[entry_ids[e++]]++] =
          Posting{static_cast<uint32_t>(r), record.AuxFor(i)};
    }
  }
  return day;
}

GroupedBatches::GroupedBatches(std::span<const DayBatch* const> batches) {
  days_.reserve(batches.size());
  for (const DayBatch* batch : batches) {
    pointers_.push_back(&days_.emplace_back(GroupedDay::From(*batch)));
  }
}

}  // namespace wavekit
