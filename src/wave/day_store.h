// DayStore: retains recent days so maintenance schemes can rebuild indexes
// (BuildIndex needs the entries of the days it re-indexes).

#ifndef WAVEKIT_WAVE_DAY_STORE_H_
#define WAVEKIT_WAVE_DAY_STORE_H_

#include <atomic>
#include <cstdint>
#include <map>

#include "index/grouped_day.h"
#include "index/record.h"
#include "util/day.h"
#include "util/result.h"

namespace wavekit {

/// \brief In-memory archive of the days still inside (or near) the window,
/// each held as a GroupedDay. The driving application Puts each day's
/// batch; schemes Get the grouped days they re-index; Prune discards days
/// that can no longer be needed. The Records of a batch are not kept.
class DayStore {
 public:
  /// Groups `batch` (GroupedDay::From) and stores it under its day. Fails
  /// with AlreadyExists on a duplicate.
  Status Put(DayBatch batch);

  /// The grouped day for `day`, or NotFound.
  Result<const GroupedDay*> Get(Day day) const;

  bool Has(Day day) const { return days_.contains(day); }

  /// Discards all days older than `oldest_needed`.
  void Prune(Day oldest_needed);

  /// Days held, and the heap bytes of their columns (GroupedDay::bytes()).
  /// Both are safe to read from any thread while the maintenance thread
  /// Puts and Prunes (the metrics scrape does).
  size_t size() const { return size_.load(std::memory_order_relaxed); }
  uint64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

 private:
  void Recount();

  std::map<Day, GroupedDay> days_;
  std::atomic<size_t> size_{0};
  std::atomic<uint64_t> bytes_{0};
};

}  // namespace wavekit

#endif  // WAVEKIT_WAVE_DAY_STORE_H_
