#include "wave/day_store.h"

namespace wavekit {

Status DayStore::Put(DayBatch batch) {
  const Day day = batch.day;
  if (days_.contains(day)) {
    return Status::AlreadyExists("day " + std::to_string(day) +
                                 " already stored");
  }
  days_.emplace(day, GroupedDay::From(batch));
  Recount();
  return Status::OK();
}

Result<const GroupedDay*> DayStore::Get(Day day) const {
  auto it = days_.find(day);
  if (it == days_.end()) {
    return Status::NotFound("no stored batch for day " + std::to_string(day));
  }
  return &it->second;
}

void DayStore::Prune(Day oldest_needed) {
  days_.erase(days_.begin(), days_.lower_bound(oldest_needed));
  Recount();
}

void DayStore::Recount() {
  uint64_t bytes = 0;
  for (const auto& [day, grouped] : days_) bytes += grouped.bytes();
  size_.store(days_.size(), std::memory_order_relaxed);
  bytes_.store(bytes, std::memory_order_relaxed);
}

}  // namespace wavekit
