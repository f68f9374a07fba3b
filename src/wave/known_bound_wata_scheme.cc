#include "wave/known_bound_wata_scheme.h"

#include <algorithm>

#include "util/logging.h"
#include "util/macros.h"

namespace wavekit {

Status KnownBoundWataScheme::ValidateConfig() const {
  WAVEKIT_RETURN_NOT_OK(Scheme::ValidateConfig());
  if (config_.num_indexes < 2) {
    return Status::InvalidArgument(
        "KB-WATA, like WATA, requires at least two constituent indexes");
  }
  if (config_.size_bound_entries == 0) {
    return Status::InvalidArgument(
        "KB-WATA requires size_bound_entries > 0 (the known bound B)");
  }
  return Status::OK();
}

uint64_t KnownBoundWataScheme::SliceBound() const {
  const uint64_t parts = static_cast<uint64_t>(config_.num_indexes) - 1;
  return (config_.size_bound_entries + parts - 1) / parts;
}

Status KnownBoundWataScheme::DoStart() {
  // Fill constituents greedily by the size slice: start a new one whenever
  // the current one would exceed B/(n-1) entries.
  const uint64_t slice = SliceBound();
  TimeSet cluster;
  uint64_t cluster_entries = 0;
  auto flush = [&]() -> Status {
    if (cluster.empty()) return Status::OK();
    WAVEKIT_ASSIGN_OR_RETURN(
        std::shared_ptr<ConstituentIndex> index,
        BuildIndex(cluster, "I" + std::to_string(++next_name_), Phase::kStart));
    slots_.push_back(std::move(index));
    cluster.clear();
    cluster_entries = 0;
    return Status::OK();
  };
  for (Day d = 1; d <= config_.window; ++d) {
    WAVEKIT_ASSIGN_OR_RETURN(const GroupedDay* batch, env_.day_store->Get(d));
    // Close a slice only once it has REACHED the threshold (allowing slight
    // overshoot): under-full slices would mean more than n-1 slices per
    // window, breaking the n/(n-1) bound.
    if (cluster_entries >= slice) {
      WAVEKIT_RETURN_NOT_OK(flush());
    }
    cluster.insert(d);
    cluster_entries += batch->EntryCount();
  }
  WAVEKIT_RETURN_NOT_OK(flush());
  RegisterSlots();
  return Status::OK();
}

Status KnownBoundWataScheme::DropFullyExpired() {
  const Day oldest_live = current_day_ - config_.window + 1;
  for (size_t j = 0; j < slots_.size();) {
    const TimeSet& days = slots_[j]->time_set();
    if (!days.empty() && *days.rbegin() < oldest_live) {
      WAVEKIT_RETURN_NOT_OK(DropIndex(slots_[j]));
      slots_.erase(slots_.begin() + static_cast<long>(j));
    } else {
      ++j;
    }
  }
  return Status::OK();
}

Status KnownBoundWataScheme::DoAdopt() {
  // KB-WATA's constituent count varies with the data (it is only bounded by
  // n), so the base slot-count check does not apply. Slots are already
  // sorted oldest-first; the back one is the fill target. Name continuation:
  // start numbering past the adopted count.
  if (static_cast<int>(slots_.size()) > config_.num_indexes) {
    return Status::InvalidArgument(
        "adopted wave index has more constituents than n");
  }
  next_name_ = static_cast<int>(slots_.size());
  return Status::OK();
}

Status KnownBoundWataScheme::DoTransition(Day new_day) {
  WAVEKIT_RETURN_NOT_OK(DropFullyExpired());
  const uint64_t slice = SliceBound();
  std::shared_ptr<ConstituentIndex>* fill =
      slots_.empty() ? nullptr : &slots_.back();
  // Roll once the filling constituent has reached its slice (slices may
  // overshoot by one day but are never under-full, which keeps the live
  // constituent count at <= n for any volume stream within the bound B).
  const bool fill_full = fill != nullptr && (*fill)->entry_count() >= slice;
  const bool slot_free =
      static_cast<int>(slots_.size()) < config_.num_indexes;
  if (fill == nullptr || (fill_full && slot_free)) {
    obs::Span span = TraceOp("KB-WATA.new_slice");
    WAVEKIT_ASSIGN_OR_RETURN(
        std::shared_ptr<ConstituentIndex> fresh,
        BuildIndex({new_day}, "I" + std::to_string(++next_name_),
                   Phase::kTransition));
    slots_.push_back(fresh);
    wave_.AddIndex(std::move(fresh));
  } else {
    obs::Span span = TraceOp("KB-WATA.fill_slice");
    if (fill_full) {
      // The promised bound was optimistic: degrade gracefully rather than
      // fail, as a production system must.
      WAVEKIT_LOG(Warning) << "KB-WATA: size bound exceeded with all "
                           << config_.num_indexes
                           << " constituents in use; appending past the slice";
    }
    WAVEKIT_RETURN_NOT_OK(
        AddToIndex({new_day}, fill, Phase::kTransition));
  }
  return Status::OK();
}

}  // namespace wavekit
