#include "wave/wata_scheme.h"

#include "util/macros.h"

namespace wavekit {

Status WataScheme::ValidateConfig() const {
  WAVEKIT_RETURN_NOT_OK(Scheme::ValidateConfig());
  if (config_.num_indexes < 2) {
    return Status::InvalidArgument(
        "WATA requires at least two constituent indexes (a single index "
        "would never fully expire and grow forever)");
  }
  return Status::OK();
}

Status WataScheme::DoStart() {
  const std::vector<TimeSet> clusters =
      SplitWataWindow(config_.window, config_.num_indexes);
  for (size_t j = 0; j < clusters.size(); ++j) {
    WAVEKIT_ASSIGN_OR_RETURN(
        std::shared_ptr<ConstituentIndex> index,
        BuildIndex(clusters[j], "I" + std::to_string(j + 1), Phase::kStart,
                   static_cast<int>(j)));
    slots_.push_back(std::move(index));
  }
  RegisterSlots();
  last_ = slots_.size() - 1;  // I_n holds day W and receives new days
  return Status::OK();
}

Status WataScheme::DoAdopt() {
  WAVEKIT_RETURN_NOT_OK(Scheme::DoAdopt());
  // New days go to the constituent holding the newest day.
  last_ = 0;
  for (size_t i = 1; i < slots_.size(); ++i) {
    if (*slots_[i]->time_set().rbegin() >
        *slots_[last_]->time_set().rbegin()) {
      last_ = i;
    }
  }
  return Status::OK();
}

Status WataScheme::DoTransition(Day new_day) {
  const Day expired = new_day - config_.window;
  WAVEKIT_ASSIGN_OR_RETURN(size_t j, FindSlotContaining(expired));
  // If the other indexes together cover W-1 (all live) days, every day in
  // I_j has expired: throw it away. Otherwise wait.
  int days_in_others = 0;
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (i != j) days_in_others += static_cast<int>(slots_[i]->time_set().size());
  }
  if (days_in_others == config_.window - 1) {
    // ThrowAway: DropIndex(I_j); I_j <- BuildIndex({new}).
    obs::Span span = TraceOp("WATA.throw_away");
    WAVEKIT_RETURN_NOT_OK(DropIndex(slots_[j]));
    WAVEKIT_ASSIGN_OR_RETURN(
        std::shared_ptr<ConstituentIndex> fresh,
        BuildIndex({new_day}, "I" + std::to_string(j + 1),
                   Phase::kTransition, static_cast<int>(j)));
    slots_[j] = fresh;
    wave_.AddIndex(std::move(fresh));
    last_ = j;
  } else {
    // Wait: append the new day to the last-modified index.
    obs::Span span = TraceOp("WATA.wait");
    WAVEKIT_RETURN_NOT_OK(
        AddToIndex({new_day}, &slots_[last_], Phase::kTransition));
  }
  return Status::OK();
}

}  // namespace wavekit
