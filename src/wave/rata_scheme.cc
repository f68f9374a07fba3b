#include "wave/rata_scheme.h"

#include "util/macros.h"

namespace wavekit {

Status RataScheme::ValidateConfig() const {
  WAVEKIT_RETURN_NOT_OK(Scheme::ValidateConfig());
  if (config_.num_indexes < 2) {
    return Status::InvalidArgument(
        "RATA, like WATA, requires at least two constituent indexes");
  }
  return Status::OK();
}

Status RataScheme::InitializeLadder(const TimeSet& days, Phase phase) {
  for (auto& temp : temps_) {
    if (temp != nullptr) WAVEKIT_RETURN_NOT_OK(DropIndex(temp));
  }
  temps_.clear();
  temp_used_ = 0;
  if (days.empty()) return Status::OK();

  std::vector<Day> descending(days.rbegin(), days.rend());
  WAVEKIT_ASSIGN_OR_RETURN(std::shared_ptr<ConstituentIndex> rung,
                           BuildIndex({descending[0]}, "T1", phase));
  temps_.push_back(rung);
  for (size_t i = 1; i < descending.size(); ++i) {
    WAVEKIT_ASSIGN_OR_RETURN(
        std::shared_ptr<ConstituentIndex> next,
        CopyIndex(*temps_.back(), "T" + std::to_string(i + 1), phase));
    WAVEKIT_RETURN_NOT_OK(AddToIndex({descending[i]}, &next, phase));
    temps_.push_back(std::move(next));
  }
  temp_used_ = static_cast<int>(descending.size());
  return Status::OK();
}

Status RataScheme::DoStart() {
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
  last_ = slots_.size() - 1;
  // Prepare the ladder for the first cluster (minus day 1, expiring first).
  TimeSet init_days = slots_[0]->time_set();
  init_days.erase(init_days.begin());
  return InitializeLadder(init_days, Phase::kStart);
}

Status RataScheme::DoAdopt() {
  WAVEKIT_RETURN_NOT_OK(Scheme::DoAdopt());
  last_ = 0;
  for (size_t i = 1; i < slots_.size(); ++i) {
    if (*slots_[i]->time_set().rbegin() >
        *slots_[last_]->time_set().rbegin()) {
      last_ = i;
    }
  }
  // Rebuild the suffix ladder for the cluster expiring next.
  WAVEKIT_ASSIGN_OR_RETURN(
      size_t j, FindSlotContaining(current_day_ - config_.window + 1));
  TimeSet init_days = slots_[j]->time_set();
  init_days.erase(current_day_ - config_.window + 1);
  return InitializeLadder(init_days, Phase::kPrecompute);
}

Status RataScheme::DoTransition(Day new_day) {
  const Day expired = new_day - config_.window;
  WAVEKIT_ASSIGN_OR_RETURN(size_t j, FindSlotContaining(expired));
  int days_in_others = 0;
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (i != j) days_in_others += static_cast<int>(slots_[i]->time_set().size());
  }
  if (days_in_others == config_.window - 1) {
    // ThrowAway: as in WATA*, then precompute the ladder for the next
    // expiring cluster.
    obs::Span span = TraceOp("RATA.throw_away");
    WAVEKIT_RETURN_NOT_OK(DropIndex(slots_[j]));
    WAVEKIT_ASSIGN_OR_RETURN(
        std::shared_ptr<ConstituentIndex> fresh,
        BuildIndex({new_day}, "I" + std::to_string(j + 1),
                   Phase::kTransition, static_cast<int>(j)));
    slots_[j] = fresh;
    wave_.AddIndex(std::move(fresh));
    last_ = j;
    WAVEKIT_ASSIGN_OR_RETURN(size_t j_next, FindSlotContaining(expired + 1));
    TimeSet init_days = slots_[j_next]->time_set();
    init_days.erase(expired + 1);
    WAVEKIT_RETURN_NOT_OK(InitializeLadder(init_days, Phase::kPrecompute));
  } else {
    // Wait: append the new day to the last-modified index, then simulate the
    // hard window by swapping the expiring constituent for the precomputed
    // suffix that excludes today's expired day.
    obs::Span span = TraceOp("RATA.promote_rung");
    WAVEKIT_RETURN_NOT_OK(
        AddToIndex({new_day}, &slots_[last_], Phase::kTransition));
    if (temp_used_ <= 0) {
      return Status::Internal(
          "RATA ladder exhausted before the cluster fully expired");
    }
    std::shared_ptr<ConstituentIndex> promoted =
        std::move(temps_[static_cast<size_t>(temp_used_ - 1)]);
    temps_[static_cast<size_t>(temp_used_ - 1)] = nullptr;
    --temp_used_;
    promoted->set_name(slots_[j]->name());
    LogRename(*promoted);
    if (config_.technique == UpdateTechniqueKind::kPackedShadow) {
      WAVEKIT_RETURN_NOT_OK(PackIndex(&promoted, Phase::kTransition));
    }
    WAVEKIT_RETURN_NOT_OK(DropIndex(slots_[j]));
    slots_[j] = promoted;
    wave_.AddIndex(std::move(promoted));
  }
  return Status::OK();
}

std::vector<const ConstituentIndex*> RataScheme::TemporaryIndexes() const {
  std::vector<const ConstituentIndex*> out;
  for (const auto& temp : temps_) {
    if (temp != nullptr) out.push_back(temp.get());
  }
  return out;
}

}  // namespace wavekit
