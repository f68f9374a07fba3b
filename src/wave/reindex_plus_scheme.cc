#include "wave/reindex_plus_scheme.h"

#include "util/macros.h"

namespace wavekit {

Status ReindexPlusScheme::DoStart() {
  const std::vector<TimeSet> clusters =
      SplitWindow(config_.window, config_.num_indexes);
  for (size_t j = 0; j < clusters.size(); ++j) {
    WAVEKIT_ASSIGN_OR_RETURN(
        std::shared_ptr<ConstituentIndex> index,
        BuildIndex(clusters[j], "I" + std::to_string(j + 1), Phase::kStart,
                   static_cast<int>(j)));
    slots_.push_back(std::move(index));
  }
  RegisterSlots();
  // Temp <- phi.
  temp_.reset();
  days_to_add_.clear();
  return Status::OK();
}

Status ReindexPlusScheme::PromoteCopyOfTemp(size_t j,
                                            const TimeSet& extra_days) {
  WAVEKIT_ASSIGN_OR_RETURN(
      std::shared_ptr<ConstituentIndex> replacement,
      CopyIndex(*temp_, slots_[j]->name(), Phase::kTransition));
  WAVEKIT_RETURN_NOT_OK(
      AddToIndex(extra_days, &replacement, Phase::kTransition));
  if (config_.technique == UpdateTechniqueKind::kPackedShadow) {
    WAVEKIT_RETURN_NOT_OK(PackIndex(&replacement, Phase::kTransition));
  }
  return ReplaceSlot(j, std::move(replacement));
}

Status ReindexPlusScheme::DoTransition(Day new_day) {
  const Day expired = new_day - config_.window;
  WAVEKIT_ASSIGN_OR_RETURN(size_t j, FindSlotContaining(expired));

  if (temp_ == nullptr) {
    if (slots_[j]->time_set().size() == 1) {
      // Degenerate single-day cluster: Temp cannot save anything; rebuild
      // directly (equivalent to REINDEX for this cluster).
      obs::Span span = TraceOp("REINDEX+.rebuild_single_day");
      WAVEKIT_ASSIGN_OR_RETURN(
          std::shared_ptr<ConstituentIndex> rebuilt,
          BuildIndex({new_day}, slots_[j]->name(), Phase::kTransition));
      WAVEKIT_RETURN_NOT_OK(ReplaceSlot(j, std::move(rebuilt)));
    } else {
      // First day of a cluster rotation: Temp, I_j <- BuildIndex(d_new);
      // AddToIndex(DaysToAdd, I_j).
      obs::Span span = TraceOp("REINDEX+.start_rotation");
      days_to_add_ = slots_[j]->time_set();
      days_to_add_.erase(expired);
      WAVEKIT_ASSIGN_OR_RETURN(
          temp_, BuildIndex({new_day}, "Temp", Phase::kTransition));
      WAVEKIT_RETURN_NOT_OK(PromoteCopyOfTemp(j, days_to_add_));
    }
  } else if (days_to_add_.empty()) {
    // Last day of the rotation: I_j <- Temp; AddToIndex(d_new, I_j);
    // Temp <- phi.
    obs::Span span = TraceOp("REINDEX+.finish_rotation");
    WAVEKIT_RETURN_NOT_OK(PromoteCopyOfTemp(j, {new_day}));
    WAVEKIT_RETURN_NOT_OK(DropIndex(temp_));
    temp_.reset();
  } else {
    // Middle of the rotation: AddToIndex(d_new, Temp); I_j <- Temp;
    // AddToIndex(DaysToAdd, I_j).
    obs::Span span = TraceOp("REINDEX+.mid_rotation");
    WAVEKIT_RETURN_NOT_OK(
        AddToIndex({new_day}, &temp_, Phase::kTransition));
    WAVEKIT_RETURN_NOT_OK(PromoteCopyOfTemp(j, days_to_add_));
  }

  // DaysToAdd <- DaysToAdd - {new - W + 1}: the day expiring tomorrow no
  // longer needs re-adding.
  days_to_add_.erase(expired + 1);
  return Status::OK();
}

Status ReindexPlusScheme::DoAdopt() {
  WAVEKIT_RETURN_NOT_OK(Scheme::DoAdopt());
  // Reconstruct Temp and DaysToAdd for the cluster whose rotation is in
  // flight. In any (possibly partially rotated) expiring cluster, the OLD
  // days are those expiring during this rotation — d < min(cluster) +
  // |cluster| — and the rest are recent days Temp had accumulated before the
  // restart.
  const Day oldest = current_day_ - config_.window + 1;
  WAVEKIT_ASSIGN_OR_RETURN(size_t j, FindSlotContaining(oldest));
  const TimeSet& cluster = slots_[j]->time_set();
  const Day old_limit = *cluster.begin() + static_cast<Day>(cluster.size());
  TimeSet recent;
  TimeSet old_rest;  // old days other than tomorrow's expiring one
  for (Day d : cluster) {
    if (d >= old_limit) {
      recent.insert(d);
    } else if (d != oldest) {
      old_rest.insert(d);
    }
  }
  temp_.reset();
  days_to_add_.clear();
  if (!recent.empty()) {
    WAVEKIT_ASSIGN_OR_RETURN(temp_,
                             BuildIndex(recent, "Temp", Phase::kPrecompute));
    days_to_add_ = old_rest;
  }
  return Status::OK();
}

std::vector<const ConstituentIndex*> ReindexPlusScheme::TemporaryIndexes()
    const {
  if (temp_ == nullptr) return {};
  return {temp_.get()};
}

}  // namespace wavekit
