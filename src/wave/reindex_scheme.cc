#include "wave/reindex_scheme.h"

#include "util/macros.h"

namespace wavekit {

Status ReindexScheme::DoStart() {
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
  return Status::OK();
}

Status ReindexScheme::DoTransition(Day new_day) {
  const Day expired = new_day - config_.window;
  WAVEKIT_ASSIGN_OR_RETURN(size_t j, FindSlotContaining(expired));
  // Days[j] <- Days[j] - {expired} + {new}; rebuild the cluster from scratch.
  obs::Span span = TraceOp("REINDEX.rebuild_cluster");
  TimeSet days = slots_[j]->time_set();
  days.erase(expired);
  days.insert(new_day);
  WAVEKIT_ASSIGN_OR_RETURN(
      std::shared_ptr<ConstituentIndex> rebuilt,
      BuildIndex(days, slots_[j]->name(), Phase::kTransition,
                 static_cast<int>(j)));
  WAVEKIT_RETURN_NOT_OK(ReplaceSlot(j, std::move(rebuilt)));
  return Status::OK();
}

}  // namespace wavekit
