#include "wave/del_scheme.h"

#include "util/macros.h"

namespace wavekit {

Status DelScheme::DoStart() {
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

Status DelScheme::DoTransition(Day new_day) {
  const Day expired = new_day - config_.window;
  WAVEKIT_ASSIGN_OR_RETURN(size_t j, FindSlotContaining(expired));
  switch (config_.technique) {
    case UpdateTechniqueKind::kInPlace: {
      // The delete does not need the new day's data: it runs as
      // pre-computation; the add is the transition critical path.
      obs::Span span = TraceOp("DEL.in_place");
      WAVEKIT_RETURN_NOT_OK(
          DeleteFromIndex({expired}, &slots_[j], Phase::kPrecompute));
      WAVEKIT_RETURN_NOT_OK(
          AddToIndex({new_day}, &slots_[j], Phase::kTransition));
      break;
    }
    case UpdateTechniqueKind::kSimpleShadow: {
      obs::Span span = TraceOp("DEL.simple_shadow");
      // Shadow copy + delete as pre-computation; when the new data arrives,
      // add it to the shadow and swap (Table 10: pre = X*CP + Del,
      // transition = Add).
      std::shared_ptr<ConstituentIndex> shadow;
      {
        WAVEKIT_ASSIGN_OR_RETURN(
            shadow,
            CopyIndex(*slots_[j], slots_[j]->name(), Phase::kPrecompute));
        WAVEKIT_RETURN_NOT_OK(
            DeleteFromIndex({expired}, &shadow, Phase::kPrecompute));
      }
      WAVEKIT_RETURN_NOT_OK(
          AddToIndex({new_day}, &shadow, Phase::kTransition));
      WAVEKIT_RETURN_NOT_OK(ReplaceSlot(j, std::move(shadow)));
      break;
    }
    case UpdateTechniqueKind::kPackedShadow: {
      // The smart copy merges the insert and drops the expired entries in a
      // single pass; it needs the new data, so everything is transition.
      obs::Span span = TraceOp("DEL.packed_shadow");
      WAVEKIT_RETURN_NOT_OK(UpdateIndex({new_day}, {expired}, &slots_[j],
                                        Phase::kTransition));
      break;
    }
  }
  return Status::OK();
}

}  // namespace wavekit
