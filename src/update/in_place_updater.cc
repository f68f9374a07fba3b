#include "update/in_place_updater.h"

#include "util/macros.h"

namespace wavekit {

Status InPlaceUpdater::Apply(std::shared_ptr<ConstituentIndex>* index,
                             std::span<const GroupedDay* const> adds,
                             const TimeSet& deletes) {
  ConstituentIndex* idx = index->get();
  WAVEKIT_RETURN_NOT_OK(idx->DeleteDays(deletes));
  for (const GroupedDay* day : adds) {
    WAVEKIT_RETURN_NOT_OK(idx->AddBatch(*day));
  }
  return Status::OK();
}

}  // namespace wavekit
