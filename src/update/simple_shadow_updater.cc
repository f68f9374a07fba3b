#include "update/simple_shadow_updater.h"

#include "util/macros.h"

namespace wavekit {

Status SimpleShadowUpdater::Apply(std::shared_ptr<ConstituentIndex>* index,
                                  std::span<const GroupedDay* const> adds,
                                  const TimeSet& deletes) {
  ConstituentIndex* old_index = index->get();
  // The CP clone is the bulk of the work; it parallelizes across buckets
  // when the owning scheme granted maintenance threads. The in-place
  // mutations below stay serial (they are directory work, not I/O volume).
  WAVEKIT_ASSIGN_OR_RETURN(std::shared_ptr<ConstituentIndex> shadow,
                           old_index->Clone(old_index->name(), parallel_));
  WAVEKIT_RETURN_NOT_OK(shadow->DeleteDays(deletes));
  for (const GroupedDay* day : adds) {
    WAVEKIT_RETURN_NOT_OK(shadow->AddBatch(*day));
  }
  // Swap: the old version lives on until the last query reference drops.
  *index = std::move(shadow);
  return Status::OK();
}

}  // namespace wavekit
