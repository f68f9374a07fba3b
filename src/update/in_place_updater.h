// InPlaceUpdater: Section 2.1's in-place updating.

#ifndef WAVEKIT_UPDATE_IN_PLACE_UPDATER_H_
#define WAVEKIT_UPDATE_IN_PLACE_UPDATER_H_

#include "update/update_technique.h"

namespace wavekit {

/// \brief Mutates the index directly: CONTIGUOUS appends for inserts,
/// bucket compaction/shrink for deletes. Cheapest in space (no copy), but in
/// a live system requires concurrency control; the resulting index is not
/// packed.
class InPlaceUpdater : public Updater {
 public:
  UpdateTechniqueKind kind() const override {
    return UpdateTechniqueKind::kInPlace;
  }
  Status Apply(std::shared_ptr<ConstituentIndex>* index,
               std::span<const GroupedDay* const> adds,
               const TimeSet& deletes) override;
};

}  // namespace wavekit

#endif  // WAVEKIT_UPDATE_IN_PLACE_UPDATER_H_
