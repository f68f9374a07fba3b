// SimpleShadowUpdater: Section 2.1's simple shadow updating.

#ifndef WAVEKIT_UPDATE_SIMPLE_SHADOW_UPDATER_H_
#define WAVEKIT_UPDATE_SIMPLE_SHADOW_UPDATER_H_

#include "update/update_technique.h"

namespace wavekit {

/// \brief Copies the index (the CP operation), applies the update to the
/// copy in place, then swaps the copy in. Queries proceed against the old
/// version during the update, so no concurrency control is needed; the cost
/// is the transient extra space of the shadow and an unpacked result.
class SimpleShadowUpdater : public Updater {
 public:
  UpdateTechniqueKind kind() const override {
    return UpdateTechniqueKind::kSimpleShadow;
  }
  Status Apply(std::shared_ptr<ConstituentIndex>* index,
               std::span<const GroupedDay* const> adds,
               const TimeSet& deletes) override;
};

}  // namespace wavekit

#endif  // WAVEKIT_UPDATE_SIMPLE_SHADOW_UPDATER_H_
