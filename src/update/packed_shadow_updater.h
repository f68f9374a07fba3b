// PackedShadowUpdater: Section 2.1's packed shadow updating.

#ifndef WAVEKIT_UPDATE_PACKED_SHADOW_UPDATER_H_
#define WAVEKIT_UPDATE_PACKED_SHADOW_UPDATER_H_

#include "update/update_technique.h"

namespace wavekit {

/// \brief Produces a packed replacement index in one pass.
///
/// Exactly the paper's procedure: (1) build a temporary packed index of the
/// inserted records; (2) scan the old index's buckets, copying them to a new
/// contiguous location while dropping entries with expired timestamps and
/// leaving exactly enough room for the inserts; (3) scan the temporary index
/// appending its buckets into the reserved room (values not present in the
/// old index get fresh buckets after the last old bucket); (4) swap the new
/// index in. The result is packed, so subsequent SegmentScans are a single
/// sequential sweep. Steps 2 and 3 end in IndexBuilder::WritePacked, the
/// writer packed builds use, so a failed write frees the new region and
/// leaves the old index serving.
class PackedShadowUpdater : public Updater {
 public:
  UpdateTechniqueKind kind() const override {
    return UpdateTechniqueKind::kPackedShadow;
  }
  Status Apply(std::shared_ptr<ConstituentIndex>* index,
               std::span<const DayBatch* const> adds,
               const TimeSet& deletes) override;
};

}  // namespace wavekit

#endif  // WAVEKIT_UPDATE_PACKED_SHADOW_UPDATER_H_
