// Update techniques (paper Section 2.1): how a batch of adds/deletes is
// applied to a constituent index.
//
//  - In-place:       mutate the live index directly (needs concurrency
//                    control in a real deployment; result not packed).
//  - Simple shadow:  copy the index, mutate the copy in place, swap. Queries
//                    keep using the old version meanwhile; result not packed.
//  - Packed shadow:  build a temporary index of the inserts, then scan-copy
//                    the old index dropping expired entries and leaving exact
//                    room for the inserts; swap. Result is packed.

#ifndef WAVEKIT_UPDATE_UPDATE_TECHNIQUE_H_
#define WAVEKIT_UPDATE_UPDATE_TECHNIQUE_H_

#include <memory>
#include <span>

#include "index/constituent_index.h"
#include "index/grouped_day.h"
#include "index/record.h"
#include "util/day.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace wavekit {

enum class UpdateTechniqueKind {
  kInPlace,
  kSimpleShadow,
  kPackedShadow,
};

const char* UpdateTechniqueKindName(UpdateTechniqueKind kind);

/// \brief Strategy applying batched day adds/deletes to a constituent index.
///
/// Shadow techniques replace `*index` with a fresh index; the old one is
/// released (and its space reclaimed) when the last reference drops, which
/// lets in-flight queries finish against the old version.
class Updater {
 public:
  virtual ~Updater() = default;

  virtual UpdateTechniqueKind kind() const = 0;

  /// Applies one combined update: insert all entries of `adds` and delete
  /// all entries whose day is in `deletes`. Either side may be empty.
  virtual Status Apply(std::shared_ptr<ConstituentIndex>* index,
                       std::span<const GroupedDay* const> adds,
                       const TimeSet& deletes) = 0;

  /// Adapter for callers that hold DayBatches: each batch goes through
  /// GroupedDay::From, then the Apply above.
  Status Apply(std::shared_ptr<ConstituentIndex>* index,
               std::span<const DayBatch* const> adds, const TimeSet& deletes) {
    return Apply(index, GroupedBatches(adds).days(), deletes);
  }

  /// AddToIndex (Section 2.2) via this technique.
  Status AddDays(std::shared_ptr<ConstituentIndex>* index,
                 std::span<const DayBatch* const> adds) {
    return Apply(index, adds, TimeSet{});
  }

  /// DeleteFromIndex (Section 2.2) via this technique.
  Status DeleteDays(std::shared_ptr<ConstituentIndex>* index,
                    const TimeSet& deletes) {
    return Apply(index, std::span<const GroupedDay* const>(), deletes);
  }

  /// Parallelism the shadow stages (temporary build, CP clone, scan-copy
  /// flush) may use. Set by the owning Scheme from its maintenance pool; the
  /// default context keeps the exact serial code paths (cost-model runs).
  void set_parallel(const ParallelContext& parallel) { parallel_ = parallel; }
  const ParallelContext& parallel() const { return parallel_; }

 protected:
  ParallelContext parallel_;
};

/// Factory for the given technique.
std::unique_ptr<Updater> MakeUpdater(UpdateTechniqueKind kind);

}  // namespace wavekit

#endif  // WAVEKIT_UPDATE_UPDATE_TECHNIQUE_H_
