// Scheme: the wave-index maintenance algorithm interface.
//
// A scheme is driven with one Start call (data of the first W days) followed
// by one Transition call per subsequent day, exactly like the Start /
// Transition states of the paper's Appendix A pseudocode. Concrete schemes
// (DEL, REINDEX, REINDEX+, REINDEX++, WATA*, RATA*) express their logic in
// terms of the Section 2.2 primitives exposed by this base class, which are
// metered (device phase attribution) and logged (OpLog) so the benches can
// price each scheme both by simulation and by the paper's analytic model.

#ifndef WAVEKIT_WAVE_SCHEME_H_
#define WAVEKIT_WAVE_SCHEME_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "index/constituent_index.h"
#include "obs/event_journal.h"
#include "obs/trace.h"
#include "storage/metered_device.h"
#include "util/clock.h"
#include "update/update_technique.h"
#include "wave/day_store.h"
#include "wave/op_log.h"
#include "wave/wave_index.h"

namespace wavekit {

/// \brief Which maintenance algorithm to use.
enum class SchemeKind {
  kDel,
  kReindex,
  kReindexPlus,
  kReindexPlusPlus,
  kWata,
  kRata,
  kKnownBoundWata,
};

inline constexpr SchemeKind kAllSchemeKinds[] = {
    SchemeKind::kDel,          SchemeKind::kReindex,
    SchemeKind::kReindexPlus,  SchemeKind::kReindexPlusPlus,
    SchemeKind::kWata,         SchemeKind::kRata,
};

const char* SchemeKindName(SchemeKind kind);

/// \brief Static configuration of a wave index.
struct SchemeConfig {
  /// Window size in days (W >= 1).
  int window = 7;
  /// Number of constituent indexes (1 <= n <= W; WATA-family needs n >= 2).
  int num_indexes = 1;
  /// How constituent indexes are updated incrementally (Section 2.1).
  UpdateTechniqueKind technique = UpdateTechniqueKind::kSimpleShadow;
  /// CONTIGUOUS growth parameters [FJ92].
  GrowthPolicy growth;
  /// KB-WATA only: known upper bound on the total entries of any W-day
  /// window (the future knowledge Kleinberg et al. [KMRV97] assume). Must be
  /// > 0 for SchemeKind::kKnownBoundWata; ignored by every other scheme.
  uint64_t size_bound_entries = 0;
  /// Verify each bucket's CRC-32C on every read path (see
  /// ConstituentIndex::Options::verify_checksums). Checksums are maintained
  /// either way; disabling only skips read-path verification.
  bool verify_checksums = true;
  /// Bucket codec policy for packed builds (index/codec.h). kRaw (the
  /// default) keeps every on-device layout byte-identical to pre-codec
  /// builds; kAuto stores a bucket as bit-packed when that is strictly
  /// smaller than raw. Applies to every scheme's packed builds, shadow
  /// applies, clones, and HealUnhealthy rebuilds via Scheme::IndexOptions().
  CodecMode codec = CodecMode::kRaw;
};

/// \brief Bounded exponential backoff for transient I/O errors inside the
/// Section 2.2 maintenance primitives. The default (one attempt) disables
/// retrying. Only all-or-nothing primitives are retried (packed builds,
/// clones, shadow updates): their failure paths free every extent they
/// touched, so a second attempt starts clean. Injected crashes
/// (util/crash_point.h) are never retried — a crashed process does not get
/// another attempt.
struct RetryPolicy {
  /// Total attempts per primitive (1 = no retry).
  int max_attempts = 1;
  /// Sleep before the first retry; doubles (capped) for each further one.
  uint64_t initial_backoff_us = 100;
  uint64_t max_backoff_us = 10'000;
};

/// \brief Counters of the retry/degradation machinery (relaxed-atomic
/// snapshots; see Scheme::fault_stats).
struct FaultStats {
  /// Transient I/O errors observed inside retryable primitives.
  uint64_t transient_io_errors = 0;
  /// Retry attempts performed after such errors.
  uint64_t retries = 0;
  /// Primitives that still failed after the final attempt.
  uint64_t retries_exhausted = 0;
  /// Constituents marked unhealthy after a failed update or transition.
  uint64_t constituents_marked_unhealthy = 0;
};

/// \brief Everything a scheme operates on. All pointers must outlive the
/// scheme.
struct SchemeEnv {
  SchemeEnv() = default;
  SchemeEnv(MeteredDevice* device_in, ExtentAllocator* allocator_in,
            DayStore* day_store_in)
      : device(device_in), allocator(allocator_in), day_store(day_store_in) {}

  MeteredDevice* device = nullptr;
  ExtentAllocator* allocator = nullptr;
  DayStore* day_store = nullptr;

  /// Optional: when set, constituent indexes perform their I/O through this
  /// device instead of `device` — e.g. a ShardedCachedDevice layered ABOVE
  /// the meter, so cached probe hits are not charged seek/transfer costs.
  /// Phase attribution (PhaseScope) still targets `device`; `io_device` must
  /// wrap it (or its inner device) and outlive the scheme. Applies to the
  /// default disk only; ignored for indexes placed on `disks`.
  Device* io_device = nullptr;

  /// Optional: when set, every Section 2.2 primitive (BuildIndex,
  /// AddToIndex, DropIndex, ...) and each scheme's transition branch emits a
  /// span here, nested under whatever span the caller (e.g.
  /// WaveService::AdvanceDay) has open. Must outlive the scheme.
  obs::Tracer* tracer = nullptr;

  /// Optional: when set, retry attempts inside maintenance primitives are
  /// journaled as obs::EventType::kRetry events (op name, attempt number,
  /// error text). Must outlive the scheme.
  obs::EventJournal* events = nullptr;

  /// Retry behaviour for transient I/O errors inside maintenance primitives.
  RetryPolicy retry;

  /// Optional: shared integrity counters threaded into every constituent
  /// this scheme creates (checksum verifications, corruption detections,
  /// quarantines). Must outlive the scheme.
  IntegrityStats* integrity = nullptr;

  /// Optional: when set, every retry backoff sleep is recorded here (in
  /// microseconds) — exported as the wavekit_retry_backoff_seconds
  /// histogram. Must outlive the scheme.
  class ConcurrentHistogram* retry_backoff_us = nullptr;

  /// Time source for retry backoff sleeps. Defaults to the wall clock; the
  /// deterministic simulation harness injects a SimClock so backoff advances
  /// virtual time instead of stalling the run. Must outlive the scheme.
  Clock* clock = nullptr;

  /// Maintenance parallelism. When `maintenance.enabled()`, the Section 2.2
  /// primitives fan their bulk work out on this pool: packed builds group
  /// and write concurrently with batched writes, CP clones copy bucket
  /// ranges in parallel, shadow flushes batch their output, and REINDEX++
  /// builds its ladder temporaries concurrently. The default (no pool) runs
  /// the exact serial code paths, reproducing the paper's cost model
  /// byte-for-byte. The pool must outlive the scheme, and the thread calling
  /// Start/Transition must not be one of its workers (WaitGroup contract).
  ParallelContext maintenance;

  /// \brief One disk of a multi-disk deployment.
  struct Disk {
    MeteredDevice* device = nullptr;
    ExtentAllocator* allocator = nullptr;
  };
  /// When non-empty, newly built indexes are placed round-robin across these
  /// disks (paper Section 8: parallel indexing and querying, no contention
  /// between building and serving). When empty, everything lives on
  /// `device`/`allocator`.
  std::vector<Disk> disks;
};

/// \brief Base class of all wave-index maintenance schemes.
class Scheme {
 public:
  Scheme(SchemeEnv env, SchemeConfig config);
  virtual ~Scheme() = default;

  Scheme(const Scheme&) = delete;
  Scheme& operator=(const Scheme&) = delete;

  virtual SchemeKind kind() const = 0;
  virtual std::string_view name() const = 0;

  /// True for schemes that index exactly the last W days after every
  /// transition; false for soft-window (WATA-family) schemes.
  virtual bool hard_window() const = 0;

  /// Scheme-specific configuration validation (e.g. WATA needs n >= 2).
  virtual Status ValidateConfig() const;

  /// Builds the initial wave index from the batches of days 1..W (must be
  /// exactly W batches with days 1..W in order). Call once.
  Status Start(std::vector<DayBatch> first_window);

  /// Incorporates a new day (must be current_day() + 1) and expires data per
  /// the scheme's policy.
  Status Transition(DayBatch new_day);

  /// Resumes maintenance over an EXISTING wave index (e.g. one reloaded via
  /// wave/checkpoint.h) instead of building from scratch. `wave` must cover
  /// the window ending at `current_day` (exactly, for hard-window schemes;
  /// at least, for the WATA family). Call instead of Start.
  ///
  /// Schemes that re-index (REINDEX family, RATA) additionally need the day
  /// batches of the current window Put into the DayStore beforehand; they
  /// rebuild their temporary-index state from them. Mid-rotation adoption is
  /// supported: auxiliary state is reconstructed conservatively, so the few
  /// transitions after adoption may do slightly more work than an
  /// uninterrupted run, but serve exactly the same window.
  Status Adopt(WaveIndex wave, Day current_day);

  /// The queryable wave index.
  const WaveIndex& wave() const { return wave_; }
  WaveIndex& wave() { return wave_; }

  /// Most recent day incorporated (W after Start).
  Day current_day() const { return current_day_; }

  /// True after a Transition failed partway: slot state may mix old and new
  /// clusters, so further Transitions are refused until the index is
  /// reloaded from its last checkpoint and re-adopted (wave/recovery.h). The
  /// wave itself stays queryable — failed updates never mutate registered
  /// constituents in place.
  bool needs_recovery() const { return needs_recovery_; }

  /// Snapshot of the retry/degradation counters (thread-safe).
  FaultStats fault_stats() const;

  /// \brief Outcome of one HealUnhealthy pass.
  struct HealReport {
    /// Constituents rebuilt from segment data and swapped back in healthy.
    int healed = 0;
    /// Unhealthy constituents left alone because the day store no longer
    /// holds all their source days (production prunes aggressively; the
    /// operator must restore from a replica or accept degraded serving).
    int skipped = 0;
    std::vector<std::string> healed_names;
  };

  /// Online self-healing: rebuilds every unhealthy (typically quarantined-
  /// corrupt) constituent from the surviving segment data in the day store
  /// — the paper's BuildIndex over the slot's cluster — and swaps it into
  /// the slot. The old object is destroyed when the last query snapshot
  /// releases it; queries keep serving throughout (degraded until the
  /// caller republishes). Slot-stable placement: constituent j is rebuilt
  /// on disk j. Journals heal_start/heal_complete per constituent. Refused
  /// while needs_recovery() — run recovery first.
  Result<HealReport> HealUnhealthy();

  const SchemeConfig& config() const { return config_; }
  const OpLog& op_log() const { return op_log_; }
  OpLog& op_log() { return op_log_; }

  /// Temporary indexes currently held (for space accounting); not queryable.
  virtual std::vector<const ConstituentIndex*> TemporaryIndexes() const {
    return {};
  }

  /// Total days across constituents: the wave-index "length" of Appendix B.
  int WaveLength() const { return wave_.TotalDays(); }

  /// Device bytes used by constituents / temporaries right now.
  uint64_t ConstituentBytes() const { return wave_.AllocatedBytes(); }
  uint64_t TemporaryBytes() const;

  /// Oldest day any future operation of this scheme may need from the
  /// DayStore (the driver may Prune everything older).
  virtual Day OldestDayNeeded() const;

 protected:
  virtual Status DoStart() = 0;
  virtual Status DoTransition(Day new_day) = 0;

  /// Rebuilds scheme-specific auxiliary state after Adopt populated slots_
  /// and wave_. The default accepts any adopted wave whose slot count equals
  /// config_.num_indexes; schemes with temporaries or cursors override.
  virtual Status DoAdopt();

  // --- Logged & metered Section 2.2 primitives -------------------------------

  /// BuildIndex(Days): packed build over the stored batches of `days`.
  /// `placement_hint` >= 0 pins the index to disk (hint % #disks) in
  /// multi-disk deployments (slot-stable placement keeps constituent j on
  /// disk j across rebuilds); -1 places round-robin.
  Result<std::shared_ptr<ConstituentIndex>> BuildIndex(const TimeSet& days,
                                                       std::string name,
                                                       Phase phase,
                                                       int placement_hint = -1);

  /// AddToIndex(Days, I): incremental add via the configured technique.
  /// `*index` may be replaced (shadow techniques).
  Status AddToIndex(const TimeSet& days,
                    std::shared_ptr<ConstituentIndex>* index, Phase phase);

  /// DeleteFromIndex(Days, I): incremental delete via the configured
  /// technique. `*index` may be replaced.
  Status DeleteFromIndex(const TimeSet& days,
                         std::shared_ptr<ConstituentIndex>* index, Phase phase);

  /// Combined add + delete in one pass of the configured technique (one
  /// shadow copy / one smart copy instead of two).
  Status UpdateIndex(const TimeSet& add_days, const TimeSet& delete_days,
                     std::shared_ptr<ConstituentIndex>* index, Phase phase);

  /// Repacks `*index` via a smart copy (packed shadow with no adds or
  /// deletes). Schemes call this before promoting an incrementally built
  /// index when the configured technique is packed shadow.
  Status PackIndex(std::shared_ptr<ConstituentIndex>* index, Phase phase);

  /// Whole-index copy (the "I_j <- Temp" of REINDEX+/REINDEX++): clones
  /// `source` under `name`.
  Result<std::shared_ptr<ConstituentIndex>> CopyIndex(
      const ConstituentIndex& source, std::string name, Phase phase);

  /// Destroys `index`, reclaiming its space; removes it from the wave index
  /// first if it is a constituent. Logged as a (cheap) DropIndex.
  Status DropIndex(const std::shared_ptr<ConstituentIndex>& index);

  /// Logs a free rename (temporary promoted to constituent).
  void LogRename(const ConstituentIndex& index);

  /// Runs `body` under env_.retry: transient IOErrors are retried with
  /// bounded exponential backoff; injected crashes and non-I/O errors return
  /// immediately. Callers must pass an all-or-nothing `body` (safe to
  /// re-run after failure).
  Status RetryTransient(std::string_view op, const std::function<Status()>& body);

  /// Marks `index` unhealthy (degraded-mode serving) and counts it. Safe to
  /// call with an index shared with published snapshots.
  void MarkUnhealthy(ConstituentIndex* index);

  /// A span on env_.tracer (inert when no tracer is configured). The Section
  /// 2.2 primitives above call this with their operation name; schemes use it
  /// to mark which transition branch ran (e.g. "WATA.throw_away").
  obs::Span TraceOp(std::string_view name) const;

  /// Collects the grouped days of `days` from the day store.
  Result<std::vector<const GroupedDay*>> GetBatches(const TimeSet& days) const;

  /// Splits days 1..W into n clusters; the first W mod n clusters get
  /// ceil(W/n) days, the rest floor(W/n) (DEL/REINDEX Start, Appendix A).
  static std::vector<TimeSet> SplitWindow(int window, int num_indexes);

  /// WATA* Start split: days 1..W-1 over the first n-1 clusters (ceil/floor
  /// as above), day W alone in the last cluster (Appendix A, Figure 16).
  static std::vector<TimeSet> SplitWataWindow(int window, int num_indexes);

  ConstituentIndex::Options IndexOptions() const;

  /// The disk the next new index goes to (round-robin over env_.disks, or
  /// the primary device when no disk array is configured). A non-negative
  /// `placement_hint` selects disk (hint % #disks) deterministically.
  SchemeEnv::Disk NextDisk(int placement_hint = -1);

  /// The device a constituent placed on `disk` should do its I/O through:
  /// env_.io_device for the primary disk when configured, the disk's own
  /// metered device otherwise.
  Device* IoDeviceFor(const SchemeEnv::Disk& disk) const;

  /// A fresh, empty index on the next disk.
  std::shared_ptr<ConstituentIndex> NewEmptyIndex(std::string name);

  /// Every metered device the scheme touches (primary + disk array), for
  /// phase attribution.
  std::vector<MeteredDevice*> AllDevices() const;

  /// Index of the slot whose time-set contains `day`.
  Result<size_t> FindSlotContaining(Day day) const;

  /// Replaces slot `j` (and its wave-index registration) with `with`. The
  /// previous index is destroyed when its last reference drops.
  Status ReplaceSlot(size_t j, std::shared_ptr<ConstituentIndex> with);

  /// Registers every current slot as a wave-index constituent (end of Start).
  void RegisterSlots();

  /// The constituent slots I_1..I_n (index 0-based).
  std::vector<std::shared_ptr<ConstituentIndex>> slots_;

  SchemeEnv env_;
  SchemeConfig config_;
  WaveIndex wave_;
  OpLog op_log_;
  Day current_day_ = 0;
  size_t next_disk_ = 0;
  std::unique_ptr<Updater> updater_;
  bool started_ = false;
  bool needs_recovery_ = false;

  // Fault/retry counters (atomic: metrics callbacks read them from exporter
  // threads while the maintenance thread writes).
  std::atomic<uint64_t> transient_io_errors_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> retries_exhausted_{0};
  std::atomic<uint64_t> marked_unhealthy_{0};
};

namespace internal {

/// Mutation-test hook for the deterministic simulation harness: when
/// enabled, Scheme::Transition silently SKIPS the scheme's DoTransition on
/// every third day while still claiming success — a deliberate
/// sliding-window-invariant bug. The harness's acceptance test flips this on
/// and asserts the oracle cross-checks catch it within a bounded number of
/// episodes for every scheme. Never enabled in production code paths.
void SetWindowInvariantMutationForTesting(bool enabled);
bool WindowInvariantMutationForTesting();

}  // namespace internal

}  // namespace wavekit

#endif  // WAVEKIT_WAVE_SCHEME_H_
