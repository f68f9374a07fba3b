// WaveService: a thread-safe serving wrapper around a wave index.
//
// This operationalizes the paper's shadow-updating story: "queries can be
// serviced using the old index, while the new index is being updated. Hence
// no concurrency control is required." A single maintenance thread calls
// AdvanceDay; any number of query threads probe and scan concurrently. Each
// query runs against an immutable snapshot of the constituent set — shadow
// updates only ever create new ConstituentIndex objects and retire old ones,
// so a snapshot stays valid (and internally consistent) for as long as a
// query holds it.
//
// The read path is concurrent end to end: device reads are lock-free
// (SynchronizedMeteredDevice locks writes only), the optional block cache is
// lock-striped (ShardedCachedDevice), and metrics are relaxed atomics plus a
// lock-free histogram — query threads never share a mutex.

#ifndef WAVEKIT_WAVE_WAVE_SERVICE_H_
#define WAVEKIT_WAVE_WAVE_SERVICE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "util/histogram.h"

#include "obs/event_journal.h"
#include "obs/latency_device.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "storage/device.h"
#include "storage/extent_allocator.h"
#include "storage/sharded_cached_device.h"
#include "storage/synchronized_device.h"
#include "util/clock.h"
#include "util/result.h"
#include "util/thread_pool.h"
#include "wave/day_store.h"
#include "wave/scheme.h"
#include "wave/scrubber.h"
#include "wave/wave_index.h"

namespace wavekit {

/// \brief Concurrent wave-index server: one writer, many readers.
class WaveService {
 public:
  struct Options {
    SchemeKind scheme = SchemeKind::kWata;
    SchemeConfig config;
    uint64_t device_capacity = uint64_t{1} << 30;

    /// Storage backend, by BackendRegistry name: "memory" (default — the
    /// paper's modeled device, and what the deterministic sim harness
    /// requires), "file", "uring", or "mmap". Persistent backends put real
    /// bytes under the same decorator stack (meter, cache, fault seam).
    std::string storage_backend = "memory";

    /// Backing file for persistent backends; ignored by "memory".
    std::string storage_path;

    /// O_DIRECT for "file"/"uring": bypass the page cache so the device's
    /// seek/transfer behaviour is the real disk's. Raises the extent
    /// allocator's default alignment to kDirectIoAlignment.
    bool direct_io = false;

    /// io_uring submission-queue depth for the "uring" backend.
    int io_queue_depth = 64;

    /// Retry behaviour for transient I/O errors inside maintenance
    /// primitives (default: no retries).
    RetryPolicy retry;

    /// Test/chaos seam: when set, called once at construction with the raw
    /// base device (the storage backend); the returned decorator (e.g. a
    /// FaultInjectingDevice) becomes the device the whole stack runs on. The
    /// service owns the decorator; it must not be null.
    std::function<std::unique_ptr<Device>(Device* inner)> device_interposer;

    /// Determinism seam: when set, every internal pool (maintenance
    /// fan-out, async advance runner) is created through this factory
    /// instead of `new ThreadPool(threads)`. The simulation harness supplies
    /// testing::SimExecutor instances so task interleaving is a seeded,
    /// reproducible schedule. `role` is "maintenance" or "advance".
    std::function<std::unique_ptr<ThreadPool>(int threads,
                                              const std::string& role)>
        pool_factory;

    /// Time source for latency histograms and tracer timestamps. Defaults
    /// to the wall clock; the simulation harness injects a SimClock. Must
    /// outlive the service.
    Clock* clock = nullptr;

    /// When > 1, the service owns a maintenance ThreadPool of this many
    /// workers and the scheme's Section 2.2 primitives fan their bulk work
    /// out on it: packed builds partition and write concurrently (with
    /// batched writes), CP clones copy bucket ranges in parallel, and
    /// REINDEX++ builds its ladder temporaries concurrently. 1 (the
    /// default) keeps maintenance fully serial — the exact op-for-op code
    /// paths the paper's cost model meters.
    int num_maintenance_threads = 1;

    /// When > 0, constituent I/O goes through a lock-striped block cache of
    /// this many 4 KiB blocks in 16 shards (ShardedCachedDevice's defaults)
    /// layered above the meter, so hot-bucket hits cost no modeled seeks and
    /// concurrent probes of distinct buckets do not contend. 0 disables
    /// caching.
    size_t cache_blocks = 0;

    /// The registry that owns the service's counters and latency histograms
    /// (instruments()) and polls the state other components own — device
    /// phase counters, cache shard stats, pool depth, fault and integrity
    /// counters, codec gauges. The service registers everything at
    /// construction and unregisters it in its destructor; the registry must
    /// outlive the service. When null, the service owns a private registry.
    obs::MetricsRegistry* metrics_registry = nullptr;

    /// Fraction of AdvanceDay calls traced (root span + child spans for each
    /// maintenance primitive the scheme ran). 0 disables tracing.
    double trace_sample_rate = 0.0;

    /// Completed spans kept in the tracer's in-memory ring.
    size_t trace_ring_capacity = 256;

    /// When > 0, any traced span at least this slow also emits one WARNING
    /// log line.
    uint64_t slow_op_threshold_us = 0;

    /// When true, a LatencyTrackingDevice is stacked under the meter and
    /// records measured wall-clock per-op latency histograms labeled by
    /// phase, plus observed-vs-modeled drift gauges, in the metrics
    /// registry. Most useful on real-disk backends.
    bool track_device_latency = false;

    /// When > 0 (and metrics_registry is set), the service owns a
    /// TimeSeriesCollector sampling the registry at most every this many
    /// microseconds. Samples are taken on the maintenance path (after each
    /// AdvanceDay) via the injected clock — fully deterministic under the
    /// sim harness. Serving deployments that want wall-clock cadence
    /// independent of maintenance set collector_background_thread.
    uint64_t collector_interval_us = 0;
    size_t collector_ring_capacity = 128;
    /// Starts the collector's background sampling thread (never under the
    /// sim harness: thread pacing is wall-clock).
    bool collector_background_thread = false;

    /// When > 0, a background-scrub pass (checksum verification of every
    /// live extent, wave/scrubber.h) runs on the maintenance path after any
    /// successful AdvanceDay once at least this many injected-clock
    /// microseconds have passed since the last pass. Corruption quarantines
    /// the constituent (degraded serving, queries keep answering) and — with
    /// auto_heal — is repaired online immediately. 0 disables periodic
    /// scrubbing; Scrub() always works. A pass reads 1 MiB per batch with
    /// no pause between batches (ScrubOptions' defaults).
    uint64_t scrub_interval_us = 0;

    /// When true, any scrub (periodic or manual) that quarantined
    /// constituents immediately rebuilds them from segment data and
    /// republishes (Scheme::HealUnhealthy) on the same maintenance path.
    bool auto_heal = false;

    /// When > 0, the service owns an EventJournal recording maintenance
    /// lifecycle events (advance start/commit/rollback, retries,
    /// degraded-mode entry/exit) in a ring of this many events.
    size_t event_ring_capacity = 0;
    /// Optional JSONL sink for the event journal (requires
    /// event_ring_capacity > 0).
    std::string event_jsonl_path;
  };

  /// Creates the service. Rejects in-place updating: readers would observe
  /// buckets mutating underneath them (this is exactly the concurrency
  /// control the paper's shadow techniques exist to avoid).
  static Result<std::unique_ptr<WaveService>> Create(Options options);

  ~WaveService();

  // --- Maintenance (single client thread) -----------------------------------
  //
  // Start / AdvanceDay / AdvanceDayAsync / WaitForMaintenance are driven by
  // ONE maintenance client thread; any number of query threads run
  // concurrently with all of them. Transitions themselves may execute on a
  // background runner (AdvanceDayAsync) — an internal mutex serializes them
  // against synchronous AdvanceDay calls.

  /// Builds the initial wave index from days 1..W.
  Status Start(std::vector<DayBatch> first_window);

  /// Incorporates the next day. Readers keep getting answers throughout —
  /// from the pre-transition snapshot until the new one is published.
  Status AdvanceDay(DayBatch new_day);

  /// Queues the transition to run on a background maintenance thread and
  /// returns immediately; queries keep serving the current snapshot until
  /// the new one is atomically published (the same swap AdvanceDay does).
  /// Queued transitions apply strictly in submission order. Failures are
  /// sticky: once one fails, later queued advances are dropped and
  /// WaitForMaintenance reports the first failure.
  void AdvanceDayAsync(DayBatch new_day);

  /// Blocks until every queued async advance has been applied (or dropped
  /// after a failure) and returns the sticky first failure, if any.
  Status WaitForMaintenance();

  /// One manual scrub pass over the current constituent set (serialized with
  /// AdvanceDay). Corruption is reported in the ScrubReport and quarantines
  /// the constituent; with Options::auto_heal it is also healed and the new
  /// snapshot published before this returns. Only infrastructure failures
  /// fail the call.
  Result<ScrubReport> Scrub();

  /// Online self-healing: rebuilds every unhealthy (quarantined) constituent
  /// whose source days the day store still holds, publishes the healed
  /// snapshot, and clears the degraded flag when the wave is whole again.
  /// Serialized with AdvanceDay.
  Result<Scheme::HealReport> Heal();

  /// Async advances queued or running right now (gauge; any thread).
  int pending_advances() const {
    return pending_advances_.load(std::memory_order_relaxed);
  }

  // --- Queries (any thread, any time after Start) ---------------------------
  //
  // Each query runs on the calling thread, over the snapshot it took.

  /// `limit` caps the entries returned (WaveIndex::TimedIndexProbe).
  Status TimedIndexProbe(const DayRange& range, const Value& value,
                         std::vector<Entry>* out, QueryStats* stats = nullptr,
                         uint64_t limit = kNoEntryLimit) const;
  Status IndexProbe(const Value& value, std::vector<Entry>* out,
                    QueryStats* stats = nullptr) const;
  /// `limit` caps the entries visited (WaveIndex::TimedSegmentScan).
  Status TimedSegmentScan(const DayRange& range, const EntryCallback& callback,
                          QueryStats* stats = nullptr,
                          uint64_t limit = kNoEntryLimit) const;

  /// The newest day readers may see (monotonic; readers racing with
  /// AdvanceDay may still see the previous snapshot).
  Day current_day() const { return published_day_.load(); }

  int window() const { return options_.config.window; }

  /// The snapshot queries would use right now (for inspection/tests).
  std::shared_ptr<const WaveIndex> Snapshot() const;

  /// Per-codec bucket totals summed over the current snapshot's
  /// constituents (see ConstituentIndex::CodecStats). Zeroes before Start.
  ConstituentIndex::CodecBreakdown CodecTotals() const;

  /// \brief The counters and latency histograms only the service writes,
  /// owned by its metrics registry. Reading one is a relaxed atomic load
  /// (a snapshot for histograms), never the registry mutex. Fault and
  /// integrity counters live with their owners: scheme().fault_stats() and
  /// integrity().
  struct Instruments {
    obs::Counter* probes;
    obs::Counter* scans;
    /// Window transitions completed by AdvanceDay.
    obs::Counter* days_advanced;
    /// AdvanceDayAsync submissions (each is later applied in order, or
    /// dropped if an earlier one failed).
    obs::Counter* async_advances;
    /// AdvanceDay calls that failed; the service keeps serving the last good
    /// snapshot (degraded: stale window, possibly unhealthy constituents).
    obs::Counter* degraded_advances;
    /// Queries answered with Status::PartialResult (degraded-mode serving).
    obs::Counter* partial_results;
    /// Completed scrub passes, bucket extents verified, and bytes re-read by
    /// the scrubber.
    obs::Counter* scrub_passes;
    obs::Counter* scrub_extents;
    obs::Counter* scrub_bytes;
    /// Constituents rebuilt from segment data by self-healing, and heals
    /// skipped because the day store no longer held the source days.
    obs::Counter* constituents_healed;
    obs::Counter* heals_skipped;
    /// Probe, scan and AdvanceDay latency in microseconds on the service
    /// clock, and retry backoff sleeps.
    ConcurrentHistogram* probe_latency_us;
    ConcurrentHistogram* scan_latency_us;
    ConcurrentHistogram* advance_latency_us;
    ConcurrentHistogram* retry_backoff_us;
  };
  const Instruments& instruments() const { return instruments_; }

  /// The block cache, or nullptr when Options::cache_blocks == 0.
  const ShardedCachedDevice* cache() const { return cache_.get(); }

  /// The maintenance fan-out pool, or nullptr when
  /// num_maintenance_threads <= 1.
  ThreadPool* maintenance_pool() const { return maintenance_pool_.get(); }

  /// The maintenance tracer (always present; inert at sample rate 0).
  obs::Tracer* tracer() const { return tracer_.get(); }

  /// The event journal, or nullptr when event_ring_capacity == 0.
  obs::EventJournal* events() const { return events_.get(); }

  /// The time-series collector, or nullptr when collector_interval_us == 0
  /// or no metrics registry was configured.
  obs::TimeSeriesCollector* collector() const { return collector_.get(); }

  /// The measured-latency decorator, or nullptr when
  /// track_device_latency == false.
  const obs::LatencyTrackingDevice* latency_device() const {
    return latency_.get();
  }

  /// Shared integrity counters (read path + scrubber + recovery).
  const IntegrityStats& integrity() const { return integrity_; }

  /// True while the service is serving a stale snapshot because the last
  /// AdvanceDay failed, or while a corrupt constituent is quarantined
  /// awaiting heal (flips back on the next successful advance / completed
  /// heal). The /healthz endpoint keys off this.
  bool degraded() const { return degraded_.load(std::memory_order_relaxed); }

  /// Why the service is degraded (empty when healthy).
  std::string degraded_detail() const;

  /// Writer-side accessors (not thread-safe against maintenance; call
  /// WaitForMaintenance first when async advances may be in flight).
  const Scheme& scheme() const { return *scheme_; }
  MeteredDevice* device() { return &device_; }

  /// The raw storage backend under the decorator stack (for backend-aware
  /// tests and the bench suite; treat as read-only while serving).
  Device* base_device() { return base_device_.get(); }
  const std::string& storage_backend() const {
    return options_.storage_backend;
  }

 private:
  WaveService(Options options, std::unique_ptr<Device> base_device);

  /// The AdvanceDay body; caller holds advance_mutex_.
  Status AdvanceDayLocked(DayBatch new_day);

  /// One scrub pass (caller holds advance_mutex_); quarantines + optional
  /// auto-heal. Runs INLINE on the maintenance path — never submitted to a
  /// pool, which could deadlock against advance_mutex_.
  Result<ScrubReport> ScrubLocked();

  /// Heal + republish (caller holds advance_mutex_).
  Result<Scheme::HealReport> HealLocked();

  /// Runs ScrubLocked when scrub_interval_us has elapsed since the last
  /// pass (caller holds advance_mutex_).
  void MaybeScrubLocked();

  void Publish();
  void RegisterMetrics();

  /// Flips the degraded flag/detail and journals the mode change when the
  /// flag actually transitioned.
  void SetDegraded(bool degraded, const std::string& detail, Day day);

  /// A pool of `threads` workers for `role`, via Options::pool_factory when
  /// set (determinism seam) or a plain ThreadPool otherwise.
  std::unique_ptr<ThreadPool> MakePool(int threads, const std::string& role);

  /// Elapsed microseconds on the injected clock (clamped to >= 1).
  uint64_t MicrosSince(uint64_t start_us) const;

  Options options_;
  Clock* clock_;  // options_.clock or the wall clock
  // Declared before the members that record into instruments_, so it
  // outlives them: the registry owns the instruments.
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* registry_;  // options_.metrics_registry or owned
  Instruments instruments_{};
  std::unique_ptr<Device> base_device_;  // the selected storage backend
  std::unique_ptr<Device> interposed_;   // optional chaos layer over the base
  // Optional measured-latency layer between the chaos seam and the meter;
  // its phase labels come from device_ (set_phase_source after device_ is
  // built).
  std::unique_ptr<obs::LatencyTrackingDevice> latency_;
  SynchronizedMeteredDevice device_;
  std::unique_ptr<ShardedCachedDevice> cache_;  // above device_, optional
  ExtentAllocator allocator_;
  DayStore day_store_;
  // Before scheme_: the scheme's primitives fan out on this pool, so it must
  // be destroyed after the scheme.
  std::unique_ptr<ThreadPool> maintenance_pool_;
  std::unique_ptr<obs::Tracer> tracer_;     // before scheme_: schemes hold it
  // Before scheme_ and the advance runner: schemes journal retry events and
  // queued async transitions may still be draining at destruction.
  std::unique_ptr<obs::EventJournal> events_;
  std::unique_ptr<obs::TimeSeriesCollector> collector_;
  std::unique_ptr<Scheme> scheme_;
  // After scheme_: destroyed first, draining queued async transitions while
  // the scheme (and everything below it) is still alive. Created lazily by
  // the first AdvanceDayAsync (single maintenance client thread).
  std::unique_ptr<ThreadPool> advance_runner_;

  // Serializes transition application (sync AdvanceDay vs the async runner)
  // and guards async_error_.
  mutable std::mutex advance_mutex_;
  Status async_error_;
  std::atomic<int> pending_advances_{0};

  mutable std::mutex snapshot_mutex_;
  std::shared_ptr<const WaveIndex> snapshot_;
  std::atomic<Day> published_day_{0};

  std::atomic<bool> degraded_{false};
  mutable std::mutex degraded_mutex_;
  std::string degraded_detail_;  // guarded by degraded_mutex_

  // Integrity counters every constituent and the scrubber write (atomics —
  // query threads detect corruption too).
  IntegrityStats integrity_;
  uint64_t last_scrub_us_ = 0;  // guarded by advance_mutex_
};

}  // namespace wavekit

#endif  // WAVEKIT_WAVE_WAVE_SERVICE_H_
