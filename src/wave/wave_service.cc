#include "wave/wave_service.h"

#include "obs/attach.h"
#include "storage/backend_registry.h"
#include "util/macros.h"
#include "wave/scheme_factory.h"

namespace wavekit {

WaveService::WaveService(Options options, std::unique_ptr<Device> base_device)
    : options_(options),
      clock_(options_.clock != nullptr ? options_.clock
                                       : RealClock::Instance()),
      owned_registry_(options_.metrics_registry == nullptr
                          ? std::make_unique<obs::MetricsRegistry>()
                          : nullptr),
      registry_(options_.metrics_registry != nullptr ? options_.metrics_registry
                                                     : owned_registry_.get()),
      base_device_(std::move(base_device)),
      interposed_(options_.device_interposer
                      ? options_.device_interposer(base_device_.get())
                      : nullptr),
      latency_(options_.track_device_latency
                   ? std::make_unique<obs::LatencyTrackingDevice>(
                         interposed_ != nullptr ? interposed_.get()
                                                : base_device_.get(),
                         obs::LatencyTrackingDevice::Options{clock_})
                   : nullptr),
      device_(latency_ != nullptr
                  ? static_cast<Device*>(latency_.get())
                  : (interposed_ != nullptr ? interposed_.get()
                                            : base_device_.get())),
      allocator_(options.device_capacity) {
  if (latency_ != nullptr) {
    // The meter sits above the latency layer; its phase labels the measured
    // histograms.
    latency_->set_phase_source(&device_);
  }
  if (options_.cache_blocks > 0) {
    cache_ = std::make_unique<ShardedCachedDevice>(&device_,
                                                   options_.cache_blocks);
  }
  if (options_.num_maintenance_threads > 1) {
    maintenance_pool_ = MakePool(options_.num_maintenance_threads, "maintenance");
  }
  obs::Tracer::Options trace_options;
  trace_options.sample_rate = options_.trace_sample_rate;
  trace_options.ring_capacity = options_.trace_ring_capacity;
  trace_options.slow_op_threshold_us = options_.slow_op_threshold_us;
  trace_options.meter = &device_;
  trace_options.clock = clock_;
  tracer_ = std::make_unique<obs::Tracer>(trace_options);
  if (options_.event_ring_capacity > 0) {
    obs::EventJournal::Options event_options;
    event_options.ring_capacity = options_.event_ring_capacity;
    event_options.jsonl_path = options_.event_jsonl_path;
    event_options.clock = clock_;
    events_ = std::make_unique<obs::EventJournal>(event_options);
  }
  if (options_.metrics_registry != nullptr &&
      options_.collector_interval_us > 0) {
    obs::TimeSeriesCollector::Options collector_options;
    collector_options.registry = options_.metrics_registry;
    collector_options.interval_us = options_.collector_interval_us;
    collector_options.ring_capacity = options_.collector_ring_capacity;
    collector_options.clock = clock_;
    collector_ = std::make_unique<obs::TimeSeriesCollector>(collector_options);
  }
  RegisterMetrics();
  if (collector_ != nullptr && options_.collector_background_thread) {
    collector_->Start();
  }
}

std::unique_ptr<ThreadPool> WaveService::MakePool(int threads,
                                                  const std::string& role) {
  if (options_.pool_factory) return options_.pool_factory(threads, role);
  return std::make_unique<ThreadPool>(threads);
}

uint64_t WaveService::MicrosSince(uint64_t start_us) const {
  const uint64_t now_us = clock_->NowMicros();
  // Clamped to >= 1 so histograms retain sub-microsecond events.
  return now_us > start_us ? now_us - start_us : 1;
}

WaveService::~WaveService() {
  // Queued async advances still count into the instruments: drain them
  // before unregistering frees those.
  advance_runner_.reset();
  // Stop the sampling thread before its callbacks' subjects start dying.
  if (collector_ != nullptr) collector_->Stop();
  registry_->Unregister(this);
}

std::string WaveService::degraded_detail() const {
  std::lock_guard<std::mutex> lock(degraded_mutex_);
  return degraded_detail_;
}

void WaveService::SetDegraded(bool degraded, const std::string& detail,
                              Day day) {
  const bool was = degraded_.exchange(degraded, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(degraded_mutex_);
    degraded_detail_ = degraded ? detail : "";
  }
  if (events_ != nullptr && was != degraded) {
    events_->Append(degraded ? obs::EventType::kDegradedEnter
                             : obs::EventType::kDegradedExit,
                    day, detail);
  }
}

void WaveService::RegisterMetrics() {
  obs::MetricsRegistry* registry = registry_;
  const auto counter = [&](const char* name, const char* help) {
    return registry->AddCounter(name, help, {}, this);
  };
  const auto histogram = [&](const char* name, const char* help) {
    return registry->AddHistogram(name, help, {}, this);
  };
  instruments_.probes =
      counter("wavekit_service_probes_total", "Index probes served.");
  instruments_.scans =
      counter("wavekit_service_scans_total", "Segment scans served.");
  instruments_.days_advanced =
      counter("wavekit_service_days_advanced_total",
              "Window transitions completed by AdvanceDay.");
  instruments_.async_advances =
      counter("wavekit_service_async_advances_total",
              "Background transitions submitted via AdvanceDayAsync.");
  instruments_.degraded_advances = counter(
      "wavekit_service_degraded_advances_total",
      "AdvanceDay calls that failed (service kept the last good snapshot).");
  instruments_.partial_results = counter(
      "wavekit_service_partial_results_total",
      "Queries answered with a partial result (degraded-mode serving).");
  instruments_.scrub_passes =
      counter("wavekit_scrub_passes_total", "Completed background scrub passes.");
  instruments_.scrub_extents =
      counter("wavekit_scrub_extents_total",
              "Live bucket extents verified by the background scrubber.");
  instruments_.scrub_bytes =
      counter("wavekit_scrub_bytes_total",
              "Bytes re-read from the device by the background scrubber.");
  instruments_.constituents_healed =
      counter("wavekit_constituents_healed_total",
              "Quarantined constituents rebuilt online from segment data.");
  instruments_.heals_skipped = counter(
      "wavekit_heals_skipped_total",
      "Heal attempts skipped because the day store lacked the source days.");
  instruments_.probe_latency_us =
      histogram("wavekit_service_probe_latency_us",
                "Wall-clock probe latency in microseconds.");
  instruments_.scan_latency_us =
      histogram("wavekit_service_scan_latency_us",
                "Wall-clock scan latency in microseconds.");
  instruments_.advance_latency_us =
      histogram("wavekit_service_advance_latency_us",
                "Wall-clock AdvanceDay latency in microseconds.");
  instruments_.retry_backoff_us = histogram(
      "wavekit_retry_backoff_us", "Retry backoff sleeps in microseconds.");

  obs::AttachMeteredDevice(
      registry, &device_, "primary",
      obs::BackendIdentity{options_.storage_backend, options_.direct_io},
      this);
  if (latency_ != nullptr) {
    obs::AttachLatencyDevice(registry, latency_.get(), &device_,
                             CostModel::Paper(), "primary", this);
  }
  if (cache_ != nullptr) {
    obs::AttachShardedCache(registry, cache_.get(), "block_cache", this);
  }
  if (maintenance_pool_ != nullptr) {
    obs::AttachThreadPool(registry, maintenance_pool_.get(),
                          "maintenance_pool", this);
  }
  registry->AddGaugeCallback(
      "wavekit_service_pending_advances",
      "Async advances queued or running right now.", {},
      [this] {
        return static_cast<double>(
            pending_advances_.load(std::memory_order_relaxed));
      },
      this);
  // scheme_ is assigned after construction (Create), so guard the reads.
  registry->AddCounterCallback(
      "wavekit_maintenance_transient_io_errors_total",
      "Transient I/O errors hit by maintenance primitives.", {},
      [this] {
        return scheme_ != nullptr ? scheme_->fault_stats().transient_io_errors
                                  : 0;
      },
      this);
  registry->AddCounterCallback(
      "wavekit_maintenance_retries_total",
      "Retries of maintenance primitives after transient I/O errors.", {},
      [this] { return scheme_ != nullptr ? scheme_->fault_stats().retries : 0; },
      this);
  registry->AddCounterCallback(
      "wavekit_maintenance_retries_exhausted_total",
      "Maintenance primitives that failed even after their retry budget.", {},
      [this] {
        return scheme_ != nullptr ? scheme_->fault_stats().retries_exhausted
                                  : 0;
      },
      this);
  registry->AddCounterCallback(
      "wavekit_constituents_marked_unhealthy_total",
      "Constituent indexes excluded from serving after a failed rebuild.", {},
      [this] {
        return scheme_ != nullptr
                   ? scheme_->fault_stats().constituents_marked_unhealthy
                   : 0;
      },
      this);
  registry->AddGaugeCallback(
      "wavekit_service_degraded",
      "1 while serving a stale snapshot after a failed AdvanceDay.", {},
      [this] { return degraded() ? 1.0 : 0.0; }, this);
  registry->AddCounterCallback(
      "wavekit_checksum_verified_buckets_total",
      "Bucket extents whose CRC-32C was verified (read path + scrub).", {},
      [this] {
        return integrity_.verified_buckets.load(std::memory_order_relaxed);
      },
      this);
  registry->AddCounterCallback(
      "wavekit_checksum_trusted_buckets_total",
      "Buckets served from verified-resident cache blocks (verification "
      "skipped; the scrubber covers medium rot under them).",
      {},
      [this] {
        return integrity_.trusted_buckets.load(std::memory_order_relaxed);
      },
      this);
  registry->AddCounterCallback(
      "wavekit_corruption_detected_total",
      "Checksum mismatches detected on any path.", {},
      [this] {
        return integrity_.corruptions_detected.load(std::memory_order_relaxed);
      },
      this);
  registry->AddCounterCallback(
      "wavekit_quarantines_total",
      "Constituent indexes quarantined after a checksum mismatch.", {},
      [this] {
        return integrity_.quarantines.load(std::memory_order_relaxed);
      },
      this);
  // The Prometheus-conventional seconds view of the same data (the integer
  // histogram itself records microseconds).
  registry->AddGaugeCallback(
      "wavekit_retry_backoff_seconds_sum",
      "Total seconds slept in retry backoff.", {},
      [this] {
        return static_cast<double>(
                   instruments_.retry_backoff_us->Snapshot().sum()) /
               1e6;
      },
      this);
  registry->AddCounterCallback(
      "wavekit_retry_backoff_seconds_count",
      "Retry backoff sleeps recorded.", {},
      [this] { return instruments_.retry_backoff_us->count(); }, this);
  if (events_ != nullptr) {
    registry->AddCounterCallback(
        "wavekit_events_appended_total",
        "Maintenance lifecycle events appended to the event journal.", {},
        [this] { return events_->total_appended(); }, this);
  }
  if (collector_ != nullptr) {
    registry->AddCounterCallback(
        "wavekit_timeseries_samples_total",
        "Registry samples taken by the time-series collector.", {},
        [this] { return collector_->samples_taken(); }, this);
  }
  registry->AddCounterCallback(
      "wavekit_trace_roots_sampled_total",
      "AdvanceDay traces sampled into the span ring.", {},
      [this] { return tracer_->roots_sampled(); }, this);
  registry->AddGaugeCallback(
      "wavekit_bucket_compressed_bytes",
      "Live stored bucket bytes across the snapshot (compressed extents at "
      "their encoded size, raw buckets at count * entry size).",
      {},
      [this] { return static_cast<double>(CodecTotals().stored_bytes); },
      this);
  registry->AddGaugeCallback(
      "wavekit_bucket_uncompressed_bytes",
      "The same live entries at the raw 16-byte layout.", {},
      [this] {
        return static_cast<double>(CodecTotals().uncompressed_bytes);
      },
      this);
  registry->AddGaugeCallback(
      "wavekit_bucket_compression_ratio",
      "uncompressed_bytes / compressed_bytes over the snapshot (1.0 when "
      "nothing is compressed).",
      {}, [this] { return CodecTotals().ratio(); }, this);
  for (const Codec codec : kAllCodecs) {
    registry->AddGaugeCallback(
        "wavekit_bucket_codec_buckets",
        "Live buckets stored under each codec.",
        {{"codec", CodecName(codec)}},
        [this, codec] {
          return static_cast<double>(CodecTotals().buckets(codec));
        },
        this);
  }
  registry->AddGaugeCallback(
      "wavekit_day_store_days",
      "Days the day store retains for rebuilds and heals.", {},
      [this] { return static_cast<double>(day_store_.size()); }, this);
  registry->AddGaugeCallback(
      "wavekit_day_store_bytes",
      "Heap bytes of the day store's grouped columns (values, run offsets, "
      "record ids, postings).",
      {}, [this] { return static_cast<double>(day_store_.bytes()); }, this);
}

ConstituentIndex::CodecBreakdown WaveService::CodecTotals() const {
  ConstituentIndex::CodecBreakdown totals;
  const std::shared_ptr<const WaveIndex> snapshot = Snapshot();
  if (snapshot == nullptr) return totals;
  for (const auto& constituent : snapshot->constituents()) {
    totals += constituent->CodecStats();
  }
  return totals;
}

Result<std::unique_ptr<WaveService>> WaveService::Create(Options options) {
  if (options.config.technique == UpdateTechniqueKind::kInPlace) {
    return Status::InvalidArgument(
        "WaveService requires a shadow update technique: in-place updating "
        "mutates buckets concurrent readers may be scanning");
  }
  BackendConfig backend_config;
  backend_config.path = options.storage_path;
  backend_config.capacity = options.device_capacity;
  backend_config.direct_io = options.direct_io;
  backend_config.queue_depth = options.io_queue_depth;
  WAVEKIT_ASSIGN_OR_RETURN(
      std::unique_ptr<Device> base_device,
      BackendRegistry::Global().Create(options.storage_backend,
                                       backend_config));
  WAVEKIT_ASSIGN_OR_RETURN(const BackendCapabilities capabilities,
                           BackendRegistry::Global().EffectiveCapabilities(
                               options.storage_backend, backend_config));
  std::unique_ptr<WaveService> service(
      new WaveService(options, std::move(base_device)));
  if (capabilities.alignment > 1) {
    // O_DIRECT backends want every bucket extent block-aligned; setting this
    // before the scheme exists means no allocation ever bypasses it.
    service->allocator_.set_default_alignment(capabilities.alignment);
  }
  SchemeEnv env{&service->device_, &service->allocator_,
                &service->day_store_};
  env.io_device = service->cache_.get();  // nullptr = straight to the meter
  env.tracer = service->tracer_.get();
  env.events = service->events_.get();  // nullptr = no retry journaling
  env.retry = options.retry;
  env.integrity = &service->integrity_;
  env.retry_backoff_us = service->instruments_.retry_backoff_us;
  env.clock = service->clock_;
  if (service->maintenance_pool_ != nullptr) {
    env.maintenance.pool = service->maintenance_pool_.get();
    env.maintenance.threads = options.num_maintenance_threads;
  }
  WAVEKIT_ASSIGN_OR_RETURN(service->scheme_,
                           MakeScheme(options.scheme, env, options.config));
  return service;
}

Status WaveService::Start(std::vector<DayBatch> first_window) {
  WAVEKIT_RETURN_NOT_OK(scheme_->Start(std::move(first_window)));
  last_scrub_us_ = clock_->NowMicros();  // first pass one interval from now
  Publish();
  if (events_ != nullptr) {
    events_->Append(obs::EventType::kServiceStart, scheme_->current_day(),
                    std::string(scheme_->name()));
  }
  if (collector_ != nullptr) collector_->Tick();
  return Status::OK();
}

Status WaveService::AdvanceDay(DayBatch new_day) {
  std::lock_guard<std::mutex> lock(advance_mutex_);
  return AdvanceDayLocked(std::move(new_day));
}

void WaveService::AdvanceDayAsync(DayBatch new_day) {
  // Lazy creation is safe: the maintenance API is single-caller, and the
  // runner pointer is never touched by query threads or metric callbacks.
  if (advance_runner_ == nullptr) {
    advance_runner_ = MakePool(1, "advance");
  }
  instruments_.async_advances->Increment();
  pending_advances_.fetch_add(1, std::memory_order_relaxed);
  advance_runner_->Submit([this, batch = std::move(new_day)]() mutable {
    {
      std::lock_guard<std::mutex> lock(advance_mutex_);
      if (async_error_.ok()) {
        // Publish happens inside, under snapshot_mutex_ — queries flip to
        // the new snapshot atomically, mid-probe readers finish on the old.
        Status status = AdvanceDayLocked(std::move(batch));
        if (!status.ok()) async_error_ = std::move(status);
      }
      // else: an earlier queued advance failed; drop this one (the scheme
      // would refuse it anyway — needs_recovery) and keep the first error.
    }
    pending_advances_.fetch_sub(1, std::memory_order_relaxed);
  });
}

Status WaveService::WaitForMaintenance() {
  if (advance_runner_ != nullptr) advance_runner_->Wait();
  std::lock_guard<std::mutex> lock(advance_mutex_);
  return async_error_;
}

Status WaveService::AdvanceDayLocked(DayBatch new_day) {
  // The scheme's wave index is only touched under advance_mutex_; queries
  // never see it directly — they use the published snapshot, whose
  // constituents shadow updates never mutate in place.
  const uint64_t start = clock_->NowMicros();
  const Day day = new_day.day;
  if (events_ != nullptr) {
    events_->Append(obs::EventType::kAdvanceStart, day, "");
  }
  {
    // Root span: the scheme's primitives nest under it as children.
    obs::Span span = tracer_->StartSpan("AdvanceDay");
    const Status transitioned = scheme_->Transition(std::move(new_day));
    if (!transitioned.ok()) {
      if (events_ != nullptr) {
        events_->Append(obs::EventType::kAdvanceRollback, day,
                        transitioned.message());
      }
      // A day refused before the wave was touched (wrong day, day-store
      // Put) leaves the published window intact: the service stays healthy.
      if (!scheme_->needs_recovery()) return transitioned;
      // Degraded mode: keep serving the last good snapshot. No republish is
      // needed for health flags — snapshots share the constituent objects,
      // so any MarkUnhealthy the scheme did is already visible to readers.
      instruments_.degraded_advances->Increment();
      SetDegraded(true, "advance to day " + std::to_string(day) +
                            " failed: " + transitioned.message(),
                  day);
      if (collector_ != nullptr) collector_->Tick();
      return transitioned;
    }
  }
  Publish();
  instruments_.days_advanced->Increment();
  instruments_.advance_latency_us->Record(MicrosSince(start));
  if (events_ != nullptr) {
    events_->Append(obs::EventType::kAdvanceCommit, day, "");
  }
  SetDegraded(false, "", day);
  // Proactive integrity: the scrub (and any auto-heal) runs INLINE on the
  // maintenance path under advance_mutex_ — submitting it to a pool that a
  // later AdvanceDay waits on while holding this mutex would deadlock.
  MaybeScrubLocked();
  // Maintenance drives the deterministic sampling cadence: the injected
  // clock decides whether a sample is actually due.
  if (collector_ != nullptr) collector_->Tick();
  return Status::OK();
}

void WaveService::MaybeScrubLocked() {
  if (options_.scrub_interval_us == 0) return;
  const uint64_t now = clock_->NowMicros();
  if (now - last_scrub_us_ < options_.scrub_interval_us) return;
  last_scrub_us_ = now;
  const Result<ScrubReport> scrubbed = ScrubLocked();
  if (!scrubbed.ok()) {
    // Infrastructure failure (not corruption — that is in the report):
    // serving is unaffected, but surface it.
    SetDegraded(true, "scrub failed: " + scrubbed.status().message(),
                scheme_->current_day());
  }
}

Result<ScrubReport> WaveService::Scrub() {
  std::lock_guard<std::mutex> lock(advance_mutex_);
  if (scheme_ == nullptr || Snapshot() == nullptr) {
    return Status::FailedPrecondition("service not started");
  }
  return ScrubLocked();
}

Result<Scheme::HealReport> WaveService::Heal() {
  std::lock_guard<std::mutex> lock(advance_mutex_);
  if (scheme_ == nullptr || Snapshot() == nullptr) {
    return Status::FailedPrecondition("service not started");
  }
  return HealLocked();
}

Result<ScrubReport> WaveService::ScrubLocked() {
  ScrubOptions scrub;
  scrub.clock = clock_;
  scrub.events = events_.get();
  scrub.integrity = &integrity_;
  scrub.day = scheme_->current_day();
  // Scrub the medium, not the block cache: constituents read through the
  // cache (env.io_device), which would happily serve clean pre-rot copies
  // of every warm block. The meter sits directly above stable storage.
  scrub.device = &device_;
  WAVEKIT_ASSIGN_OR_RETURN(ScrubReport report,
                           ScrubWave(scheme_->wave(), scrub));
  instruments_.scrub_passes->Increment();
  instruments_.scrub_extents->Increment(report.buckets_verified);
  instruments_.scrub_bytes->Increment(report.bytes_read);
  if (!report.quarantined.empty()) {
    std::string detail = "corruption quarantined:";
    for (const std::string& name : report.quarantined) detail += " " + name;
    SetDegraded(true, detail, scheme_->current_day());
    if (options_.auto_heal) {
      const Result<Scheme::HealReport> healed = HealLocked();
      if (!healed.ok()) {
        SetDegraded(true, detail + "; self-heal failed: " +
                              healed.status().message(),
                    scheme_->current_day());
      }
    }
  }
  return report;
}

Result<Scheme::HealReport> WaveService::HealLocked() {
  WAVEKIT_ASSIGN_OR_RETURN(Scheme::HealReport report,
                           scheme_->HealUnhealthy());
  instruments_.constituents_healed->Increment(
      static_cast<uint64_t>(report.healed));
  instruments_.heals_skipped->Increment(static_cast<uint64_t>(report.skipped));
  if (report.healed > 0) Publish();
  // Whole again? Only a heal that left no unhealthy constituent clears the
  // degraded flag; skipped slots (source days pruned) keep it raised.
  std::vector<std::string> still_unhealthy;
  for (const auto& constituent : scheme_->wave().constituents()) {
    if (!constituent->healthy()) still_unhealthy.push_back(constituent->name());
  }
  if (still_unhealthy.empty()) {
    SetDegraded(false, "", scheme_->current_day());
  } else {
    std::string detail = "unhealthy constituents awaiting heal:";
    for (const std::string& name : still_unhealthy) detail += " " + name;
    SetDegraded(true, detail, scheme_->current_day());
  }
  return report;
}

void WaveService::Publish() {
  // Snapshot = a WaveIndex holding shared_ptr copies of the current
  // constituents. Retired constituents stay alive until the last in-flight
  // query (or older snapshot) releases them.
  auto snapshot = std::make_shared<WaveIndex>(scheme_->wave());
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  snapshot_ = std::move(snapshot);
  published_day_.store(scheme_->current_day());
}

std::shared_ptr<const WaveIndex> WaveService::Snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return snapshot_;
}

Status WaveService::TimedIndexProbe(const DayRange& range, const Value& value,
                                    std::vector<Entry>* out, QueryStats* stats,
                                    uint64_t limit) const {
  std::shared_ptr<const WaveIndex> snapshot = Snapshot();
  if (snapshot == nullptr) {
    return Status::FailedPrecondition("service not started");
  }
  const uint64_t start = clock_->NowMicros();
  Status status = snapshot->TimedIndexProbe(range, value, out, stats, limit);
  if (status.IsPartialResult()) instruments_.partial_results->Increment();
  instruments_.probes->Increment();
  instruments_.probe_latency_us->Record(MicrosSince(start));
  return status;
}

Status WaveService::IndexProbe(const Value& value, std::vector<Entry>* out,
                               QueryStats* stats) const {
  return TimedIndexProbe(DayRange::All(), value, out, stats);
}

Status WaveService::TimedSegmentScan(const DayRange& range,
                                     const EntryCallback& callback,
                                     QueryStats* stats, uint64_t limit) const {
  std::shared_ptr<const WaveIndex> snapshot = Snapshot();
  if (snapshot == nullptr) {
    return Status::FailedPrecondition("service not started");
  }
  const uint64_t start = clock_->NowMicros();
  Status status = snapshot->TimedSegmentScan(range, callback, stats, limit);
  if (status.IsPartialResult()) instruments_.partial_results->Increment();
  instruments_.scans->Increment();
  instruments_.scan_latency_us->Record(MicrosSince(start));
  return status;
}

}  // namespace wavekit
