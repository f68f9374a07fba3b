#include "testing/sim_harness.h"

#include <cctype>
#include <cstdio>
#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/attach.h"
#include "obs/event_journal.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "storage/device.h"
#include "storage/extent_allocator.h"
#include "storage/fault_injecting_device.h"
#include "storage/metered_device.h"
#include "testing/oracle.h"
#include "util/clock.h"
#include "util/crash_point.h"
#include "util/crc32.h"
#include "util/macros.h"
#include "wave/checkpoint.h"
#include "wave/recovery.h"
#include "wave/scheme_factory.h"
#include "wave/scrubber.h"

namespace wavekit {
namespace testing {
namespace {

constexpr uint64_t kDeviceBytes = uint64_t{1} << 26;
// Keeps the fault stream decorrelated from the workload streams even though
// both derive from workload_seed.
constexpr uint64_t kFaultSeedSalt = 0xFA17'FA17'FA17'FA17ULL;

std::string Sanitize(std::string s) {
  for (char& c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return s;
}

// The sim_torture flags that select `family` (" --codec --bitrot", ...).
std::string FamilyFlags(ScenarioFamily family) {
  return std::string(family.codec ? " --codec" : "") +
         (family.bitrot ? " --bitrot" : "");
}

std::string Hex32(uint32_t v) {
  char buf[9];
  std::snprintf(buf, sizeof(buf), "%08x", v);
  return buf;
}

uint32_t EntriesCrc(const std::vector<Entry>& entries) {
  std::string buf;
  for (const Entry& e : entries) {
    buf += std::to_string(e.record_id);
    buf += ',';
    buf += std::to_string(e.day);
    buf += ',';
    buf += std::to_string(e.aux);
    buf += ';';
  }
  return Crc32(buf);
}

SchemeConfig ConfigFor(SchemeKind kind, const Scenario& scenario) {
  SchemeConfig config;
  config.window = scenario.window;
  config.num_indexes = scenario.num_indexes;
  config.technique = scenario.technique;
  config.codec = scenario.codec;
  if (kind == SchemeKind::kKnownBoundWata) {
    // KB-WATA's "future knowledge": a sound upper bound on any window's
    // total entries, derived from the scenario's worst-case day shape.
    config.size_bound_entries = static_cast<uint64_t>(scenario.window) *
                                    scenario.max_day_records *
                                    scenario.values_per_record +
                                64;
  }
  return config;
}

// The Theorem 2 bound on a soft-window wave's length (total days over
// constituents): W + ceil((W-1)/(n-1)) - 1.
int SoftWindowLengthBound(int window, int num_indexes) {
  const int n = num_indexes > 1 ? num_indexes : 2;
  return window + (window - 1 + (n - 1) - 1) / (n - 1) - 1;
}

// One "process incarnation": everything that dies at a simulated crash. The
// MemoryDevice and the checkpoint/journal files live outside and survive.
struct Incarnation {
  Incarnation(Device* device, uint64_t capacity)
      : metered(device), allocator(capacity) {}

  MeteredDevice metered;
  ExtentAllocator allocator;
  DayStore day_store;
  std::unique_ptr<Scheme> scheme;
  std::unique_ptr<DurableMaintenance> maintenance;
};

Status CheckInvariants(const Scheme& scheme, const Scenario& scenario,
                       Day day, const ExtentAllocator& allocator) {
  const WaveIndex& wave = scheme.wave();
  const int window = scenario.window;
  const size_t n = wave.num_constituents();
  if (n < 1 || n > static_cast<size_t>(scenario.num_indexes)) {
    return Status::Internal("constituent count " + std::to_string(n) +
                            " outside [1, " +
                            std::to_string(scenario.num_indexes) + "]");
  }
  const TimeSet covered = wave.CoveredDays();
  for (Day d = day - window + 1; d <= day; ++d) {
    if (covered.count(d) == 0) {
      return Status::Internal("window day " + std::to_string(d) +
                              " not covered at day " + std::to_string(day) +
                              "; covered=" + TimeSetToString(covered));
    }
  }
  if (!covered.empty() && *covered.rbegin() > day) {
    return Status::Internal("future day " +
                            std::to_string(*covered.rbegin()) +
                            " covered at day " + std::to_string(day));
  }
  if (scheme.hard_window()) {
    if (covered.size() != static_cast<size_t>(window)) {
      return Status::Internal(
          "hard-window scheme covers " + TimeSetToString(covered) +
          " instead of exactly the last " + std::to_string(window) +
          " days at day " + std::to_string(day));
    }
  } else {
    const int bound = SoftWindowLengthBound(window, scenario.num_indexes);
    if (scheme.WaveLength() > bound) {
      return Status::Internal(
          "wave length " + std::to_string(scheme.WaveLength()) +
          " exceeds Theorem 2 bound " + std::to_string(bound) + " at day " +
          std::to_string(day));
    }
  }
  // Every allocated byte belongs to a live constituent or temporary: a
  // failed (and retried) maintenance step must free what it allocated.
  const uint64_t owned = scheme.ConstituentBytes() + scheme.TemporaryBytes();
  if (allocator.allocated_bytes() != owned) {
    return Status::Internal(
        "allocator holds " + std::to_string(allocator.allocated_bytes()) +
        " bytes but the scheme owns " + std::to_string(owned) + " at day " +
        std::to_string(day));
  }
  return Status::OK();
}

// Serialize -> deserialize (fresh allocator, same bytes) -> serialize must be
// the identity. On success `*crc` is the checkpoint body's CRC32 (traced).
Status CheckCheckpointRoundTrip(const WaveIndex& wave, Device* device,
                                uint64_t capacity, uint32_t* crc) {
  WAVEKIT_ASSIGN_OR_RETURN(std::string first, SerializeCheckpoint(wave));
  ExtentAllocator scratch(capacity);
  WAVEKIT_ASSIGN_OR_RETURN(
      WaveIndex reloaded,
      DeserializeCheckpoint(first, device, &scratch,
                            ConstituentIndex::Options{}));
  WAVEKIT_ASSIGN_OR_RETURN(std::string second, SerializeCheckpoint(reloaded));
  if (first != second) {
    return Status::Internal(
        "checkpoint round-trip not identity: " +
        std::to_string(first.size()) + " bytes -> " +
        std::to_string(second.size()) + " bytes");
  }
  *crc = Crc32(first);
  return Status::OK();
}

// Cross-checks every planned probe and a full-window scan against the
// oracle, plus the structural invariants and the checkpoint round-trip.
// Appends one deterministic trace line on success.
Status VerifyDay(const Scheme& scheme, const ExtentAllocator& allocator,
                 const Scenario& scenario, Day day, const OracleDB& oracle,
                 Device* raw_device, std::string* trace) {
  const WaveIndex& wave = scheme.wave();
  const DayRange window = DayRange::Window(day, scenario.window);

  uint64_t probe_entries = 0;
  std::string probe_digest;
  for (const ProbePlan& plan : MakeScenarioProbes(scenario, day)) {
    std::vector<Entry> got;
    QueryStats stats;
    WAVEKIT_RETURN_NOT_OK(
        wave.TimedIndexProbe(plan.range, plan.value, &got, &stats));
    if (stats.indexes_unhealthy != 0 || stats.indexes_failed != 0) {
      return Status::Internal(
          "degraded probe on a healthy wave at day " + std::to_string(day) +
          ": unhealthy=" + std::to_string(stats.indexes_unhealthy) +
          " failed=" + std::to_string(stats.indexes_failed));
    }
    OracleDB::Sort(&got);
    const std::vector<Entry> want = oracle.Probe(plan.value, plan.range);
    if (got != want) {
      return Status::Internal(
          "probe mismatch at day " + std::to_string(day) + " value '" +
          plan.value + "' range [" + std::to_string(plan.range.lo) + "," +
          std::to_string(plan.range.hi) + "]: wave returned " +
          std::to_string(got.size()) + " entries (crc " +
          Hex32(EntriesCrc(got)) + "), oracle " +
          std::to_string(want.size()) + " (crc " + Hex32(EntriesCrc(want)) +
          ")");
    }
    probe_entries += got.size();
    probe_digest += Hex32(EntriesCrc(got));
  }

  std::vector<Entry> scanned;
  if (scenario.scan_each_day) {
    QueryStats stats;
    WAVEKIT_RETURN_NOT_OK(wave.TimedSegmentScan(
        window,
        [&](const Value&, const Entry& e) { scanned.push_back(e); },
        &stats));
    if (stats.indexes_unhealthy != 0 || stats.indexes_failed != 0) {
      return Status::Internal("degraded scan on a healthy wave at day " +
                              std::to_string(day));
    }
    OracleDB::Sort(&scanned);
    const std::vector<Entry> want = oracle.ScanAll(window);
    if (scanned != want) {
      return Status::Internal(
          "scan mismatch at day " + std::to_string(day) + ": wave returned " +
          std::to_string(scanned.size()) + " entries (crc " +
          Hex32(EntriesCrc(scanned)) + "), oracle " +
          std::to_string(want.size()) + " (crc " +
          Hex32(EntriesCrc(want)) + ")");
    }
  }

  WAVEKIT_RETURN_NOT_OK(CheckInvariants(scheme, scenario, day, allocator));

  uint32_t ckpt_crc = 0;
  WAVEKIT_RETURN_NOT_OK(CheckCheckpointRoundTrip(
      wave, raw_device, kDeviceBytes, &ckpt_crc));

  *trace += "day " + std::to_string(day) +
            " ok len=" + std::to_string(scheme.WaveLength()) +
            " n=" + std::to_string(wave.num_constituents()) +
            " probes=" + std::to_string(probe_entries) + "/" +
            Hex32(Crc32(probe_digest)) +
            " scan=" + std::to_string(scanned.size()) + "/" +
            Hex32(EntriesCrc(scanned)) + " ckpt=" + Hex32(ckpt_crc) + "\n";
  return Status::OK();
}

// Multiset-inclusion check: every entry the wave delivered must exist in the
// oracle's answer. Degraded (post-corruption) answers may be incomplete —
// they must never be WRONG. Field-keyed (not sort-order-dependent) so it
// cannot be fooled by a bit flip that lands inside a key.
Status CheckSubsetOfOracle(const std::vector<Entry>& got,
                           const std::vector<Entry>& want, Day day,
                           const char* what) {
  std::map<std::tuple<uint64_t, Day, uint32_t>, int> counts;
  for (const Entry& e : want) ++counts[{e.record_id, e.day, e.aux}];
  for (const Entry& e : got) {
    auto it = counts.find({e.record_id, e.day, e.aux});
    if (it == counts.end() || it->second == 0) {
      return Status::Internal(
          std::string("corrupt data served: ") + what + " at day " +
          std::to_string(day) + " returned entry (" +
          std::to_string(e.record_id) + "," + std::to_string(e.day) + "," +
          std::to_string(e.aux) + ") the oracle does not have");
    }
    --it->second;
  }
  return Status::OK();
}

// One kBitRot strike against a committed day: flip bits in one live bucket
// extent, prove the corruption is DETECTED (scrub pass or query path, per
// the fault), that the wave never serves a wrong entry while degraded, then
// heal online through the durable protocol and prove the wave is whole
// again. The caller's VerifyDay afterwards re-asserts exact oracle equality.
Status RunBitRot(const FaultEvent& fault, Incarnation* inc,
                 FaultInjectingDevice* faulty, const Scenario& scenario,
                 Day day, const OracleDB& oracle, obs::EventJournal* events,
                 std::string* trace) {
  const WaveIndex& wave = inc->scheme->wave();
  const size_t n = wave.num_constituents();
  if (n == 0) return Status::Internal("bit rot scheduled on an empty wave");

  // Deterministic victim selection: constituent by target (linear-probing
  // past empty ones), then one live bucket inside it.
  const ConstituentIndex* victim = nullptr;
  std::vector<std::pair<Value, Extent>> buckets;
  for (size_t step = 0; step < n && victim == nullptr; ++step) {
    const auto& candidate =
        wave.constituents()[(fault.target + step) % n];
    buckets.clear();
    WAVEKIT_RETURN_NOT_OK(candidate->ForEachBucket(
        [&](const Value& value, const BucketInfo& info) {
          if (info.count == 0) return;
          buckets.emplace_back(
              value, Extent{info.extent.offset, info.stored_length()});
        }));
    if (!buckets.empty()) victim = candidate.get();
  }
  if (victim == nullptr) {
    // Every constituent is empty (legal for a tiny day shape): nothing to
    // rot. Trace it so the episode stays byte-identical and explainable.
    *trace += "day " + std::to_string(day) + " bit_rot skipped (no live buckets)\n";
    return Status::OK();
  }
  const auto& [bucket_value, live] =
      buckets[(fault.target / n) % buckets.size()];
  WAVEKIT_RETURN_NOT_OK(faulty->CorruptRange(live, /*salt=*/fault.target,
                                             fault.bits));
  *trace += "day " + std::to_string(day) + " bit_rot idx=" + victim->name() +
            " bucket=" + bucket_value +
            " bytes=" + std::to_string(live.length) +
            " bits=" + std::to_string(fault.bits) +
            (fault.detect_via_scrub ? " via=scrub" : " via=query") + "\n";

  // --- Detect ---------------------------------------------------------------
  if (fault.detect_via_scrub) {
    ScrubOptions scrub;
    scrub.events = events;
    scrub.day = day;
    WAVEKIT_ASSIGN_OR_RETURN(ScrubReport report, ScrubWave(wave, scrub));
    if (report.mismatches < 1) {
      return Status::Internal("scrub missed injected corruption at day " +
                              std::to_string(day) + " (verified " +
                              std::to_string(report.buckets_verified) +
                              " buckets)");
    }
  } else {
    // Query-path detection: a full-window scan must hit the rotten bucket,
    // fail its checksum, self-quarantine the constituent, and degrade to a
    // PartialResult whose entries are a subset of the truth.
    const DayRange window = DayRange::Window(day, scenario.window);
    std::vector<Entry> got;
    QueryStats stats;
    Status scan = wave.TimedSegmentScan(
        window, [&](const Value&, const Entry& e) { got.push_back(e); },
        &stats);
    if (!scan.ok() && !scan.IsPartialResult()) return scan;
    if (stats.indexes_failed == 0 && stats.indexes_unhealthy == 0) {
      return Status::Internal(
          "query path missed injected corruption at day " +
          std::to_string(day) + ": scan reported a fully healthy wave");
    }
    if (!scan.IsPartialResult()) {
      return Status::Internal(
          "degraded scan did not return PartialResult at day " +
          std::to_string(day));
    }
    WAVEKIT_RETURN_NOT_OK(CheckSubsetOfOracle(got, oracle.ScanAll(window),
                                              day, "degraded scan"));
  }
  if (!victim->corrupt() || victim->healthy()) {
    return Status::Internal("detected corruption did not quarantine " +
                            victim->name() + " at day " + std::to_string(day));
  }

  // Degraded probes must also stay subset-correct while the quarantine
  // holds (the detection above may have been the scrub, which never queries).
  for (const ProbePlan& plan : MakeScenarioProbes(scenario, day)) {
    std::vector<Entry> got;
    Status probed = wave.TimedIndexProbe(plan.range, plan.value, &got);
    if (!probed.ok() && !probed.IsPartialResult()) return probed;
    WAVEKIT_RETURN_NOT_OK(CheckSubsetOfOracle(
        got, oracle.Probe(plan.value, plan.range), day, "degraded probe"));
  }
  *trace += "day " + std::to_string(day) + " quarantined=" + victim->name() +
            "\n";

  // --- Heal -----------------------------------------------------------------
  // Re-stock the day store first: the rebuild needs the source batches of
  // every day in the victim's time set, and maintenance may have pruned
  // days that fell out of the window (soft-window schemes keep them
  // indexed). The workload is a pure function of (seed, day), so this
  // models re-fetching the segment data from the archive.
  for (const auto& constituent : wave.constituents()) {
    if (constituent->healthy()) continue;
    for (Day d : constituent->time_set()) {
      Status put = inc->day_store.Put(MakeScenarioDay(scenario, d));
      if (!put.ok() && !put.IsAlreadyExists()) return put;
    }
  }
  WAVEKIT_ASSIGN_OR_RETURN(Scheme::HealReport healed,
                           inc->maintenance->Heal());
  if (healed.healed < 1 || healed.skipped != 0) {
    return Status::Internal(
        "heal did not rebuild the quarantined constituent at day " +
        std::to_string(day) + ": healed=" + std::to_string(healed.healed) +
        " skipped=" + std::to_string(healed.skipped));
  }
  for (const auto& constituent : inc->scheme->wave().constituents()) {
    if (!constituent->healthy()) {
      return Status::Internal("constituent " + constituent->name() +
                              " still unhealthy after heal at day " +
                              std::to_string(day));
    }
  }
  *trace += "day " + std::to_string(day) +
            " healed=" + std::to_string(healed.healed) + "\n";
  return Status::OK();
}

Status MakeSchemeIn(Incarnation* inc, SchemeKind kind,
                    const Scenario& scenario, Clock* clock,
                    obs::EventJournal* events) {
  SchemeEnv env{&inc->metered, &inc->allocator, &inc->day_store};
  env.clock = clock;
  env.events = events;
  env.retry.max_attempts = scenario.retry_attempts;
  WAVEKIT_ASSIGN_OR_RETURN(inc->scheme,
                           MakeScheme(kind, env, ConfigFor(kind, scenario)));
  return Status::OK();
}

// Episode-wide telemetry under the SimClock: a registry sampled by a
// Tick-driven collector, and an event journal fed by retries, recovery
// decisions, and the harness itself. Everything here is a pure function of
// the episode seed — its digest goes into the byte-identical episode trace,
// so a nondeterministic telemetry path fails the sim determinism test.
struct EpisodeTelemetry {
  explicit EpisodeTelemetry(SimClock* clock) {
    obs::EventJournal::Options event_options;
    event_options.ring_capacity = 512;
    event_options.clock = clock;
    events = std::make_unique<obs::EventJournal>(event_options);

    obs::TimeSeriesCollector::Options collector_options;
    collector_options.registry = &registry;
    // One simulated day per sample: Tick fires every time the harness
    // advances the clock by kDayMicros.
    collector_options.interval_us = kDayMicros;
    collector_options.ring_capacity = 64;
    collector_options.clock = clock;
    collector = std::make_unique<obs::TimeSeriesCollector>(collector_options);
  }

  /// Virtual time the harness advances per simulated day.
  static constexpr uint64_t kDayMicros = 1'000'000;

  /// Attaches `device`'s phase counters for the current incarnation; call
  /// Detach(inc) before the incarnation dies.
  void Attach(const MeteredDevice* device, const void* inc) {
    obs::AttachMeteredDevice(&registry, device, "sim", inc);
  }
  void Detach(const void* inc) { registry.Unregister(inc); }

  /// "telemetry samples=N events=M ecrc=..." — digest of every journaled
  /// event (sequence, virtual timestamp, type, day, fields).
  std::string TraceLine() const {
    std::string digest;
    for (const obs::Event& event : events->Events()) {
      digest += event.ToJson();
      digest += '\n';
    }
    return "telemetry samples=" + std::to_string(collector->samples_taken()) +
           " events=" + std::to_string(events->total_appended()) + " ecrc=" +
           Hex32(Crc32(digest)) + "\n";
  }

  obs::MetricsRegistry registry;
  std::unique_ptr<obs::EventJournal> events;
  std::unique_ptr<obs::TimeSeriesCollector> collector;
};

// The whole episode. Appends trace lines as it goes; `*restarts` counts
// simulated crash+recover cycles.
Status RunScenarioImpl(SchemeKind kind, const Scenario& scenario,
                       const DurableMaintenance::Paths& paths,
                       std::string* trace, int* restarts) {
  CrashPoints::Reset();
  const int window = scenario.window;
  const Day last_day = static_cast<Day>(window + scenario.days);

  MemoryDevice memory(kDeviceBytes);
  FaultInjectingDevice::Options fault_options;
  fault_options.seed = scenario.workload_seed ^ kFaultSeedSalt;
  FaultInjectingDevice faulty(&memory, fault_options);
  SimClock clock;
  OracleDB oracle;
  EpisodeTelemetry telemetry(&clock);

  *trace += std::string("start scheme=") + SchemeKindName(kind) + " " +
            "window=" + std::to_string(window) +
            " n=" + std::to_string(scenario.num_indexes) +
            " days=" + std::to_string(scenario.days) +
            " faults=" + std::to_string(scenario.faults.size()) + "\n";

  auto inc = std::make_unique<Incarnation>(&faulty, memory.capacity());
  telemetry.Attach(&inc->metered, inc.get());
  WAVEKIT_RETURN_NOT_OK(MakeSchemeIn(inc.get(), kind, scenario, &clock,
                                     telemetry.events.get()));
  inc->maintenance =
      std::make_unique<DurableMaintenance>(inc->scheme.get(), paths);

  std::vector<DayBatch> first;
  for (Day d = 1; d <= static_cast<Day>(window); ++d) {
    first.push_back(MakeScenarioDay(scenario, d));
  }
  WAVEKIT_RETURN_NOT_OK(inc->maintenance->Start(std::move(first)));
  for (Day d = 1; d <= static_cast<Day>(window); ++d) {
    oracle.AdvanceDay(MakeScenarioDay(scenario, d), window);
  }
  WAVEKIT_RETURN_NOT_OK(VerifyDay(*inc->scheme, inc->allocator, scenario,
                                  static_cast<Day>(window), oracle, &memory,
                                  trace));
  clock.Advance(EpisodeTelemetry::kDayMicros);
  telemetry.collector->Tick();

  std::vector<bool> fault_consumed(scenario.faults.size(), false);
  const int max_restarts = scenario.days * 4 + 16;
  // After a restart the interrupted day is re-run fault-free (rates zeroed)
  // so a flaky-disk episode cannot livelock on one day.
  bool fault_free_retry = false;

  Day day = static_cast<Day>(window + 1);
  while (day <= last_day) {
    if (!fault_free_retry) {
      for (size_t i = 0; i < scenario.faults.size(); ++i) {
        const FaultEvent& fault = scenario.faults[i];
        if (fault.day != day || fault_consumed[i]) continue;
        // Bit rot strikes AFTER the day commits (it corrupts data at rest,
        // not the transition): handled in the success branch below.
        if (fault.kind == FaultEvent::Kind::kBitRot) continue;
        fault_consumed[i] = true;
        if (fault.kind == FaultEvent::Kind::kCrashPoint) {
          CrashPoints::Arm(fault.crash_point);
          *trace += "day " + std::to_string(day) + " arm " +
                    fault.crash_point + "\n";
        } else {
          faulty.ArmCrashAfterWrites(fault.countdown);
          *trace += "day " + std::to_string(day) + " arm device_crash@" +
                    std::to_string(fault.countdown) + "\n";
        }
      }
      faulty.set_read_error_rate(scenario.read_error_rate);
      faulty.set_write_error_rate(scenario.write_error_rate);
    }

    const Status advanced =
        inc->maintenance->AdvanceDay(MakeScenarioDay(scenario, day));
    // Queries and verification always run fault-free: the harness tests the
    // maintenance path under faults, and the oracle comparison needs
    // complete (non-PartialResult) answers.
    faulty.set_read_error_rate(0.0);
    faulty.set_write_error_rate(0.0);

    if (advanced.ok()) {
      fault_free_retry = false;
      oracle.AdvanceDay(MakeScenarioDay(scenario, day), window);
      // Data-at-rest corruption lands on the freshly committed day:
      // corrupt -> detect -> quarantine -> heal, and then the exact
      // verification below must hold again on the healed wave.
      for (size_t i = 0; i < scenario.faults.size(); ++i) {
        const FaultEvent& fault = scenario.faults[i];
        if (fault.day != day || fault_consumed[i] ||
            fault.kind != FaultEvent::Kind::kBitRot) {
          continue;
        }
        fault_consumed[i] = true;
        WAVEKIT_RETURN_NOT_OK(RunBitRot(fault, inc.get(), &faulty, scenario,
                                        day, oracle, telemetry.events.get(),
                                        trace));
      }
      WAVEKIT_RETURN_NOT_OK(
          VerifyDay(*inc->scheme, inc->allocator, scenario, day, oracle,
                    &memory, trace));
      // One simulated day elapsed: the collector's clock-driven Tick takes
      // exactly one sample.
      clock.Advance(EpisodeTelemetry::kDayMicros);
      telemetry.collector->Tick();
      ++day;
      continue;
    }

    *trace += "day " + std::to_string(day) + " failed (" +
              std::string(IsInjectedCrash(advanced) ? "crash"
                                                    : StatusCodeToString(
                                                          advanced.code())) +
              ")\n";
    ++*restarts;
    if (*restarts > max_restarts) {
      return Status::Internal("restart livelock: " +
                              std::to_string(*restarts) + " restarts");
    }

    // Simulated restart: RAM dies, the device bytes and the two metadata
    // files survive, faults clear.
    CrashPoints::Reset();
    faulty.ClearCrash();
    faulty.DisarmCrash();
    telemetry.Detach(inc.get());
    inc.reset();
    inc = std::make_unique<Incarnation>(&faulty, memory.capacity());
    telemetry.Attach(&inc->metered, inc.get());

    auto recovered = DurableMaintenance::Recover(
        paths, &inc->metered, &inc->allocator, ConstituentIndex::Options{},
        telemetry.events.get());
    WAVEKIT_RETURN_NOT_OK(recovered.status());
    DurableMaintenance::RecoveredState state =
        std::move(recovered).ValueOrDie();
    if (state.interrupted_day.has_value()) {
      if (*state.interrupted_day != day || state.current_day != day - 1) {
        return Status::Internal(
            "recovery reported interrupted day " +
            std::to_string(*state.interrupted_day) + " / current day " +
            std::to_string(state.current_day) + " after failing day " +
            std::to_string(day));
      }
    } else if (state.current_day != day && state.current_day != day - 1) {
      return Status::Internal("recovery landed on day " +
                              std::to_string(state.current_day) +
                              " after failing day " + std::to_string(day));
    }
    *trace += "recovered current=" + std::to_string(state.current_day) +
              " interrupted=" +
              (state.interrupted_day.has_value() ? "yes" : "no") + "\n";

    // Rebuild the oracle for the recovered window: the workload is a pure
    // function of (workload_seed, day), so this is exact.
    oracle.Clear();
    for (Day d = state.current_day - static_cast<Day>(window) + 1;
         d <= state.current_day; ++d) {
      oracle.AdvanceDay(MakeScenarioDay(scenario, d), window);
    }

    for (Day d = state.current_day - static_cast<Day>(window) + 1;
         d <= state.current_day; ++d) {
      WAVEKIT_RETURN_NOT_OK(inc->day_store.Put(MakeScenarioDay(scenario, d)));
    }
    WAVEKIT_RETURN_NOT_OK(MakeSchemeIn(inc.get(), kind, scenario, &clock,
                                       telemetry.events.get()));
    WAVEKIT_RETURN_NOT_OK(
        inc->scheme->Adopt(std::move(state.wave), state.current_day));
    inc->maintenance =
        std::make_unique<DurableMaintenance>(inc->scheme.get(), paths);

    // The recovered wave must already answer exactly like the oracle.
    WAVEKIT_RETURN_NOT_OK(VerifyDay(*inc->scheme, inc->allocator, scenario,
                                    state.current_day, oracle, &memory,
                                    trace));

    // Roll-back means the next iteration re-runs the day that just failed;
    // only that re-run is fault-free. Roll-forward moves on to a fresh day,
    // which takes its scheduled faults normally.
    fault_free_retry = state.current_day == day - 1;
    day = state.current_day + 1;
  }

  *trace += telemetry.TraceLine();
  *trace += "episode ok days=" + std::to_string(scenario.days) +
            " restarts=" + std::to_string(*restarts) + "\n";
  return Status::OK();
}

}  // namespace

std::string ReproCommand(uint64_t seed, SchemeKind kind, uint64_t episode,
                         ScenarioFamily family) {
  return "sim_torture --seed=" + std::to_string(seed) + " --scheme=" +
         SchemeKindName(kind) + " --episode=" + std::to_string(episode) +
         FamilyFlags(family);
}

EpisodeResult Simulator::RunScenario(SchemeKind kind, const Scenario& scenario,
                                     const std::string& label) const {
  EpisodeResult result;
  result.kind = kind;
  result.scenario = scenario;

  const std::string prefix = config_.tmp_dir + "/wavekit_sim_" +
                             Sanitize(std::string(SchemeKindName(kind)) + "_" +
                                      label);
  DurableMaintenance::Paths paths{prefix + "_CHECKPOINT",
                                  prefix + "_JOURNAL"};
  std::remove(paths.checkpoint.c_str());
  std::remove(paths.journal.c_str());

  result.status =
      RunScenarioImpl(kind, scenario, paths, &result.trace, &result.restarts);
  if (!result.status.ok()) {
    result.trace += "FAIL: " + result.status.ToString() + "\n";
  }

  CrashPoints::Reset();
  std::remove(paths.checkpoint.c_str());
  std::remove(paths.journal.c_str());
  return result;
}

EpisodeResult Simulator::RunEpisode(SchemeKind kind, uint64_t episode,
                                    ScenarioFamily family) const {
  const ScenarioGenerator generator(config_.seed);
  Scenario scenario = family.bitrot ? generator.GenerateBitRot(episode)
                                    : generator.Generate(episode);
  if (family.codec) scenario.codec = CodecMode::kAuto;
  EpisodeResult result =
      RunScenario(kind, scenario,
                  "s" + std::to_string(config_.seed) + "_e" +
                      std::to_string(episode) + FamilyFlags(family));
  result.episode = episode;
  if (!result.status.ok()) {
    result.repro = ReproCommand(config_.seed, kind, episode, family);
  }
  return result;
}

EpisodeResult Simulator::RunMany(SchemeKind kind,
                                 ScenarioFamily family) const {
  EpisodeResult last;
  for (uint64_t e = 0; e < config_.episodes; ++e) {
    last = RunEpisode(kind, e, family);
    if (!last.status.ok()) return last;
  }
  return last;
}

Scenario Simulator::Shrink(SchemeKind kind, const Scenario& failing,
                           int max_runs) const {
  int runs = 0;
  const auto still_fails = [&](const Scenario& candidate) {
    if (runs >= max_runs) return false;
    ++runs;
    return !RunScenario(kind, candidate, "shrink").status.ok();
  };
  // A fault scheduled past the truncated horizon can never fire.
  const auto truncate_days = [](Scenario s, int days) {
    s.days = days;
    const Day last = static_cast<Day>(s.window + days);
    std::vector<FaultEvent> kept;
    for (FaultEvent& fault : s.faults) {
      if (fault.day <= last) kept.push_back(std::move(fault));
    }
    s.faults = std::move(kept);
    return s;
  };

  Scenario best = failing;
  bool improved = true;
  while (improved && runs < max_runs) {
    improved = false;
    while (best.days > 1) {
      const Scenario candidate = truncate_days(best, best.days / 2);
      if (!still_fails(candidate)) break;
      best = candidate;
      improved = true;
    }
    while (best.days > 1) {
      const Scenario candidate = truncate_days(best, best.days - 1);
      if (!still_fails(candidate)) break;
      best = candidate;
      improved = true;
    }
    for (size_t i = 0; i < best.faults.size();) {
      Scenario candidate = best;
      candidate.faults.erase(candidate.faults.begin() +
                             static_cast<ptrdiff_t>(i));
      if (still_fails(candidate)) {
        best = std::move(candidate);
        improved = true;
      } else {
        ++i;
      }
    }
    if (best.read_error_rate > 0.0 || best.write_error_rate > 0.0) {
      Scenario candidate = best;
      candidate.read_error_rate = 0.0;
      candidate.write_error_rate = 0.0;
      candidate.retry_attempts = 1;
      if (still_fails(candidate)) {
        best = std::move(candidate);
        improved = true;
      }
    }
  }
  return best;
}

}  // namespace testing
}  // namespace wavekit
