// The parallel maintenance pipeline end to end: REINDEX++'s concurrent
// ladder builds match the serial scheme transition for transition, schemes
// gated at threads=1 stay op-for-op identical to the serial paths, and
// WaveService's background AdvanceDayAsync publishes atomically while
// queries keep serving (run under TSan in CI).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "storage/fault_injecting_device.h"
#include "testing/test_env.h"
#include "util/crash_point.h"
#include "util/thread_pool.h"
#include "wave/checkpoint.h"
#include "wave/scheme_factory.h"
#include "wave/wave_service.h"

namespace wavekit {
namespace {

using testing::MakeMixedBatch;
using testing::ReferenceIndex;

constexpr int kWindow = 6;

DayBatch Batch(Day day) { return MakeMixedBatch(day, 8); }

std::vector<DayBatch> FirstWindow() {
  std::vector<DayBatch> first;
  for (Day d = 1; d <= kWindow; ++d) first.push_back(Batch(d));
  return first;
}

std::vector<Value> ProbeValues(Day day) {
  std::vector<Value> values = {"alpha", "beta", "gamma"};
  for (Day d = day - kWindow; d <= day + 1; ++d) {
    values.push_back("day" + std::to_string(d));
  }
  return values;
}

/// The wave must answer exactly like the brute-force oracle for the window
/// ending at `day`.
void VerifyWave(const WaveIndex& wave, Day day) {
  ReferenceIndex reference;
  for (Day d = day - kWindow + 1; d <= day; ++d) reference.Add(Batch(d));
  const DayRange range = DayRange::Window(day, kWindow);
  for (const Value& value : ProbeValues(day)) {
    std::vector<Entry> out;
    ASSERT_OK(wave.TimedIndexProbe(range, value, &out));
    ReferenceIndex::Sort(&out);
    EXPECT_EQ(out, reference.Probe(value, day - kWindow + 1, day))
        << "probe '" << value << "' at day " << day;
  }
  std::vector<Entry> scanned;
  ASSERT_OK(wave.TimedSegmentScan(
      range, [&](const Value&, const Entry& e) { scanned.push_back(e); }));
  ReferenceIndex::Sort(&scanned);
  EXPECT_EQ(scanned, reference.ScanAll(day - kWindow + 1, day));
}

/// (time_set, entry_count) per constituent, in wave order — the logical
/// shape two equivalent schemes must share (device offsets may differ).
std::vector<std::pair<TimeSet, uint64_t>> WaveShape(const WaveIndex& wave) {
  std::vector<std::pair<TimeSet, uint64_t>> shape;
  for (const auto& constituent : wave.constituents()) {
    shape.emplace_back(constituent->time_set(), constituent->entry_count());
  }
  return shape;
}

struct SchemeRig {
  explicit SchemeRig(const ParallelContext& parallel, SchemeKind kind,
                     UpdateTechniqueKind technique)
      : memory(uint64_t{1} << 26), metered(&memory),
        allocator(memory.capacity()) {
    SchemeConfig config;
    config.window = kWindow;
    config.num_indexes = 3;
    config.technique = technique;
    SchemeEnv env{&metered, &allocator, &day_store};
    env.maintenance = parallel;
    auto made = MakeScheme(kind, env, config);
    if (!made.ok()) made.status().Abort("make scheme");
    scheme = std::move(made).ValueOrDie();
  }

  MemoryDevice memory;
  MeteredDevice metered;
  ExtentAllocator allocator;
  DayStore day_store;
  std::unique_ptr<Scheme> scheme;
};

TEST(ParallelMaintenanceTest, ReindexPlusPlusLadderMatchesSerial) {
  // The concurrent ladder (N independent builds) must leave the wave in the
  // same logical state as the serial build-then-clone chain after every
  // transition, across more than two full ladder cycles.
  ThreadPool pool(4);
  SchemeRig serial({}, SchemeKind::kReindexPlusPlus,
                   UpdateTechniqueKind::kSimpleShadow);
  SchemeRig parallel({&pool, 4}, SchemeKind::kReindexPlusPlus,
                     UpdateTechniqueKind::kSimpleShadow);
  ASSERT_OK(serial.scheme->Start(FirstWindow()));
  ASSERT_OK(parallel.scheme->Start(FirstWindow()));
  EXPECT_EQ(WaveShape(serial.scheme->wave()),
            WaveShape(parallel.scheme->wave()));
  VerifyWave(parallel.scheme->wave(), kWindow);
  for (Day d = kWindow + 1; d <= kWindow + 8; ++d) {
    ASSERT_OK(serial.scheme->Transition(Batch(d)));
    ASSERT_OK(parallel.scheme->Transition(Batch(d)));
    EXPECT_EQ(WaveShape(serial.scheme->wave()),
              WaveShape(parallel.scheme->wave()))
        << "day " << d;
    VerifyWave(parallel.scheme->wave(), d);
  }
}

TEST(ParallelMaintenanceTest, ReindexPlusPlusAdoptBuildsLadderInParallel) {
  // Adopt (restart) rebuilds the whole ladder; with a maintenance pool the
  // rungs build concurrently and must serve the same answers afterwards.
  MemoryDevice memory(uint64_t{1} << 26);
  std::string checkpoint;
  Day adopt_day = 0;
  {
    MeteredDevice metered(&memory);
    ExtentAllocator allocator(memory.capacity());
    DayStore day_store;
    SchemeConfig config;
    config.window = kWindow;
    config.num_indexes = 3;
    auto made = MakeScheme(SchemeKind::kReindexPlusPlus,
                           SchemeEnv{&metered, &allocator, &day_store},
                           config);
    ASSERT_TRUE(made.ok()) << made.status();
    std::unique_ptr<Scheme> scheme = std::move(made).ValueOrDie();
    ASSERT_OK(scheme->Start(FirstWindow()));
    ASSERT_OK(scheme->Transition(Batch(kWindow + 1)));
    ASSERT_OK_AND_ASSIGN(checkpoint, SerializeCheckpoint(scheme->wave()));
    adopt_day = scheme->current_day();
  }

  ThreadPool pool(4);
  MeteredDevice metered(&memory);
  ExtentAllocator allocator(memory.capacity());
  ASSERT_OK_AND_ASSIGN(
      WaveIndex wave,
      DeserializeCheckpoint(checkpoint, &metered, &allocator, {}));
  DayStore day_store;
  for (Day d = adopt_day - kWindow + 1; d <= adopt_day; ++d) {
    ASSERT_OK(day_store.Put(Batch(d)));
  }
  SchemeConfig config;
  config.window = kWindow;
  config.num_indexes = 3;
  SchemeEnv env{&metered, &allocator, &day_store};
  env.maintenance = ParallelContext{&pool, 4};
  auto made = MakeScheme(SchemeKind::kReindexPlusPlus, env, config);
  ASSERT_TRUE(made.ok()) << made.status();
  std::unique_ptr<Scheme> scheme = std::move(made).ValueOrDie();
  ASSERT_OK(scheme->Adopt(std::move(wave), adopt_day));
  VerifyWave(scheme->wave(), adopt_day);
  for (Day d = adopt_day + 1; d <= adopt_day + 3; ++d) {
    ASSERT_OK(scheme->Transition(Batch(d)));
    VerifyWave(scheme->wave(), d);
  }
}

TEST(ParallelMaintenanceTest, ThreadsOneIsOpForOpIdenticalToSerial) {
  // The gate: a pool with threads=1 (enabled() == false) must run the exact
  // serial code paths — same op log, same metered I/O per phase.
  for (SchemeKind kind :
       {SchemeKind::kReindex, SchemeKind::kReindexPlusPlus,
        SchemeKind::kWata}) {
    SCOPED_TRACE(SchemeKindName(kind));
    ThreadPool pool(4);
    const UpdateTechniqueKind technique =
        kind == SchemeKind::kWata ? UpdateTechniqueKind::kPackedShadow
                                  : UpdateTechniqueKind::kSimpleShadow;
    SchemeRig serial({}, kind, technique);
    SchemeRig gated({&pool, 1}, kind, technique);
    ASSERT_OK(serial.scheme->Start(FirstWindow()));
    ASSERT_OK(gated.scheme->Start(FirstWindow()));
    for (Day d = kWindow + 1; d <= kWindow + 4; ++d) {
      ASSERT_OK(serial.scheme->Transition(Batch(d)));
      ASSERT_OK(gated.scheme->Transition(Batch(d)));
    }
    EXPECT_EQ(serial.scheme->op_log().ToString(),
              gated.scheme->op_log().ToString());
    for (Phase phase : {Phase::kStart, Phase::kTransition, Phase::kPrecompute,
                        Phase::kQuery, Phase::kOther}) {
      EXPECT_EQ(serial.metered.counters(phase), gated.metered.counters(phase))
          << "phase " << static_cast<int>(phase);
    }
  }
}

// --- WaveService: pool plumbing and background maintenance ------------------

WaveService::Options ServiceOptions(SchemeKind kind, int maintenance_threads) {
  WaveService::Options options;
  options.scheme = kind;
  options.config.window = kWindow;
  options.config.num_indexes = 3;
  options.config.technique = kind == SchemeKind::kReindex
                                 ? UpdateTechniqueKind::kPackedShadow
                                 : UpdateTechniqueKind::kSimpleShadow;
  options.device_capacity = uint64_t{1} << 26;
  options.num_maintenance_threads = maintenance_threads;
  return options;
}

TEST(ParallelMaintenanceServiceTest, ParallelServiceServesOracleAnswers) {
  for (SchemeKind kind : {SchemeKind::kReindex, SchemeKind::kReindexPlusPlus,
                          SchemeKind::kWata}) {
    SCOPED_TRACE(SchemeKindName(kind));
    ASSERT_OK_AND_ASSIGN(auto service,
                         WaveService::Create(ServiceOptions(kind, 4)));
    ASSERT_NE(service->maintenance_pool(), nullptr);
    EXPECT_EQ(service->maintenance_pool()->num_threads(), 4);
    ASSERT_OK(service->Start(FirstWindow()));
    for (Day d = kWindow + 1; d <= kWindow + 6; ++d) {
      ASSERT_OK(service->AdvanceDay(Batch(d)));
      VerifyWave(*service->Snapshot(), d);
    }
  }
}

TEST(ParallelMaintenanceServiceTest, SerialServiceOwnsNoPool) {
  ASSERT_OK_AND_ASSIGN(
      auto service, WaveService::Create(ServiceOptions(SchemeKind::kWata, 1)));
  EXPECT_EQ(service->maintenance_pool(), nullptr);
}

TEST(ParallelMaintenanceServiceTest, AsyncAdvancesApplyInOrder) {
  ASSERT_OK_AND_ASSIGN(
      auto service,
      WaveService::Create(ServiceOptions(SchemeKind::kReindexPlusPlus, 4)));
  ASSERT_OK(service->Start(FirstWindow()));
  for (Day d = kWindow + 1; d <= kWindow + 5; ++d) {
    service->AdvanceDayAsync(Batch(d));
  }
  ASSERT_OK(service->WaitForMaintenance());
  EXPECT_EQ(service->current_day(), kWindow + 5);
  EXPECT_EQ(service->pending_advances(), 0);
  const ServiceMetrics metrics = service->Metrics();
  EXPECT_EQ(metrics.async_advances, 5u);
  EXPECT_EQ(metrics.days_advanced, 5u);
  EXPECT_EQ(metrics.degraded_advances, 0u);
  VerifyWave(*service->Snapshot(), kWindow + 5);
  // Sync and async advances interleave on the same serialized path.
  ASSERT_OK(service->AdvanceDay(Batch(kWindow + 6)));
  service->AdvanceDayAsync(Batch(kWindow + 7));
  ASSERT_OK(service->WaitForMaintenance());
  EXPECT_EQ(service->current_day(), kWindow + 7);
  VerifyWave(*service->Snapshot(), kWindow + 7);
}

TEST(ParallelMaintenanceServiceTest, AsyncFailureIsStickyAndDropsQueued) {
  WaveService::Options options = ServiceOptions(SchemeKind::kReindex, 4);
  FaultInjectingDevice* faulty = nullptr;
  options.device_interposer = [&faulty](Device* inner) {
    FaultInjectingDevice::Options fault_options;
    auto device = std::make_unique<FaultInjectingDevice>(inner, fault_options);
    faulty = device.get();
    return device;
  };
  ASSERT_OK_AND_ASSIGN(auto service, WaveService::Create(std::move(options)));
  ASSERT_OK(service->Start(FirstWindow()));
  const Day before = service->current_day();

  // The first queued advance crashes mid-transition; the two behind it must
  // be dropped, not applied on top of a wounded scheme.
  faulty->ArmCrashAfterWrites(3);
  service->AdvanceDayAsync(Batch(kWindow + 1));
  service->AdvanceDayAsync(Batch(kWindow + 2));
  service->AdvanceDayAsync(Batch(kWindow + 3));
  const Status failed = service->WaitForMaintenance();
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(IsInjectedCrash(failed)) << failed;
  EXPECT_EQ(service->current_day(), before);
  EXPECT_EQ(service->pending_advances(), 0);
  EXPECT_EQ(service->Metrics().days_advanced, 0u);
  EXPECT_EQ(service->Metrics().degraded_advances, 1u);

  // Still sticky after more submissions; the service keeps serving the
  // pre-failure snapshot (possibly degraded — ok or partial, never down).
  faulty->ClearCrash();
  service->AdvanceDayAsync(Batch(kWindow + 1));
  const Status still_failed = service->WaitForMaintenance();
  ASSERT_FALSE(still_failed.ok());
  EXPECT_TRUE(IsInjectedCrash(still_failed));
  std::vector<Entry> out;
  const Status query = service->TimedIndexProbe(
      DayRange::Window(before, kWindow), "alpha", &out);
  EXPECT_TRUE(query.ok() || query.IsPartialResult()) << query;
}

TEST(ParallelMaintenanceServiceTest, ProbesServeThroughBackgroundAdvances) {
  // The TSan target: query threads hammer probes while transitions run on
  // the background runner and fan out on the maintenance pool. Every probe
  // must succeed against some complete snapshot.
  ASSERT_OK_AND_ASSIGN(
      auto service,
      WaveService::Create(ServiceOptions(SchemeKind::kReindexPlusPlus, 4)));
  ASSERT_OK(service->Start(FirstWindow()));

  std::atomic<bool> done{false};
  std::atomic<uint64_t> probes{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&service, &done, &probes]() {
      while (!done.load()) {
        // The snapshot day may lag current_day(); use the published value.
        const Day day = service->current_day();
        std::vector<Entry> out;
        Status s = service->TimedIndexProbe(DayRange::Window(day, kWindow),
                                            "alpha", &out);
        if (!s.ok()) s.Abort("probe during background advance");
        ++probes;
      }
    });
  }
  for (Day d = kWindow + 1; d <= kWindow + 6; ++d) {
    service->AdvanceDayAsync(Batch(d));
  }
  ASSERT_OK(service->WaitForMaintenance());
  done.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(service->current_day(), kWindow + 6);
  EXPECT_GT(probes.load(), 0u);
  VerifyWave(*service->Snapshot(), kWindow + 6);
}

}  // namespace
}  // namespace wavekit
