// AdvanceDayAsync ordering under deterministic simulation: a WaveService
// whose pools are SimExecutors queues async transitions without running
// them, the test interleaves probes between single-stepped transitions, and
// an oracle checks that readers see each published snapshot exactly once, in
// submission order — including the sticky-failure path where a crashed
// transition drops everything queued behind it.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "storage/fault_injecting_device.h"
#include "testing/sim_executor.h"
#include "testing/test_env.h"
#include "util/clock.h"
#include "util/crash_point.h"
#include "wave/wave_service.h"

namespace wavekit {
namespace {

using testing::MakeMixedBatch;
using testing::ReferenceIndex;
using testing::SimExecutor;

constexpr int kWindow = 4;

struct SimService {
  SimClock clock;  // before service_: must outlive it
  std::unique_ptr<WaveService> service;
  SimExecutor* advance_exec = nullptr;       // owned by the service
  FaultInjectingDevice* faulty = nullptr;    // owned by the service
};

// Wires a WaveService entirely onto simulation seams: SimExecutor pools, a
// SimClock, and a FaultInjectingDevice under the whole stack. Initializes in
// place because the pool factory runs lazily (first AdvanceDayAsync) and
// must capture a stable `sim`.
void InitSimService(uint64_t seed, SimService* sim) {
  WaveService::Options options;
  options.scheme = SchemeKind::kDel;
  options.config.window = kWindow;
  options.config.num_indexes = 2;
  options.config.technique = UpdateTechniqueKind::kSimpleShadow;
  options.clock = &sim->clock;
  options.pool_factory = [sim, seed](int /*threads*/,
                                     const std::string& role) {
    // The async advance runner is a 1-thread pool in production; width 1
    // keeps the simulated stand-in strict FIFO, which the ordering contract
    // of AdvanceDayAsync depends on.
    auto exec = std::make_unique<SimExecutor>(seed, /*width=*/1);
    if (role == "advance") sim->advance_exec = exec.get();
    return exec;
  };
  options.device_interposer = [sim, seed](Device* inner) {
    FaultInjectingDevice::Options fault_options;
    fault_options.seed = seed;
    auto faulty = std::make_unique<FaultInjectingDevice>(inner, fault_options);
    sim->faulty = faulty.get();
    return faulty;
  };
  auto created = WaveService::Create(std::move(options));
  EXPECT_TRUE(created.ok()) << created.status();
  if (created.ok()) sim->service = std::move(created).ValueOrDie();
}

void VerifyWindow(const WaveService& service, Day day) {
  ReferenceIndex reference;
  for (Day d = day - kWindow + 1; d <= day; ++d) {
    reference.Add(MakeMixedBatch(d));
  }
  const DayRange range = DayRange::Window(day, kWindow);
  for (const Value& value : {Value("alpha"), Value("day" + std::to_string(day)),
                             Value("day" + std::to_string(day - kWindow))}) {
    std::vector<Entry> out;
    ASSERT_OK(service.TimedIndexProbe(range, value, &out));
    ReferenceIndex::Sort(&out);
    EXPECT_EQ(out, reference.Probe(value, day - kWindow + 1, day))
        << "value '" << value << "' at day " << day;
  }
}

TEST(SimAsyncAdvanceTest, QueuedAdvancesApplyInOrderExactlyOnce) {
  SimService sim;
  InitSimService(testing::TestSeed(0), &sim);
  ASSERT_NE(sim.service, nullptr);
  WaveService& service = *sim.service;

  std::vector<DayBatch> first;
  for (Day d = 1; d <= kWindow; ++d) first.push_back(MakeMixedBatch(d));
  ASSERT_OK(service.Start(std::move(first)));
  VerifyWindow(service, kWindow);

  // Queue three transitions; nothing runs until the executor is stepped.
  for (Day d = kWindow + 1; d <= kWindow + 3; ++d) {
    service.AdvanceDayAsync(MakeMixedBatch(d));
  }
  ASSERT_NE(sim.advance_exec, nullptr);
  EXPECT_EQ(sim.advance_exec->queue_depth(), 3u);
  EXPECT_EQ(service.pending_advances(), 3);
  EXPECT_EQ(service.current_day(), kWindow);
  // Probes interleaved with queued (unapplied) advances serve the old
  // snapshot, consistently.
  VerifyWindow(service, kWindow);

  // Single-step the runner: each step publishes exactly the next day, once.
  std::vector<Day> published;
  while (sim.advance_exec->RunOne()) {
    published.push_back(service.current_day());
    VerifyWindow(service, service.current_day());
  }
  EXPECT_EQ(published, (std::vector<Day>{kWindow + 1, kWindow + 2,
                                         kWindow + 3}));
  ASSERT_OK(service.WaitForMaintenance());
  EXPECT_EQ(service.pending_advances(), 0);
  EXPECT_EQ(service.instruments().days_advanced->value(), 3u);
  EXPECT_EQ(service.instruments().async_advances->value(), 3u);
}

TEST(SimAsyncAdvanceTest, StickyFailureDropsQueuedAdvances) {
  SimService sim;
  InitSimService(testing::TestSeed(1), &sim);
  ASSERT_NE(sim.service, nullptr);
  WaveService& service = *sim.service;

  std::vector<DayBatch> first;
  for (Day d = 1; d <= kWindow; ++d) first.push_back(MakeMixedBatch(d));
  ASSERT_OK(service.Start(std::move(first)));

  // Day 5 applies cleanly; the device then crashes inside day 6's
  // transition; day 7 must be dropped, not applied out of order.
  for (Day d = kWindow + 1; d <= kWindow + 3; ++d) {
    service.AdvanceDayAsync(MakeMixedBatch(d));
  }
  ASSERT_NE(sim.advance_exec, nullptr);
  ASSERT_TRUE(sim.advance_exec->RunOne());
  EXPECT_EQ(service.current_day(), kWindow + 1);

  ASSERT_NE(sim.faulty, nullptr);
  sim.faulty->ArmCrashAfterWrites(1);
  ASSERT_TRUE(sim.advance_exec->RunOne());  // day 6: crashes mid-transition
  EXPECT_EQ(service.current_day(), kWindow + 1) << "failed advance published";
  ASSERT_TRUE(sim.advance_exec->RunOne());  // day 7: dropped
  EXPECT_FALSE(sim.advance_exec->RunOne());

  const Status sticky = service.WaitForMaintenance();
  ASSERT_FALSE(sticky.ok());
  EXPECT_TRUE(IsInjectedCrash(sticky)) << sticky;
  EXPECT_EQ(service.current_day(), kWindow + 1);
  EXPECT_EQ(service.instruments().days_advanced->value(), 1u);
  EXPECT_EQ(service.instruments().degraded_advances->value(), 1u);
  EXPECT_EQ(service.instruments().async_advances->value(), 3u);
  EXPECT_EQ(service.pending_advances(), 0);

  // The restart: persisted bytes stay, faults clear — the service keeps
  // serving the stale day-5 window in degraded mode. The crash left one
  // constituent marked unhealthy, so answers are PartialResult with the
  // unhealthy constituent excluded, never silently wrong.
  sim.faulty->ClearCrash();
  std::vector<Entry> out;
  QueryStats stats;
  const Status degraded = service.TimedIndexProbe(
      DayRange::Window(kWindow + 1, kWindow), "alpha", &out, &stats);
  ASSERT_TRUE(degraded.ok() || degraded.IsPartialResult()) << degraded;
  if (degraded.IsPartialResult()) {
    EXPECT_GT(stats.indexes_unhealthy, 0);
    // What it does return is a subset of the true day-5 window answer.
    ReferenceIndex reference;
    for (Day d = 2; d <= kWindow + 1; ++d) reference.Add(MakeMixedBatch(d));
    const std::vector<Entry> full =
        reference.Probe("alpha", 2, kWindow + 1);
    for (const Entry& e : out) {
      EXPECT_NE(std::find(full.begin(), full.end(), e), full.end());
    }
  }
}

TEST(SimAsyncAdvanceTest, SameSeedSamePublicationSchedule) {
  // The publication schedule (which probe sees which day) is a pure function
  // of the seed: replaying the identical interleaving twice gives identical
  // observations.
  const auto observe = [](uint64_t seed) {
    SimService sim;
    InitSimService(seed, &sim);
    EXPECT_NE(sim.service, nullptr);
    if (sim.service == nullptr) return std::string("create failed");
    WaveService& service = *sim.service;
    std::vector<DayBatch> first;
    for (Day d = 1; d <= kWindow; ++d) first.push_back(MakeMixedBatch(d));
    EXPECT_OK(service.Start(std::move(first)));
    for (Day d = kWindow + 1; d <= kWindow + 4; ++d) {
      service.AdvanceDayAsync(MakeMixedBatch(d));
    }
    std::string log;
    while (sim.advance_exec != nullptr && sim.advance_exec->RunOne()) {
      std::vector<Entry> out;
      EXPECT_OK(service.IndexProbe("alpha", &out));
      log += "day=" + std::to_string(service.current_day()) +
             " alpha=" + std::to_string(out.size()) + ";";
    }
    EXPECT_OK(service.WaitForMaintenance());
    return log;
  };
  const uint64_t seed = testing::TestSeed(2);
  EXPECT_EQ(observe(seed), observe(seed));
}

}  // namespace
}  // namespace wavekit
