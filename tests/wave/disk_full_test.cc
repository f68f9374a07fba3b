// Disk-full (ENOSPC) behaviour around the AdvanceDay commit point: a spent
// write budget surfaces as a descriptive Status::ResourceExhausted (never an
// abort), retry policies do not burn attempts on it, the intent journal
// stays consistent, and recovery + a freed disk resume cleanly.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "storage/fault_injecting_device.h"
#include "storage/metered_device.h"
#include "testing/test_env.h"
#include "util/fs.h"
#include "wave/day_store.h"
#include "wave/recovery.h"
#include "wave/scheme_factory.h"
#include "wave/wave_service.h"

namespace wavekit {
namespace {

using testing::MakeMixedBatch;
using testing::ReferenceIndex;

constexpr int kWindow = 6;

SchemeConfig Config() {
  SchemeConfig config;
  config.window = kWindow;
  config.num_indexes = 3;
  config.technique = UpdateTechniqueKind::kSimpleShadow;
  return config;
}

TEST(DiskFullTest, ServiceAdvanceFailsCleanlyAndKeepsServing) {
  FaultInjectingDevice* faulty = nullptr;
  WaveService::Options options;
  options.scheme = SchemeKind::kWata;
  options.config = Config();
  options.device_capacity = uint64_t{1} << 26;
  options.device_interposer = [&faulty](Device* inner) {
    auto device = std::make_unique<FaultInjectingDevice>(inner);
    faulty = device.get();
    return device;
  };
  ASSERT_OK_AND_ASSIGN(auto service, WaveService::Create(std::move(options)));

  ReferenceIndex reference;
  std::vector<DayBatch> first;
  for (Day d = 1; d <= kWindow; ++d) {
    first.push_back(MakeMixedBatch(d));
    if (d >= 2) reference.Add(first.back());
  }
  ASSERT_OK(service->Start(std::move(first)));
  DayBatch day7 = MakeMixedBatch(7);
  reference.Add(day7);
  ASSERT_OK(service->AdvanceDay(std::move(day7)));

  // The disk fills. The next advance must fail with ResourceExhausted — a
  // descriptive operational error, not an abort, not a generic IOError.
  faulty->SetWriteBudget(2);
  const Status failed = service->AdvanceDay(MakeMixedBatch(8));
  ASSERT_TRUE(failed.IsResourceExhausted()) << failed;
  EXPECT_NE(failed.ToString().find("disk full"), std::string::npos) << failed;
  EXPECT_GT(faulty->stats().budget_rejected_writes, 0u);

  // Still serving the complete day-7 window (degraded, not down).
  EXPECT_EQ(service->current_day(), 7);
  EXPECT_EQ(service->instruments().degraded_advances->value(), 1u);
  std::vector<Entry> out;
  QueryStats stats;
  const Status query =
      service->TimedIndexProbe(DayRange::Window(7, kWindow), "alpha", &out,
                               &stats);
  ASSERT_TRUE(query.ok() || query.IsPartialResult()) << query;
  if (query.ok()) {
    ReferenceIndex::Sort(&out);
    EXPECT_EQ(out, reference.Probe("alpha", 2, 7));
  }
  faulty->ClearWriteBudget();
}

TEST(DiskFullTest, ResourceExhaustedDoesNotBurnRetryAttempts) {
  MemoryDevice memory(uint64_t{1} << 26);
  FaultInjectingDevice faulty(&memory);
  MeteredDevice metered(&faulty);
  ExtentAllocator allocator(memory.capacity());
  DayStore day_store;
  SchemeEnv env{&metered, &allocator, &day_store};
  env.retry.max_attempts = 4;
  env.retry.initial_backoff_us = 1;
  ASSERT_OK_AND_ASSIGN(auto scheme,
                       MakeScheme(SchemeKind::kWata, env, Config()));
  std::vector<DayBatch> first;
  for (Day d = 1; d <= kWindow; ++d) first.push_back(MakeMixedBatch(d));
  ASSERT_OK(scheme->Start(std::move(first)));

  faulty.SetWriteBudget(0);
  const Status failed = scheme->Transition(MakeMixedBatch(kWindow + 1));
  ASSERT_TRUE(failed.IsResourceExhausted()) << failed;
  // ENOSPC is not transient: retrying cannot free space, so the retry
  // policy must not have burned any attempt on it.
  EXPECT_EQ(scheme->fault_stats().retries, 0u);
  faulty.ClearWriteBudget();
}

TEST(DiskFullTest, DurableProtocolRollsBackAcrossDiskFullAndResumes) {
  const std::string prefix = ::testing::TempDir() + "wavekit_disk_full";
  DurableMaintenance::Paths paths{prefix + "_CHECKPOINT", prefix + "_JOURNAL"};
  std::remove(paths.checkpoint.c_str());
  std::remove(paths.journal.c_str());

  MemoryDevice memory(uint64_t{1} << 26);
  const Day full_day = kWindow + 2;
  {
    FaultInjectingDevice faulty(&memory);
    MeteredDevice metered(&faulty);
    ExtentAllocator allocator(memory.capacity());
    DayStore day_store;
    SchemeEnv env{&metered, &allocator, &day_store};
    ASSERT_OK_AND_ASSIGN(auto scheme,
                         MakeScheme(SchemeKind::kWata, env, Config()));
    DurableMaintenance maintenance(scheme.get(), paths);
    std::vector<DayBatch> first;
    for (Day d = 1; d <= kWindow; ++d) first.push_back(MakeMixedBatch(d));
    ASSERT_OK(maintenance.Start(std::move(first)));
    ASSERT_OK(maintenance.AdvanceDay(MakeMixedBatch(kWindow + 1)));

    // The disk fills partway through the transition — after the intent was
    // journaled, before the checkpoint (the commit point) could land.
    faulty.SetWriteBudget(3);
    const Status failed = maintenance.AdvanceDay(MakeMixedBatch(full_day));
    ASSERT_TRUE(failed.IsResourceExhausted()) << failed;
    // The protocol held its shape: the intent journal survives the failure,
    // so a restart knows the transition never committed.
    EXPECT_TRUE(FileExists(paths.journal));
  }

  // "Restart" after the operator freed space: recovery rolls back to the
  // last committed window and reports the interrupted day for re-running.
  MeteredDevice metered(&memory);
  ExtentAllocator allocator(memory.capacity());
  ASSERT_OK_AND_ASSIGN(
      DurableMaintenance::RecoveredState state,
      DurableMaintenance::Recover(paths, &metered, &allocator,
                                  ConstituentIndex::Options{}));
  ASSERT_TRUE(state.interrupted_day.has_value());
  EXPECT_EQ(*state.interrupted_day, full_day);
  EXPECT_EQ(state.current_day, full_day - 1);
  EXPECT_FALSE(FileExists(paths.journal));

  DayStore day_store;
  for (Day d = state.current_day - kWindow + 1; d <= state.current_day; ++d) {
    ASSERT_OK(day_store.Put(MakeMixedBatch(d)));
  }
  SchemeEnv env{&metered, &allocator, &day_store};
  ASSERT_OK_AND_ASSIGN(auto scheme,
                       MakeScheme(SchemeKind::kWata, env, Config()));
  ASSERT_OK(scheme->Adopt(std::move(state.wave), state.current_day));
  DurableMaintenance maintenance(scheme.get(), paths);
  ASSERT_OK(maintenance.AdvanceDay(MakeMixedBatch(full_day)));
  ASSERT_OK(maintenance.AdvanceDay(MakeMixedBatch(full_day + 1)));

  // The resumed window answers exactly like the oracle.
  ReferenceIndex reference;
  for (Day d = full_day + 1 - kWindow + 1; d <= full_day + 1; ++d) {
    reference.Add(MakeMixedBatch(d));
  }
  std::vector<Entry> scanned;
  ASSERT_OK(scheme->wave().TimedSegmentScan(
      DayRange::Window(full_day + 1, kWindow),
      [&](const Value&, const Entry& e) { scanned.push_back(e); }));
  ReferenceIndex::Sort(&scanned);
  EXPECT_EQ(scanned,
            reference.ScanAll(full_day + 1 - kWindow + 1, full_day + 1));

  std::remove(paths.checkpoint.c_str());
  std::remove(paths.journal.c_str());
}

}  // namespace
}  // namespace wavekit
