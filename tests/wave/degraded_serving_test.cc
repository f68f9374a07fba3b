// Degraded-mode serving: unhealthy constituents are excluded (partial
// results, not errors), probes fall back to scans on transient read
// failures, transient write errors are retried inside the maintenance
// primitives, and a WaveService keeps answering through a failed AdvanceDay.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "index/index_builder.h"
#include "storage/fault_injecting_device.h"
#include "testing/test_env.h"
#include "wave/scheme_factory.h"
#include "wave/wave_service.h"

namespace wavekit {
namespace {

using testing::MakeMixedBatch;
using testing::ReferenceIndex;

class DegradedServingTest : public ::testing::Test {
 protected:
  DegradedServingTest()
      : memory_(uint64_t{1} << 24),
        faulty_(&memory_),
        metered_(&faulty_),
        allocator_(memory_.capacity()) {}

  // A wave of two constituents: days 1-3 and days 4-6.
  void BuildWave() {
    for (int part = 0; part < 2; ++part) {
      std::vector<DayBatch> batches;
      for (Day d = 1 + 3 * part; d <= 3 + 3 * part; ++d) {
        batches.push_back(MakeMixedBatch(d));
        reference_.Add(batches.back());
        if (part == 1) late_reference_.Add(batches.back());
      }
      std::vector<const DayBatch*> ptrs;
      for (const DayBatch& b : batches) ptrs.push_back(&b);
      auto built = IndexBuilder::BuildPacked(&metered_, &allocator_, {}, ptrs,
                                             "part" + std::to_string(part));
      ASSERT_TRUE(built.ok()) << built.status();
      wave_.AddIndex(std::move(built).ValueOrDie());
    }
  }

  MemoryDevice memory_;
  FaultInjectingDevice faulty_;
  MeteredDevice metered_;
  ExtentAllocator allocator_;
  WaveIndex wave_;
  ReferenceIndex reference_;       // all six days
  ReferenceIndex late_reference_;  // days 4-6 only
};

TEST_F(DegradedServingTest, UnhealthyConstituentIsExcludedWithPartialResult) {
  BuildWave();
  wave_.constituents()[0]->set_healthy(false);

  std::vector<Entry> out;
  QueryStats stats;
  Status status = wave_.TimedIndexProbe(DayRange::All(), "alpha", &out, &stats);
  ASSERT_TRUE(status.IsPartialResult()) << status;
  EXPECT_EQ(stats.indexes_unhealthy, 1);
  EXPECT_EQ(stats.indexes_failed, 0);
  ReferenceIndex::Sort(&out);
  EXPECT_EQ(out, late_reference_.Probe("alpha", kDayNegInf, kDayPosInf));

  std::vector<Entry> scanned;
  QueryStats scan_stats;
  status = wave_.TimedSegmentScan(
      DayRange::All(), [&](const Value&, const Entry& e) { scanned.push_back(e); },
      &scan_stats);
  ASSERT_TRUE(status.IsPartialResult()) << status;
  EXPECT_EQ(scan_stats.indexes_unhealthy, 1);
  ReferenceIndex::Sort(&scanned);
  EXPECT_EQ(scanned, late_reference_.ScanAll(kDayNegInf, kDayPosInf));

  // Healing the constituent restores exact answers.
  wave_.constituents()[0]->set_healthy(true);
  out.clear();
  ASSERT_OK(wave_.TimedIndexProbe(DayRange::All(), "alpha", &out));
  ReferenceIndex::Sort(&out);
  EXPECT_EQ(out, reference_.Probe("alpha", kDayNegInf, kDayPosInf));
}

TEST_F(DegradedServingTest, ProbeFallsBackToScanUnderFlakyReads) {
  BuildWave();
  faulty_.set_read_error_rate(0.25);
  const std::vector<Entry> expected =
      reference_.Probe("gamma", kDayNegInf, kDayPosInf);
  int fallbacks = 0, fallback_successes = 0, partials = 0;
  for (int i = 0; i < 300; ++i) {
    std::vector<Entry> out;
    QueryStats stats;
    const Status status =
        wave_.TimedIndexProbe(DayRange::All(), "gamma", &out, &stats);
    fallbacks += stats.probe_fallbacks;
    if (status.ok()) {
      // A fully-served answer — through the directory or the scan fallback —
      // must be exact.
      ReferenceIndex::Sort(&out);
      ASSERT_EQ(out, expected) << "iteration " << i;
      if (stats.probe_fallbacks > 0) ++fallback_successes;
    } else {
      ASSERT_TRUE(status.IsPartialResult()) << status;
      EXPECT_GT(stats.indexes_failed, 0);
      ++partials;
    }
  }
  // At a 25% read-error rate over 300 probes all three regimes occur.
  EXPECT_GT(fallbacks, 0);
  EXPECT_GT(fallback_successes, 0);
  EXPECT_GT(partials, 0);
}

TEST_F(DegradedServingTest, TransientWriteErrorsAreRetriedToSuccess) {
  DayStore day_store;
  SchemeEnv env{&metered_, &allocator_, &day_store};
  env.retry.max_attempts = 5;
  env.retry.initial_backoff_us = 1;
  env.retry.max_backoff_us = 4;
  SchemeConfig config;
  config.window = 6;
  config.num_indexes = 3;
  config.technique = UpdateTechniqueKind::kSimpleShadow;
  auto made = MakeScheme(SchemeKind::kWata, env, config);
  ASSERT_TRUE(made.ok()) << made.status();
  std::unique_ptr<Scheme> scheme = std::move(made).ValueOrDie();
  ReferenceIndex reference;
  std::vector<DayBatch> first;
  for (Day d = 1; d <= 6; ++d) first.push_back(MakeMixedBatch(d));
  ASSERT_OK(scheme->Start(std::move(first)));

  faulty_.set_write_error_rate(0.05);
  for (Day d = 7; d <= 24; ++d) {
    ASSERT_OK(scheme->Transition(MakeMixedBatch(d))) << "day " << d;
  }
  faulty_.set_write_error_rate(0.0);
  const FaultStats faults = scheme->fault_stats();
  EXPECT_GT(faults.transient_io_errors, 0u);
  EXPECT_GT(faults.retries, 0u);
  EXPECT_EQ(faults.retries_exhausted, 0u);
  EXPECT_FALSE(scheme->needs_recovery());

  // The surviving index answers exactly.
  for (Day d = 19; d <= 24; ++d) reference.Add(MakeMixedBatch(d));
  std::vector<Entry> out;
  ASSERT_OK(scheme->wave().TimedIndexProbe(DayRange::Window(24, 6), "alpha",
                                           &out));
  ReferenceIndex::Sort(&out);
  EXPECT_EQ(out, reference.Probe("alpha", 19, 24));
}

TEST_F(DegradedServingTest, PermanentFailureEntersRecoveryModeButKeepsServing) {
  DayStore day_store;
  SchemeEnv env{&metered_, &allocator_, &day_store};
  env.retry.max_attempts = 2;
  env.retry.initial_backoff_us = 1;
  SchemeConfig config;
  config.window = 6;
  config.num_indexes = 3;
  config.technique = UpdateTechniqueKind::kSimpleShadow;
  auto made = MakeScheme(SchemeKind::kWata, env, config);
  ASSERT_TRUE(made.ok()) << made.status();
  std::unique_ptr<Scheme> scheme = std::move(made).ValueOrDie();
  std::vector<DayBatch> first;
  for (Day d = 1; d <= 6; ++d) first.push_back(MakeMixedBatch(d));
  ASSERT_OK(scheme->Start(std::move(first)));
  ASSERT_OK(scheme->Transition(MakeMixedBatch(7)));

  faulty_.set_write_error_rate(1.0);
  const Status failed = scheme->Transition(MakeMixedBatch(8));
  ASSERT_TRUE(failed.IsIOError()) << failed;
  faulty_.set_write_error_rate(0.0);

  EXPECT_TRUE(scheme->needs_recovery());
  EXPECT_EQ(scheme->current_day(), 7);
  const FaultStats faults = scheme->fault_stats();
  EXPECT_GT(faults.retries_exhausted, 0u);
  EXPECT_GT(faults.constituents_marked_unhealthy, 0u);

  // Refuses to dig the hole deeper.
  const Status again = scheme->Transition(MakeMixedBatch(8));
  ASSERT_TRUE(again.IsFailedPrecondition()) << again;

  // The wave still answers over the healthy remainder.
  std::vector<Entry> out;
  QueryStats stats;
  Status degraded = scheme->wave().TimedIndexProbe(DayRange::Window(7, 6),
                                                   "alpha", &out, &stats);
  ASSERT_TRUE(degraded.ok() || degraded.IsPartialResult()) << degraded;
  if (degraded.IsPartialResult()) EXPECT_GT(stats.indexes_unhealthy, 0);
}

TEST(WaveServiceDegradedTest, KeepsServingThroughFailedAdvance) {
  FaultInjectingDevice* faulty = nullptr;
  WaveService::Options options;
  options.scheme = SchemeKind::kWata;
  options.config.window = 6;
  options.config.num_indexes = 3;
  options.config.technique = UpdateTechniqueKind::kSimpleShadow;
  options.device_capacity = uint64_t{1} << 24;
  options.retry.max_attempts = 2;
  options.retry.initial_backoff_us = 1;
  options.device_interposer = [&faulty](Device* inner) {
    auto device = std::make_unique<FaultInjectingDevice>(inner);
    faulty = device.get();
    return device;
  };
  auto made = WaveService::Create(options);
  ASSERT_TRUE(made.ok()) << made.status();
  std::unique_ptr<WaveService> service = std::move(made).ValueOrDie();
  ASSERT_NE(faulty, nullptr);

  ReferenceIndex reference;
  std::vector<DayBatch> first;
  for (Day d = 1; d <= 6; ++d) {
    first.push_back(MakeMixedBatch(d));
    if (d >= 2) reference.Add(first.back());
  }
  ASSERT_OK(service->Start(std::move(first)));
  DayBatch day7 = MakeMixedBatch(7);
  reference.Add(day7);
  ASSERT_OK(service->AdvanceDay(std::move(day7)));
  ASSERT_EQ(service->current_day(), 7);

  faulty->set_write_error_rate(1.0);
  const Status failed = service->AdvanceDay(MakeMixedBatch(8));
  ASSERT_TRUE(failed.IsIOError()) << failed;
  faulty->set_write_error_rate(0.0);

  // The failed advance degraded the service but did not take it down: the
  // published snapshot is still the complete day-7 window.
  EXPECT_EQ(service->current_day(), 7);
  EXPECT_EQ(service->instruments().degraded_advances->value(), 1u);
  EXPECT_GT(service->scheme().fault_stats().retries_exhausted, 0u);

  std::vector<Entry> out;
  QueryStats stats;
  const Status query = service->TimedIndexProbe(DayRange::Window(7, 6),
                                                "alpha", &out, &stats);
  ASSERT_TRUE(query.ok() || query.IsPartialResult()) << query;
  if (query.IsPartialResult()) {
    EXPECT_GT(stats.indexes_unhealthy, 0);
    EXPECT_GE(service->instruments().partial_results->value(), 1u);
  } else {
    ReferenceIndex::Sort(&out);
    EXPECT_EQ(out, reference.Probe("alpha", 2, 7));
  }

  // The scheme demands recovery before further transitions.
  const Status again = service->AdvanceDay(MakeMixedBatch(8));
  ASSERT_TRUE(again.IsFailedPrecondition()) << again;
  EXPECT_EQ(service->instruments().degraded_advances->value(), 2u);
}

}  // namespace
}  // namespace wavekit
