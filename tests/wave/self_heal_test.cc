// Online self-healing of corrupt constituents, end to end: scrub detection
// quarantines and degrades, queries keep answering (partial results, never
// corrupt data), Heal rebuilds the constituent from surviving segment data
// and republishes, DurableMaintenance::Heal commits the repair with a
// durable checkpoint, and restart-time recovery revalidates checksums and
// quarantines what fails.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "obs/event_journal.h"
#include "storage/fault_injecting_device.h"
#include "testing/test_env.h"
#include "util/clock.h"
#include "wave/recovery.h"
#include "wave/scheme_factory.h"
#include "wave/wave_service.h"

namespace wavekit {
namespace {

using testing::MakeMixedBatch;
using testing::ReferenceIndex;

constexpr int kWindow = 6;
constexpr int kNumIndexes = 3;

// The expected window contents at `day`.
ReferenceIndex Reference(Day day) {
  ReferenceIndex reference;
  for (Day d = day - kWindow + 1; d <= day; ++d) {
    reference.Add(MakeMixedBatch(d));
  }
  return reference;
}

void ExpectExactAnswers(const WaveService& service) {
  const Day day = service.current_day();
  const ReferenceIndex reference = Reference(day);
  const DayRange range = DayRange::Window(day, kWindow);
  std::vector<Entry> out;
  QueryStats stats;
  ASSERT_OK(service.TimedIndexProbe(range, "alpha", &out, &stats));
  EXPECT_EQ(stats.indexes_unhealthy, 0);
  ReferenceIndex::Sort(&out);
  EXPECT_EQ(out, reference.Probe("alpha", day - kWindow + 1, day));

  std::vector<Entry> scanned;
  ASSERT_OK(service.TimedSegmentScan(
      range, [&](const Value&, const Entry& e) { scanned.push_back(e); }));
  ReferenceIndex::Sort(&scanned);
  EXPECT_EQ(scanned, reference.ScanAll(day - kWindow + 1, day));
}

class SelfHealServiceTest : public ::testing::Test {
 protected:
  WaveService::Options ServiceOptions() {
    WaveService::Options options;
    options.scheme = SchemeKind::kWata;
    options.config.window = kWindow;
    options.config.num_indexes = kNumIndexes;
    options.config.technique = UpdateTechniqueKind::kSimpleShadow;
    options.device_capacity = uint64_t{1} << 26;
    options.event_ring_capacity = 128;
    options.device_interposer = [this](Device* inner) {
      auto faulty = std::make_unique<FaultInjectingDevice>(inner);
      faulty_ = faulty.get();
      return faulty;
    };
    return options;
  }

  void StartService(WaveService::Options options) {
    ASSERT_OK_AND_ASSIGN(service_, WaveService::Create(std::move(options)));
    std::vector<DayBatch> first;
    for (Day d = 1; d <= kWindow; ++d) first.push_back(MakeMixedBatch(d));
    ASSERT_OK(service_->Start(std::move(first)));
    ASSERT_OK(service_->AdvanceDay(MakeMixedBatch(kWindow + 1)));
  }

  // Targeted rot in the newest constituent's first live bucket (the newest
  // cluster's days are always still in the day store, so it is healable).
  void CorruptOneBucket() {
    auto snapshot = service_->Snapshot();
    const auto& constituents = snapshot->constituents();
    for (auto it = constituents.rbegin(); it != constituents.rend(); ++it) {
      Extent live{0, 0};
      ASSERT_OK((*it)->ForEachBucket(
          [&](const Value&, const BucketInfo& info) {
            if (live.length == 0 && info.count > 0) {
              live = Extent{info.extent.offset,
                            uint64_t{info.count} * kEntrySize};
            }
          }));
      if (live.length == 0) continue;
      victim_ = (*it).get();
      ASSERT_OK(faulty_->CorruptRange(live, /*salt=*/7, /*bits=*/1));
      return;
    }
    FAIL() << "no live bucket to corrupt";
  }

  std::unique_ptr<WaveService> service_;
  FaultInjectingDevice* faulty_ = nullptr;
  const ConstituentIndex* victim_ = nullptr;
};

TEST_F(SelfHealServiceTest, ScrubDetectsQuarantinesThenHealRestores) {
  StartService(ServiceOptions());
  CorruptOneBucket();

  ASSERT_OK_AND_ASSIGN(ScrubReport report, service_->Scrub());
  EXPECT_EQ(report.mismatches, 1u);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_TRUE(victim_->corrupt());
  EXPECT_TRUE(service_->degraded());
  EXPECT_NE(service_->degraded_detail().find("quarantined"),
            std::string::npos);

  // Degraded serving: queries answer from the healthy remainder and say so.
  std::vector<Entry> scanned;
  QueryStats stats;
  Status status = service_->TimedSegmentScan(
      DayRange::Window(service_->current_day(), kWindow),
      [&](const Value&, const Entry& e) { scanned.push_back(e); }, &stats);
  EXPECT_TRUE(status.IsPartialResult()) << status;
  EXPECT_GE(stats.indexes_unhealthy, 1);

  EXPECT_EQ(service_->integrity().corruptions_detected.load(), 1u);
  EXPECT_EQ(service_->integrity().quarantines.load(), 1u);
  EXPECT_EQ(service_->instruments().scrub_passes->value(), 1u);
  EXPECT_GT(service_->instruments().scrub_extents->value(), 0u);

  // Heal: rebuilt from segment data, republished, degraded flag cleared.
  ASSERT_OK_AND_ASSIGN(Scheme::HealReport healed, service_->Heal());
  EXPECT_EQ(healed.healed, 1);
  EXPECT_EQ(healed.skipped, 0);
  EXPECT_FALSE(service_->degraded());
  EXPECT_TRUE(service_->degraded_detail().empty());
  EXPECT_EQ(service_->instruments().constituents_healed->value(), 1u);
  ExpectExactAnswers(*service_);

  // The maintenance lifecycle was journaled.
  bool saw_detect = false, saw_quarantine = false, saw_heal = false;
  for (const obs::Event& e : service_->events()->Events()) {
    saw_detect |= e.type == obs::EventType::kCorruptionDetected;
    saw_quarantine |= e.type == obs::EventType::kQuarantine;
    saw_heal |= e.type == obs::EventType::kHealComplete;
  }
  EXPECT_TRUE(saw_detect);
  EXPECT_TRUE(saw_quarantine);
  EXPECT_TRUE(saw_heal);
}

TEST_F(SelfHealServiceTest, AutoHealRepairsInsideTheScrub) {
  WaveService::Options options = ServiceOptions();
  options.auto_heal = true;
  StartService(std::move(options));
  CorruptOneBucket();

  ASSERT_OK_AND_ASSIGN(ScrubReport report, service_->Scrub());
  EXPECT_EQ(report.mismatches, 1u);
  // The scrub itself healed and republished before returning.
  EXPECT_FALSE(service_->degraded());
  EXPECT_EQ(service_->instruments().constituents_healed->value(), 1u);
  ExpectExactAnswers(*service_);
}

TEST_F(SelfHealServiceTest, PeriodicScrubRunsOnTheMaintenancePath) {
  SimClock clock;
  WaveService::Options options = ServiceOptions();
  options.clock = &clock;
  options.scrub_interval_us = 1000;
  options.auto_heal = true;
  StartService(std::move(options));
  EXPECT_EQ(service_->instruments().scrub_passes->value(), 0u);

  // Within the interval: the advance does not scrub.
  ASSERT_OK(service_->AdvanceDay(MakeMixedBatch(kWindow + 2)));
  EXPECT_EQ(service_->instruments().scrub_passes->value(), 0u);

  // Past the interval: the next advance scrubs — and heals what it finds.
  CorruptOneBucket();
  clock.Advance(1500);
  ASSERT_OK(service_->AdvanceDay(MakeMixedBatch(kWindow + 3)));
  EXPECT_EQ(service_->instruments().scrub_passes->value(), 1u);
  EXPECT_EQ(service_->integrity().corruptions_detected.load(), 1u);
  EXPECT_EQ(service_->instruments().constituents_healed->value(), 1u);
  EXPECT_FALSE(service_->degraded());
  ExpectExactAnswers(*service_);
}

TEST_F(SelfHealServiceTest, ReadPathDetectionQuarantinesAndHealRestores) {
  StartService(ServiceOptions());
  CorruptOneBucket();

  // No scrub: the first query that touches the rotted bucket trips the
  // checksum. The answer is degraded (partial), NEVER silently wrong.
  QueryStats stats;
  Status status = service_->TimedSegmentScan(
      DayRange::Window(service_->current_day(), kWindow),
      [](const Value&, const Entry&) {}, &stats);
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(status.IsPartialResult() || status.IsDataLoss()) << status;
  EXPECT_TRUE(victim_->corrupt());

  ASSERT_OK_AND_ASSIGN(Scheme::HealReport healed, service_->Heal());
  EXPECT_EQ(healed.healed, 1);
  ExpectExactAnswers(*service_);
}

// --- Scheme / durable-protocol level ---------------------------------------

SchemeConfig SchemeTestConfig() {
  SchemeConfig config;
  config.window = kWindow;
  config.num_indexes = kNumIndexes;
  config.technique = UpdateTechniqueKind::kSimpleShadow;
  return config;
}

TEST(SelfHealSchemeTest, HealSkipsWhenSourceDaysWerePruned) {
  MemoryDevice memory(uint64_t{1} << 26);
  MeteredDevice metered(&memory);
  ExtentAllocator allocator(memory.capacity());
  DayStore day_store;
  SchemeEnv env{&metered, &allocator, &day_store};
  ASSERT_OK_AND_ASSIGN(auto scheme,
                       MakeScheme(SchemeKind::kWata, env, SchemeTestConfig()));
  std::vector<DayBatch> first;
  for (Day d = 1; d <= kWindow; ++d) first.push_back(MakeMixedBatch(d));
  ASSERT_OK(scheme->Start(std::move(first)));

  scheme->wave().constituents()[0]->Quarantine();
  day_store.Prune(/*oldest_needed=*/1000);  // production pruned aggressively

  ASSERT_OK_AND_ASSIGN(Scheme::HealReport report, scheme->HealUnhealthy());
  EXPECT_EQ(report.healed, 0);
  EXPECT_EQ(report.skipped, 1);
  // Still quarantined: the operator must restore from a replica or accept
  // degraded serving.
  EXPECT_FALSE(scheme->wave().constituents()[0]->healthy());
}

TEST(SelfHealDurableTest, HealCommitsADurableCheckpointAndRecoveryIsClean) {
  const std::string prefix = ::testing::TempDir() + "wavekit_self_heal";
  DurableMaintenance::Paths paths{prefix + "_CHECKPOINT", prefix + "_JOURNAL"};
  std::remove(paths.checkpoint.c_str());
  std::remove(paths.journal.c_str());

  MemoryDevice memory(uint64_t{1} << 26);
  MeteredDevice metered(&memory);
  ExtentAllocator allocator(memory.capacity());
  DayStore day_store;
  SchemeEnv env{&metered, &allocator, &day_store};
  ASSERT_OK_AND_ASSIGN(auto scheme,
                       MakeScheme(SchemeKind::kWata, env, SchemeTestConfig()));
  DurableMaintenance maintenance(scheme.get(), paths);
  std::vector<DayBatch> first;
  for (Day d = 1; d <= kWindow; ++d) first.push_back(MakeMixedBatch(d));
  ASSERT_OK(maintenance.Start(std::move(first)));

  // Rot, detect via a scan, heal through the durable protocol.
  const auto& victim = scheme->wave().constituents().back();
  Extent live{0, 0};
  ASSERT_OK(victim->ForEachBucket([&](const Value&, const BucketInfo& info) {
    if (live.length == 0 && info.count > 0) {
      live = Extent{info.extent.offset, uint64_t{info.count} * kEntrySize};
    }
  }));
  ASSERT_GT(live.length, 0u);
  std::vector<std::byte> buf(static_cast<size_t>(live.length));
  ASSERT_OK(memory.Read(live.offset, buf));
  buf[1] ^= std::byte{0x04};
  ASSERT_OK(memory.Write(live.offset, buf));
  Status scan = scheme->wave().TimedSegmentScan(
      DayRange::All(), [](const Value&, const Entry&) {});
  EXPECT_FALSE(scan.ok());
  ASSERT_TRUE(victim->corrupt());

  ASSERT_OK_AND_ASSIGN(Scheme::HealReport report, maintenance.Heal());
  EXPECT_EQ(report.healed, 1);
  EXPECT_EQ(report.skipped, 0);

  // The repair is durable: a fresh recovery revalidates every checksum and
  // finds nothing to quarantine.
  MeteredDevice remetered(&memory);
  ExtentAllocator reallocator(memory.capacity());
  ASSERT_OK_AND_ASSIGN(
      DurableMaintenance::RecoveredState state,
      DurableMaintenance::Recover(paths, &remetered, &reallocator,
                                  ConstituentIndex::Options{}));
  EXPECT_TRUE(state.quarantined.empty());
  for (const auto& constituent : state.wave.constituents()) {
    EXPECT_TRUE(constituent->healthy()) << constituent->name();
  }
  std::remove(paths.checkpoint.c_str());
  std::remove(paths.journal.c_str());
}

TEST(SelfHealDurableTest, RecoveryRevalidationQuarantinesRotThenHeals) {
  const std::string prefix = ::testing::TempDir() + "wavekit_recovery_rot";
  DurableMaintenance::Paths paths{prefix + "_CHECKPOINT", prefix + "_JOURNAL"};
  std::remove(paths.checkpoint.c_str());
  std::remove(paths.journal.c_str());

  MemoryDevice memory(uint64_t{1} << 26);
  Extent live{0, 0};
  {
    MeteredDevice metered(&memory);
    ExtentAllocator allocator(memory.capacity());
    DayStore day_store;
    SchemeEnv env{&metered, &allocator, &day_store};
    ASSERT_OK_AND_ASSIGN(
        auto scheme, MakeScheme(SchemeKind::kWata, env, SchemeTestConfig()));
    DurableMaintenance maintenance(scheme.get(), paths);
    std::vector<DayBatch> first;
    for (Day d = 1; d <= kWindow; ++d) first.push_back(MakeMixedBatch(d));
    ASSERT_OK(maintenance.Start(std::move(first)));
    ASSERT_OK(scheme->wave().constituents().back()->ForEachBucket(
        [&](const Value&, const BucketInfo& info) {
          if (live.length == 0 && info.count > 0) {
            live = Extent{info.extent.offset,
                          uint64_t{info.count} * kEntrySize};
          }
        }));
    ASSERT_GT(live.length, 0u);
    // "Process" dies here; the device and checkpoint survive.
  }

  // Rot at rest, then restart.
  std::vector<std::byte> buf(static_cast<size_t>(live.length));
  ASSERT_OK(memory.Read(live.offset, buf));
  buf[0] ^= std::byte{0x80};
  ASSERT_OK(memory.Write(live.offset, buf));

  MeteredDevice metered(&memory);
  ExtentAllocator allocator(memory.capacity());
  ASSERT_OK_AND_ASSIGN(
      DurableMaintenance::RecoveredState state,
      DurableMaintenance::Recover(paths, &metered, &allocator,
                                  ConstituentIndex::Options{}));
  ASSERT_EQ(state.quarantined.size(), 1u);

  // Adopt, re-Put the window, heal online, verify exact answers.
  DayStore day_store;
  for (Day d = 1; d <= kWindow; ++d) {
    ASSERT_OK(day_store.Put(MakeMixedBatch(d)));
  }
  SchemeEnv env{&metered, &allocator, &day_store};
  ASSERT_OK_AND_ASSIGN(auto scheme,
                       MakeScheme(SchemeKind::kWata, env, SchemeTestConfig()));
  ASSERT_OK(scheme->Adopt(std::move(state.wave), state.current_day));
  ASSERT_OK_AND_ASSIGN(Scheme::HealReport report, scheme->HealUnhealthy());
  EXPECT_EQ(report.healed, 1);
  EXPECT_EQ(report.skipped, 0);

  const ReferenceIndex reference = Reference(kWindow);
  std::vector<Entry> scanned;
  ASSERT_OK(scheme->wave().TimedSegmentScan(
      DayRange::Window(kWindow, kWindow),
      [&](const Value&, const Entry& e) { scanned.push_back(e); }));
  ReferenceIndex::Sort(&scanned);
  EXPECT_EQ(scanned, reference.ScanAll(1, kWindow));

  std::remove(paths.checkpoint.c_str());
  std::remove(paths.journal.c_str());
}

}  // namespace
}  // namespace wavekit
