// WaveService: snapshot semantics and real concurrency — readers hammer the
// service while the writer advances days; every answer must come from a
// consistent snapshot.

#include "wave/wave_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <tuple>

#include "testing/test_env.h"

namespace wavekit {
namespace {

using testing::MakeMixedBatch;

WaveService::Options ServiceOptions(SchemeKind kind, int window, int n) {
  WaveService::Options options;
  options.scheme = kind;
  options.config.window = window;
  options.config.num_indexes = n;
  options.config.technique = UpdateTechniqueKind::kSimpleShadow;
  options.device_capacity = uint64_t{1} << 26;
  return options;
}

TEST(WaveServiceTest, RejectsInPlaceUpdating) {
  WaveService::Options options = ServiceOptions(SchemeKind::kDel, 4, 2);
  options.config.technique = UpdateTechniqueKind::kInPlace;
  auto service = WaveService::Create(options);
  EXPECT_FALSE(service.ok());
  EXPECT_TRUE(service.status().IsInvalidArgument());
}

TEST(WaveServiceTest, QueriesBeforeStartFail) {
  ASSERT_OK_AND_ASSIGN(auto service,
                       WaveService::Create(ServiceOptions(SchemeKind::kWata,
                                                          5, 2)));
  std::vector<Entry> out;
  EXPECT_TRUE(service->IndexProbe("x", &out).IsFailedPrecondition());
}

TEST(WaveServiceTest, BasicServeAndAdvance) {
  ASSERT_OK_AND_ASSIGN(auto service,
                       WaveService::Create(ServiceOptions(SchemeKind::kDel,
                                                          5, 2)));
  std::vector<DayBatch> first;
  for (Day d = 1; d <= 5; ++d) first.push_back(MakeMixedBatch(d));
  ASSERT_OK(service->Start(std::move(first)));
  EXPECT_EQ(service->current_day(), 5);

  std::vector<Entry> out;
  ASSERT_OK(service->IndexProbe("alpha", &out));
  EXPECT_FALSE(out.empty());

  ASSERT_OK(service->AdvanceDay(MakeMixedBatch(6)));
  EXPECT_EQ(service->current_day(), 6);
  out.clear();
  ASSERT_OK(service->TimedIndexProbe(DayRange{6, 6},
                                     "day6", &out));
  EXPECT_FALSE(out.empty());

  uint64_t visited = 0;
  ASSERT_OK(service->TimedSegmentScan(
      DayRange::All(), [&visited](const Value&, const Entry&) { ++visited; }));
  EXPECT_GT(visited, 0u);

  // Operational metrics tracked the traffic.
  const WaveService::Instruments& metrics = service->instruments();
  EXPECT_EQ(metrics.probes->value(), 2u);
  EXPECT_EQ(metrics.scans->value(), 1u);
  EXPECT_EQ(metrics.days_advanced->value(), 1u);
  const Histogram probe_latency = metrics.probe_latency_us->Snapshot();
  EXPECT_EQ(probe_latency.count(), 2u);
  EXPECT_GE(probe_latency.Percentile(0.5), 1u);
}

TEST(WaveServiceTest, OldSnapshotRemainsServableAfterAdvance) {
  ASSERT_OK_AND_ASSIGN(auto service,
                       WaveService::Create(ServiceOptions(SchemeKind::kReindex,
                                                          4, 2)));
  std::vector<DayBatch> first;
  for (Day d = 1; d <= 4; ++d) first.push_back(MakeMixedBatch(d));
  ASSERT_OK(service->Start(std::move(first)));

  std::shared_ptr<const WaveIndex> old_snapshot = service->Snapshot();
  for (Day d = 5; d <= 12; ++d) {
    ASSERT_OK(service->AdvanceDay(MakeMixedBatch(d)));
  }
  // The old snapshot still answers with the OLD window even though all its
  // constituents have since been retired and replaced.
  std::vector<Entry> out;
  ASSERT_OK(old_snapshot->TimedIndexProbe(DayRange{1, 1}, "day1", &out));
  EXPECT_FALSE(out.empty());
  // The fresh snapshot no longer has day 1.
  out.clear();
  ASSERT_OK(service->TimedIndexProbe(DayRange{1, 1}, "day1", &out));
  EXPECT_TRUE(out.empty());
}

TEST(WaveServiceTest, SpaceIsReclaimedOnceSnapshotsRelease) {
  ASSERT_OK_AND_ASSIGN(auto service,
                       WaveService::Create(ServiceOptions(SchemeKind::kWata,
                                                          6, 3)));
  std::vector<DayBatch> first;
  for (Day d = 1; d <= 6; ++d) first.push_back(MakeMixedBatch(d));
  ASSERT_OK(service->Start(std::move(first)));
  auto held = service->Snapshot();
  for (Day d = 7; d <= 20; ++d) ASSERT_OK(service->AdvanceDay(MakeMixedBatch(d)));
  const uint64_t with_held = held->AllocatedBytes();
  EXPECT_GT(with_held, 0u);
  held.reset();  // last reference to the retired constituents
  // The service's live footprint is bounded: retired constituents are gone.
  ASSERT_OK(service->AdvanceDay(MakeMixedBatch(21)));
  EXPECT_LT(service->Snapshot()->AllocatedBytes(), 3 * with_held);
}

TEST(WaveServiceTest, ParallelProbeWithCacheMatchesSerial) {
  // Same traffic through a plain service and one with the sharded block
  // cache enabled: answers must be identical, and the cache must actually
  // absorb repeat reads.
  WaveService::Options uncached = ServiceOptions(SchemeKind::kWata, 6, 3);
  WaveService::Options cached = uncached;
  cached.cache_blocks = 256;
  ASSERT_OK_AND_ASSIGN(auto a, WaveService::Create(uncached));
  ASSERT_OK_AND_ASSIGN(auto b, WaveService::Create(cached));
  ASSERT_NE(b->cache(), nullptr);

  std::vector<DayBatch> first_a, first_b;
  for (Day d = 1; d <= 6; ++d) {
    first_a.push_back(MakeMixedBatch(d, /*num_records=*/20));
    first_b.push_back(MakeMixedBatch(d, /*num_records=*/20));
  }
  ASSERT_OK(a->Start(std::move(first_a)));
  ASSERT_OK(b->Start(std::move(first_b)));
  for (Day d = 7; d <= 18; ++d) {
    ASSERT_OK(a->AdvanceDay(MakeMixedBatch(d, 20)));
    ASSERT_OK(b->AdvanceDay(MakeMixedBatch(d, 20)));
  }

  auto sorted = [](std::vector<Entry> entries) {
    std::sort(entries.begin(), entries.end(),
              [](const Entry& x, const Entry& y) {
                return std::tie(x.day, x.record_id, x.aux) <
                       std::tie(y.day, y.record_id, y.aux);
              });
    return entries;
  };
  const std::vector<Value> values = {"alpha", "beta", "day7", "day15", "zzz"};
  for (int round = 0; round < 3; ++round) {
    for (const Value& value : values) {
      std::vector<Entry> got_a, got_b;
      ASSERT_OK(a->IndexProbe(value, &got_a));
      ASSERT_OK(b->IndexProbe(value, &got_b));
      EXPECT_EQ(sorted(got_a), sorted(got_b)) << "value=" << value;
    }
  }
  uint64_t visited_a = 0, visited_b = 0;
  ASSERT_OK(a->TimedSegmentScan(
      DayRange::All(), [&visited_a](const Value&, const Entry&) { ++visited_a; }));
  ASSERT_OK(b->TimedSegmentScan(
      DayRange::All(), [&visited_b](const Value&, const Entry&) { ++visited_b; }));
  EXPECT_EQ(visited_a, visited_b);

  const CacheStats stats = b->cache()->stats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
  EXPECT_GT(stats.hits, 0u);  // repeated rounds re-read the same blocks
}

class WaveServiceConcurrencyTest : public ::testing::TestWithParam<SchemeKind> {};

TEST_P(WaveServiceConcurrencyTest, ReadersRaceWriterSafely) {
  const int window = 6;
  ASSERT_OK_AND_ASSIGN(auto service,
                       WaveService::Create(ServiceOptions(GetParam(), window,
                                                          3)));
  std::vector<DayBatch> first;
  for (Day d = 1; d <= window; ++d) {
    first.push_back(MakeMixedBatch(d, /*num_records=*/12));
  }
  ASSERT_OK(service->Start(std::move(first)));

  std::atomic<bool> stop{false};
  std::atomic<int> probes_done{0};
  std::atomic<int> failures{0};

  auto reader = [&]() {
    std::vector<Entry> out;
    while (!stop.load()) {
      const Day before = service->current_day();
      out.clear();
      Status s = service->IndexProbe("alpha", &out);
      if (!s.ok()) {
        ++failures;
        continue;
      }
      const Day after = service->current_day();
      // Consistency: every entry's day is within the window of SOME snapshot
      // the reader could have observed (soft-window slack for WATA).
      const Day oldest_valid = before - window + 1 - window;  // generous
      for (const Entry& e : out) {
        if (e.day < oldest_valid || e.day > after) {
          ++failures;
          break;
        }
      }
      ++probes_done;
    }
  };

  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) readers.emplace_back(reader);

  Status writer_status;
  for (Day d = window + 1; d <= window + 40; ++d) {
    writer_status = service->AdvanceDay(MakeMixedBatch(d, 12));
    if (!writer_status.ok()) break;
    // Give readers a slice so transitions genuinely interleave with probes.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  // Don't stop before the readers have actually raced some queries.
  for (int spin = 0; spin < 10000 && probes_done.load() < 50; ++spin) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();

  ASSERT_TRUE(writer_status.ok()) << writer_status.ToString();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(probes_done.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(Schemes, WaveServiceConcurrencyTest,
                         ::testing::Values(SchemeKind::kDel,
                                           SchemeKind::kReindex,
                                           SchemeKind::kReindexPlusPlus,
                                           SchemeKind::kWata,
                                           SchemeKind::kRata),
                         [](const auto& info) {
                           std::string name = SchemeKindName(info.param);
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace wavekit
