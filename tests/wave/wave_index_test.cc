#include "wave/wave_index.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "index/index_builder.h"
#include "testing/test_env.h"

namespace wavekit {
namespace {

using testing::MakeMixedBatch;
using testing::ReferenceIndex;

class WaveIndexTest : public testing::StoreTest {
 protected:
  // Builds one packed constituent per cluster of `clusters`.
  void BuildWave(const std::vector<TimeSet>& clusters) {
    for (const TimeSet& cluster : clusters) {
      std::vector<DayBatch> batches;
      for (Day d : cluster) {
        batches.push_back(MakeMixedBatch(d));
        reference_.Add(batches.back());
      }
      std::vector<const DayBatch*> ptrs;
      for (const DayBatch& b : batches) ptrs.push_back(&b);
      auto built = IndexBuilder::BuildPacked(store_.device(),
                                             store_.allocator(), Options(),
                                             ptrs, "I");
      ASSERT_TRUE(built.ok()) << built.status();
      wave_.AddIndex(std::move(built).ValueOrDie());
    }
  }

  WaveIndex wave_;
  ReferenceIndex reference_;
};

TEST_F(WaveIndexTest, ProbeMergesAcrossConstituents) {
  BuildWave({{1, 2}, {3, 4}, {5}});
  std::vector<Entry> out;
  QueryStats stats;
  ASSERT_OK(wave_.IndexProbe("alpha", &out, &stats));
  ReferenceIndex::Sort(&out);
  EXPECT_EQ(out, reference_.Probe("alpha", kDayNegInf, kDayPosInf));
  EXPECT_EQ(stats.indexes_accessed, 3);
  EXPECT_EQ(stats.indexes_skipped, 0);
}

TEST_F(WaveIndexTest, TimedProbePrunesConstituents) {
  BuildWave({{1, 2}, {3, 4}, {5}});
  std::vector<Entry> out;
  QueryStats stats;
  ASSERT_OK(wave_.TimedIndexProbe(DayRange{3, 4}, "alpha", &out, &stats));
  ReferenceIndex::Sort(&out);
  EXPECT_EQ(out, reference_.Probe("alpha", 3, 4));
  EXPECT_EQ(stats.indexes_accessed, 1);
  EXPECT_EQ(stats.indexes_skipped, 2);
}

TEST_F(WaveIndexTest, TimedProbePartialClusterFiltersEntries) {
  BuildWave({{1, 2, 3}});
  std::vector<Entry> out;
  ASSERT_OK(wave_.TimedIndexProbe(DayRange{2, 2}, "alpha", &out));
  ReferenceIndex::Sort(&out);
  EXPECT_EQ(out, reference_.Probe("alpha", 2, 2));
}

TEST_F(WaveIndexTest, SegmentScanVisitsAllEntries) {
  BuildWave({{1, 2}, {3}});
  std::vector<Entry> scanned;
  QueryStats stats;
  ASSERT_OK(wave_.SegmentScan(
      [&](const Value&, const Entry& e) { scanned.push_back(e); }, &stats));
  ReferenceIndex::Sort(&scanned);
  EXPECT_EQ(scanned, reference_.ScanAll(kDayNegInf, kDayPosInf));
  EXPECT_EQ(stats.entries_returned, scanned.size());
}

TEST_F(WaveIndexTest, TimedSegmentScanPrunesAndFilters) {
  BuildWave({{1, 2}, {3, 4}, {5, 6}});
  std::vector<Entry> scanned;
  QueryStats stats;
  ASSERT_OK(wave_.TimedSegmentScan(
      DayRange{2, 3},
      [&](const Value&, const Entry& e) { scanned.push_back(e); }, &stats));
  ReferenceIndex::Sort(&scanned);
  EXPECT_EQ(scanned, reference_.ScanAll(2, 3));
  EXPECT_EQ(stats.indexes_accessed, 2);
  EXPECT_EQ(stats.indexes_skipped, 1);
}

TEST_F(WaveIndexTest, LimitedScanStopsInsideTheConstituentItRunsOutIn) {
  BuildWave({{1, 2}, {3, 4}, {5}});  // 24, 24 and 12 entries
  using Pair = std::pair<Value, Entry>;
  std::vector<Pair> all;
  ASSERT_OK(wave_.SegmentScan(
      [&](const Value& v, const Entry& e) { all.emplace_back(v, e); }));
  ASSERT_EQ(all.size(), 60u);

  const uint64_t limit = 24 + 3;  // runs out 3 entries into the second
  std::vector<Pair> limited;
  QueryStats stats;
  const uint64_t bytes_before = store_.device()->total().bytes_read;
  ASSERT_OK(wave_.TimedSegmentScan(
      DayRange::All(),
      [&](const Value& v, const Entry& e) { limited.emplace_back(v, e); },
      &stats, limit));
  const uint64_t bytes_read =
      store_.device()->total().bytes_read - bytes_before;
  EXPECT_EQ(limited, std::vector<Pair>(all.begin(), all.begin() + limit));
  EXPECT_EQ(stats.entries_returned, limit);
  // The third constituent is neither read nor counted.
  EXPECT_EQ(stats.indexes_accessed, 2);
  EXPECT_EQ(stats.indexes_skipped, 0);
  EXPECT_LE(bytes_read, wave_.constituents()[0]->allocated_bytes() +
                            wave_.constituents()[1]->allocated_bytes());
}

TEST_F(WaveIndexTest, ProbeForMissingValueIsEmpty) {
  BuildWave({{1}});
  std::vector<Entry> out;
  ASSERT_OK(wave_.IndexProbe("no-such-word", &out));
  EXPECT_TRUE(out.empty());
}

TEST_F(WaveIndexTest, AccountingHelpers) {
  BuildWave({{1, 2}, {3, 4, 5}});
  EXPECT_EQ(wave_.num_constituents(), 2u);
  EXPECT_EQ(wave_.TotalDays(), 5);
  EXPECT_EQ(wave_.CoveredDays(), (TimeSet{1, 2, 3, 4, 5}));
  EXPECT_GT(wave_.AllocatedBytes(), 0u);
  EXPECT_EQ(wave_.EntryCount(),
            reference_.ScanAll(kDayNegInf, kDayPosInf).size());
}

TEST_F(WaveIndexTest, RemoveAndDropIndex) {
  BuildWave({{1}, {2}});
  const auto first = wave_.constituents()[0];
  const auto second = wave_.constituents()[1];
  ASSERT_OK(wave_.RemoveIndex(first.get()));
  EXPECT_EQ(wave_.num_constituents(), 1u);
  EXPECT_GT(first->entry_count(), 0u);  // not destroyed
  ASSERT_OK(wave_.DropIndex(second.get()));
  EXPECT_EQ(wave_.num_constituents(), 0u);
  EXPECT_EQ(second->entry_count(), 0u);  // destroyed
  EXPECT_TRUE(wave_.RemoveIndex(first.get()).IsNotFound());
}

TEST_F(WaveIndexTest, ReplaceIndexSwapsInPlace) {
  BuildWave({{1}, {2}, {3}});
  auto built = IndexBuilder::BuildPacked(store_.device(), store_.allocator(),
                                         Options(), MakeMixedBatch(9), "new");
  ASSERT_TRUE(built.ok()) << built.status();
  std::shared_ptr<ConstituentIndex> fresh = std::move(built).ValueOrDie();
  const ConstituentIndex* second = wave_.constituents()[1].get();
  ASSERT_OK(wave_.ReplaceIndex(second, fresh));
  EXPECT_EQ(wave_.constituents()[1].get(), fresh.get());
  EXPECT_EQ(wave_.num_constituents(), 3u);
  EXPECT_TRUE(wave_.Contains(fresh.get()));
  EXPECT_FALSE(wave_.Contains(second));
}

}  // namespace
}  // namespace wavekit
