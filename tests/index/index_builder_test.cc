#include "index/index_builder.h"

#include <gtest/gtest.h>

#include "testing/test_env.h"

namespace wavekit {
namespace {

using testing::MakeMixedBatch;
using testing::ReferenceIndex;

class IndexBuilderTest : public ::testing::Test {
 protected:
  IndexBuilderTest() : store_(uint64_t{1} << 28) {}

  ConstituentIndex::Options Options() { return {}; }

  Store store_;
};

TEST_F(IndexBuilderTest, BuildsPackedIndex) {
  std::vector<DayBatch> batches;
  ReferenceIndex reference;
  for (Day d = 1; d <= 5; ++d) {
    batches.push_back(MakeMixedBatch(d));
    reference.Add(batches.back());
  }
  std::vector<const DayBatch*> ptrs;
  for (const DayBatch& b : batches) ptrs.push_back(&b);
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<ConstituentIndex> index,
      IndexBuilder::BuildPacked(store_.device(), store_.allocator(), Options(),
                                ptrs, "I1"));
  EXPECT_TRUE(index->packed());
  ASSERT_OK(index->CheckPacked());
  ASSERT_OK(index->CheckConsistency());
  EXPECT_EQ(index->time_set(), (TimeSet{1, 2, 3, 4, 5}));
  // Packed: zero slack.
  EXPECT_EQ(index->allocated_bytes(), index->live_bytes());

  std::vector<Entry> scanned;
  ASSERT_OK(index->Scan(
      [&](const Value&, const Entry& e) { scanned.push_back(e); }));
  ReferenceIndex::Sort(&scanned);
  EXPECT_EQ(scanned, reference.ScanAll(kDayNegInf, kDayPosInf));
}

TEST_F(IndexBuilderTest, SingleDayOverload) {
  DayBatch batch = MakeMixedBatch(7);
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<ConstituentIndex> index,
      IndexBuilder::BuildPacked(store_.device(), store_.allocator(), Options(),
                                batch, "I"));
  EXPECT_EQ(index->time_set(), TimeSet{7});
  EXPECT_EQ(index->entry_count(), batch.EntryCount());
}

TEST_F(IndexBuilderTest, EmptyBatchYieldsEmptyPackedIndex) {
  DayBatch batch;
  batch.day = 1;
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<ConstituentIndex> index,
      IndexBuilder::BuildPacked(store_.device(), store_.allocator(), Options(),
                                batch, "I"));
  EXPECT_EQ(index->entry_count(), 0u);
  EXPECT_EQ(index->time_set(), TimeSet{1});
  ASSERT_OK(index->CheckPacked());
}

TEST_F(IndexBuilderTest, BucketsLaidOutInSortedValueOrder) {
  DayBatch batch = MakeMixedBatch(1);
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<ConstituentIndex> index,
      IndexBuilder::BuildPacked(store_.device(), store_.allocator(), Options(),
                                batch, "I"));
  const std::vector<Value>& order = index->layout_order();
  for (size_t i = 1; i < order.size(); ++i) EXPECT_LT(order[i - 1], order[i]);
}

TEST_F(IndexBuilderTest, BuildIsSequentialOnDevice) {
  // A packed build writes one contiguous region: exactly one data seek
  // (possibly a couple from allocator bookkeeping-free paths, so allow 2).
  DayBatch batch = MakeMixedBatch(1, /*num_records=*/50);
  store_.device()->Reset();
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<ConstituentIndex> index,
      IndexBuilder::BuildPacked(store_.device(), store_.allocator(), Options(),
                                batch, "I"));
  (void)index;
  EXPECT_LE(store_.device()->total().seeks, 2u);
  EXPECT_EQ(store_.device()->total().bytes_written,
            batch.EntryCount() * kEntrySize);
}

TEST_F(IndexBuilderTest, PackedScanIsSequentialOnDevice) {
  DayBatch batch = MakeMixedBatch(1, /*num_records=*/60);
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<ConstituentIndex> index,
      IndexBuilder::BuildPacked(store_.device(), store_.allocator(), Options(),
                                batch, "I"));
  store_.device()->Reset();
  uint64_t visited = 0;
  ASSERT_OK(index->Scan([&](const Value&, const Entry&) { ++visited; }));
  EXPECT_EQ(visited, batch.EntryCount());
  EXPECT_LE(store_.device()->total().seeks, 2u)
      << "a packed SegmentScan should be one sequential sweep";
}

}  // namespace
}  // namespace wavekit
