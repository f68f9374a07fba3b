#include "index/constituent_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "testing/test_env.h"

namespace wavekit {
namespace {

using testing::MakeBatch;
using testing::MakeMixedBatch;
using testing::ReferenceIndex;

class ConstituentIndexTest : public ::testing::Test {
 protected:
  ConstituentIndexTest() : store_(uint64_t{1} << 28) {}

  std::unique_ptr<ConstituentIndex> NewIndex(const std::string& name = "I") {
    ConstituentIndex::Options options;
    return std::make_unique<ConstituentIndex>(store_.device(),
                                              store_.allocator(), options,
                                              name);
  }

  static std::vector<Entry> Sorted(std::vector<Entry> entries) {
    ReferenceIndex::Sort(&entries);
    return entries;
  }

  Store store_;
};

TEST_F(ConstituentIndexTest, EmptyIndexBasics) {
  auto index = NewIndex();
  EXPECT_EQ(index->entry_count(), 0u);
  EXPECT_EQ(index->allocated_bytes(), 0u);
  EXPECT_EQ(index->distinct_values(), 0u);
  std::vector<Entry> out;
  ASSERT_OK(index->Probe("anything", &out));
  EXPECT_TRUE(out.empty());
  ASSERT_OK(index->CheckConsistency());
}

TEST_F(ConstituentIndexTest, AppendAndProbe) {
  auto index = NewIndex();
  std::vector<Entry> entries = {Entry{1, 5, 0}, Entry{2, 5, 1}};
  ASSERT_OK(index->AppendEntries("word", entries));
  EXPECT_EQ(index->entry_count(), 2u);
  EXPECT_EQ(index->distinct_values(), 1u);
  std::vector<Entry> out;
  ASSERT_OK(index->Probe("word", &out));
  EXPECT_EQ(Sorted(out), Sorted(entries));
  ASSERT_OK(index->CheckConsistency());
}

TEST_F(ConstituentIndexTest, AppendGrowsBucketContiguously) {
  auto index = NewIndex();
  ReferenceIndex reference;
  for (Day d = 1; d <= 20; ++d) {
    DayBatch batch = MakeBatch(d, {"hot"}, /*entries_per_value=*/3);
    reference.Add(batch);
    ASSERT_OK(index->AddBatch(batch));
    ASSERT_OK(index->CheckConsistency()) << "day " << d;
  }
  EXPECT_EQ(index->entry_count(), 60u);
  std::vector<Entry> out;
  ASSERT_OK(index->Probe("hot", &out));
  EXPECT_EQ(Sorted(out), reference.Probe("hot", kDayNegInf, kDayPosInf));
  // CONTIGUOUS slack exists but is bounded by g.
  EXPECT_GE(index->allocated_bytes(), index->live_bytes());
  EXPECT_LE(index->allocated_bytes(), 2 * index->live_bytes() + 64);
}

TEST_F(ConstituentIndexTest, TimedProbeFiltersByDay) {
  auto index = NewIndex();
  for (Day d = 1; d <= 10; ++d) {
    ASSERT_OK(index->AddBatch(MakeBatch(d, {"w"}, 2)));
  }
  std::vector<Entry> out;
  ASSERT_OK(index->TimedProbe("w", DayRange{3, 5}, &out));
  EXPECT_EQ(out.size(), 6u);
  for (const Entry& e : out) {
    EXPECT_GE(e.day, 3);
    EXPECT_LE(e.day, 5);
  }
  // Covering range skips filtering but returns the same entries.
  out.clear();
  ASSERT_OK(index->TimedProbe("w", DayRange{1, 10}, &out));
  EXPECT_EQ(out.size(), 20u);
}

TEST_F(ConstituentIndexTest, ScanVisitsEverything) {
  auto index = NewIndex();
  ReferenceIndex reference;
  for (Day d = 1; d <= 5; ++d) {
    DayBatch batch = MakeMixedBatch(d);
    reference.Add(batch);
    ASSERT_OK(index->AddBatch(batch));
  }
  std::vector<Entry> scanned;
  ASSERT_OK(index->Scan(
      [&](const Value&, const Entry& e) { scanned.push_back(e); }));
  EXPECT_EQ(Sorted(scanned), reference.ScanAll(kDayNegInf, kDayPosInf));
}

TEST_F(ConstituentIndexTest, TimedScanFilters) {
  auto index = NewIndex();
  ReferenceIndex reference;
  for (Day d = 1; d <= 8; ++d) {
    DayBatch batch = MakeMixedBatch(d);
    reference.Add(batch);
    ASSERT_OK(index->AddBatch(batch));
  }
  using Pair = std::pair<Value, Entry>;
  auto scan = [&](const DayRange& range, uint64_t limit) {
    std::vector<Pair> out;
    EXPECT_OK(index->TimedScan(
        range, [&](const Value& v, const Entry& e) { out.emplace_back(v, e); },
        limit));
    return out;
  };
  for (const DayRange& range : {DayRange{4, 6}, DayRange::All()}) {
    const std::vector<Pair> all = scan(range, kNoEntryLimit);
    std::vector<Entry> scanned;
    for (const Pair& pair : all) scanned.push_back(pair.second);
    EXPECT_EQ(Sorted(scanned), reference.ScanAll(range.lo, range.hi));

    // A limited scan delivers exactly the first `limit` entries of the
    // unlimited one, in order: one entry, a limit whose last entry is not
    // the last of its bucket, the exact total, and one past it.
    size_t mid_bucket = all.size() / 2;
    while (mid_bucket < all.size() &&
           all[mid_bucket - 1].first != all[mid_bucket].first) {
      ++mid_bucket;
    }
    ASSERT_LT(mid_bucket, all.size());
    for (const uint64_t limit :
         {uint64_t{1}, uint64_t{mid_bucket}, uint64_t{all.size()},
          uint64_t{all.size() + 1}}) {
      const std::vector<Pair> prefix(
          all.begin(), all.begin() + std::min<uint64_t>(limit, all.size()));
      EXPECT_EQ(scan(range, limit), prefix) << "limit " << limit;
    }
    EXPECT_TRUE(scan(range, 0).empty());
  }
}

TEST_F(ConstituentIndexTest, ScanFromAScanCallbackGetsItsOwnBuffers) {
  // Scans reuse this thread's read and decode buffers; a scan started from
  // another scan's callback must not read into the outer scan's.
  auto outer_index = NewIndex("outer");
  auto inner_index = NewIndex("inner");
  for (Day d = 1; d <= 3; ++d) {
    ASSERT_OK(outer_index->AddBatch(MakeMixedBatch(d)));
    ASSERT_OK(inner_index->AddBatch(MakeMixedBatch(d + 10)));
  }
  auto scan_all = [](const ConstituentIndex& index) {
    std::vector<Entry> out;
    EXPECT_OK(index.Scan(
        [&out](const Value&, const Entry& e) { out.push_back(e); }));
    return out;
  };
  const std::vector<Entry> outer_expected = scan_all(*outer_index);
  const std::vector<Entry> inner_expected = scan_all(*inner_index);
  std::vector<Entry> outer;
  ASSERT_OK(outer_index->Scan([&](const Value&, const Entry& e) {
    outer.push_back(e);
    EXPECT_EQ(scan_all(*inner_index), inner_expected);
  }));
  EXPECT_EQ(outer, outer_expected);
}

TEST_F(ConstituentIndexTest, DeleteDaysRemovesAndShrinks) {
  auto index = NewIndex();
  ReferenceIndex reference;
  for (Day d = 1; d <= 12; ++d) {
    ASSERT_OK(index->AddBatch(MakeBatch(d, {"w", "day-only-" + std::to_string(d)}, 2)));
  }
  const uint64_t before_bytes = index->allocated_bytes();
  TimeSet expired;
  for (Day d = 1; d <= 9; ++d) expired.insert(d);
  ASSERT_OK(index->DeleteDays(expired));
  ASSERT_OK(index->CheckConsistency());
  // Only days 10..12 remain.
  EXPECT_EQ(index->entry_count(), 3u * 2u * 2u);
  EXPECT_EQ(index->time_set(), (TimeSet{10, 11, 12}));
  std::vector<Entry> out;
  ASSERT_OK(index->Probe("w", &out));
  for (const Entry& e : out) EXPECT_GE(e.day, 10);
  // Day-unique values for deleted days are fully gone from the directory.
  out.clear();
  ASSERT_OK(index->Probe("day-only-1", &out));
  EXPECT_TRUE(out.empty());
  EXPECT_LT(index->allocated_bytes(), before_bytes);
}

TEST_F(ConstituentIndexTest, DeleteEverythingEmptiesIndex) {
  auto index = NewIndex();
  ASSERT_OK(index->AddBatch(MakeMixedBatch(1)));
  ASSERT_OK(index->AddBatch(MakeMixedBatch(2)));
  ASSERT_OK(index->DeleteDays({1, 2}));
  EXPECT_EQ(index->entry_count(), 0u);
  EXPECT_EQ(index->distinct_values(), 0u);
  EXPECT_EQ(index->allocated_bytes(), 0u);
  ASSERT_OK(index->CheckConsistency());
}

TEST_F(ConstituentIndexTest, DeleteNoMatchIsNoOp) {
  auto index = NewIndex();
  ASSERT_OK(index->AddBatch(MakeMixedBatch(5)));
  const uint64_t entries = index->entry_count();
  ASSERT_OK(index->DeleteDays({99}));
  EXPECT_EQ(index->entry_count(), entries);
  ASSERT_OK(index->CheckConsistency());
}

TEST_F(ConstituentIndexTest, CloneIsDeepAndEquivalent) {
  auto index = NewIndex("orig");
  ReferenceIndex reference;
  for (Day d = 1; d <= 6; ++d) {
    DayBatch batch = MakeMixedBatch(d);
    reference.Add(batch);
    ASSERT_OK(index->AddBatch(batch));
  }
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ConstituentIndex> clone,
                       index->Clone("copy"));
  ASSERT_OK(clone->CheckConsistency());
  EXPECT_EQ(clone->entry_count(), index->entry_count());
  EXPECT_EQ(clone->time_set(), index->time_set());
  EXPECT_EQ(clone->allocated_bytes(), index->allocated_bytes());
  // Mutating the clone leaves the original untouched.
  ASSERT_OK(clone->DeleteDays({1, 2, 3}));
  std::vector<Entry> out;
  ASSERT_OK(index->Probe("alpha", &out));
  EXPECT_EQ(Sorted(out), reference.Probe("alpha", kDayNegInf, kDayPosInf));
}

TEST_F(ConstituentIndexTest, SerialCloneReadsAndWritesEachBucketOnce) {
  // The CP operation the cost model prices: one read and one write of each
  // bucket's whole extent, slack included.
  auto index = NewIndex("orig");
  for (Day d = 1; d <= 6; ++d) ASSERT_OK(index->AddBatch(MakeMixedBatch(d)));
  ASSERT_GT(index->allocated_bytes(), index->live_bytes()) << "no slack";
  store_.device()->Reset();
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ConstituentIndex> clone,
                       index->Clone("copy"));
  const IoCounters io = store_.device()->total();
  EXPECT_EQ(io.read_ops, index->distinct_values());
  EXPECT_EQ(io.write_ops, index->distinct_values());
  EXPECT_EQ(io.bytes_read, index->allocated_bytes());
  EXPECT_EQ(io.bytes_written, index->allocated_bytes());
  EXPECT_EQ(clone->allocated_bytes(), index->allocated_bytes());
}

TEST_F(ConstituentIndexTest, DestroyReclaimsAllSpace) {
  auto index = NewIndex();
  const uint64_t free_before = store_.allocator()->free_bytes();
  for (Day d = 1; d <= 5; ++d) ASSERT_OK(index->AddBatch(MakeMixedBatch(d)));
  EXPECT_LT(store_.allocator()->free_bytes(), free_before);
  ASSERT_OK(index->Destroy());
  EXPECT_EQ(store_.allocator()->free_bytes(), free_before);
  EXPECT_EQ(index->entry_count(), 0u);
  // Destroy is idempotent.
  ASSERT_OK(index->Destroy());
}

TEST_F(ConstituentIndexTest, DestructorReclaimsSpace) {
  const uint64_t free_before = store_.allocator()->free_bytes();
  {
    auto index = NewIndex();
    ASSERT_OK(index->AddBatch(MakeMixedBatch(1)));
    EXPECT_LT(store_.allocator()->free_bytes(), free_before);
  }
  EXPECT_EQ(store_.allocator()->free_bytes(), free_before);
}

TEST_F(ConstituentIndexTest, IncrementalIndexIsNotPacked) {
  auto index = NewIndex();
  ASSERT_OK(index->AddBatch(MakeMixedBatch(1)));
  EXPECT_FALSE(index->packed());
}

TEST_F(ConstituentIndexTest, AuxPayloadRoundTrips) {
  auto index = NewIndex();
  DayBatch batch;
  batch.day = 1;
  Record r;
  r.record_id = 42;
  r.day = 1;
  r.values = {"k"};
  r.aux = {777};
  batch.records.push_back(r);
  ASSERT_OK(index->AddBatch(batch));
  std::vector<Entry> out;
  ASSERT_OK(index->Probe("k", &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].aux, 777u);
}

}  // namespace
}  // namespace wavekit
