// Adversarial read-path integrity: flipped bucket bytes must surface as
// Status::DataLoss and quarantine the constituent on every access path
// (probe, timed probe, per-bucket scan, coalesced ReadBatch scan); disabling
// verification restores the old trusting behaviour; checksums survive
// incremental maintenance; and a wrong checksum installed with a bucket is
// caught on first read.

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "index/constituent_index.h"
#include "index/entry.h"
#include "index/index_builder.h"
#include "storage/device.h"
#include "storage/extent_allocator.h"
#include "storage/sharded_cached_device.h"
#include "testing/test_env.h"
#include "util/crc32c.h"
#include "util/thread_pool.h"
#include "wave/wave_index.h"

namespace wavekit {
namespace {

using testing::MakeBatch;
using testing::MakeMixedBatch;

class IntegrityTest : public ::testing::Test {
 protected:
  IntegrityTest() : device_(uint64_t{1} << 24), allocator_(device_.capacity()) {}

  std::unique_ptr<ConstituentIndex> BuildIndex(bool verify = true) {
    std::vector<DayBatch> batches;
    for (Day d = 1; d <= 3; ++d) batches.push_back(MakeMixedBatch(d));
    std::vector<const DayBatch*> ptrs;
    for (const DayBatch& b : batches) ptrs.push_back(&b);
    ConstituentIndex::Options options;
    options.verify_checksums = verify;
    options.integrity = &stats_;
    auto built =
        IndexBuilder::BuildPacked(&device_, &allocator_, options, ptrs, "I0");
    EXPECT_TRUE(built.ok()) << built.status();
    return std::move(built).ValueOrDie();
  }

  // The live extent of `value`'s bucket.
  Extent LiveExtent(const ConstituentIndex& index, const Value& value) {
    Extent live{0, 0};
    EXPECT_OK(index.ForEachBucket([&](const Value& v, const BucketInfo& info) {
      if (v == value) {
        live = Extent{info.extent.offset, uint64_t{info.count} * kEntrySize};
      }
    }));
    EXPECT_GT(live.length, 0u) << "no live bucket for " << value;
    return live;
  }

  // Flips one bit of the bucket's live prefix directly on the device —
  // medium rot beneath the index's bookkeeping.
  void Rot(const Extent& live, uint64_t at = 0) {
    std::vector<std::byte> buf(static_cast<size_t>(live.length));
    ASSERT_OK(device_.Read(live.offset, buf));
    buf[static_cast<size_t>(at % live.length)] ^= std::byte{0x01};
    ASSERT_OK(device_.Write(live.offset, buf));
  }

  MemoryDevice device_;
  ExtentAllocator allocator_;
  IntegrityStats stats_;
};

TEST_F(IntegrityTest, FlippedByteFailsProbeWithDataLossAndQuarantines) {
  auto index = BuildIndex();
  Rot(LiveExtent(*index, "alpha"));

  std::vector<Entry> out;
  Status status = index->Probe("alpha", &out);
  EXPECT_TRUE(status.IsDataLoss()) << status;
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(index->corrupt());
  EXPECT_FALSE(index->healthy());
  EXPECT_EQ(stats_.corruptions_detected.load(), 1u);
  EXPECT_EQ(stats_.quarantines.load(), 1u);

  // The timed variant fails the same way.
  status = index->TimedProbe("alpha", DayRange::All(), &out);
  EXPECT_TRUE(status.IsDataLoss()) << status;
}

TEST_F(IntegrityTest, UntouchedBucketsStillVerifyAndServe) {
  auto index = BuildIndex();
  Rot(LiveExtent(*index, "alpha"));

  // A different bucket's bytes are intact; the probe itself succeeds even
  // though the constituent as a whole is suspect after the first detection.
  std::vector<Entry> out;
  EXPECT_OK(index->Probe("day2", &out));
  EXPECT_FALSE(out.empty());
  EXPECT_GE(stats_.verified_buckets.load(), 1u);
}

TEST_F(IntegrityTest, ScanPathsDetectRot) {
  auto index = BuildIndex();
  Rot(LiveExtent(*index, "beta"));

  int visited = 0;
  Status status = index->Scan([&](const Value&, const Entry&) { ++visited; });
  EXPECT_TRUE(status.IsDataLoss()) << status;
  EXPECT_TRUE(index->corrupt());

  // The wave-level coalesced scan (ReadBatch) must reach the same verdict:
  // a fresh index, rotted the same way, scanned through the wave.
  auto index2 = BuildIndex();
  Rot(LiveExtent(*index2, "beta"));
  WaveIndex wave;
  wave.AddIndex(std::move(index2));
  QueryStats stats;
  status = wave.TimedSegmentScan(
      DayRange::All(), [](const Value&, const Entry&) {}, &stats);
  // Sole constituent quarantined: degraded wave, no silent data.
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(wave.constituents()[0]->corrupt());
}

TEST_F(IntegrityTest, VerificationOffRestoresTrustingReads) {
  auto index = BuildIndex(/*verify=*/false);
  Rot(LiveExtent(*index, "alpha"));

  std::vector<Entry> out;
  EXPECT_OK(index->Probe("alpha", &out));  // served as-is, by request
  EXPECT_TRUE(index->healthy());
  EXPECT_FALSE(index->corrupt());
  EXPECT_EQ(stats_.corruptions_detected.load(), 0u);
}

TEST_F(IntegrityTest, ChecksumsMaintainedAcrossIncrementalAppend) {
  auto index = BuildIndex();
  // Append entries to an existing value (grows/relocates per CONTIGUOUS),
  // then verify reads still pass and a post-append rot is still caught.
  DayBatch extra = MakeBatch(4, {"alpha"}, 3);
  ASSERT_OK(index->AddBatch(extra));

  std::vector<Entry> out;
  ASSERT_OK(index->Probe("alpha", &out));
  const size_t live_entries = out.size();
  EXPECT_GE(live_entries, 3u);

  Rot(LiveExtent(*index, "alpha"), /*at=*/live_entries * kEntrySize - 1);
  out.clear();
  Status status = index->Probe("alpha", &out);
  EXPECT_TRUE(status.IsDataLoss()) << status;
}

TEST_F(IntegrityTest, ChecksumsMaintainedAcrossDeleteDays) {
  auto index = BuildIndex();
  TimeSet days;
  days.insert(1);
  ASSERT_OK(index->DeleteDays(days));

  // Shrunken buckets carry refreshed checksums: every surviving read passes.
  std::vector<Entry> out;
  ASSERT_OK(index->Probe("alpha", &out));
  for (const Entry& e : out) EXPECT_NE(e.day, 1);
  ASSERT_OK(index->Scan([](const Value&, const Entry&) {}));
  EXPECT_FALSE(index->corrupt());
}

TEST_F(IntegrityTest, InstallBucketWithWrongCrcIsCaughtOnFirstRead) {
  auto index = BuildIndex();
  // Write a well-formed bucket, then install it with a flipped CRC byte —
  // the checksum-map analogue of a bit flip (rot in the metadata, not the
  // data).
  std::vector<Entry> entries(4);
  for (size_t i = 0; i < entries.size(); ++i) {
    entries[i] = Entry{900 + i, /*day=*/2, static_cast<uint32_t>(i)};
  }
  const uint64_t bytes = entries.size() * kEntrySize;
  auto extent_result = allocator_.Allocate(2 * bytes);
  ASSERT_TRUE(extent_result.ok());
  const Extent extent = extent_result.ValueOrDie();
  ASSERT_OK(device_.Write(
      extent.offset,
      std::span(reinterpret_cast<const std::byte*>(entries.data()),
                static_cast<size_t>(bytes))));
  const uint32_t good = Crc32c(entries.data(), static_cast<size_t>(bytes));
  ASSERT_OK(index->InstallBucket(
      "installed", BucketInfo{Extent{extent.offset, 2 * bytes},
                              static_cast<uint32_t>(entries.size()),
                              static_cast<uint32_t>(2 * entries.size()),
                              good ^ 0x00000100u}));

  std::vector<Entry> out;
  Status status = index->Probe("installed", &out);
  EXPECT_TRUE(status.IsDataLoss()) << status;
  EXPECT_TRUE(index->corrupt());
}

TEST_F(IntegrityTest, CloneOfRottenBucketFailsAndFreesItsRegion) {
  ThreadPool pool(4);
  for (const ParallelContext& parallel :
       {ParallelContext{}, ParallelContext{&pool, 4}}) {
    SCOPED_TRACE(parallel.enabled() ? "4 threads" : "serial");
    auto index = BuildIndex();
    Rot(LiveExtent(*index, "day2"));
    const uint64_t before = allocator_.allocated_bytes();
    auto clone = index->Clone("I0-copy", parallel);
    ASSERT_FALSE(clone.ok());
    EXPECT_TRUE(clone.status().IsDataLoss()) << clone.status();
    EXPECT_TRUE(index->corrupt());
    EXPECT_EQ(allocator_.allocated_bytes(), before)
        << "a failed clone must free its whole region";
  }
}

TEST_F(IntegrityTest, QuarantineIsIdempotent) {
  auto index = BuildIndex();
  index->Quarantine();
  index->Quarantine();
  EXPECT_TRUE(index->corrupt());
  EXPECT_FALSE(index->healthy());
  EXPECT_EQ(stats_.quarantines.load(), 1u);
}

// --- Trust-boundary verification through a block cache ---------------------
//
// With a ShardedCachedDevice between the index and the medium, bytes are
// verified when they cross the medium boundary; reads served wholly from
// verified-resident cache bytes skip re-hashing (storage/device.h
// ReadBatchTracked). Rot on the medium BENEATH a trusted block is the
// background scrubber's job — the cache keeps serving the clean copy.

class TrustBoundaryTest : public IntegrityTest {
 protected:
  TrustBoundaryTest() : cached_(&device_, /*capacity_blocks=*/4096) {}

  std::unique_ptr<ConstituentIndex> BuildCachedIndex() {
    std::vector<DayBatch> batches;
    for (Day d = 1; d <= 3; ++d) batches.push_back(MakeMixedBatch(d));
    std::vector<const DayBatch*> ptrs;
    for (const DayBatch& b : batches) ptrs.push_back(&b);
    ConstituentIndex::Options options;
    options.integrity = &stats_;
    auto built =
        IndexBuilder::BuildPacked(&cached_, &allocator_, options, ptrs, "I0");
    EXPECT_TRUE(built.ok()) << built.status();
    return std::move(built).ValueOrDie();
  }

  ShardedCachedDevice cached_;
};

TEST_F(TrustBoundaryTest, SteadyStateScansSkipReverification) {
  auto index = BuildCachedIndex();
  auto scan = [&] { return index->Scan([](const Value&, const Entry&) {}); };
  ASSERT_OK(scan());  // pass 1 fills the cache and verifies the medium bytes
  ASSERT_OK(scan());  // pass 2 verifies resident bytes and promotes them
  const uint64_t verified_after_two = stats_.verified_buckets.load();
  EXPECT_GT(verified_after_two, 0u);
  ASSERT_OK(scan());  // pass 3 is served wholly from trusted bytes
  EXPECT_GT(stats_.trusted_buckets.load(), 0u);
  EXPECT_EQ(stats_.verified_buckets.load(), verified_after_two)
      << "steady-state scans must not re-hash verified-resident bytes";
}

TEST_F(TrustBoundaryTest, RepeatedProbesPromoteHotBuckets) {
  auto index = BuildCachedIndex();
  std::vector<Entry> out;
  ASSERT_OK(index->Probe("alpha", &out));  // fill + verify
  ASSERT_OK(index->Probe("alpha", &out));  // verify resident + promote
  EXPECT_EQ(stats_.trusted_buckets.load(), 0u);
  const uint64_t verified_after_two = stats_.verified_buckets.load();
  ASSERT_OK(index->Probe("alpha", &out));  // trusted
  EXPECT_EQ(stats_.trusted_buckets.load(), 1u);
  EXPECT_EQ(stats_.verified_buckets.load(), verified_after_two);
}

TEST_F(TrustBoundaryTest, RotBeneathTrustedBlocksIsServedCleanUntilRefill) {
  auto index = BuildCachedIndex();
  uint64_t baseline = 0;
  auto count_scan = [&](uint64_t* visited) {
    *visited = 0;
    return index->Scan(
        [visited](const Value&, const Entry&) { ++*visited; });
  };
  for (int pass = 0; pass < 3; ++pass) ASSERT_OK(count_scan(&baseline));
  ASSERT_GT(stats_.trusted_buckets.load(), 0u);

  // Rot the medium directly, beneath the cache (Rot writes to device_, not
  // cached_). The trusted resident copy is still the authoritative clean
  // bytes: queries keep returning exactly the pre-rot results — this rot is
  // the background scrubber's to detect, since it reads beneath the cache.
  Rot(LiveExtent(*index, "beta"));
  uint64_t visited = 0;
  ASSERT_OK(count_scan(&visited));
  EXPECT_EQ(visited, baseline) << "trusted cache must serve the clean copy";
  EXPECT_FALSE(index->corrupt());

  // Once the blocks are refilled from the medium (cache restart / eviction),
  // the bytes cross the trust boundary again and the rot is caught.
  cached_.Invalidate();
  Status status = count_scan(&visited);
  EXPECT_TRUE(status.IsDataLoss()) << status;
  EXPECT_TRUE(index->corrupt());
  EXPECT_GE(stats_.corruptions_detected.load(), 1u);
}

TEST_F(TrustBoundaryTest, LimitedScanTrustsOnlyTheBucketsItChecked) {
  // Layout: alpha, beta, day1, day2, day3, gamma, 6 entries each. Day 1 is
  // in 2 entries of alpha, beta and gamma and in all 6 of day1. A scan of
  // day 1 limited to 10 entries reads {alpha, beta} (its first batch, sized
  // to 10 entries), then {day1, day2, day3, gamma} (double that), and stops
  // in day1: the last three buckets of that batch are read but never
  // checksummed.
  auto index = BuildCachedIndex();
  Rot(LiveExtent(*index, "gamma"));  // the cache is empty: reads see the rot
  const DayRange day1{1, 1};
  std::vector<Entry> first_ten;
  {
    // The expected entries: the first 10 of an unlimited scan of a clean
    // copy of the index.
    auto clean = BuildIndex();
    ASSERT_OK(clean->TimedScan(
        day1, [&](const Value&, const Entry& e) { first_ten.push_back(e); }));
    ASSERT_EQ(first_ten.size(), 12u);
    first_ten.resize(10);
  }
  const uint64_t verified_before = stats_.verified_buckets.load();
  // Pass 1 fills the cache from the medium, the rotten gamma included; pass
  // 2 verifies the resident bytes it checks and marks them.
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<Entry> limited;
    ASSERT_OK(index->TimedScan(
        day1, [&](const Value&, const Entry& e) { limited.push_back(e); },
        10));
    EXPECT_EQ(limited, first_ten);
  }
  EXPECT_FALSE(index->corrupt());
  EXPECT_EQ(stats_.verified_buckets.load() - verified_before, 2u * (2 + 1))
      << "only alpha, beta and day1 were checked, in each pass";

  // Had the stopped batch marked its whole extent verified, every byte of
  // the index would now be trusted and this scan would deliver gamma's
  // rotten entries without a check.
  Status status = index->Scan([](const Value&, const Entry&) {});
  EXPECT_TRUE(status.IsDataLoss()) << status;
  EXPECT_TRUE(index->corrupt());
}

TEST_F(TrustBoundaryTest, CloneOfTrustedBucketsSkipsReverification) {
  auto index = BuildCachedIndex();
  std::vector<std::pair<Value, Entry>> source;
  auto scan_into = [](const ConstituentIndex& scanned,
                      std::vector<std::pair<Value, Entry>>* out) {
    out->clear();
    return scanned.Scan(
        [out](const Value& v, const Entry& e) { out->emplace_back(v, e); });
  };
  ASSERT_OK(scan_into(*index, &source));  // fill + verify
  ASSERT_OK(scan_into(*index, &source));  // verify resident + promote
  const uint64_t verified_before = stats_.verified_buckets.load();
  const uint64_t trusted_before = stats_.trusted_buckets.load();

  ASSERT_OK_AND_ASSIGN(auto clone, index->Clone("I0-copy"));
  EXPECT_EQ(stats_.trusted_buckets.load() - trusted_before,
            index->distinct_values())
      << "every bucket of the clone's source is trusted cache bytes";
  EXPECT_EQ(stats_.verified_buckets.load(), verified_before)
      << "a clone must not re-hash verified-resident bytes";
  std::vector<std::pair<Value, Entry>> copied;
  ASSERT_OK(scan_into(*clone, &copied));
  EXPECT_EQ(copied, source);
}

TEST_F(IntegrityTest, CloneOfCleanIndexVerifies) {
  auto index = BuildIndex();
  ASSERT_OK_AND_ASSIGN(auto clone, index->Clone("I0-copy"));
  ASSERT_OK(clone->Scan([](const Value&, const Entry&) {}));
  EXPECT_FALSE(clone->corrupt());
  // And the clone is independently protected: rot in the copy is caught.
  Rot(LiveExtent(*clone, "alpha"));
  std::vector<Entry> out;
  EXPECT_TRUE(clone->Probe("alpha", &out).IsDataLoss());
  EXPECT_FALSE(index->corrupt()) << "original must be unaffected";
}

}  // namespace
}  // namespace wavekit
