// Compressed constituents end to end: packed builds under CodecMode::kAuto
// must answer every probe/scan exactly like a raw build, keep serial/parallel
// byte-parity, fall back to kRaw on mutation (append / day delete), survive
// cloning, shrink the on-device footprint, and fail closed (DataLoss +
// quarantine) when a compressed extent rots.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "index/codec.h"
#include "index/constituent_index.h"
#include "index/index_builder.h"
#include "storage/store.h"
#include "testing/test_env.h"
#include "util/thread_pool.h"

namespace wavekit {
namespace {

using testing::MakeBatch;
using testing::MakeMixedBatch;
using testing::ReferenceIndex;

std::vector<const DayBatch*> Pointers(const std::vector<DayBatch>& batches) {
  std::vector<const DayBatch*> out;
  for (const DayBatch& batch : batches) out.push_back(&batch);
  return out;
}

std::vector<DayBatch> Workload(int days, uint64_t records_per_day = 48) {
  std::vector<DayBatch> batches;
  for (Day d = 1; d <= days; ++d) {
    batches.push_back(MakeMixedBatch(d, records_per_day));
  }
  return batches;
}

/// Scan-order (value, entry) pairs: equality asserts identical layout.
std::vector<std::pair<Value, Entry>> ScanPairs(const ConstituentIndex& index) {
  std::vector<std::pair<Value, Entry>> out;
  Status s = index.Scan([&out](const Value& value, const Entry& entry) {
    out.emplace_back(value, entry);
  });
  if (!s.ok()) s.Abort("scan");
  return out;
}

/// Bucket geometry including the codec column.
std::vector<std::tuple<Value, uint64_t, uint64_t, uint32_t, int>> BucketTable(
    const ConstituentIndex& index) {
  std::vector<std::tuple<Value, uint64_t, uint64_t, uint32_t, int>> out;
  Status s = index.ForEachBucket(
      [&out](const Value& value, const BucketInfo& info) {
        out.emplace_back(value, info.extent.offset, info.stored_length(),
                         info.count, static_cast<int>(info.codec));
      });
  if (!s.ok()) s.Abort("buckets");
  return out;
}

class CompressedIndexTest : public ::testing::Test {
 protected:
  CompressedIndexTest() : store_(uint64_t{1} << 28) {}

  ConstituentIndex::Options AutoOptions() const {
    ConstituentIndex::Options options;
    options.codec = CodecMode::kAuto;
    return options;
  }

  Result<std::unique_ptr<ConstituentIndex>> BuildAuto(
      const std::vector<DayBatch>& batches, const std::string& name = "C") {
    return IndexBuilder::BuildPacked(store_.device(), store_.allocator(),
                                     AutoOptions(), Pointers(batches), name);
  }

  Store store_;
};

TEST_F(CompressedIndexTest, PackedAutoBuildMatchesRawAnswers) {
  const std::vector<DayBatch> batches = Workload(4);
  ReferenceIndex reference;
  for (const DayBatch& batch : batches) reference.Add(batch);

  Store raw_store(uint64_t{1} << 28);
  ASSERT_OK_AND_ASSIGN(
      auto raw, IndexBuilder::BuildPacked(raw_store.device(),
                                          raw_store.allocator(), {},
                                          Pointers(batches), "raw"));
  ASSERT_OK_AND_ASSIGN(auto packed, BuildAuto(batches));

  ASSERT_OK(packed->CheckPacked());
  ASSERT_OK(packed->CheckConsistency());

  const ConstituentIndex::CodecBreakdown stats = packed->CodecStats();
  EXPECT_GT(stats.buckets[1] + stats.buckets[2], 0u)
      << "auto build compressed nothing";
  EXPECT_LT(stats.stored_bytes, stats.uncompressed_bytes);
  EXPECT_LT(packed->allocated_bytes(), raw->allocated_bytes());

  // Same answers, value by value and in a full scan.
  for (const Value& value : raw->layout_order()) {
    std::vector<Entry> raw_out, packed_out;
    ASSERT_OK(raw->Probe(value, &raw_out));
    ASSERT_OK(packed->Probe(value, &packed_out));
    ReferenceIndex::Sort(&raw_out);
    ReferenceIndex::Sort(&packed_out);
    EXPECT_EQ(raw_out, packed_out) << value;
    EXPECT_EQ(packed_out, reference.Probe(value, kDayNegInf, kDayPosInf));
  }
  std::vector<Entry> scanned;
  ASSERT_OK(packed->Scan(
      [&](const Value&, const Entry& e) { scanned.push_back(e); }));
  ReferenceIndex::Sort(&scanned);
  EXPECT_EQ(scanned, reference.ScanAll(kDayNegInf, kDayPosInf));
}

TEST_F(CompressedIndexTest, TimedProbeAndScanFilterCompressedBuckets) {
  const std::vector<DayBatch> batches = Workload(6);
  ReferenceIndex reference;
  for (const DayBatch& batch : batches) reference.Add(batch);
  ASSERT_OK_AND_ASSIGN(auto packed, BuildAuto(batches));

  const DayRange range{2, 4};
  for (const Value& value : packed->layout_order()) {
    std::vector<Entry> out;
    ASSERT_OK(packed->TimedProbe(value, range, &out));
    ReferenceIndex::Sort(&out);
    EXPECT_EQ(out, reference.Probe(value, range.lo, range.hi)) << value;
  }
  std::vector<Entry> scanned;
  ASSERT_OK(packed->TimedScan(range, [&](const Value&, const Entry& e) {
    scanned.push_back(e);
  }));
  ReferenceIndex::Sort(&scanned);
  EXPECT_EQ(scanned, reference.ScanAll(range.lo, range.hi));

  // Limited scans over the auto build and a raw build of the same days, on
  // a filtered and a covered range: each delivers exactly the first `limit`
  // entries of the unlimited scan, in order, and never reads more device
  // bytes than it; a one-entry scan of these multi-bucket packed indexes
  // reads fewer.
  ASSERT_LT(packed->CodecStats().buckets[static_cast<size_t>(Codec::kRaw)],
            packed->distinct_values());
  ASSERT_OK_AND_ASSIGN(
      auto raw, IndexBuilder::BuildPacked(store_.device(), store_.allocator(),
                                          {}, Pointers(batches), "raw"));
  using Pair = std::pair<Value, Entry>;
  uint64_t bytes_read = 0;
  auto scan = [&](const ConstituentIndex& index, const DayRange& scanned_range,
                  uint64_t limit) {
    std::vector<Pair> out;
    const uint64_t before = store_.device()->total().bytes_read;
    EXPECT_OK(index.TimedScan(
        scanned_range,
        [&](const Value& v, const Entry& e) { out.emplace_back(v, e); },
        limit));
    bytes_read = store_.device()->total().bytes_read - before;
    return out;
  };
  for (const ConstituentIndex* index : {packed.get(), raw.get()}) {
    for (const DayRange& scanned_range : {range, DayRange::All()}) {
      const std::vector<Pair> all = scan(*index, scanned_range, kNoEntryLimit);
      const uint64_t all_bytes = bytes_read;
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
        EXPECT_EQ(scan(*index, scanned_range, limit), prefix)
            << index->name() << " limit " << limit;
        EXPECT_LE(bytes_read, all_bytes) << index->name() << " limit " << limit;
        if (limit == 1) {
          EXPECT_LT(bytes_read, all_bytes) << index->name();
        }
      }
    }
  }
}

TEST_F(CompressedIndexTest, SerialAndParallelBuildsAreByteIdentical) {
  const std::vector<DayBatch> batches = Workload(5, /*records_per_day=*/64);
  ThreadPool pool(4);
  const ParallelContext parallel{&pool, 4};
  Store parallel_store(uint64_t{1} << 28);
  ASSERT_OK_AND_ASSIGN(auto serial, BuildAuto(batches, "serial"));
  ASSERT_OK_AND_ASSIGN(
      auto concurrent,
      IndexBuilder::BuildPacked(parallel_store.device(),
                                parallel_store.allocator(), AutoOptions(),
                                Pointers(batches), "parallel", parallel));
  EXPECT_OK(concurrent->CheckPacked());
  EXPECT_OK(concurrent->CheckConsistency());
  EXPECT_EQ(serial->allocated_bytes(), concurrent->allocated_bytes());
  EXPECT_EQ(serial->layout_order(), concurrent->layout_order());
  EXPECT_EQ(BucketTable(*serial), BucketTable(*concurrent));
  EXPECT_EQ(ScanPairs(*serial), ScanPairs(*concurrent));
  const auto serial_stats = serial->CodecStats();
  const auto parallel_stats = concurrent->CodecStats();
  EXPECT_GT(serial_stats.buckets[1] + serial_stats.buckets[2], 0u);
  EXPECT_EQ(serial_stats.stored_bytes, parallel_stats.stored_bytes);
}

TEST_F(CompressedIndexTest, AppendRewritesCompressedBucketAsRaw) {
  const std::vector<DayBatch> batches = Workload(4);
  ReferenceIndex reference;
  for (const DayBatch& batch : batches) reference.Add(batch);
  ASSERT_OK_AND_ASSIGN(auto packed, BuildAuto(batches));

  // Pick a compressed bucket and append to its value.
  Value target;
  ASSERT_OK(packed->ForEachBucket(
      [&target](const Value& value, const BucketInfo& info) {
        if (target.empty() && info.codec != Codec::kRaw) target = value;
      }));
  ASSERT_FALSE(target.empty()) << "auto build compressed nothing";

  const std::vector<Entry> extra = {Entry{900001, 5, 1},
                                    Entry{900002, 5, 2}};
  ASSERT_OK(packed->AppendEntries(target, extra));
  DayBatch batch;
  batch.day = 5;
  for (const Entry& e : extra) {
    Record record;
    record.record_id = e.record_id;
    record.day = e.day;
    record.aux = {e.aux};
    record.values = {target};
    batch.records.push_back(std::move(record));
  }
  reference.Add(batch);

  // The mutated bucket is raw again; its contents are intact.
  ASSERT_OK(packed->ForEachBucket(
      [&target](const Value& value, const BucketInfo& info) {
        if (value == target) {
          EXPECT_EQ(info.codec, Codec::kRaw);
        }
      }));
  std::vector<Entry> out;
  ASSERT_OK(packed->Probe(target, &out));
  ReferenceIndex::Sort(&out);
  EXPECT_EQ(out, reference.Probe(target, kDayNegInf, kDayPosInf));
  ASSERT_OK(packed->CheckConsistency());
}

TEST_F(CompressedIndexTest, DeleteDaysOnCompressedIndexMatchesReference) {
  const std::vector<DayBatch> batches = Workload(5);
  ReferenceIndex reference;
  for (const DayBatch& batch : batches) reference.Add(batch);
  ASSERT_OK_AND_ASSIGN(auto packed, BuildAuto(batches));

  const TimeSet doomed = {1, 2};
  ASSERT_OK(packed->DeleteDays(doomed));
  ASSERT_OK(packed->CheckConsistency());

  std::vector<Entry> scanned;
  ASSERT_OK(packed->Scan(
      [&](const Value&, const Entry& e) { scanned.push_back(e); }));
  ReferenceIndex::Sort(&scanned);
  EXPECT_EQ(scanned, reference.ScanAll(3, kDayPosInf));
  // Buckets that intersected the deleted days were rewritten raw
  // (compressed extents are immutable); untouched buckets keep their codec.
  std::set<Value> touched;
  for (const DayBatch& batch : batches) {
    if (batch.day > 2) continue;
    for (const Record& record : batch.records) {
      touched.insert(record.values.begin(), record.values.end());
    }
  }
  ASSERT_OK(packed->ForEachBucket(
      [&touched](const Value& value, const BucketInfo& info) {
        if (touched.contains(value)) {
          EXPECT_EQ(info.codec, Codec::kRaw) << value;
        }
      }));
}

TEST_F(CompressedIndexTest, ClonePreservesCodecsAndAnswers) {
  const std::vector<DayBatch> batches = Workload(4);
  ASSERT_OK_AND_ASSIGN(auto packed, BuildAuto(batches));
  ASSERT_OK_AND_ASSIGN(auto clone, packed->Clone("C_cp"));
  EXPECT_OK(clone->CheckPacked());
  EXPECT_OK(clone->CheckConsistency());
  EXPECT_EQ(packed->allocated_bytes(), clone->allocated_bytes());
  EXPECT_EQ(packed->layout_order(), clone->layout_order());
  EXPECT_EQ(ScanPairs(*packed), ScanPairs(*clone));
  const auto a = packed->CodecStats();
  const auto b = clone->CodecStats();
  for (int c = 0; c < kNumCodecs; ++c) EXPECT_EQ(a.buckets[c], b.buckets[c]);
  EXPECT_EQ(a.stored_bytes, b.stored_bytes);
  EXPECT_EQ(a.uncompressed_bytes, b.uncompressed_bytes);
}

TEST_F(CompressedIndexTest, CorruptCompressedExtentFailsClosed) {
  const std::vector<DayBatch> batches = Workload(4);
  ASSERT_OK_AND_ASSIGN(auto packed, BuildAuto(batches));

  Value target;
  Extent extent;
  ASSERT_OK(packed->ForEachBucket(
      [&](const Value& value, const BucketInfo& info) {
        if (target.empty() && info.codec != Codec::kRaw) {
          target = value;
          extent = Extent{info.extent.offset, info.stored_length()};
        }
      }));
  ASSERT_FALSE(target.empty()) << "auto build compressed nothing";

  // Flip one stored byte under the directory's back.
  std::vector<std::byte> buf(extent.length);
  ASSERT_OK(store_.device()->Read(extent.offset, buf));
  buf[buf.size() / 2] ^= std::byte{0x40};
  ASSERT_OK(store_.device()->Write(extent.offset, buf));

  std::vector<Entry> out;
  const Status status = packed->Probe(target, &out);
  EXPECT_TRUE(status.IsDataLoss()) << status;
  EXPECT_TRUE(packed->corrupt());
  EXPECT_FALSE(packed->healthy());
}

TEST_F(CompressedIndexTest, DecodeHardeningCatchesRotWithoutChecksums) {
  // verify_checksums=false leaves the decoder as the only guard: a mangled
  // compressed extent must still fail with DataLoss, never crash.
  const std::vector<DayBatch> batches = Workload(4);
  ConstituentIndex::Options options = AutoOptions();
  options.verify_checksums = false;
  ASSERT_OK_AND_ASSIGN(
      auto packed, IndexBuilder::BuildPacked(store_.device(),
                                             store_.allocator(), options,
                                             Pointers(batches), "unchecked"));
  Value target;
  Extent extent;
  ASSERT_OK(packed->ForEachBucket(
      [&](const Value& value, const BucketInfo& info) {
        if (target.empty() && info.codec != Codec::kRaw) {
          target = value;
          extent = Extent{info.extent.offset, info.stored_length()};
        }
      }));
  ASSERT_FALSE(target.empty());

  // Truncation-style rot: zero the tail of the stored bytes.
  std::vector<std::byte> zeros(extent.length / 2, std::byte{0xFF});
  ASSERT_OK(store_.device()->Write(
      extent.offset + extent.length - zeros.size(), zeros));

  std::vector<Entry> out;
  const Status status = packed->Probe(target, &out);
  // The decoder may reject (DataLoss) or the mangled bytes may happen to
  // decode; either way no crash and consistency checks still run.
  if (!status.ok()) {
    EXPECT_TRUE(status.IsDataLoss()) << status;
  }
}

TEST_F(CompressedIndexTest, ForcedDeltaAndBitPackBuildsAnswerCorrectly) {
  const std::vector<DayBatch> batches = Workload(3);
  ReferenceIndex reference;
  for (const DayBatch& batch : batches) reference.Add(batch);
  for (const CodecMode mode : {CodecMode::kDelta, CodecMode::kBitPack}) {
    Store fresh(uint64_t{1} << 28);
    ConstituentIndex::Options options;
    options.codec = mode;
    ASSERT_OK_AND_ASSIGN(
        auto packed,
        IndexBuilder::BuildPacked(fresh.device(), fresh.allocator(), options,
                                  Pointers(batches), CodecModeName(mode)));
    ASSERT_OK(packed->CheckPacked());
    std::vector<Entry> scanned;
    ASSERT_OK(packed->Scan(
        [&](const Value&, const Entry& e) { scanned.push_back(e); }));
    ReferenceIndex::Sort(&scanned);
    EXPECT_EQ(scanned, reference.ScanAll(kDayNegInf, kDayPosInf))
        << CodecModeName(mode);
  }
}

}  // namespace
}  // namespace wavekit
