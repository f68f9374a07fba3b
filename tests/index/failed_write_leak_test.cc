// A maintenance step whose write fails must give back every extent it
// allocated: packed builds and packed shadow flushes (serial and parallel,
// raw and compressed), clones, and the in-place mutations. The disk runs out
// of writes part-way through each call (FaultInjectingDevice's write
// budget), and the allocator must hold exactly what it held before.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "index/constituent_index.h"
#include "index/index_builder.h"
#include "storage/device.h"
#include "storage/extent_allocator.h"
#include "storage/fault_injecting_device.h"
#include "testing/test_env.h"
#include "update/update_technique.h"
#include "util/thread_pool.h"

namespace wavekit {
namespace {

using testing::MakeBatch;
using testing::MakeMixedBatch;

/// `values` distinct values across `days` days; value v gets (v % 5) + 1
/// records per day, so buckets have uneven sizes.
std::vector<DayBatch> WideWorkload(int days, int values) {
  std::vector<DayBatch> batches;
  for (Day d = 1; d <= days; ++d) {
    DayBatch batch;
    batch.day = d;
    uint64_t rid = static_cast<uint64_t>(d) * 1000000;
    for (int v = 0; v < values; ++v) {
      for (int i = 0; i <= v % 5; ++i) {
        Record record;
        record.record_id = rid++;
        record.day = d;
        record.values = {"v" + std::to_string(v)};
        batch.records.push_back(std::move(record));
      }
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

std::vector<const DayBatch*> Pointers(const std::vector<DayBatch>& batches) {
  std::vector<const DayBatch*> out;
  for (const DayBatch& batch : batches) out.push_back(&batch);
  return out;
}

std::vector<std::pair<Value, Entry>> ScanPairs(const ConstituentIndex& index) {
  std::vector<std::pair<Value, Entry>> out;
  Status s = index.Scan([&out](const Value& value, const Entry& entry) {
    out.emplace_back(value, entry);
  });
  if (!s.ok()) s.Abort("scan");
  return out;
}

class FailedWriteLeakTest : public ::testing::Test {
 protected:
  FailedWriteLeakTest()
      : memory_(uint64_t{1} << 24),
        faulty_(&memory_),
        allocator_(memory_.capacity()),
        pool_(4) {}

  ParallelContext Threads(int threads) {
    return threads > 1 ? ParallelContext{&pool_, threads} : ParallelContext{};
  }

  std::unique_ptr<ConstituentIndex> Build(const std::vector<DayBatch>& batches,
                                          CodecMode codec) {
    ConstituentIndex::Options options;
    options.codec = codec;
    auto built = IndexBuilder::BuildPacked(&faulty_, &allocator_, options,
                                           Pointers(batches), "I");
    if (!built.ok()) built.status().Abort("build");
    return std::move(built).ValueOrDie();
  }

  /// The disk accepts five more writes, then reports itself full.
  void RunOutAfterFiveWrites() { faulty_.SetWriteBudget(5); }

  /// A packed build that runs out of writes frees its region, and a retry
  /// on the healed disk succeeds.
  void ExpectBuildLeaksNothing(int threads, CodecMode codec) {
    const std::vector<DayBatch> batches = WideWorkload(3, 40);
    ConstituentIndex::Options options;
    options.codec = codec;
    const uint64_t before = allocator_.allocated_bytes();
    RunOutAfterFiveWrites();
    auto failed = IndexBuilder::BuildPacked(&faulty_, &allocator_, options,
                                            Pointers(batches), "I",
                                            Threads(threads));
    ASSERT_FALSE(failed.ok());
    EXPECT_TRUE(failed.status().IsResourceExhausted()) << failed.status();
    EXPECT_EQ(allocator_.allocated_bytes(), before);

    faulty_.ClearWriteBudget();
    auto retried = IndexBuilder::BuildPacked(&faulty_, &allocator_, options,
                                             Pointers(batches), "I",
                                             Threads(threads));
    ASSERT_OK(retried.status());
    EXPECT_OK(retried.ValueOrDie()->CheckPacked());
  }

  /// A packed shadow update whose flush runs out of writes frees the new
  /// region and its temporary index, and leaves the old index serving.
  void ExpectPackedFlushLeaksNothing(int threads, CodecMode codec) {
    std::shared_ptr<ConstituentIndex> index = Build(WideWorkload(3, 40), codec);
    const auto before_pairs = ScanPairs(*index);
    const uint64_t before = allocator_.allocated_bytes();
    std::unique_ptr<Updater> updater =
        MakeUpdater(UpdateTechniqueKind::kPackedShadow);
    updater->set_parallel(Threads(threads));
    // Four values: the temporary index of the add takes four writes, so the
    // budget runs out inside the flush.
    const DayBatch next = MakeMixedBatch(4, /*num_records=*/24);
    const DayBatch* add = &next;
    TimeSet expire;
    expire.insert(1);

    RunOutAfterFiveWrites();
    Status failed = updater->Apply(&index, {&add, 1}, expire);
    EXPECT_TRUE(failed.IsResourceExhausted()) << failed;
    EXPECT_EQ(allocator_.allocated_bytes(), before);
    EXPECT_EQ(ScanPairs(*index), before_pairs);

    faulty_.ClearWriteBudget();
    ASSERT_OK(updater->Apply(&index, {&add, 1}, expire));
    EXPECT_OK(index->CheckPacked());
    EXPECT_FALSE(index->time_set().contains(1));
  }

  MemoryDevice memory_;
  FaultInjectingDevice faulty_;
  ExtentAllocator allocator_;
  ThreadPool pool_;
};

TEST_F(FailedWriteLeakTest, SerialRawBuild) {
  ExpectBuildLeaksNothing(1, CodecMode::kRaw);
}

TEST_F(FailedWriteLeakTest, SerialAutoBuild) {
  ExpectBuildLeaksNothing(1, CodecMode::kAuto);
}

TEST_F(FailedWriteLeakTest, ParallelRawBuild) {
  ExpectBuildLeaksNothing(4, CodecMode::kRaw);
}

TEST_F(FailedWriteLeakTest, ParallelAutoBuild) {
  ExpectBuildLeaksNothing(4, CodecMode::kAuto);
}

TEST_F(FailedWriteLeakTest, SerialRawPackedFlush) {
  ExpectPackedFlushLeaksNothing(1, CodecMode::kRaw);
}

TEST_F(FailedWriteLeakTest, SerialAutoPackedFlush) {
  ExpectPackedFlushLeaksNothing(1, CodecMode::kAuto);
}

TEST_F(FailedWriteLeakTest, ParallelRawPackedFlush) {
  ExpectPackedFlushLeaksNothing(4, CodecMode::kRaw);
}

TEST_F(FailedWriteLeakTest, ParallelAutoPackedFlush) {
  ExpectPackedFlushLeaksNothing(4, CodecMode::kAuto);
}

TEST_F(FailedWriteLeakTest, SerialCloneFreesTheUncopiedTail) {
  std::unique_ptr<ConstituentIndex> source =
      Build(WideWorkload(3, 40), CodecMode::kRaw);
  const auto source_pairs = ScanPairs(*source);
  const uint64_t before = allocator_.allocated_bytes();

  RunOutAfterFiveWrites();
  auto failed = source->Clone("CP");
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsResourceExhausted()) << failed.status();
  // The clone installed five buckets before the disk filled; its
  // destructor freed those, and the rest of its region went back too.
  EXPECT_EQ(allocator_.allocated_bytes(), before);
  EXPECT_OK(allocator_.CheckConsistency());
  EXPECT_EQ(ScanPairs(*source), source_pairs);

  faulty_.ClearWriteBudget();
  ASSERT_OK_AND_ASSIGN(auto clone, source->Clone("CP"));
  EXPECT_EQ(ScanPairs(*clone), source_pairs);
}

TEST_F(FailedWriteLeakTest, AppendOfANewValueFreesItsBucket) {
  std::unique_ptr<ConstituentIndex> index =
      Build({MakeBatch(1, {"a"}, 3)}, CodecMode::kRaw);
  const uint64_t before = allocator_.allocated_bytes();
  const std::vector<Entry> entries = {Entry{7, 2, 0}, Entry{8, 2, 0}};

  faulty_.SetWriteBudget(0);
  EXPECT_TRUE(index->AppendEntries("b", entries).IsResourceExhausted());
  EXPECT_EQ(allocator_.allocated_bytes(), before);
  EXPECT_OK(index->CheckConsistency());
  EXPECT_EQ(index->distinct_values(), 1u);
}

TEST_F(FailedWriteLeakTest, AppendThatRelocatesFreesTheNewExtent) {
  // A packed bucket is exactly full, so any append relocates it.
  std::unique_ptr<ConstituentIndex> index =
      Build({MakeBatch(1, {"a"}, 3)}, CodecMode::kRaw);
  const auto before_pairs = ScanPairs(*index);
  const uint64_t before = allocator_.allocated_bytes();
  const std::vector<Entry> entries = {Entry{7, 2, 0}};

  faulty_.SetWriteBudget(0);
  EXPECT_TRUE(index->AppendEntries("a", entries).IsResourceExhausted());
  EXPECT_EQ(allocator_.allocated_bytes(), before);
  EXPECT_OK(index->CheckConsistency());
  EXPECT_EQ(ScanPairs(*index), before_pairs);
}

TEST_F(FailedWriteLeakTest, DeleteThatRelocatesFreesTheNewExtent) {
  // Deleting day 2 leaves 1 of 17 entries: the bucket shrinks into a new
  // extent.
  std::unique_ptr<ConstituentIndex> index = Build(
      {MakeBatch(1, {"a"}, 1), MakeBatch(2, {"a"}, 16)}, CodecMode::kRaw);
  const uint64_t before = allocator_.allocated_bytes();
  TimeSet expire;
  expire.insert(2);

  faulty_.SetWriteBudget(0);
  EXPECT_TRUE(index->DeleteDays(expire).IsResourceExhausted());
  EXPECT_EQ(allocator_.allocated_bytes(), before);
  EXPECT_OK(allocator_.CheckConsistency());
  // The failed delete changed nothing, so every entry is still counted.
  EXPECT_EQ(index->entry_count(), 17u);
  EXPECT_OK(index->CheckConsistency());
}

}  // namespace
}  // namespace wavekit
