// GroupedDay must hold exactly the buckets a std::map keyed by value would
// collect, and a packed build over grouped days must write exactly what
// WritePacked writes for those map-grouped buckets: same values, same
// BucketInfo, same stored bytes, same device ops.

#include "index/grouped_day.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "index/index_builder.h"
#include "storage/store.h"
#include "testing/test_env.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace wavekit {
namespace {

using testing::TestSeed;
using Reference = std::map<Value, std::vector<Entry>>;

/// The reference grouping: entries per value in std::string order, each
/// bucket in batch order, then record order, then position order.
Reference GroupByMap(const std::vector<DayBatch>& batches) {
  Reference grouped;
  for (const DayBatch& batch : batches) {
    for (const Record& record : batch.records) {
      for (size_t i = 0; i < record.values.size(); ++i) {
        grouped[record.values[i]].push_back(
            Entry{record.record_id, batch.day, record.AuxFor(i)});
      }
    }
  }
  return grouped;
}

/// Values whose order std::string and a careless comparison disagree on:
/// the empty value, prefixes of each other, values longer than the 15-byte
/// small-string buffer, bytes >= 0x80 and embedded NULs.
std::vector<Value> ValuePool(Rng& rng, size_t size) {
  std::vector<Value> pool = {"",
                             "a",
                             "ab",
                             std::string("a\0b", 3),
                             std::string("a\0", 2),
                             "\x80",
                             "\xff\xfe",
                             "z",
                             "a-value-longer-than-fifteen-bytes",
                             "a-value-longer-than-fifteen-bytes\x90"};
  while (pool.size() < size) {
    Value value(static_cast<size_t>(rng.Uniform(24)), '\0');
    for (char& c : value) c = static_cast<char>(rng.Uniform(256));
    pool.push_back(std::move(value));
  }
  return pool;
}

/// A seeded random day: some records empty, some with a value repeated
/// within the record, some with explicit aux and some without.
DayBatch RandomDay(Rng& rng, const std::vector<Value>& pool, Day day,
                   uint64_t* next_record_id) {
  DayBatch batch;
  batch.day = day;
  const uint64_t records = rng.Uniform(60);
  for (uint64_t r = 0; r < records; ++r) {
    Record record;
    record.record_id = (*next_record_id)++;
    record.day = day;
    const uint64_t values = rng.Uniform(4) == 0 ? 0 : rng.Uniform(12);
    for (uint64_t v = 0; v < values; ++v) {
      record.values.push_back(
          !record.values.empty() && rng.Uniform(4) == 0
              ? record.values[rng.Uniform(record.values.size())]
              : pool[rng.Uniform(pool.size())]);
    }
    if (rng.Uniform(2) == 0) {
      for (size_t v = 0; v < record.values.size(); ++v) {
        record.aux.push_back(static_cast<uint32_t>(rng.Next()));
      }
    }
    batch.records.push_back(std::move(record));
  }
  return batch;
}

std::vector<Entry> RunEntries(const GroupedDay& day, size_t v) {
  std::vector<Entry> entries;
  for (const GroupedDay::Posting& posting : day.run(v)) {
    entries.push_back(day.EntryOf(posting));
  }
  return entries;
}

void ExpectMatchesReference(const DayBatch& batch, const GroupedDay& day) {
  const Reference reference = GroupByMap({batch});
  EXPECT_EQ(day.day(), batch.day);
  EXPECT_EQ(day.record_count(), batch.records.size());
  EXPECT_EQ(day.EntryCount(), batch.EntryCount());
  ASSERT_EQ(day.value_count(), reference.size());
  size_t v = 0;
  for (const auto& [value, entries] : reference) {
    EXPECT_EQ(day.value(v), value) << "value " << v;
    EXPECT_EQ(RunEntries(day, v), entries) << "value " << v;
    ++v;
  }
}

TEST(GroupedDayTest, EmptyBatch) {
  DayBatch batch;
  batch.day = 4;
  const GroupedDay day = GroupedDay::From(batch);
  EXPECT_EQ(day.day(), 4);
  EXPECT_EQ(day.value_count(), 0u);
  EXPECT_EQ(day.EntryCount(), 0u);
  EXPECT_EQ(day.record_count(), 0u);
  EXPECT_EQ(day.bytes(), 2 * sizeof(uint32_t));
}

TEST(GroupedDayTest, RepeatsEmptyRecordsAndEmptyValue) {
  DayBatch batch;
  batch.day = 2;
  batch.records.push_back(Record{10, 2, {"b", "", "b", "a"}, {}});
  batch.records.push_back(Record{11, 2, {}, {}});
  batch.records.push_back(Record{12, 2, {"b", ""}, {7, 8}});
  const GroupedDay day = GroupedDay::From(batch);
  ExpectMatchesReference(batch, day);
  ASSERT_EQ(day.value_count(), 3u);
  EXPECT_EQ(day.value(0), "");
  EXPECT_EQ(RunEntries(day, 2),
            (std::vector<Entry>{{10, 2, 0}, {10, 2, 2}, {12, 2, 7}}));
  // Columns: "ab" + 4 value offsets + 4 run offsets + 3 record ids + 6
  // postings.
  EXPECT_EQ(day.bytes(), 2 + 8 * sizeof(uint32_t) + 3 * sizeof(uint64_t) +
                             6 * sizeof(GroupedDay::Posting));
}

TEST(GroupedDayTest, RandomBatchesMatchMapGrouping) {
  for (uint64_t i = 0; i < 40; ++i) {
    SCOPED_TRACE("seed " + std::to_string(TestSeed(i)));
    Rng rng(TestSeed(i));
    const std::vector<Value> pool = ValuePool(rng, 10 + rng.Uniform(300));
    uint64_t next_record_id = rng.Next() >> 1;
    const DayBatch batch =
        RandomDay(rng, pool, static_cast<Day>(i) + 1, &next_record_id);
    ExpectMatchesReference(batch, GroupedDay::From(batch));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// Every bucket in layout order with its BucketInfo and stored bytes.
struct StoredBucket {
  Value value;
  BucketInfo info;
  std::vector<std::byte> bytes;
  bool operator==(const StoredBucket&) const = default;
};

std::vector<StoredBucket> StoredBuckets(const ConstituentIndex& index) {
  std::vector<StoredBucket> out;
  Status listed = index.ForEachBucket(
      [&out](const Value& value, const BucketInfo& info) {
        out.push_back(StoredBucket{value, info, {}});
      });
  if (!listed.ok()) listed.Abort("ForEachBucket");
  for (StoredBucket& bucket : out) {
    bucket.bytes.resize(bucket.info.stored_length());
    Status read =
        index.device()->Read(bucket.info.extent.offset, bucket.bytes);
    if (!read.ok()) read.Abort("read");
  }
  return out;
}

TEST(GroupedDayTest, PackedBuildMatchesWritePackedOverMapGrouping) {
  ThreadPool pool(4);
  const ParallelContext parallel{&pool, 4};
  for (const CodecMode codec : {CodecMode::kRaw, CodecMode::kAuto}) {
    for (uint64_t i = 0; i < 6; ++i) {
      SCOPED_TRACE("seed " + std::to_string(TestSeed(i)) + " codec " +
                   std::to_string(static_cast<int>(codec)));
      Rng rng(TestSeed(i));
      const std::vector<Value> pool_values = ValuePool(rng, 200);
      uint64_t next_record_id = 1;
      std::vector<DayBatch> batches;
      std::vector<GroupedDay> grouped;
      for (Day d = 1; d <= 4; ++d) {
        batches.push_back(RandomDay(rng, pool_values, d, &next_record_id));
        grouped.push_back(GroupedDay::From(batches.back()));
      }
      std::vector<const GroupedDay*> days;
      for (const GroupedDay& day : grouped) days.push_back(&day);
      ConstituentIndex::Options options;
      options.codec = codec;

      // The reference: WritePacked over the map-grouped buckets.
      Store reference_store(uint64_t{1} << 24);
      ConstituentIndex reference(reference_store.device(),
                                 reference_store.allocator(), options, "ref");
      PackedBuckets buckets;
      for (auto& [value, entries] : GroupByMap(batches)) {
        buckets.emplace_back(value, std::move(entries));
      }
      ASSERT_OK(IndexBuilder::WritePacked(&reference, buckets, {}, "none"));
      const IoCounters expected_io = reference_store.device()->total();
      const std::vector<StoredBucket> expected = StoredBuckets(reference);

      for (const bool threaded : {false, true}) {
        SCOPED_TRACE(threaded ? "4 threads" : "serial");
        Store store(uint64_t{1} << 24);
        ASSERT_OK_AND_ASSIGN(
            std::unique_ptr<ConstituentIndex> built,
            IndexBuilder::BuildPacked(store.device(), store.allocator(),
                                      options, days, "built",
                                      threaded ? parallel
                                               : ParallelContext{}));
        // Serially, the same device ops as the reference's WritePacked.
        if (!threaded) {
          EXPECT_EQ(store.device()->total(), expected_io);
        }
        EXPECT_EQ(StoredBuckets(*built), expected);
        EXPECT_EQ(built->time_set(), (TimeSet{1, 2, 3, 4}));
        EXPECT_OK(built->CheckPacked());
      }
    }
  }
}

}  // namespace
}  // namespace wavekit
