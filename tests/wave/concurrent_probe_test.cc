// Concurrent readers on one WaveIndex: several caller threads run the serial
// TimedIndexProbe and TimedSegmentScan at the same time, over a multi-disk
// array and over one shared synchronized device. Every answer must equal the
// brute-force reference.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "index/index_builder.h"
#include "storage/disk_array.h"
#include "storage/synchronized_device.h"
#include "testing/test_env.h"

namespace wavekit {
namespace {

using testing::MakeMixedBatch;
using testing::ReferenceIndex;

constexpr int kCallers = 4;
constexpr int kRoundsPerCaller = 20;

class ConcurrentProbeTest : public ::testing::Test {
 protected:
  // Builds day `d`'s constituent on `device` and adds it to the wave.
  void AddDay(Device* device, ExtentAllocator* allocator, Day d) {
    DayBatch batch = MakeMixedBatch(d, 30);
    reference_.Add(batch);
    auto built = IndexBuilder::BuildPacked(device, allocator, {}, batch,
                                           "I" + std::to_string(d));
    ASSERT_TRUE(built.ok()) << built.status();
    wave_.AddIndex(std::move(built).ValueOrDie());
  }

  // kCallers threads each probe and scan the wave kRoundsPerCaller times over
  // a mix of ranges and values; returns the number of wrong answers.
  int RunCallers() {
    const std::vector<DayRange> ranges = {DayRange::All(), DayRange{3, 6},
                                          DayRange{8, 8}, DayRange{10, 12}};
    const std::vector<Value> values = {"alpha", "gamma", "day5", "nope"};
    std::atomic<int> failures{0};
    std::vector<std::thread> callers;
    for (int t = 0; t < kCallers; ++t) {
      callers.emplace_back([&, t]() {
        for (int q = 0; q < kRoundsPerCaller; ++q) {
          const DayRange& range = ranges[(t + q) % ranges.size()];
          const Value& value = values[(t * 3 + q) % values.size()];
          std::vector<Entry> probed;
          if (!wave_.TimedIndexProbe(range, value, &probed).ok()) ++failures;
          ReferenceIndex::Sort(&probed);
          if (probed != reference_.Probe(value, range.lo, range.hi)) {
            ++failures;
          }
          std::vector<Entry> scanned;
          const Status scan = wave_.TimedSegmentScan(
              range,
              [&](const Value&, const Entry& e) { scanned.push_back(e); });
          if (!scan.ok()) ++failures;
          ReferenceIndex::Sort(&scanned);
          if (scanned != reference_.ScanAll(range.lo, range.hi)) ++failures;
        }
      });
    }
    for (std::thread& caller : callers) caller.join();
    return failures.load();
  }

  // Storage before the wave: destroying a constituent frees its extents.
  DiskArray disks_{3, uint64_t{1} << 26};
  MemoryDevice memory_{uint64_t{1} << 26};
  SynchronizedMeteredDevice device_{&memory_};
  ExtentAllocator allocator_{uint64_t{1} << 26};
  WaveIndex wave_;
  ReferenceIndex reference_;
};

TEST_F(ConcurrentProbeTest, EmptyWaveIndex) {
  EXPECT_EQ(RunCallers(), 0);  // every answer is empty
}

TEST_F(ConcurrentProbeTest, ManyCallersOverDiskArray) {
  // One constituent per day 1..9, each on disk (day - 1) % 3.
  for (Day d = 1; d <= 9; ++d) {
    const int disk = (d - 1) % 3;
    AddDay(disks_.device(disk), disks_.allocator(disk), d);
  }
  EXPECT_EQ(RunCallers(), 0);
}

TEST_F(ConcurrentProbeTest, ManyCallersOverOneSynchronizedDevice) {
  for (Day d = 1; d <= 9; ++d) AddDay(&device_, &allocator_, d);
  EXPECT_EQ(RunCallers(), 0);
}

}  // namespace
}  // namespace wavekit
