// WriteBatch across the device decorator stack: correctness of the scattered
// write itself, per-extent metering with phase captured at call time,
// single-lock batches on the synchronized meter, cache patching/eviction, and
// the fault injector's deterministic per-extent op counting.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "storage/device.h"
#include "storage/fault_injecting_device.h"
#include "storage/file_device.h"
#include "storage/metered_device.h"
#include "storage/sharded_cached_device.h"
#include "storage/synchronized_device.h"
#include "testing/test_env.h"
#include "util/crash_point.h"

namespace wavekit {
namespace {

std::vector<std::byte> Bytes(const std::string& s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

std::string ReadString(Device& device, uint64_t offset, size_t length) {
  std::vector<std::byte> out(length);
  Status s = device.Read(offset, out);
  if (!s.ok()) s.Abort("read");
  return std::string(reinterpret_cast<const char*>(out.data()), length);
}

TEST(WriteBatchTest, MemoryDeviceScattersPackedData) {
  MemoryDevice device(1024);
  const std::vector<Extent> extents = {{100, 3}, {200, 4}, {50, 2}};
  ASSERT_OK(device.WriteBatch(extents, Bytes("abcdefghi")));
  EXPECT_EQ(ReadString(device, 100, 3), "abc");
  EXPECT_EQ(ReadString(device, 200, 4), "defg");
  EXPECT_EQ(ReadString(device, 50, 2), "hi");
}

TEST(WriteBatchTest, RejectsSizeMismatch) {
  MemoryDevice device(1024);
  const std::vector<Extent> extents = {{0, 4}, {8, 4}};
  EXPECT_TRUE(
      device.WriteBatch(extents, Bytes("too-short")).IsInvalidArgument());
}

TEST(WriteBatchTest, MemoryDeviceValidatesBeforeWriting) {
  // The second extent is out of range; nothing of the batch may land.
  MemoryDevice device(64);
  const std::vector<Extent> extents = {{0, 4}, {100, 4}};
  EXPECT_FALSE(device.WriteBatch(extents, Bytes("abcdefgh")).ok());
  EXPECT_EQ(ReadString(device, 0, 4), std::string(4, '\0'));
}

TEST(WriteBatchTest, EmptyBatchIsANoOp) {
  MemoryDevice device(64);
  ASSERT_OK(device.WriteBatch({}, {}));
}

class FileWriteBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "wavekit_write_batch_" +
            std::to_string(::getpid()) + "_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".dat";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(FileWriteBatchTest, CoalescesAdjacentExtentsAndScattersTheRest) {
  ASSERT_OK_AND_ASSIGN(auto device, FileDevice::Open(path_, 1 << 16));
  // Two adjacent extents (one coalesced run) plus a disjoint one.
  const std::vector<Extent> extents = {{64, 4}, {68, 4}, {200, 3}};
  ASSERT_OK(device->WriteBatch(extents, Bytes("abcdefghijk")));
  EXPECT_EQ(ReadString(*device, 64, 8), "abcdefgh");
  EXPECT_EQ(ReadString(*device, 200, 3), "ijk");
}

TEST(WriteBatchTest, MeteredDeviceAccountsPerExtent) {
  MemoryDevice memory(1024);
  MeteredDevice device(&memory);
  device.set_phase(Phase::kTransition);
  // Three adjacent extents: one seek (to the first), then sequential.
  const std::vector<Extent> extents = {{100, 4}, {104, 4}, {108, 4}};
  ASSERT_OK(device.WriteBatch(extents, Bytes("abcdefghijkl")));
  const IoCounters io = device.counters(Phase::kTransition);
  EXPECT_EQ(io.write_ops, 3u);
  EXPECT_EQ(io.bytes_written, 12u);
  EXPECT_EQ(io.seeks, 1u);
  EXPECT_EQ(device.counters(Phase::kOther).write_ops, 0u);
}

/// Flips the meter's phase from INSIDE the inner write, modeling another
/// thread changing phase mid-batch. With per-call phase capture the whole
/// batch still lands in the phase active when the call started.
class PhaseFlippingDevice : public Device {
 public:
  explicit PhaseFlippingDevice(Device* inner) : inner_(inner) {}

  Status Read(uint64_t offset, std::span<std::byte> out) override {
    if (meter != nullptr) meter->set_phase(Phase::kOther);
    return inner_->Read(offset, out);
  }
  Status Write(uint64_t offset, std::span<const std::byte> data) override {
    if (meter != nullptr) meter->set_phase(Phase::kOther);
    return inner_->Write(offset, data);
  }
  uint64_t capacity() const override { return inner_->capacity(); }

  MeteredDevice* meter = nullptr;

 private:
  Device* inner_;
};

TEST(WriteBatchTest, BatchPhaseIsCapturedAtCallTime) {
  MemoryDevice memory(1024);
  PhaseFlippingDevice flipper(&memory);
  MeteredDevice device(&flipper);
  flipper.meter = &device;
  device.set_phase(Phase::kTransition);

  const std::vector<Extent> extents = {{0, 4}, {100, 4}};
  ASSERT_OK(device.WriteBatch(extents, Bytes("abcdefgh")));
  // The flip happened during the batch, but every extent is attributed to
  // the phase active at call time.
  EXPECT_EQ(device.counters(Phase::kTransition).write_ops, 2u);
  EXPECT_EQ(device.counters(Phase::kOther).write_ops, 0u);

  device.set_phase(Phase::kQuery);
  std::vector<std::byte> out(8);
  ASSERT_OK(device.ReadBatch(extents, out));
  EXPECT_EQ(device.counters(Phase::kQuery).read_ops, 2u);
  EXPECT_EQ(device.counters(Phase::kOther).read_ops, 0u);
}

TEST(WriteBatchTest, SynchronizedMeterIsExactUnderConcurrentBatches) {
  MemoryDevice memory(1 << 20);
  SynchronizedMeteredDevice device(&memory);
  device.set_phase(Phase::kTransition);
  constexpr int kThreads = 4;
  constexpr int kBatches = 50;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&device, t]() {
      // Disjoint 1 KiB region per thread; each batch writes two extents.
      const uint64_t base = static_cast<uint64_t>(t) * 1024;
      std::vector<std::byte> data(64, std::byte{static_cast<uint8_t>(t)});
      for (int i = 0; i < kBatches; ++i) {
        const std::vector<Extent> extents = {{base, 32}, {base + 512, 32}};
        Status s = device.WriteBatch(extents, data);
        if (!s.ok()) s.Abort("batch");
      }
    });
  }
  for (std::thread& w : writers) w.join();
  const IoCounters io = device.counters(Phase::kTransition);
  EXPECT_EQ(io.write_ops, static_cast<uint64_t>(kThreads) * kBatches * 2);
  EXPECT_EQ(io.bytes_written, static_cast<uint64_t>(kThreads) * kBatches * 64);
}

TEST(WriteBatchTest, ShardedCachePatchesAndEvictsLikeTheLruCache) {
  MemoryDevice memory(1 << 16);
  FaultInjectingDevice faulty(&memory);
  ShardedCachedDevice cache(&faulty, /*capacity_blocks=*/32,
                            /*block_size=*/64, /*num_shards=*/4);
  ASSERT_OK(memory.Write(0, Bytes("original")));
  EXPECT_EQ(ReadString(cache, 0, 8), "original");  // warm
  const std::vector<Extent> first = {{0, 4}};
  ASSERT_OK(cache.WriteBatch(first, Bytes("abcd")));
  cache.ResetStats();
  // The warmed block serves the new bytes from cache (a hit, not a reload).
  EXPECT_EQ(ReadString(cache, 0, 8), "abcdinal");
  EXPECT_EQ(cache.stats().hits, 1u);

  faulty.AddBadRange(Extent{128, 64});
  const std::vector<Extent> second = {{0, 4}, {128, 4}};
  EXPECT_FALSE(cache.WriteBatch(second, Bytes("WXYZwxyz")).ok());
  faulty.ClearBadRanges();
  // The failed batch evicted the touched block; the read reloads from the
  // device, where the first extent's write DID land before the failure.
  EXPECT_EQ(ReadString(cache, 0, 8), "WXYZinal");
}

TEST(WriteBatchTest, FaultInjectorCountsEachExtentAsOneWrite) {
  // Replay determinism: a batch of N extents advances the fault stream
  // exactly like N separate writes, so seeded fault schedules are identical
  // whether the caller batched or not.
  MemoryDevice memory(1 << 12);
  FaultInjectingDevice faulty(&memory);
  const std::vector<Extent> extents = {{0, 4}, {64, 4}, {128, 4}};
  ASSERT_OK(faulty.WriteBatch(extents, Bytes("abcdefghijkl")));
  EXPECT_EQ(faulty.stats().writes, 3u);
}

TEST(WriteBatchTest, FaultInjectorCrashFiresBetweenExtents) {
  MemoryDevice memory(1 << 12);
  FaultInjectingDevice::Options options;
  options.torn_writes = false;
  FaultInjectingDevice faulty(&memory, options);
  faulty.ArmCrashAfterWrites(2);
  const std::vector<Extent> extents = {{0, 4}, {64, 4}, {128, 4}};
  const Status crashed = faulty.WriteBatch(extents, Bytes("abcdefghijkl"));
  ASSERT_FALSE(crashed.ok());
  EXPECT_TRUE(IsInjectedCrash(crashed));
  // The first extent committed before the crash; the third never started.
  EXPECT_EQ(ReadString(memory, 0, 4), "abcd");
  EXPECT_EQ(ReadString(memory, 128, 4), std::string(4, '\0'));
}

}  // namespace
}  // namespace wavekit
