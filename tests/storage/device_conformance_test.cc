// Backend conformance: every registered storage backend must present the
// same Device semantics — zero-fill of never-written ranges, out-of-range
// rejection, batch results identical to the scalar loop, base WriteBatch
// ordering for overlapping extents, capacity reporting, and (for persistent
// backends) survival across close + reopen. The index layers are
// device-agnostic only as long as these hold.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "storage/backend_registry.h"
#include "storage/file_device.h"
#include "testing/test_env.h"
#include "util/random.h"

namespace wavekit {
namespace {

constexpr uint64_t kCapacity = uint64_t{1} << 20;  // 1 MiB

struct BackendVariant {
  const char* backend;  // registry name
  bool direct_io;
  const char* label;  // test-suffix-safe name
};

// gtest lists a parameter next to each test name. Without this it would dump
// the struct's bytes, whose string pointers change with every link, and so
// would the ctest names.
void PrintTo(const BackendVariant& variant, std::ostream* os) {
  *os << variant.label;
}

const BackendVariant kVariants[] = {
    {"memory", false, "memory"},
    {"file", false, "file"},
    {"file", true, "file_direct"},
    {"uring", false, "uring"},
    {"uring", true, "uring_direct"},
    {"mmap", false, "mmap"},
};

class DeviceConformanceTest : public ::testing::TestWithParam<BackendVariant> {
 protected:
  void SetUp() override {
    const BackendVariant& variant = GetParam();
    // O_DIRECT support depends on the filesystem backing TempDir (tmpfs
    // rejects it); probe at runtime instead of assuming.
    if (variant.direct_io &&
        !FileDevice::DirectIoSupported(::testing::TempDir())) {
      GTEST_SKIP() << "O_DIRECT unsupported on " << ::testing::TempDir();
    }
    path_ = ::testing::TempDir() + "wavekit_conformance_" + variant.label +
            "_" + std::to_string(::getpid()) + "_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".dat";
    std::remove(path_.c_str());
    config_.path = path_;
    config_.capacity = kCapacity;
    config_.direct_io = variant.direct_io;
  }
  void TearDown() override { std::remove(path_.c_str()); }

  Result<std::unique_ptr<Device>> OpenDevice() {
    return BackendRegistry::Global().Create(GetParam().backend, config_);
  }

  std::string path_;
  BackendConfig config_;
};

// Deterministic content so reopen checks need no side channel.
std::byte PatternByte(uint64_t offset) {
  return static_cast<std::byte>((offset * 131) ^ (offset >> 8));
}

std::vector<std::byte> Pattern(uint64_t offset, size_t length) {
  std::vector<std::byte> out(length);
  for (size_t i = 0; i < length; ++i) out[i] = PatternByte(offset + i);
  return out;
}

TEST_P(DeviceConformanceTest, ReportsConfiguredCapacity) {
  ASSERT_OK_AND_ASSIGN(auto device, OpenDevice());
  EXPECT_EQ(device->capacity(), kCapacity);
}

TEST_P(DeviceConformanceTest, NeverWrittenRangesReadZero) {
  ASSERT_OK_AND_ASSIGN(auto device, OpenDevice());
  // One write far below keeps sparse backends honest about ranges past the
  // last materialized byte.
  ASSERT_OK(device->Write(8, Pattern(8, 16)));
  std::vector<std::byte> out(4096, std::byte{0xFF});
  ASSERT_OK(device->Read(kCapacity / 2, out));
  for (std::byte b : out) ASSERT_EQ(b, std::byte{0});
}

TEST_P(DeviceConformanceTest, UnalignedScalarRoundTrip) {
  ASSERT_OK_AND_ASSIGN(auto device, OpenDevice());
  // Deliberately odd offsets/lengths: direct-mode backends must hide their
  // 4 KiB alignment behind the bounce path.
  const uint64_t offsets[] = {0, 1, 511, 4095, 4096, 4097, 70001};
  for (const uint64_t offset : offsets) {
    const size_t length = 100 + static_cast<size_t>(offset % 400);
    ASSERT_OK(device->Write(offset, Pattern(offset, length)));
  }
  for (const uint64_t offset : offsets) {
    const size_t length = 100 + static_cast<size_t>(offset % 400);
    std::vector<std::byte> out(length);
    ASSERT_OK(device->Read(offset, out));
    // Later writes may have overwritten earlier overlapping ranges; recompute
    // the expected byte per position from the LAST write covering it.
    for (size_t i = 0; i < length; ++i) {
      std::byte expected{0};
      for (const uint64_t w : offsets) {
        const size_t wlen = 100 + static_cast<size_t>(w % 400);
        if (offset + i >= w && offset + i < w + wlen) {
          expected = PatternByte(offset + i);
        }
      }
      ASSERT_EQ(out[i], expected) << "offset " << offset << " byte " << i;
    }
  }
}

TEST_P(DeviceConformanceTest, RejectsOutOfRangeAccess) {
  ASSERT_OK_AND_ASSIGN(auto device, OpenDevice());
  std::vector<std::byte> buf(64);
  EXPECT_FALSE(device->Read(kCapacity - 32, buf).ok());
  EXPECT_FALSE(device->Write(kCapacity - 32, buf).ok());
  EXPECT_FALSE(device->Read(kCapacity, buf).ok());
  EXPECT_FALSE(device->Write(kCapacity + 1, buf).ok());
  // Batches containing one bad extent fail before any partial read leaks out.
  const Extent extents[] = {{0, 32}, {kCapacity - 16, 32}};
  std::vector<std::byte> batch(64);
  EXPECT_FALSE(device->ReadBatch(extents, batch).ok());
  EXPECT_FALSE(device->WriteBatch(extents, batch).ok());
  // The last valid byte is still accessible.
  std::vector<std::byte> one(1);
  EXPECT_OK(device->Write(kCapacity - 1, one));
  EXPECT_OK(device->Read(kCapacity - 1, one));
}

TEST_P(DeviceConformanceTest, ReadBatchMatchesScalarLoop) {
  ASSERT_OK_AND_ASSIGN(auto device, OpenDevice());
  ASSERT_OK(device->Write(0, Pattern(0, 64 * 1024)));
  Rng rng(testing::TestSeed(1));
  for (int round = 0; round < 8; ++round) {
    std::vector<Extent> extents;
    uint64_t total = 0;
    const int count = 1 + static_cast<int>(rng.Uniform(40));
    for (int i = 0; i < count; ++i) {
      // Mix written, sparse (past 64 KiB), adjacent, and empty extents.
      const uint64_t offset = rng.Uniform(128 * 1024);
      const uint64_t length = rng.Uniform(3) == 0 ? 0 : 1 + rng.Uniform(2000);
      extents.push_back({offset, length});
      total += length;
      if (rng.Uniform(4) == 0 && length > 0) {
        extents.push_back({offset + length, 64});  // file-adjacent run
        total += 64;
      }
    }
    std::vector<std::byte> batched(total, std::byte{0xAA});
    ASSERT_OK(device->ReadBatch(extents, batched));
    std::vector<std::byte> looped(total, std::byte{0x55});
    size_t cursor = 0;
    for (const Extent& extent : extents) {
      ASSERT_OK(device->Read(
          extent.offset,
          std::span<std::byte>(looped.data() + cursor, extent.length)));
      cursor += extent.length;
    }
    ASSERT_EQ(batched, looped) << "round " << round;
  }
}

TEST_P(DeviceConformanceTest, WriteBatchMatchesScalarLoop) {
  ASSERT_OK_AND_ASSIGN(auto device, OpenDevice());
  MemoryDevice reference(kCapacity);  // base per-extent semantics
  Rng rng(testing::TestSeed(2));
  for (int round = 0; round < 6; ++round) {
    std::vector<Extent> extents;
    uint64_t total = 0;
    const int count = 1 + static_cast<int>(rng.Uniform(30));
    for (int i = 0; i < count; ++i) {
      const uint64_t offset = rng.Uniform(96 * 1024);
      const uint64_t length = 1 + rng.Uniform(1500);
      extents.push_back({offset, length});
      total += length;
    }
    std::vector<std::byte> data(total);
    for (auto& b : data) b = static_cast<std::byte>(rng.Uniform(256));
    ASSERT_OK(device->WriteBatch(extents, data));
    size_t cursor = 0;
    for (const Extent& extent : extents) {
      ASSERT_OK(reference.Write(
          extent.offset, std::span<const std::byte>(data.data() + cursor,
                                                    extent.length)));
      cursor += extent.length;
    }
  }
  std::vector<std::byte> got(128 * 1024), want(128 * 1024);
  ASSERT_OK(device->Read(0, got));
  ASSERT_OK(reference.Read(0, want));
  ASSERT_EQ(got, want);
}

TEST_P(DeviceConformanceTest, OverlappingWriteBatchKeepsCallOrder) {
  // Base Device semantics: extents apply in call order, so where extents
  // overlap the LATER extent's bytes win. Backends that sort for fewer
  // seeks must detect overlap and preserve this.
  ASSERT_OK_AND_ASSIGN(auto device, OpenDevice());
  const Extent extents[] = {{100, 8}, {104, 8}, {96, 4}};
  std::vector<std::byte> data(20);
  for (size_t i = 0; i < 8; ++i) data[i] = std::byte{0x11};
  for (size_t i = 8; i < 16; ++i) data[i] = std::byte{0x22};
  for (size_t i = 16; i < 20; ++i) data[i] = std::byte{0x33};
  ASSERT_OK(device->WriteBatch(extents, data));
  std::vector<std::byte> out(20);
  ASSERT_OK(device->Read(96, out));
  const std::byte expected[] = {
      std::byte{0x33}, std::byte{0x33}, std::byte{0x33}, std::byte{0x33},
      std::byte{0x11}, std::byte{0x11}, std::byte{0x11}, std::byte{0x11},
      std::byte{0x22}, std::byte{0x22}, std::byte{0x22}, std::byte{0x22},
      std::byte{0x22}, std::byte{0x22}, std::byte{0x22}, std::byte{0x22},
      std::byte{0},    std::byte{0},    std::byte{0},    std::byte{0}};
  EXPECT_EQ(std::memcmp(out.data(), expected, 20), 0);
}

TEST_P(DeviceConformanceTest, SyncSucceeds) {
  ASSERT_OK_AND_ASSIGN(auto device, OpenDevice());
  ASSERT_OK(device->Write(123, Pattern(123, 77)));
  EXPECT_OK(device->Sync());
}

TEST_P(DeviceConformanceTest, PersistentBackendsSurviveReopen) {
  ASSERT_OK_AND_ASSIGN(
      const BackendCapabilities caps,
      BackendRegistry::Global().GetCapabilities(GetParam().backend));
  if (!caps.persistent) {
    GTEST_SKIP() << GetParam().backend << " is volatile by design";
  }
  {
    ASSERT_OK_AND_ASSIGN(auto device, OpenDevice());
    ASSERT_OK(device->Write(5000, Pattern(5000, 300)));
    ASSERT_OK(device->Sync());
  }
  ASSERT_OK_AND_ASSIGN(auto reopened, OpenDevice());
  std::vector<std::byte> out(300);
  ASSERT_OK(reopened->Read(5000, out));
  EXPECT_EQ(out, Pattern(5000, 300));
}

INSTANTIATE_TEST_SUITE_P(AllBackends, DeviceConformanceTest,
                         ::testing::ValuesIn(kVariants),
                         [](const auto& info) {
                           return std::string(info.param.label);
                         });

}  // namespace
}  // namespace wavekit
