#include "storage/extent_allocator.h"

#include <gtest/gtest.h>

#include <vector>

#include "testing/test_env.h"
#include "util/random.h"

namespace wavekit {
namespace {

TEST(ExtentAllocatorTest, AllocatesFirstFit) {
  ExtentAllocator alloc(1000);
  ASSERT_OK_AND_ASSIGN(Extent a, alloc.Allocate(100));
  EXPECT_EQ(a.offset, 0u);
  EXPECT_EQ(a.length, 100u);
  ASSERT_OK_AND_ASSIGN(Extent b, alloc.Allocate(200));
  EXPECT_EQ(b.offset, 100u);
  EXPECT_EQ(alloc.allocated_bytes(), 300u);
  EXPECT_EQ(alloc.free_bytes(), 700u);
}

TEST(ExtentAllocatorTest, ZeroLengthAllocationIsEmpty) {
  ExtentAllocator alloc(100);
  ASSERT_OK_AND_ASSIGN(Extent e, alloc.Allocate(0));
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(alloc.free_bytes(), 100u);
  EXPECT_OK(alloc.Free(e));
}

TEST(ExtentAllocatorTest, ExhaustionFails) {
  ExtentAllocator alloc(100);
  ASSERT_OK_AND_ASSIGN(Extent a, alloc.Allocate(80));
  (void)a;
  Result<Extent> r = alloc.Allocate(50);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted());
}

TEST(ExtentAllocatorTest, FreeCoalescesWithNeighbors) {
  ExtentAllocator alloc(300);
  ASSERT_OK_AND_ASSIGN(Extent a, alloc.Allocate(100));
  ASSERT_OK_AND_ASSIGN(Extent b, alloc.Allocate(100));
  ASSERT_OK_AND_ASSIGN(Extent c, alloc.Allocate(100));
  ASSERT_OK(alloc.Free(a));
  ASSERT_OK(alloc.Free(c));
  EXPECT_EQ(alloc.fragment_count(), 2u);
  ASSERT_OK(alloc.Free(b));  // merges both neighbors
  EXPECT_EQ(alloc.fragment_count(), 1u);
  EXPECT_EQ(alloc.free_bytes(), 300u);
  ASSERT_OK(alloc.CheckConsistency());
  // The whole space is allocatable again as one extent.
  ASSERT_OK_AND_ASSIGN(Extent all, alloc.Allocate(300));
  EXPECT_EQ(all.offset, 0u);
}

TEST(ExtentAllocatorTest, FragmentationBlocksLargeAllocation) {
  ExtentAllocator alloc(300);
  ASSERT_OK_AND_ASSIGN(Extent a, alloc.Allocate(100));
  ASSERT_OK_AND_ASSIGN(Extent b, alloc.Allocate(100));
  ASSERT_OK_AND_ASSIGN(Extent c, alloc.Allocate(100));
  (void)b;
  ASSERT_OK(alloc.Free(a));
  ASSERT_OK(alloc.Free(c));
  EXPECT_EQ(alloc.free_bytes(), 200u);
  EXPECT_EQ(alloc.largest_free_extent(), 100u);
  EXPECT_FALSE(alloc.Allocate(150).ok());  // free total would fit, but split
  ASSERT_OK_AND_ASSIGN(Extent d, alloc.Allocate(100));
  EXPECT_EQ(d.offset, 0u);  // first fit
}

TEST(ExtentAllocatorTest, DoubleFreeDetected) {
  ExtentAllocator alloc(100);
  ASSERT_OK_AND_ASSIGN(Extent a, alloc.Allocate(50));
  ASSERT_OK(alloc.Free(a));
  EXPECT_TRUE(alloc.Free(a).IsInvalidArgument());
  // Overlapping partial free is also rejected.
  ASSERT_OK_AND_ASSIGN(Extent b, alloc.Allocate(50));
  (void)b;
  EXPECT_TRUE(alloc.Free(Extent{25, 50}).IsInvalidArgument());
}

TEST(ExtentAllocatorTest, FreeBeyondCapacityRejected) {
  ExtentAllocator alloc(100);
  EXPECT_TRUE(alloc.Free(Extent{90, 20}).IsInvalidArgument());
}

TEST(ExtentAllocatorTest, SubdividedFreeIsAllowed) {
  // Callers may allocate one run and free sub-ranges (the packed build
  // pattern): the allocator accepts any currently-allocated byte range.
  ExtentAllocator alloc(100);
  ASSERT_OK_AND_ASSIGN(Extent run, alloc.Allocate(90));
  ASSERT_OK(alloc.Free(Extent{run.offset, 30}));
  ASSERT_OK(alloc.Free(Extent{run.offset + 60, 30}));
  ASSERT_OK(alloc.Free(Extent{run.offset + 30, 30}));
  EXPECT_EQ(alloc.free_bytes(), 100u);
  EXPECT_EQ(alloc.fragment_count(), 1u);
  ASSERT_OK(alloc.CheckConsistency());
}

TEST(ExtentAllocatorTest, PeakTracking) {
  ExtentAllocator alloc(1000);
  ASSERT_OK_AND_ASSIGN(Extent a, alloc.Allocate(100));
  alloc.ResetPeak();
  ASSERT_OK_AND_ASSIGN(Extent b, alloc.Allocate(400));
  ASSERT_OK(alloc.Free(a));
  EXPECT_EQ(alloc.allocated_bytes(), 400u);
  EXPECT_EQ(alloc.peak_allocated_bytes(), 500u);
  alloc.ResetPeak();
  EXPECT_EQ(alloc.peak_allocated_bytes(), 400u);
  ASSERT_OK(alloc.Free(b));
}

TEST(ExtentAllocatorTest, RandomizedAllocFreeStaysConsistent) {
  ExtentAllocator alloc(1 << 20);
  Rng rng(99);
  std::vector<Extent> live;
  for (int i = 0; i < 2000; ++i) {
    if (live.empty() || rng.Bernoulli(0.6)) {
      uint64_t size = 1 + rng.Uniform(4096);
      Result<Extent> r = alloc.Allocate(size);
      if (r.ok()) live.push_back(std::move(r).ValueOrDie());
    } else {
      size_t pick = rng.Uniform(live.size());
      ASSERT_OK(alloc.Free(live[pick]));
      live.erase(live.begin() + static_cast<long>(pick));
    }
    if (i % 100 == 0) {
      ASSERT_OK(alloc.CheckConsistency());
    }
  }
  uint64_t live_bytes = 0;
  for (const Extent& e : live) live_bytes += e.length;
  EXPECT_EQ(alloc.allocated_bytes(), live_bytes);
  for (const Extent& e : live) ASSERT_OK(alloc.Free(e));
  EXPECT_EQ(alloc.free_bytes(), uint64_t{1} << 20);
  EXPECT_EQ(alloc.fragment_count(), 1u);
  ASSERT_OK(alloc.CheckConsistency());
}

TEST(ExtentAllocatorAlignedTest, AlignedOffsetsAndNoSpaceLeak) {
  ExtentAllocator alloc(1 << 20);
  // Misalign the free list: a 100-byte allocation leaves the next free
  // offset at 100.
  ASSERT_OK_AND_ASSIGN(Extent head, alloc.Allocate(100));
  ASSERT_OK_AND_ASSIGN(Extent aligned, alloc.AllocateAligned(8192, 4096));
  EXPECT_EQ(aligned.offset % 4096, 0u);
  EXPECT_EQ(aligned.offset, 4096u);
  EXPECT_EQ(aligned.length, 8192u);
  // The padding [100, 4096) stayed free: a small unaligned request reuses it.
  ASSERT_OK_AND_ASSIGN(Extent pad, alloc.AllocateAligned(500, 1));
  EXPECT_EQ(pad.offset, 100u);
  ASSERT_OK(alloc.CheckConsistency());
  ASSERT_OK(alloc.Free(head));
  ASSERT_OK(alloc.Free(aligned));
  ASSERT_OK(alloc.Free(pad));
  EXPECT_EQ(alloc.free_bytes(), uint64_t{1} << 20);
  EXPECT_EQ(alloc.fragment_count(), 1u);
}

TEST(ExtentAllocatorAlignedTest, DefaultAlignmentAppliesToPlainAllocate) {
  ExtentAllocator alloc(1 << 20);
  alloc.set_default_alignment(4096);
  EXPECT_EQ(alloc.default_alignment(), 4096u);
  ASSERT_OK_AND_ASSIGN(Extent a, alloc.Allocate(100));
  ASSERT_OK_AND_ASSIGN(Extent b, alloc.Allocate(100));
  EXPECT_EQ(a.offset % 4096, 0u);
  EXPECT_EQ(b.offset % 4096, 0u);
  EXPECT_NE(a.offset, b.offset);
  ASSERT_OK(alloc.CheckConsistency());
}

TEST(ExtentAllocatorAlignedTest, RejectsNonPowerOfTwoAlignment) {
  ExtentAllocator alloc(1 << 20);
  EXPECT_TRUE(alloc.AllocateAligned(100, 3000).status().IsInvalidArgument());
}

TEST(ExtentAllocatorAlignedTest, ExhaustionAccountsForPadding) {
  ExtentAllocator alloc(10000);
  ASSERT_OK_AND_ASSIGN(Extent head, alloc.Allocate(1));  // free list at 1
  // 9999 bytes remain but only 10000-4096 are usable at 4096 alignment.
  EXPECT_TRUE(
      alloc.AllocateAligned(8000, 4096).status().IsResourceExhausted());
  ASSERT_OK_AND_ASSIGN(Extent fit, alloc.AllocateAligned(5000, 4096));
  EXPECT_EQ(fit.offset, 4096u);
  ASSERT_OK(alloc.Free(head));
  ASSERT_OK(alloc.Free(fit));
  EXPECT_EQ(alloc.free_bytes(), 10000u);
}

TEST(ExtentAllocatorAlignedTest, RandomizedAlignedMixStaysConsistent) {
  ExtentAllocator alloc(1 << 20);
  Rng rng(1234);
  std::vector<Extent> live;
  for (int i = 0; i < 1500; ++i) {
    if (live.empty() || rng.Bernoulli(0.6)) {
      const uint64_t size = 1 + rng.Uniform(4096);
      const uint64_t alignment = uint64_t{1} << rng.Uniform(13);
      Result<Extent> r = alloc.AllocateAligned(size, alignment);
      if (r.ok()) {
        EXPECT_EQ(r.ValueOrDie().offset % alignment, 0u);
        live.push_back(std::move(r).ValueOrDie());
      }
    } else {
      const size_t pick = rng.Uniform(live.size());
      ASSERT_OK(alloc.Free(live[pick]));
      live.erase(live.begin() + static_cast<long>(pick));
    }
    if (i % 100 == 0) {
      ASSERT_OK(alloc.CheckConsistency());
    }
  }
  for (const Extent& e : live) ASSERT_OK(alloc.Free(e));
  EXPECT_EQ(alloc.free_bytes(), uint64_t{1} << 20);
  ASSERT_OK(alloc.CheckConsistency());
}

}  // namespace
}  // namespace wavekit
