// Bucket codec unit tests: round-trip identity for every codec, auto
// selection (smaller-than-raw or bust), forced-mode raw fallback, malformed
// input rejection, and encode determinism — the properties the packed build
// and checkpoint layers lean on.

#include "index/codec.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "index/entry.h"
#include "testing/test_env.h"
#include "util/random.h"

namespace wavekit {
namespace {

/// Packed-build-shaped entries: record ids roughly sorted with small gaps,
/// one day cluster, small aux — the kDelta sweet spot.
std::vector<Entry> SortedRun(size_t count) {
  std::vector<Entry> entries;
  uint64_t rid = 1000;
  for (size_t i = 0; i < count; ++i) {
    rid += 1 + (i % 7);
    entries.push_back(Entry{rid, static_cast<Day>(3 + (i % 2)),
                            static_cast<uint32_t>(i % 50)});
  }
  return entries;
}

/// Narrow-range but unsorted values — the kBitPack sweet spot.
std::vector<Entry> NarrowUnsorted(size_t count) {
  Rng rng(99);
  std::vector<Entry> entries;
  for (size_t i = 0; i < count; ++i) {
    entries.push_back(Entry{5'000'000 + rng.Uniform(4096),
                            static_cast<Day>(10 + rng.Uniform(4)),
                            static_cast<uint32_t>(rng.Uniform(128))});
  }
  return entries;
}

/// Adversarial entries: every field spans its full width, so no codec can
/// beat 16 bytes per entry.
std::vector<Entry> Incompressible(size_t count) {
  Rng rng(7);
  std::vector<Entry> entries;
  for (size_t i = 0; i < count; ++i) {
    entries.push_back(Entry{rng.Next(), static_cast<Day>(rng.Next()),
                            static_cast<uint32_t>(rng.Next())});
  }
  return entries;
}

std::vector<Entry> Decoded(const EncodedBucket& encoded,
                           const std::vector<Entry>& original) {
  std::vector<Entry> out(original.size());
  Status status;
  if (encoded.codec == Codec::kRaw) {
    status = DecodeBucket(
        Codec::kRaw, reinterpret_cast<const std::byte*>(original.data()),
        original.size() * kEntrySize, original.size(), out.data());
  } else {
    status = DecodeBucket(encoded.codec, encoded.bytes.data(),
                          encoded.bytes.size(), original.size(), out.data());
  }
  EXPECT_OK(status);
  return out;
}

bool SameEntries(const std::vector<Entry>& a, const std::vector<Entry>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * kEntrySize) == 0;
}

TEST(CodecTest, RawModeIsIdentity) {
  const std::vector<Entry> entries = SortedRun(32);
  const EncodedBucket encoded =
      EncodeBucket(entries.data(), entries.size(), CodecMode::kRaw);
  EXPECT_EQ(encoded.codec, Codec::kRaw);
  EXPECT_TRUE(encoded.bytes.empty());
  EXPECT_EQ(encoded.stored_length(entries.size()),
            entries.size() * kEntrySize);
}

TEST(CodecTest, DeltaRoundTripsAndShrinksSortedRuns) {
  const std::vector<Entry> entries = SortedRun(200);
  const EncodedBucket encoded =
      EncodeBucket(entries.data(), entries.size(), CodecMode::kDelta);
  ASSERT_EQ(encoded.codec, Codec::kDelta);
  EXPECT_LT(encoded.bytes.size(), entries.size() * kEntrySize);
  EXPECT_TRUE(SameEntries(Decoded(encoded, entries), entries));
}

TEST(CodecTest, BitPackRoundTripsAndShrinksNarrowRanges) {
  const std::vector<Entry> entries = NarrowUnsorted(200);
  const EncodedBucket encoded =
      EncodeBucket(entries.data(), entries.size(), CodecMode::kBitPack);
  ASSERT_EQ(encoded.codec, Codec::kBitPack);
  EXPECT_LT(encoded.bytes.size(), entries.size() * kEntrySize);
  EXPECT_TRUE(SameEntries(Decoded(encoded, entries), entries));
}

TEST(CodecTest, AutoNeverLosesToRawAndRoundTrips) {
  for (const auto& entries :
       {SortedRun(150), NarrowUnsorted(150), Incompressible(150)}) {
    const EncodedBucket encoded =
        EncodeBucket(entries.data(), entries.size(), CodecMode::kAuto);
    EXPECT_LE(encoded.stored_length(entries.size()),
              entries.size() * kEntrySize);
    EXPECT_TRUE(SameEntries(Decoded(encoded, entries), entries));
  }
}

TEST(CodecTest, AutoCompressesTypicalPackedBuckets) {
  const std::vector<Entry> entries = SortedRun(150);
  const EncodedBucket encoded =
      EncodeBucket(entries.data(), entries.size(), CodecMode::kAuto);
  EXPECT_NE(encoded.codec, Codec::kRaw);
  EXPECT_LT(encoded.stored_length(entries.size()),
            entries.size() * kEntrySize);
}

TEST(CodecTest, ForcedModeFallsBackToRawWhenItCannotWin) {
  const std::vector<Entry> entries = Incompressible(100);
  for (const CodecMode mode :
       {CodecMode::kAuto, CodecMode::kDelta, CodecMode::kBitPack}) {
    const EncodedBucket encoded =
        EncodeBucket(entries.data(), entries.size(), mode);
    EXPECT_EQ(encoded.codec, Codec::kRaw) << CodecModeName(mode);
    EXPECT_TRUE(encoded.bytes.empty());
  }
}

TEST(CodecTest, EncodingIsDeterministic) {
  const std::vector<Entry> entries = SortedRun(123);
  for (const CodecMode mode : {CodecMode::kAuto, CodecMode::kDelta,
                               CodecMode::kBitPack, CodecMode::kRaw}) {
    const EncodedBucket a = EncodeBucket(entries.data(), entries.size(), mode);
    const EncodedBucket b = EncodeBucket(entries.data(), entries.size(), mode);
    EXPECT_EQ(a.codec, b.codec);
    EXPECT_EQ(a.bytes, b.bytes);
  }
}

TEST(CodecTest, EmptyBucketEncodesAndDecodes) {
  const EncodedBucket encoded = EncodeBucket(nullptr, 0, CodecMode::kAuto);
  EXPECT_EQ(encoded.codec, Codec::kRaw);
  EXPECT_EQ(encoded.stored_length(0), 0u);
  EXPECT_OK(DecodeBucket(Codec::kRaw, nullptr, 0, 0, nullptr));
}

TEST(CodecTest, DecodeRejectsTruncatedInput) {
  const std::vector<Entry> entries = SortedRun(64);
  for (const CodecMode mode : {CodecMode::kDelta, CodecMode::kBitPack}) {
    const EncodedBucket encoded =
        EncodeBucket(entries.data(), entries.size(), mode);
    ASSERT_NE(encoded.codec, Codec::kRaw);
    std::vector<Entry> out(entries.size());
    const Status truncated =
        DecodeBucket(encoded.codec, encoded.bytes.data(),
                     encoded.bytes.size() - 1, entries.size(), out.data());
    EXPECT_TRUE(truncated.IsDataLoss()) << truncated;
  }
}

TEST(CodecTest, DecodeRejectsTrailingBytes) {
  const std::vector<Entry> entries = SortedRun(64);
  const EncodedBucket encoded =
      EncodeBucket(entries.data(), entries.size(), CodecMode::kDelta);
  ASSERT_EQ(encoded.codec, Codec::kDelta);
  std::vector<std::byte> padded = encoded.bytes;
  padded.push_back(std::byte{0});
  std::vector<Entry> out(entries.size());
  const Status trailing = DecodeBucket(
      encoded.codec, padded.data(), padded.size(), entries.size(), out.data());
  EXPECT_TRUE(trailing.IsDataLoss()) << trailing;
}

TEST(CodecTest, DecodeRejectsGarbage) {
  std::vector<std::byte> garbage;
  Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    garbage.push_back(static_cast<std::byte>(rng.Uniform(256)));
  }
  std::vector<Entry> out(1000);
  for (int c = 0; c < kNumCodecs; ++c) {
    // Must not crash or overread; any status is acceptable for the packed
    // codecs, but a count/size mismatch on raw must be rejected.
    (void)DecodeBucket(static_cast<Codec>(c), garbage.data(), garbage.size(),
                       out.size(), out.data());
  }
  const Status raw_mismatch = DecodeBucket(Codec::kRaw, garbage.data(),
                                           garbage.size(), 5, out.data());
  EXPECT_FALSE(raw_mismatch.ok());
}

TEST(CodecTest, DeltaDecodeWrapsHostileIdDeltas) {
  // Two record-id deltas of INT64_MAX each: their sum leaves int64_t, so the
  // decoder must wrap in the unsigned record-id domain, not overflow.
  std::vector<std::byte> bytes;
  const auto put_varint = [&bytes](uint64_t v) {
    for (; v >= 0x80; v >>= 7) bytes.push_back(std::byte(v | 0x80));
    bytes.push_back(std::byte(v));
  };
  const uint64_t zigzag_int64_max = ~uint64_t{1};
  for (uint64_t column : {zigzag_int64_max, uint64_t{0}, uint64_t{0}}) {
    put_varint(column);
    put_varint(column);
  }
  std::vector<Entry> out(2);
  ASSERT_OK(DecodeBucket(Codec::kDelta, bytes.data(), bytes.size(), 2,
                         out.data()));
  EXPECT_EQ(out[0].record_id, uint64_t{INT64_MAX});
  EXPECT_EQ(out[1].record_id, ~uint64_t{1});
  EXPECT_EQ(out[1].day, 0);
}

TEST(CodecTest, CodecFromIdValidatesRange) {
  for (uint64_t id = 0; id < static_cast<uint64_t>(kNumCodecs); ++id) {
    ASSERT_OK_AND_ASSIGN(const Codec codec, CodecFromId(id));
    EXPECT_EQ(static_cast<uint64_t>(codec), id);
  }
  const auto bad = CodecFromId(kNumCodecs);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("codec id out of range"),
            std::string::npos);
}

TEST(CodecTest, CodecModeFromNameParsesAllModes) {
  ASSERT_OK_AND_ASSIGN(CodecMode raw, CodecModeFromName("raw"));
  EXPECT_EQ(raw, CodecMode::kRaw);
  ASSERT_OK_AND_ASSIGN(CodecMode auto_mode, CodecModeFromName("auto"));
  EXPECT_EQ(auto_mode, CodecMode::kAuto);
  ASSERT_OK_AND_ASSIGN(CodecMode delta, CodecModeFromName("delta"));
  EXPECT_EQ(delta, CodecMode::kDelta);
  ASSERT_OK_AND_ASSIGN(CodecMode bitpack, CodecModeFromName("bitpack"));
  EXPECT_EQ(bitpack, CodecMode::kBitPack);
  EXPECT_FALSE(CodecModeFromName("zstd").ok());
  for (const CodecMode mode : {CodecMode::kRaw, CodecMode::kAuto,
                               CodecMode::kDelta, CodecMode::kBitPack}) {
    ASSERT_OK_AND_ASSIGN(const CodecMode reparsed,
                         CodecModeFromName(CodecModeName(mode)));
    EXPECT_EQ(reparsed, mode);
  }
}

}  // namespace
}  // namespace wavekit
