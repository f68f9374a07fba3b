// Bucket codec unit tests: round-trip identity for every codec, auto
// selection (smaller-than-raw or bust), the pinned bitpack byte layout,
// malformed input rejection, and encode determinism — the properties the
// packed build and checkpoint layers lean on.

#include "index/codec.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "index/entry.h"
#include "testing/test_env.h"
#include "util/random.h"

namespace wavekit {
namespace {

/// Packed-build-shaped entries: record ids roughly sorted with small gaps,
/// one day cluster, small aux.
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

/// Narrow-range but unsorted values.
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

/// Adversarial entries: every field spans its full width, so bitpack cannot
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

TEST(CodecTest, SortedRunsRoundTripAndShrinkAsBitPack) {
  const std::vector<Entry> entries = SortedRun(200);
  const EncodedBucket encoded =
      EncodeBucket(entries.data(), entries.size(), CodecMode::kAuto);
  ASSERT_EQ(encoded.codec, Codec::kBitPack);
  EXPECT_LT(encoded.bytes.size(), entries.size() * kEntrySize);
  EXPECT_TRUE(SameEntries(Decoded(encoded, entries), entries));
}

TEST(CodecTest, BitPackRoundTripsAndShrinksNarrowRanges) {
  const std::vector<Entry> entries = NarrowUnsorted(200);
  const EncodedBucket encoded =
      EncodeBucket(entries.data(), entries.size(), CodecMode::kAuto);
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

TEST(CodecTest, AutoFallsBackToRawWhenBitPackCannotWin) {
  const std::vector<Entry> entries = Incompressible(100);
  const EncodedBucket encoded =
      EncodeBucket(entries.data(), entries.size(), CodecMode::kAuto);
  EXPECT_EQ(encoded.codec, Codec::kRaw);
  EXPECT_TRUE(encoded.bytes.empty());
}

TEST(CodecTest, EncodingIsDeterministic) {
  const std::vector<Entry> entries = SortedRun(123);
  for (const CodecMode mode : {CodecMode::kAuto, CodecMode::kRaw}) {
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
  const EncodedBucket encoded =
      EncodeBucket(entries.data(), entries.size(), CodecMode::kAuto);
  ASSERT_EQ(encoded.codec, Codec::kBitPack);
  std::vector<Entry> out(entries.size());
  // Every strict prefix cuts a column header or a packed column short.
  for (size_t size = 0; size < encoded.bytes.size(); ++size) {
    const Status truncated = DecodeBucket(encoded.codec, encoded.bytes.data(),
                                          size, entries.size(), out.data());
    EXPECT_TRUE(truncated.IsDataLoss()) << size << ": " << truncated;
  }
}

TEST(CodecTest, DecodeRejectsTrailingBytes) {
  const std::vector<Entry> entries = SortedRun(64);
  const EncodedBucket encoded =
      EncodeBucket(entries.data(), entries.size(), CodecMode::kAuto);
  ASSERT_EQ(encoded.codec, Codec::kBitPack);
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
  for (const Codec codec : kAllCodecs) {
    // Must not crash or overread; any status is acceptable for bitpack, but
    // a count/size mismatch on raw must be rejected.
    (void)DecodeBucket(codec, garbage.data(), garbage.size(), out.size(),
                       out.data());
  }
  const Status raw_mismatch = DecodeBucket(Codec::kRaw, garbage.data(),
                                           garbage.size(), 5, out.data());
  EXPECT_FALSE(raw_mismatch.ok());
}

TEST(CodecTest, DecodeRejectsOverwideColumns) {
  // A record-id width above 64, or a day or aux width above 32, names no
  // field the layout can hold.
  const std::vector<Entry> entries = SortedRun(8);
  const EncodedBucket encoded =
      EncodeBucket(entries.data(), entries.size(), CodecMode::kAuto);
  ASSERT_EQ(encoded.codec, Codec::kBitPack);
  std::vector<Entry> out(entries.size());
  std::vector<std::byte> bytes = encoded.bytes;
  bytes[8] = std::byte{65};  // the record-id width byte
  EXPECT_TRUE(DecodeBucket(Codec::kBitPack, bytes.data(), bytes.size(),
                           entries.size(), out.data())
                  .IsDataLoss());
  bytes = encoded.bytes;
  const size_t day_width_at =
      9 + (entries.size() * static_cast<size_t>(encoded.bytes[8]) + 7) / 8 +
      4;
  bytes[day_width_at] = std::byte{33};
  EXPECT_TRUE(DecodeBucket(Codec::kBitPack, bytes.data(), bytes.size(),
                           entries.size(), out.data())
                  .IsDataLoss());
}

TEST(CodecTest, CodecFromIdValidatesRange) {
  for (const Codec codec : kAllCodecs) {
    ASSERT_OK_AND_ASSIGN(const Codec parsed,
                         CodecFromId(static_cast<uint64_t>(codec)));
    EXPECT_EQ(parsed, codec);
  }
  // Id 1 was the retired varint layout; 3 was never assigned.
  for (const uint64_t id : {uint64_t{1}, uint64_t{3}, ~uint64_t{0}}) {
    const auto bad = CodecFromId(id);
    ASSERT_FALSE(bad.ok()) << id;
    EXPECT_TRUE(bad.status().IsInvalidArgument());
    EXPECT_NE(bad.status().ToString().find("unknown codec id"),
              std::string::npos);
  }
}

TEST(CodecTest, CodecModeFromNameParsesAllModes) {
  ASSERT_OK_AND_ASSIGN(CodecMode raw, CodecModeFromName("raw"));
  EXPECT_EQ(raw, CodecMode::kRaw);
  ASSERT_OK_AND_ASSIGN(CodecMode auto_mode, CodecModeFromName("auto"));
  EXPECT_EQ(auto_mode, CodecMode::kAuto);
  for (const char* retired : {"delta", "bitpack", "zstd"}) {
    EXPECT_TRUE(CodecModeFromName(retired).status().IsInvalidArgument())
        << retired;
  }
  for (const CodecMode mode : {CodecMode::kRaw, CodecMode::kAuto}) {
    ASSERT_OK_AND_ASSIGN(const CodecMode reparsed,
                         CodecModeFromName(CodecModeName(mode)));
    EXPECT_EQ(reparsed, mode);
  }
}

// Bitpack bytes of small buckets, captured from the encoder before its
// packer and unpacker were rewritten: checkpoints and devices written by
// either must read back through the other. Each bucket pins one record-id
// width; the last also ends its 33-, 13- and 17-bit columns with fields cut
// from the zero-padded copy of the column's final bytes, and its aux column
// is one byte longer than a 16-byte window, so only its first field is read
// in place.
struct GoldenBucket {
  const char* name;
  std::vector<Entry> entries;
  std::vector<uint8_t> bytes;
};

std::vector<GoldenBucket> GoldenBuckets() {
  return {
      {"id width 0",
       {{42, 5, 1}, {42, 5, 3}, {42, 6, 2}},
       {0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00,
        0x00, 0x00, 0x01, 0x04, 0x01, 0x00, 0x00, 0x00, 0x02, 0x18}},
      {"id width 7",
       {{1000, 3, 0}, {1005, 3, 1}, {1127, 4, 2}, {1064, 4, 3}, {1003, 3, 4}},
       {0xe8, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07,
        0x80, 0xc2, 0x1f, 0x38, 0x00, 0x03, 0x00, 0x00, 0x00,
        0x01, 0x0c, 0x00, 0x00, 0x00, 0x00, 0x03, 0x88, 0x46}},
      {"id width 33",
       {{7, -3, 100},
        {7 + 0x1'0000'0000ull, -2, 4'000'000'000u},
        {7 + 0x1'FFFF'FFFFull, -2, 7},
        {7 + 12345, -1, 0}},
       {0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x21, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xfe, 0xff, 0xff, 0xff, 0xcf,
        0x81, 0x01, 0x00, 0x00, 0xfd, 0xff, 0xff, 0xff, 0x02, 0x94, 0x00,
        0x00, 0x00, 0x00, 0x20, 0x64, 0x00, 0x00, 0x00, 0x00, 0x28, 0x6b,
        0xee, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}},
      {"id width 64",
       {{0, 10, 1}, {UINT64_MAX, 10, 1}, {uint64_t{1} << 63, 11, 1},
        {12345, 12, 1}},
       {0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff,
        0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80,
        0x39, 0x30, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0a, 0x00, 0x00,
        0x00, 0x02, 0x90, 0x01, 0x00, 0x00, 0x00, 0x00}},
      {"tail fields",
       {{0x500000000ull, 100, 0},
        {0x578dde6e4ull, 1337, 40503},
        {0x5f1bbcdcaull, 2574, 81006},
        {0x66a99b4b0ull, 8291, 121509},
        {0x6e3779b96ull, 5048, 30941},
        {0x55c55827cull, 6285, 131071},
        {0x5d5336962ull, 7522, 111947},
        {0x6ffffffffull, 568, 21379}},
       {0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x21, 0x00, 0x00,
        0x00, 0x00, 0xc8, 0xcd, 0xbb, 0xf1, 0x28, 0x37, 0xef, 0xc6, 0x83,
        0xa5, 0xcd, 0x54, 0x6b, 0xb9, 0x79, 0x37, 0x9e, 0x4f, 0xb0, 0x8a,
        0x8b, 0x58, 0xda, 0x4c, 0xb5, 0xff, 0xff, 0xff, 0xff, 0x64, 0x00,
        0x00, 0x00, 0x0d, 0x00, 0xa0, 0x9a, 0xa8, 0xa6, 0xff, 0x4f, 0x35,
        0x53, 0xb0, 0x3f, 0xa7, 0x0e, 0x00, 0x00, 0x00, 0x00, 0x11, 0x00,
        0x00, 0x6e, 0x3c, 0xb9, 0xf1, 0x2c, 0xd5, 0xde, 0x8d, 0xe7, 0xff,
        0xff, 0x52, 0xed, 0xc1, 0x29}},
  };
}

TEST(CodecTest, BitPackLayoutIsStable) {
  for (const GoldenBucket& golden : GoldenBuckets()) {
    SCOPED_TRACE(golden.name);
    std::vector<std::byte> bytes;
    for (const uint8_t b : golden.bytes) bytes.push_back(std::byte{b});
    const EncodedBucket encoded = EncodeBucket(
        golden.entries.data(), golden.entries.size(), CodecMode::kAuto);
    EXPECT_EQ(encoded.codec, Codec::kBitPack);
    EXPECT_EQ(encoded.bytes, bytes);
    // Decode from an exactly sized heap copy, so a read past the last byte
    // is an AddressSanitizer report.
    const auto exact = std::make_unique<std::byte[]>(bytes.size());
    std::memcpy(exact.get(), bytes.data(), bytes.size());
    std::vector<Entry> out(golden.entries.size());
    ASSERT_OK(DecodeBucket(Codec::kBitPack, exact.get(), bytes.size(),
                           out.size(), out.data()));
    EXPECT_EQ(out, golden.entries);
  }
}

}  // namespace
}  // namespace wavekit
