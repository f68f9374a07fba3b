#include "wave/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "index/codec.h"
#include "index/index_builder.h"
#include "storage/file_device.h"
#include "testing/test_env.h"
#include "util/crc32.h"
#include "wave/scheme_factory.h"

namespace wavekit {
namespace {

using testing::MakeMixedBatch;
using testing::ReferenceIndex;

class CheckpointTest : public testing::StoreTest {
 protected:
  // A wave index of two constituents (one packed, one incrementally grown).
  void BuildWave() {
    std::vector<DayBatch> batches;
    for (Day d = 1; d <= 3; ++d) {
      batches.push_back(MakeMixedBatch(d));
      reference_.Add(batches.back());
    }
    std::vector<const DayBatch*> ptrs;
    for (const DayBatch& b : batches) ptrs.push_back(&b);
    auto packed = IndexBuilder::BuildPacked(store_.device(),
                                            store_.allocator(), Options(),
                                            ptrs, "packed-part");
    ASSERT_TRUE(packed.ok()) << packed.status();
    wave_.AddIndex(std::move(packed).ValueOrDie());

    auto grown = std::make_shared<ConstituentIndex>(
        store_.device(), store_.allocator(), Options(), "grown-part");
    for (Day d = 4; d <= 6; ++d) {
      DayBatch batch = MakeMixedBatch(d);
      reference_.Add(batch);
      ASSERT_OK(grown->AddBatch(batch));
    }
    wave_.AddIndex(std::move(grown));
  }

  WaveIndex wave_;
  ReferenceIndex reference_;
};

TEST_F(CheckpointTest, SerializeIsDeterministic) {
  BuildWave();
  ASSERT_OK_AND_ASSIGN(std::string a, SerializeCheckpoint(wave_));
  ASSERT_OK_AND_ASSIGN(std::string b, SerializeCheckpoint(wave_));
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("wavekit-checkpoint 4"), std::string::npos);
  EXPECT_NE(a.find("packed-part"), std::string::npos);
  EXPECT_NE(a.find("\nfooter "), std::string::npos);
}

TEST_F(CheckpointTest, RoundTripPreservesEverything) {
  BuildWave();
  ASSERT_OK_AND_ASSIGN(std::string contents, SerializeCheckpoint(wave_));
  // Reopen against the same device with a FRESH allocator (as a restart
  // would): every bucket extent must be re-reserved.
  ExtentAllocator fresh_allocator(store_.allocator()->capacity());
  ASSERT_OK_AND_ASSIGN(
      WaveIndex reopened,
      DeserializeCheckpoint(contents, store_.device(), &fresh_allocator,
                            Options()));
  ASSERT_EQ(reopened.num_constituents(), 2u);
  EXPECT_EQ(reopened.CoveredDays(), (TimeSet{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(reopened.EntryCount(), wave_.EntryCount());

  // Queries over the reopened index match brute force.
  std::vector<Entry> out;
  ASSERT_OK(reopened.IndexProbe("alpha", &out));
  ReferenceIndex::Sort(&out);
  EXPECT_EQ(out, reference_.Probe("alpha", kDayNegInf, kDayPosInf));
  std::vector<Entry> scanned;
  ASSERT_OK(reopened.TimedSegmentScan(
      DayRange{2, 5},
      [&](const Value&, const Entry& e) { scanned.push_back(e); }));
  ReferenceIndex::Sort(&scanned);
  EXPECT_EQ(scanned, reference_.ScanAll(2, 5));

  // Packedness survived; so did structural invariants.
  EXPECT_TRUE(reopened.constituents()[0]->packed());
  ASSERT_OK(reopened.constituents()[0]->CheckPacked());
  for (const auto& c : reopened.constituents()) {
    ASSERT_OK(c->CheckConsistency());
  }
  // The fresh allocator accounts exactly the live bytes.
  EXPECT_EQ(fresh_allocator.allocated_bytes(), wave_.AllocatedBytes());
}

TEST_F(CheckpointTest, ReopenedIndexSupportsFurtherMaintenance) {
  BuildWave();
  ASSERT_OK_AND_ASSIGN(std::string contents, SerializeCheckpoint(wave_));
  ExtentAllocator fresh_allocator(store_.allocator()->capacity());
  ASSERT_OK_AND_ASSIGN(
      WaveIndex reopened,
      DeserializeCheckpoint(contents, store_.device(), &fresh_allocator,
                            Options()));
  // New allocations must not clobber reserved buckets: add a day to the
  // grown part and re-check both parts.
  auto grown = reopened.constituents()[1];
  DayBatch batch = MakeMixedBatch(7);
  reference_.Add(batch);
  ASSERT_OK(grown->AddBatch(batch));
  ASSERT_OK(grown->CheckConsistency());
  std::vector<Entry> out;
  ASSERT_OK(reopened.IndexProbe("beta", &out));
  ReferenceIndex::Sort(&out);
  EXPECT_EQ(out, reference_.Probe("beta", kDayNegInf, kDayPosInf));
}

TEST_F(CheckpointTest, FileRoundTripOnDurableDevice) {
  // Full restart simulation: build on a FileDevice, checkpoint to a second
  // file, drop every in-memory object, reopen both files, query.
  const std::string data_path = ::testing::TempDir() + "wavekit_ckpt_data";
  const std::string ckpt_path = ::testing::TempDir() + "wavekit_ckpt_meta";
  std::remove(data_path.c_str());
  std::remove(ckpt_path.c_str());
  ReferenceIndex reference;
  {
    ASSERT_OK_AND_ASSIGN(auto file, FileDevice::Open(data_path, 1 << 24));
    MeteredDevice device(file.get());
    ExtentAllocator allocator(1 << 24);
    WaveIndex wave;
    for (Day d = 1; d <= 4; ++d) {
      DayBatch batch = MakeMixedBatch(d);
      reference.Add(batch);
      auto built = IndexBuilder::BuildPacked(&device, &allocator, {}, batch,
                                             "I" + std::to_string(d));
      ASSERT_TRUE(built.ok()) << built.status();
      wave.AddIndex(std::move(built).ValueOrDie());
    }
    ASSERT_OK(WriteCheckpoint(wave, ckpt_path));
    ASSERT_OK(file->Sync());
    // Prevent the destructors from freeing the (persisted) extents being a
    // problem: allocator and indexes die here, the FILE keeps the bytes.
  }
  {
    ASSERT_OK_AND_ASSIGN(auto file, FileDevice::Open(data_path, 1 << 24));
    MeteredDevice device(file.get());
    ExtentAllocator allocator(1 << 24);
    ASSERT_OK_AND_ASSIGN(WaveIndex wave,
                         LoadCheckpoint(ckpt_path, &device, &allocator, {}));
    EXPECT_EQ(wave.num_constituents(), 4u);
    std::vector<Entry> out;
    ASSERT_OK(wave.IndexProbe("gamma", &out));
    ReferenceIndex::Sort(&out);
    EXPECT_EQ(out, reference.Probe("gamma", kDayNegInf, kDayPosInf));
  }
  std::remove(data_path.c_str());
  std::remove(ckpt_path.c_str());
}

TEST_F(CheckpointTest, CorruptCheckpointsAreRejected) {
  BuildWave();
  ASSERT_OK_AND_ASSIGN(std::string contents, SerializeCheckpoint(wave_));
  ExtentAllocator fresh(store_.allocator()->capacity());
  // Bad magic.
  EXPECT_FALSE(DeserializeCheckpoint("not-a-checkpoint 1", store_.device(),
                                     &fresh, Options())
                   .ok());
  // Bad version.
  std::string bad_version = contents;
  bad_version.replace(bad_version.find(" 4\n"), 3, " 9\n");
  EXPECT_FALSE(DeserializeCheckpoint(bad_version, store_.device(), &fresh,
                                     Options())
                   .ok());
  // Truncation.
  EXPECT_FALSE(DeserializeCheckpoint(contents.substr(0, contents.size() / 2),
                                     store_.device(), &fresh, Options())
                   .ok());
  // Overlapping buckets (same checkpoint loaded twice into one allocator).
  // The first load must stay alive, or its destructor releases the
  // reservations again.
  ExtentAllocator once(store_.allocator()->capacity());
  auto first_load =
      DeserializeCheckpoint(contents, store_.device(), &once, Options());
  ASSERT_TRUE(first_load.ok()) << first_load.status();
  auto again =
      DeserializeCheckpoint(contents, store_.device(), &once, Options());
  EXPECT_FALSE(again.ok());
  EXPECT_TRUE(again.status().IsFailedPrecondition());
}

TEST_F(CheckpointTest, LoadFromMissingFileFails) {
  ExtentAllocator fresh(1024);
  EXPECT_TRUE(LoadCheckpoint("/no/such/file", store_.device(), &fresh,
                             Options())
                  .status()
                  .IsNotFound());
}

TEST_F(CheckpointTest, TruncatedFileIsRejectedWithClearError) {
  // Every proper prefix must be rejected — a crash mid-write (without the
  // atomic-rename discipline) leaves exactly this shape on disk.
  BuildWave();
  ASSERT_OK_AND_ASSIGN(std::string contents, SerializeCheckpoint(wave_));
  for (size_t len : {size_t{0}, contents.size() / 4, contents.size() / 2,
                     contents.size() - 1}) {
    ExtentAllocator fresh(store_.allocator()->capacity());
    auto loaded = DeserializeCheckpoint(contents.substr(0, len),
                                        store_.device(), &fresh, Options());
    ASSERT_FALSE(loaded.ok()) << "prefix of " << len << " bytes accepted";
    EXPECT_NE(loaded.status().message().find("truncat"), std::string::npos)
        << loaded.status();
  }
}

TEST_F(CheckpointTest, EveryFlippedByteIsDetected) {
  // The CRC32 footer must catch a single flipped byte anywhere in the body,
  // and the length field must catch tampering with the footer itself.
  BuildWave();
  ASSERT_OK_AND_ASSIGN(std::string contents, SerializeCheckpoint(wave_));
  // Stride through the file (checking every byte is O(n^2) work for no
  // additional coverage; CRC32 detects all single-byte errors by design).
  for (size_t i = 0; i < contents.size(); i += 7) {
    std::string corrupt = contents;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x40);
    ExtentAllocator fresh(store_.allocator()->capacity());
    EXPECT_FALSE(DeserializeCheckpoint(corrupt, store_.device(), &fresh,
                                       Options())
                     .ok())
        << "flipped byte at offset " << i << " accepted";
  }
}

TEST_F(CheckpointTest, WrongVersionReportsVersion) {
  BuildWave();
  ASSERT_OK_AND_ASSIGN(std::string contents, SerializeCheckpoint(wave_));
  std::string bad_version = contents;
  bad_version.replace(bad_version.find(" 4\n"), 3, " 9\n");
  ExtentAllocator fresh(store_.allocator()->capacity());
  auto loaded =
      DeserializeCheckpoint(bad_version, store_.device(), &fresh, Options());
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("version 9"), std::string::npos)
      << loaded.status();
}

// Re-seals a (possibly tampered) checkpoint body with a correct footer, so a
// test can prove a deeper validation layer — not the footer CRC — rejects it.
std::string Reseal(const std::string& body) {
  return body + "footer " + std::to_string(body.size()) + " " +
         std::to_string(Crc32(body)) + "\n";
}

// Rewrites the <codec> column (second-from-last) of the first bucket line of
// a serialized checkpoint to `codec`, and re-seals the footer.
std::string WithFirstBucketCodec(const std::string& v4,
                                 const std::string& codec) {
  const size_t footer_at = v4.rfind("\nfooter ");
  EXPECT_NE(footer_at, std::string::npos);
  std::istringstream in(v4.substr(0, footer_at + 1));
  std::string body, line;
  bool doctored = false;
  while (std::getline(in, line)) {
    if (!doctored && line.rfind("bucket ", 0) == 0) {
      const size_t end = line.rfind(' ');
      const size_t codec_at = line.rfind(' ', end - 1) + 1;
      line = line.substr(0, codec_at) + codec + line.substr(end);
      doctored = true;
    }
    body += line + "\n";
  }
  EXPECT_TRUE(doctored);
  return Reseal(body);
}

TEST_F(CheckpointTest, DoctoredChecksumColumnIsCaughtOnFirstRead) {
  // An attacker (or bug) that rewrites a bucket checksum AND re-seals the
  // footer gets past the file-integrity layer by construction — the data
  // checksum verification at read time is the layer that must catch it.
  BuildWave();
  ASSERT_OK_AND_ASSIGN(std::string v4, SerializeCheckpoint(wave_));
  const size_t footer_at = v4.rfind("\nfooter ");
  std::istringstream in(v4.substr(0, footer_at + 1));
  std::string body, line;
  bool doctored = false;
  while (std::getline(in, line)) {
    if (!doctored && line.rfind("bucket ", 0) == 0) {
      // v4 bucket line: ... <crc32c> <codec> <stored>; the checksum is the
      // third-from-last column.
      size_t end = line.size();
      for (int i = 0; i < 2; ++i) end = line.rfind(' ', end - 1);
      const size_t crc_at = line.rfind(' ', end - 1) + 1;
      uint64_t crc = std::stoull(line.substr(crc_at, end - crc_at));
      line = line.substr(0, crc_at) + std::to_string(crc ^ 0x00010000u) +
             line.substr(end);
      doctored = true;
    }
    body += line + "\n";
  }
  ASSERT_TRUE(doctored);
  const std::string tampered = Reseal(body);
  ASSERT_NE(tampered, v4);

  ExtentAllocator fresh(store_.allocator()->capacity());
  ASSERT_OK_AND_ASSIGN(
      WaveIndex reopened,
      DeserializeCheckpoint(tampered, store_.device(), &fresh, Options()));
  // The doctored bucket is the first one serialized for constituent 0; a
  // full scan of that constituent must trip over it.
  EXPECT_TRUE(reopened.constituents()[0]
                  ->Scan([](const Value&, const Entry&) {})
                  .IsDataLoss());
  EXPECT_TRUE(reopened.constituents()[0]->corrupt());
}

TEST_F(CheckpointTest, TruncatedChecksumColumnIsRejected) {
  // Bucket lines that lost their checksum column (the layout of files older
  // than v3) under a v4 header must be rejected by the parser even with a
  // correct footer, never read with the columns shifted.
  BuildWave();
  ASSERT_OK_AND_ASSIGN(std::string v4, SerializeCheckpoint(wave_));
  const size_t footer_at = v4.rfind("\nfooter ");
  std::istringstream in(v4.substr(0, footer_at + 1));
  std::string body, line;
  int stripped = 0;
  while (std::getline(in, line)) {
    if (line.rfind("bucket ", 0) == 0) {
      // ... <crc32c> <codec> <stored>: cut the third-from-last column.
      size_t end = line.size();
      for (int i = 0; i < 2; ++i) end = line.rfind(' ', end - 1);
      const size_t crc_at = line.rfind(' ', end - 1);
      line.erase(crc_at, end - crc_at);
      ++stripped;
    }
    body += line + "\n";
  }
  ASSERT_GT(stripped, 0);
  ExtentAllocator fresh(store_.allocator()->capacity());
  EXPECT_FALSE(
      DeserializeCheckpoint(Reseal(body), store_.device(), &fresh, Options())
          .ok());
}

TEST_F(CheckpointTest, BadCodecColumnIsRejected) {
  // An out-of-range codec id must be rejected at parse time, even under a
  // correct footer — decoding with a nonsense codec would misread bytes.
  BuildWave();
  ASSERT_OK_AND_ASSIGN(std::string v4, SerializeCheckpoint(wave_));
  ExtentAllocator fresh(store_.allocator()->capacity());
  auto loaded = DeserializeCheckpoint(WithFirstBucketCodec(v4, "9"),
                                      store_.device(), &fresh, Options());
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("codec"), std::string::npos)
      << loaded.status();
}

TEST_F(CheckpointTest, RetiredCodecIdIsRejected) {
  // Codec id 1 named a varint layout no decoder reads any more; a bucket
  // line that names it fails the load instead of being misread as bitpack.
  BuildWave();
  ASSERT_OK_AND_ASSIGN(std::string v4, SerializeCheckpoint(wave_));
  ExtentAllocator fresh(store_.allocator()->capacity());
  auto loaded = DeserializeCheckpoint(WithFirstBucketCodec(v4, "1"),
                                      store_.device(), &fresh, Options());
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument()) << loaded.status();
  EXPECT_NE(loaded.status().message().find("unknown codec id: 1"), std::string::npos)
      << loaded.status();
}

TEST_F(CheckpointTest, CompressedBucketsRoundTrip) {
  // v4's codec/stored columns are load-bearing: a compressed bucket's extent
  // is its encoded length, not count * kEntrySize, and the reloaded index
  // must reserve and verify exactly those bytes.
  std::vector<DayBatch> batches;
  ReferenceIndex reference;
  for (Day d = 1; d <= 3; ++d) {
    batches.push_back(MakeMixedBatch(d, /*num_records=*/64));
    reference.Add(batches.back());
  }
  std::vector<const DayBatch*> ptrs;
  for (const DayBatch& b : batches) ptrs.push_back(&b);
  ConstituentIndex::Options options = Options();
  options.codec = CodecMode::kAuto;
  auto built = IndexBuilder::BuildPacked(store_.device(), store_.allocator(),
                                         options, ptrs, "packed-codec");
  ASSERT_TRUE(built.ok()) << built.status();
  std::shared_ptr<ConstituentIndex> packed = std::move(built).ValueOrDie();
  const ConstituentIndex::CodecBreakdown stats = packed->CodecStats();
  ASSERT_GT(stats.bitpack_buckets, 0u)
      << "expected at least one compressed bucket";
  WaveIndex wave;
  wave.AddIndex(packed);
  ASSERT_OK_AND_ASSIGN(std::string contents, SerializeCheckpoint(wave));

  ExtentAllocator fresh(store_.allocator()->capacity());
  ASSERT_OK_AND_ASSIGN(
      WaveIndex reopened,
      DeserializeCheckpoint(contents, store_.device(), &fresh, options));
  std::vector<Entry> out;
  ASSERT_OK(reopened.IndexProbe("alpha", &out));
  ReferenceIndex::Sort(&out);
  EXPECT_EQ(out, reference.Probe("alpha", kDayNegInf, kDayPosInf));
  ASSERT_OK(reopened.constituents()[0]->CheckConsistency());
  ASSERT_OK(reopened.constituents()[0]->CheckPacked());
  EXPECT_EQ(fresh.allocated_bytes(), wave.AllocatedBytes());
  const ConstituentIndex::CodecBreakdown reloaded =
      reopened.constituents()[0]->CodecStats();
  EXPECT_EQ(reloaded.stored_bytes, stats.stored_bytes);
  EXPECT_EQ(reloaded.uncompressed_bytes, stats.uncompressed_bytes);
}

TEST_F(CheckpointTest, ExtentOverlappingReservedRangeIsRejected) {
  // A checkpoint referencing bytes some other component already owns must
  // not load: trusting it would let two owners scribble on each other.
  BuildWave();
  ASSERT_OK_AND_ASSIGN(std::string contents, SerializeCheckpoint(wave_));
  ExtentAllocator fresh(store_.allocator()->capacity());
  // Squat on the whole device before loading.
  ASSERT_TRUE(fresh.Reserve(Extent{0, fresh.capacity()}).ok());
  auto loaded =
      DeserializeCheckpoint(contents, store_.device(), &fresh, Options());
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsFailedPrecondition()) << loaded.status();
}

TEST_F(CheckpointTest, SchemeWaveCanBeCheckpointed) {
  // End to end with a real scheme: run WATA* for a while, checkpoint its
  // wave, reload, compare query results.
  DayStore day_store;
  SchemeConfig config;
  config.window = 6;
  config.num_indexes = 3;
  config.technique = UpdateTechniqueKind::kSimpleShadow;
  auto made = MakeScheme(SchemeKind::kWata,
                         SchemeEnv{store_.device(), store_.allocator(),
                                   &day_store},
                         config);
  ASSERT_TRUE(made.ok()) << made.status();
  std::unique_ptr<Scheme> scheme = std::move(made).ValueOrDie();
  ReferenceIndex reference;
  std::vector<DayBatch> first;
  for (Day d = 1; d <= 6; ++d) first.push_back(MakeMixedBatch(d));
  ASSERT_OK(scheme->Start(std::move(first)));
  for (Day d = 7; d <= 15; ++d) {
    ASSERT_OK(scheme->Transition(MakeMixedBatch(d)));
  }
  ASSERT_OK_AND_ASSIGN(std::string contents,
                       SerializeCheckpoint(scheme->wave()));
  ExtentAllocator fresh(store_.allocator()->capacity());
  ASSERT_OK_AND_ASSIGN(
      WaveIndex reopened,
      DeserializeCheckpoint(contents, store_.device(), &fresh, Options()));
  std::vector<Entry> original, reloaded;
  ASSERT_OK(scheme->wave().IndexProbe("alpha", &original));
  ASSERT_OK(reopened.IndexProbe("alpha", &reloaded));
  ReferenceIndex::Sort(&original);
  ReferenceIndex::Sort(&reloaded);
  EXPECT_EQ(reloaded, original);
}

}  // namespace
}  // namespace wavekit
