// Wire-protocol conformance: golden byte vectors pin the exact on-wire
// layout of every frame type (an incompatible change must fail here, not in
// a mixed-version deployment), and FrameReader's streaming behaviour is
// pinned down: partial-read reassembly, pipelining, version rejection, the
// oversized-frame limit, sticky errors, and the allocation guards on
// hostile count fields.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serve/protocol.h"
#include "testing/test_env.h"

namespace wavekit {
namespace serve {
namespace {

std::string Bytes(std::initializer_list<unsigned char> bytes) {
  return std::string(bytes.begin(), bytes.end());
}

// --- Golden byte vectors ----------------------------------------------------
//
// Layout: header {payload_len:u32, version:u8, type:u8, tenant:u16,
// request_id:u32}, all little-endian, then the payload.

TEST(ProtocolGoldenTest, ProbeRequestBytes) {
  ProbeRequest request;
  request.range = DayRange{3, 7};
  request.value = "ab";
  const std::string frame = EncodeProbeRequest(0x0102, 0x04030201, request);
  const std::string expected = Bytes({
      0x0e, 0x00, 0x00, 0x00,  // payload_len = 14
      0x01,                    // version
      0x01,                    // type = kProbe
      0x02, 0x01,              // tenant = 0x0102
      0x01, 0x02, 0x03, 0x04,  // request_id = 0x04030201
      0x03, 0x00, 0x00, 0x00,  // range.lo = 3
      0x07, 0x00, 0x00, 0x00,  // range.hi = 7
      0x02, 0x00, 0x00, 0x00,  // value_len = 2
      'a', 'b',
  });
  EXPECT_EQ(frame, expected);
}

TEST(ProtocolGoldenTest, ScanRequestBytes) {
  ScanRequest request;
  request.range = DayRange{-1, 2};
  request.max_entries = 5;
  const std::string frame = EncodeScanRequest(1, 2, request);
  const std::string expected = Bytes({
      0x0c, 0x00, 0x00, 0x00,  // payload_len = 12
      0x01, 0x02,              // version, type = kScan
      0x01, 0x00,              // tenant = 1
      0x02, 0x00, 0x00, 0x00,  // request_id = 2
      0xff, 0xff, 0xff, 0xff,  // range.lo = -1
      0x02, 0x00, 0x00, 0x00,  // range.hi = 2
      0x05, 0x00, 0x00, 0x00,  // max_entries = 5
  });
  EXPECT_EQ(frame, expected);
}

TEST(ProtocolGoldenTest, AdvanceRequestBytes) {
  AdvanceRequest request;
  request.batch.day = 9;
  Record record;
  record.record_id = 0x1122334455667788ull;
  record.day = 9;
  record.values = {"xy"};
  record.aux = {7};
  request.batch.records.push_back(record);
  const std::string frame = EncodeAdvanceRequest(0, 1, request);
  const std::string expected = Bytes({
      0x1c, 0x00, 0x00, 0x00,  // payload_len = 28
      0x01, 0x03,              // version, type = kAdvance
      0x00, 0x00,              // tenant = 0
      0x01, 0x00, 0x00, 0x00,  // request_id = 1
      0x09, 0x00, 0x00, 0x00,  // day = 9
      0x01, 0x00, 0x00, 0x00,  // record_count = 1
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // record_id
      0x01, 0x00,              // num_values = 1
      0x02, 0x00, 0x00, 0x00,  // value_len = 2
      'x', 'y',
      0x07, 0x00, 0x00, 0x00,  // aux = 7
  });
  EXPECT_EQ(frame, expected);
}

TEST(ProtocolGoldenTest, StatsAndHealthRequestBytes) {
  EXPECT_EQ(EncodeStatsRequest(3, 4), Bytes({
      0x00, 0x00, 0x00, 0x00, 0x01, 0x04,
      0x03, 0x00, 0x04, 0x00, 0x00, 0x00,
  }));
  EXPECT_EQ(EncodeHealthRequest(0, 0), Bytes({
      0x00, 0x00, 0x00, 0x00, 0x01, 0x05,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
  }));
}

TEST(ProtocolGoldenTest, QueryReplyBytes) {
  FrameHeader request;
  request.type = static_cast<uint8_t>(FrameType::kProbe);
  request.tenant_id = 1;
  request.request_id = 2;
  QueryReply reply;
  reply.result.code = StatusCode::kOk;
  reply.stats.indexes_accessed = 2;
  reply.stats.entries_returned = 1;
  reply.entries.push_back(Entry{0x0102030405060708ull, 6, 9});
  const std::string frame = EncodeQueryReply(request, reply);
  const std::string expected = Bytes({
      0x33, 0x00, 0x00, 0x00,  // payload_len = 51
      0x01, 0x81,              // version, type = kProbeReply
      0x01, 0x00,              // tenant = 1
      0x02, 0x00, 0x00, 0x00,  // request_id = 2
      0x00,                    // result code = kOk
      0x00, 0x00,              // detail_len = 0
      0x02, 0x00, 0x00, 0x00,  // indexes_accessed = 2
      0x00, 0x00, 0x00, 0x00,  // indexes_skipped
      0x00, 0x00, 0x00, 0x00,  // indexes_unhealthy
      0x00, 0x00, 0x00, 0x00,  // indexes_failed
      0x00, 0x00, 0x00, 0x00,  // probe_fallbacks
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // entries_returned
      0x01, 0x00, 0x00, 0x00,  // entry_count = 1
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // record_id
      0x06, 0x00, 0x00, 0x00,  // day = 6
      0x09, 0x00, 0x00, 0x00,  // aux = 9
  });
  EXPECT_EQ(frame, expected);
}

TEST(ProtocolGoldenTest, ErrorReplyBytes) {
  FrameHeader request;
  request.tenant_id = 7;
  request.request_id = 8;
  const std::string frame = EncodeErrorReply(
      request, FrameType::kErrorReply, StatusCode::kNotFound, "no");
  const std::string expected = Bytes({
      0x05, 0x00, 0x00, 0x00,  // payload_len = 5
      0x01, 0xff,              // version, type = kErrorReply
      0x07, 0x00,              // tenant = 7
      0x08, 0x00, 0x00, 0x00,  // request_id = 8
      0x02,                    // code = kNotFound
      0x02, 0x00,              // detail_len = 2
      'n', 'o',
  });
  EXPECT_EQ(frame, expected);
}

// --- Reply body round-trips -------------------------------------------------

TEST(ProtocolRoundTripTest, StatsReply) {
  FrameHeader request;
  StatsReply reply;
  reply.probes = 10;
  reply.scans = 3;
  reply.days_advanced = 4;
  reply.async_advances = 2;
  reply.pending_advances = 1;
  reply.degraded_advances = 0;
  reply.partial_results = 5;
  reply.current_day = 42;
  reply.degraded = true;
  const std::string frame = EncodeStatsReply(request, reply);
  StatsReply decoded;
  ASSERT_OK(DecodeStatsReply(frame.substr(kFrameHeaderBytes), &decoded));
  EXPECT_EQ(decoded.probes, 10u);
  EXPECT_EQ(decoded.partial_results, 5u);
  EXPECT_EQ(decoded.current_day, 42);
  EXPECT_TRUE(decoded.degraded);
}

TEST(ProtocolRoundTripTest, HealthReply) {
  FrameHeader request;
  HealthReply reply;
  reply.degraded = true;
  reply.detail = "constituent 2 quarantined";
  const std::string frame = EncodeHealthReply(request, reply);
  HealthReply decoded;
  ASSERT_OK(DecodeHealthReply(frame.substr(kFrameHeaderBytes), &decoded));
  EXPECT_TRUE(decoded.degraded);
  EXPECT_EQ(decoded.detail, reply.detail);
}

TEST(ProtocolRoundTripTest, ErrorReplyDecodesAsResultPrefix) {
  FrameHeader request;
  const std::string frame = EncodeErrorReply(
      request, FrameType::kProbeReply, StatusCode::kResourceExhausted,
      "rate limited");
  QueryReply decoded;
  ASSERT_OK(DecodeQueryReply(frame.substr(kFrameHeaderBytes), &decoded));
  EXPECT_EQ(decoded.result.code, StatusCode::kResourceExhausted);
  EXPECT_EQ(decoded.result.detail, "rate limited");
  EXPECT_FALSE(decoded.result.has_body());
  EXPECT_TRUE(decoded.entries.empty());
}

// --- FrameReader streaming behaviour ---------------------------------------

TEST(FrameReaderTest, PartialReadReassembly) {
  ProbeRequest request;
  request.range = DayRange{1, 5};
  request.value = "hello";
  const std::string frame = EncodeProbeRequest(0, 1, request);

  FrameReader reader;
  Frame out;
  // Feed byte by byte: no frame until the last byte lands.
  for (size_t i = 0; i + 1 < frame.size(); ++i) {
    ASSERT_OK(reader.Feed(frame.data() + i, 1));
    EXPECT_FALSE(reader.Next(&out)) << "frame surfaced at byte " << i;
  }
  ASSERT_OK(reader.Feed(frame.data() + frame.size() - 1, 1));
  ASSERT_TRUE(reader.Next(&out));
  EXPECT_EQ(out.header.type, static_cast<uint8_t>(FrameType::kProbe));
  ProbeRequest decoded;
  ASSERT_OK(DecodeProbeRequest(out.payload, &decoded));
  EXPECT_EQ(decoded.value, "hello");
  EXPECT_EQ(reader.buffered_bytes(), 0u);
}

TEST(FrameReaderTest, PipelinedFramesPopInOrder) {
  std::string stream;
  for (uint32_t id = 1; id <= 5; ++id) {
    stream += EncodeStatsRequest(0, id);
  }
  FrameReader reader;
  ASSERT_OK(reader.Feed(stream.data(), stream.size()));
  Frame out;
  for (uint32_t id = 1; id <= 5; ++id) {
    ASSERT_TRUE(reader.Next(&out));
    EXPECT_EQ(out.header.request_id, id);
  }
  EXPECT_FALSE(reader.Next(&out));
}

TEST(FrameReaderTest, RejectsVersionMismatch) {
  const std::string frame =
      EncodeRawFrame(9, static_cast<uint8_t>(FrameType::kStats), 3, 7, "");
  FrameReader reader;
  const Status status = reader.Feed(frame.data(), frame.size());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // The sticky error reports the offending header so the server can address
  // its final error reply.
  EXPECT_EQ(reader.error_header().tenant_id, 3);
  EXPECT_EQ(reader.error_header().request_id, 7u);
  // Sticky: later feeds keep failing, Next never yields.
  const std::string good = EncodeStatsRequest(0, 1);
  EXPECT_FALSE(reader.Feed(good.data(), good.size()).ok());
  Frame out;
  EXPECT_FALSE(reader.Next(&out));
}

TEST(FrameReaderTest, RejectsOversizedFrameFromHeaderAlone) {
  // A poisoned length field must be rejected from the 12 header bytes,
  // before any payload is buffered.
  FrameReader reader(/*max_payload_bytes=*/1024);
  std::string header = EncodeRawFrame(
      kProtocolVersion, static_cast<uint8_t>(FrameType::kProbe), 0, 1, "");
  header[0] = static_cast<char>(0xFF);  // payload_len = 0xFFFF00FF... > cap
  header[1] = static_cast<char>(0xFF);
  header[2] = static_cast<char>(0xFF);
  header[3] = static_cast<char>(0x7F);
  const Status status = reader.Feed(header.data(), kFrameHeaderBytes);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(reader.buffered_bytes(), 0u);  // nothing retained
}

TEST(FrameReaderTest, ValidFrameUpToTheLimitIsAccepted) {
  FrameReader reader(/*max_payload_bytes=*/64);
  ProbeRequest request;
  request.range = DayRange{1, 1};
  request.value = std::string(52, 'v');  // payload = 12 + 52 = 64
  const std::string frame = EncodeProbeRequest(0, 1, request);
  ASSERT_OK(reader.Feed(frame.data(), frame.size()));
  Frame out;
  ASSERT_TRUE(reader.Next(&out));
  EXPECT_EQ(out.payload.size(), 64u);
}

TEST(FrameReaderTest, LargestQueryReplyFitsTheLimit) {
  // kMaxReplyEntries entries behind the longest detail the encoder keeps is
  // the largest PROBE/SCAN reply a server builds; one entry more is not.
  FrameHeader request;
  request.type = static_cast<uint8_t>(FrameType::kScan);
  QueryReply reply;
  reply.result.code = StatusCode::kPartialResult;
  reply.result.detail = std::string(0xFFFF, 'd');
  reply.entries.resize(kMaxReplyEntries);
  const std::string frame = EncodeQueryReply(request, reply);
  FrameReader reader;
  ASSERT_OK(reader.Feed(frame.data(), frame.size()));
  reply.entries.emplace_back();
  EXPECT_GT(EncodeQueryReply(request, reply).size() - kFrameHeaderBytes,
            kMaxPayloadBytes);
}

TEST(FrameReaderTest, LongStreamCompactsItsBuffer) {
  FrameReader reader;
  Frame out;
  // Hundreds of frames through one reader: buffered_bytes returning to zero
  // after each pop proves the buffer is being consumed, not grown.
  for (int i = 0; i < 500; ++i) {
    const std::string frame = EncodeStatsRequest(0, static_cast<uint32_t>(i));
    ASSERT_OK(reader.Feed(frame.data(), frame.size()));
    ASSERT_TRUE(reader.Next(&out));
    EXPECT_EQ(reader.buffered_bytes(), 0u);
  }
}

// --- Decoder allocation guards ---------------------------------------------

TEST(DecoderGuardTest, AdvanceRecordCountBeyondPayloadIsRejected) {
  // day + count claiming 4B records, 2 bytes of actual payload behind it.
  std::string payload = Bytes({0x08, 0x00, 0x00, 0x00,
                               0xff, 0xff, 0xff, 0xff, 'x', 'x'});
  AdvanceRequest out;
  const Status status = DecodeAdvanceRequest(payload, &out);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(DecoderGuardTest, QueryReplyEntryCountBeyondPayloadIsRejected) {
  std::string payload;
  payload += Bytes({0x00, 0x00, 0x00});  // result: kOk, no detail
  payload.append(28, '\0');              // stats block
  payload += Bytes({0xff, 0xff, 0xff, 0xff});  // entry_count = 4B
  QueryReply out;
  const Status status = DecodeQueryReply(payload, &out);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(DecoderGuardTest, TrailingBytesAreRejected) {
  ScanRequest request;
  request.range = DayRange{1, 2};
  const std::string frame = EncodeScanRequest(0, 1, request);
  std::string payload = frame.substr(kFrameHeaderBytes) + "junk";
  ScanRequest out;
  EXPECT_EQ(DecodeScanRequest(payload, &out).code(),
            StatusCode::kInvalidArgument);
}

TEST(DecoderGuardTest, ResultPrefixRejectsUnknownStatusCode) {
  const std::string payload = Bytes({0xEE, 0x00, 0x00});
  WireResult out;
  EXPECT_EQ(DecodeResultPrefix(payload, &out).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace serve
}  // namespace wavekit
