// ServerCore conformance: dispatch, admission control, rate limiting on an
// injected clock, the scan transport cap, framing-violation teardown, and
// drain semantics — all through Ingest(), no sockets anywhere.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "serve/protocol.h"
#include "serve/server_core.h"
#include "testing/test_env.h"
#include "util/clock.h"
#include "wave/wave_service.h"

namespace wavekit {
namespace serve {
namespace {

using wavekit::testing::MakeBatch;
using wavekit::testing::MakeMixedBatch;

constexpr int kWindow = 3;

std::unique_ptr<WaveService> MakeService() {
  WaveService::Options options;
  options.scheme = SchemeKind::kDel;
  options.config.window = kWindow;
  options.config.num_indexes = 2;
  options.config.technique = UpdateTechniqueKind::kSimpleShadow;
  auto service = WaveService::Create(std::move(options));
  EXPECT_OK(service.status());
  std::unique_ptr<WaveService> out = std::move(service).ValueOrDie();
  std::vector<DayBatch> first;
  for (Day d = 1; d <= kWindow; ++d) first.push_back(MakeMixedBatch(d));
  EXPECT_OK(out->Start(std::move(first)));
  return out;
}

/// Core + one tenant + one session, ready to serve.
struct TestServer {
  explicit TestServer(ServerCore::Options options = {})
      : core(std::move(options)) {
    EXPECT_OK(core.AddTenant(0, MakeService()));
    auto opened = core.OpenSession();
    EXPECT_OK(opened.status());
    session = *opened;
  }
  ServerCore core;
  ServerCore::Session* session = nullptr;
};

/// Ingests `request`, expecting healthy traffic, and returns the one reply.
Frame Serve(TestServer* server, const std::string& request) {
  std::string out;
  EXPECT_OK(server->core.Ingest(server->session, request.data(),
                                request.size(), &out));
  FrameReader reader;
  EXPECT_OK(reader.Feed(out.data(), out.size()));
  Frame frame;
  EXPECT_TRUE(reader.Next(&frame));
  return frame;
}

TEST(ServerCoreTest, ProbeRoundTrip) {
  TestServer server;
  ProbeRequest request;
  request.range = DayRange::Window(kWindow, kWindow);
  request.value = "alpha";  // MakeMixedBatch plants "alpha" every day
  const Frame reply = Serve(&server, EncodeProbeRequest(0, 7, request));
  EXPECT_EQ(reply.header.type, static_cast<uint8_t>(FrameType::kProbeReply));
  EXPECT_EQ(reply.header.request_id, 7u);
  QueryReply decoded;
  ASSERT_OK(DecodeQueryReply(reply.payload, &decoded));
  EXPECT_TRUE(decoded.result.ok()) << decoded.result.detail;
  EXPECT_GT(decoded.entries.size(), 0u);
  EXPECT_EQ(server.core.requests_served(), 1u);
}

TEST(ServerCoreTest, UnknownTenantIsNotFound) {
  TestServer server;
  const Frame reply = Serve(&server, EncodeStatsRequest(42, 1));
  EXPECT_EQ(reply.header.type, static_cast<uint8_t>(FrameType::kStatsReply));
  WireResult result;
  ASSERT_OK(DecodeResultPrefix(reply.payload, &result));
  EXPECT_EQ(result.code, StatusCode::kNotFound);
  EXPECT_EQ(server.core.errors_returned(), 1u);
}

TEST(ServerCoreTest, UnknownFrameTypeGetsErrorReply) {
  TestServer server;
  const Frame reply =
      Serve(&server, EncodeRawFrame(kProtocolVersion, 0x6E, 0, 9, ""));
  EXPECT_EQ(reply.header.type, static_cast<uint8_t>(FrameType::kErrorReply));
  EXPECT_EQ(reply.header.request_id, 9u);
  WireResult result;
  ASSERT_OK(DecodeResultPrefix(reply.payload, &result));
  EXPECT_EQ(result.code, StatusCode::kInvalidArgument);
}

TEST(ServerCoreTest, MalformedBodyIsHealthyTraffic) {
  TestServer server;
  // A syntactically valid frame whose PROBE body is truncated: the session
  // survives and the next request is served normally.
  const Frame bad = Serve(&server, EncodeRawFrame(
      kProtocolVersion, static_cast<uint8_t>(FrameType::kProbe), 0, 1, "xx"));
  WireResult result;
  ASSERT_OK(DecodeResultPrefix(bad.payload, &result));
  EXPECT_EQ(result.code, StatusCode::kInvalidArgument);

  const Frame good = Serve(&server, EncodeStatsRequest(0, 2));
  StatsReply stats;
  ASSERT_OK(DecodeStatsReply(good.payload, &stats));
  EXPECT_TRUE(stats.result.ok());
  EXPECT_EQ(stats.current_day, kWindow);
}

TEST(ServerCoreTest, FramingViolationTearsDownWithFinalError) {
  TestServer server;
  const std::string bad =
      EncodeRawFrame(9, static_cast<uint8_t>(FrameType::kStats), 5, 11, "");
  std::string out;
  const Status status =
      server.core.Ingest(server.session, bad.data(), bad.size(), &out);
  EXPECT_FALSE(status.ok());
  // One final, addressable error reply was emitted for the caller to flush.
  FrameReader reader;
  ASSERT_OK(reader.Feed(out.data(), out.size()));
  Frame frame;
  ASSERT_TRUE(reader.Next(&frame));
  EXPECT_EQ(frame.header.type, static_cast<uint8_t>(FrameType::kErrorReply));
  EXPECT_EQ(frame.header.tenant_id, 5);
  EXPECT_EQ(frame.header.request_id, 11u);
}

TEST(ServerCoreTest, PipelinedRequestsYieldOrderedReplies) {
  TestServer server;
  std::string stream;
  for (uint32_t id = 1; id <= 4; ++id) stream += EncodeStatsRequest(0, id);
  std::string out;
  ASSERT_OK(server.core.Ingest(server.session, stream.data(), stream.size(),
                               &out));
  FrameReader reader;
  ASSERT_OK(reader.Feed(out.data(), out.size()));
  Frame frame;
  for (uint32_t id = 1; id <= 4; ++id) {
    ASSERT_TRUE(reader.Next(&frame));
    EXPECT_EQ(frame.header.request_id, id);
  }
  EXPECT_FALSE(reader.Next(&frame));
  EXPECT_EQ(server.core.requests_served(), 4u);
}

TEST(ServerCoreTest, ScanCapTruncatesWithPartialResult) {
  TestServer server;
  auto scan = [&](uint32_t max_entries) {
    ScanRequest request;
    request.range = DayRange::All();
    request.max_entries = max_entries;
    const Frame reply = Serve(&server, EncodeScanRequest(0, 1, request));
    QueryReply decoded;
    EXPECT_OK(DecodeQueryReply(reply.payload, &decoded));
    return decoded;
  };
  const QueryReply uncapped = scan(0);
  ASSERT_EQ(uncapped.result.code, StatusCode::kOk);
  const uint32_t total = static_cast<uint32_t>(uncapped.entries.size());
  ASSERT_GT(total, 5u);

  // The stats describe the reply, not the entries the scan visited.
  for (const uint32_t cap : {5u, total - 1, total}) {
    const QueryReply capped = scan(cap);
    EXPECT_EQ(capped.result.code,
              cap < total ? StatusCode::kPartialResult : StatusCode::kOk)
        << "cap " << cap;
    EXPECT_EQ(capped.entries,
              std::vector<Entry>(uncapped.entries.begin(),
                                 uncapped.entries.begin() + cap))
        << "cap " << cap;
    EXPECT_EQ(capped.stats.entries_returned, cap);
  }
}

TEST(ServerCoreTest, UncappedScanReplyFitsOneFrame) {
  // Tenant 1 holds one day of more entries than one reply frame can carry
  // (two per record).
  WaveService::Options options;
  options.scheme = SchemeKind::kDel;
  options.config.window = 1;
  options.config.num_indexes = 1;
  options.config.technique = UpdateTechniqueKind::kSimpleShadow;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<WaveService> big,
                       WaveService::Create(std::move(options)));
  std::vector<DayBatch> first;
  first.push_back(MakeMixedBatch(1, kMaxReplyEntries / 2 + 1000));
  ASSERT_OK(big->Start(std::move(first)));
  TestServer server;
  ASSERT_OK(server.core.AddTenant(1, std::move(big)));

  ScanRequest request;
  request.range = DayRange::All();
  request.max_entries = 0;  // as many as fit
  // Serve reads the reply with a default FrameReader, as every client does.
  const Frame reply = Serve(&server, EncodeScanRequest(1, 1, request));
  QueryReply decoded;
  ASSERT_OK(DecodeQueryReply(reply.payload, &decoded));
  EXPECT_EQ(decoded.result.code, StatusCode::kPartialResult);
  EXPECT_EQ(decoded.entries.size(), kMaxReplyEntries);
}

TEST(ServerCoreTest, UncappedProbeReplyFitsOneFrame) {
  // Tenant 1 holds one value with more entries than one reply frame can
  // carry.
  WaveService::Options options;
  options.scheme = SchemeKind::kDel;
  options.config.window = 1;
  options.config.num_indexes = 1;
  options.config.technique = UpdateTechniqueKind::kSimpleShadow;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<WaveService> big,
                       WaveService::Create(std::move(options)));
  std::vector<DayBatch> first;
  first.push_back(MakeBatch(1, {"hot"}, kMaxReplyEntries + 1000));
  ASSERT_OK(big->Start(std::move(first)));
  TestServer server;
  ASSERT_OK(server.core.AddTenant(1, std::move(big)));

  ProbeRequest request;
  request.range = DayRange::All();
  request.value = "hot";
  // Serve reads the reply with a default FrameReader, as every client does.
  const Frame reply = Serve(&server, EncodeProbeRequest(1, 1, request));
  QueryReply decoded;
  ASSERT_OK(DecodeQueryReply(reply.payload, &decoded));
  EXPECT_EQ(decoded.result.code, StatusCode::kPartialResult);
  EXPECT_EQ(decoded.result.detail,
            "probe truncated at " + std::to_string(kMaxReplyEntries) +
                " entries");
  EXPECT_EQ(decoded.entries.size(), kMaxReplyEntries);
  EXPECT_EQ(decoded.stats.entries_returned, kMaxReplyEntries);
}

TEST(ServerCoreTest, CappedProbeReadsNoConstituentPastTheCap) {
  // Tenant 1 holds the hot value in two one-day constituents, each with more
  // entries than one reply carries: the first constituent the probe reads
  // fills the reply, so the second is neither read nor counted.
  WaveService::Options options;
  options.scheme = SchemeKind::kDel;
  options.config.window = 2;
  options.config.num_indexes = 2;
  options.config.technique = UpdateTechniqueKind::kSimpleShadow;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<WaveService> big,
                       WaveService::Create(std::move(options)));
  std::vector<DayBatch> first;
  for (Day d = 1; d <= 2; ++d) {
    first.push_back(MakeBatch(d, {"hot"}, kMaxReplyEntries + 1000));
  }
  ASSERT_OK(big->Start(std::move(first)));
  ASSERT_EQ(big->Snapshot()->num_constituents(), 2u);
  std::vector<Entry> uncapped;
  ASSERT_OK(big->IndexProbe("hot", &uncapped));
  TestServer server;
  ASSERT_OK(server.core.AddTenant(1, std::move(big)));

  ProbeRequest request;
  request.range = DayRange::All();
  request.value = "hot";
  const Frame reply = Serve(&server, EncodeProbeRequest(1, 1, request));
  QueryReply decoded;
  ASSERT_OK(DecodeQueryReply(reply.payload, &decoded));
  EXPECT_EQ(decoded.result.code, StatusCode::kPartialResult);
  EXPECT_EQ(decoded.stats.indexes_accessed, 1);
  EXPECT_EQ(decoded.stats.entries_returned, kMaxReplyEntries);
  // The truncated reply is the uncapped probe's first kMaxReplyEntries.
  ASSERT_EQ(decoded.entries.size(), kMaxReplyEntries);
  EXPECT_TRUE(std::equal(decoded.entries.begin(), decoded.entries.end(),
                         uncapped.begin()));
}

TEST(ServerCoreTest, RateLimitIsEnforcedOnInjectedClock) {
  SimClock clock;
  ServerCore::Options options;
  options.tenant_rate_limit_rps = 10;
  options.tenant_rate_limit_burst = 2;
  options.clock = &clock;
  TestServer server(options);

  ProbeRequest probe;
  probe.range = DayRange::Window(kWindow, kWindow);
  probe.value = "alpha";
  const std::string request = EncodeProbeRequest(0, 1, probe);

  // Burst of 2 admitted, the third refused.
  for (int i = 0; i < 2; ++i) {
    const Frame reply = Serve(&server, request);
    WireResult result;
    ASSERT_OK(DecodeResultPrefix(reply.payload, &result));
    EXPECT_TRUE(result.ok()) << "request " << i << ": " << result.detail;
  }
  const Frame limited = Serve(&server, request);
  WireResult result;
  ASSERT_OK(DecodeResultPrefix(limited.payload, &result));
  EXPECT_EQ(result.code, StatusCode::kResourceExhausted);
  EXPECT_EQ(server.core.rate_limited(), 1u);

  // STATS and HEALTH stay observable while throttled.
  StatsReply stats;
  ASSERT_OK(DecodeStatsReply(
      Serve(&server, EncodeStatsRequest(0, 5)).payload, &stats));
  EXPECT_TRUE(stats.result.ok());
  HealthReply health;
  ASSERT_OK(DecodeHealthReply(
      Serve(&server, EncodeHealthRequest(0, 6)).payload, &health));
  EXPECT_TRUE(health.result.ok());

  // 100ms at 10 rps refills one token.
  clock.Advance(100'000);
  const Frame refilled = Serve(&server, request);
  ASSERT_OK(DecodeResultPrefix(refilled.payload, &result));
  EXPECT_TRUE(result.ok()) << result.detail;
}

TEST(ServerCoreTest, MaxSessionsIsEnforced) {
  ServerCore::Options options;
  options.max_sessions = 2;
  TestServer server(options);  // opens session 1
  auto second = server.core.OpenSession();
  ASSERT_OK(second.status());
  auto third = server.core.OpenSession();
  EXPECT_EQ(third.status().code(), StatusCode::kResourceExhausted);
  server.core.CloseSession(*second);
  auto fourth = server.core.OpenSession();
  EXPECT_OK(fourth.status());
}

TEST(ServerCoreTest, DrainRefusesNewSessionsButServesOpenOnes) {
  TestServer server;
  server.core.BeginDrain();
  EXPECT_TRUE(server.core.draining());
  auto refused = server.core.OpenSession();
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);

  // The open session keeps being answered mid-drain.
  StatsReply stats;
  ASSERT_OK(DecodeStatsReply(
      Serve(&server, EncodeStatsRequest(0, 1)).payload, &stats));
  EXPECT_TRUE(stats.result.ok());
  ASSERT_OK(server.core.WaitForMaintenance());
}

TEST(ServerCoreTest, SyncAdvancePublishesBeforeReply) {
  TestServer server;
  AdvanceRequest advance;
  advance.batch = MakeMixedBatch(kWindow + 1);
  const Frame reply = Serve(&server, EncodeAdvanceRequest(0, 1, advance));
  AdvanceReply decoded;
  ASSERT_OK(DecodeAdvanceReply(reply.payload, &decoded));
  EXPECT_TRUE(decoded.result.ok()) << decoded.result.detail;
  EXPECT_EQ(decoded.current_day, kWindow + 1);
  EXPECT_EQ(server.core.tenant(0)->current_day(), kWindow + 1);
}

}  // namespace
}  // namespace serve
}  // namespace wavekit
