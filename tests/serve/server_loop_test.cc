// ServerLoop conformance over real sockets: client round-trips, pipelining,
// the slow-loris idle timeout, version-mismatch teardown (one error frame,
// then close), drain-while-inflight, and admission refusal at the accept
// gate. Everything binds to 127.0.0.1 on an ephemeral port.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server_core.h"
#include "serve/server_loop.h"
#include "testing/test_env.h"
#include "util/net.h"
#include "wave/wave_service.h"

namespace wavekit {
namespace serve {
namespace {

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

/// Core + loop on an ephemeral port, one tenant, ready for clients.
struct TestDaemon {
  explicit TestDaemon(ServerCore::Options core_options = {},
                      int idle_timeout_ms = 30'000)
      : core(std::move(core_options)),
        loop(MakeLoopOptions(idle_timeout_ms), &core) {
    EXPECT_OK(core.AddTenant(0, MakeService()));
    EXPECT_OK(loop.Start());
  }

  static ServerLoop::Options MakeLoopOptions(int idle_timeout_ms) {
    ServerLoop::Options options;
    options.port = 0;
    options.idle_timeout_ms = idle_timeout_ms;
    return options;
  }

  std::unique_ptr<Client> Connect() {
    Client::Options options;
    options.port = loop.port();
    options.recv_timeout_sec = 10;
    auto client = Client::Connect(options);
    EXPECT_OK(client.status());
    return std::move(client).ValueOrDie();
  }

  ServerCore core;
  ServerLoop loop;
};

TEST(ServerLoopTest, ClientRoundTrips) {
  TestDaemon daemon;
  auto client = daemon.Connect();
  ASSERT_NE(client, nullptr);

  auto stats = client->Stats();
  ASSERT_OK(stats.status());
  EXPECT_EQ(stats->current_day, kWindow);

  auto probe = client->Probe(DayRange::Window(kWindow, kWindow), "alpha");
  ASSERT_OK(probe.status());
  EXPECT_TRUE(probe->result.ok()) << probe->result.detail;
  EXPECT_GT(probe->entries.size(), 0u);

  auto scan = client->Scan(DayRange::All());
  ASSERT_OK(scan.status());
  EXPECT_GE(scan->entries.size(), probe->entries.size());

  auto advance = client->Advance(MakeMixedBatch(kWindow + 1));
  ASSERT_OK(advance.status());
  EXPECT_EQ(advance->current_day, kWindow + 1);

  auto health = client->Health();
  ASSERT_OK(health.status());
  EXPECT_FALSE(health->degraded);
}

TEST(ServerLoopTest, PipelinedRequestsComeBackInOrder) {
  TestDaemon daemon;
  auto client = daemon.Connect();
  ASSERT_NE(client, nullptr);
  const DayRange range = DayRange::Window(kWindow, kWindow);

  std::vector<uint32_t> sent;
  for (int i = 0; i < 32; ++i) {
    auto id = client->SendProbe(range, "alpha");
    ASSERT_OK(id.status());
    sent.push_back(*id);
  }
  for (uint32_t expected : sent) {
    auto reply = client->ReadReply();
    ASSERT_OK(reply.status());
    EXPECT_EQ(reply->header.request_id, expected);
    QueryReply decoded;
    ASSERT_OK(DecodeQueryReply(reply->payload, &decoded));
    EXPECT_TRUE(decoded.result.ok());
  }
}

TEST(ServerLoopTest, SlowLorisConnectionIsClosed) {
  TestDaemon daemon({}, /*idle_timeout_ms=*/200);
  // A client that trickles half a header and goes silent must be reaped.
  auto fd = net::ConnectTcp("127.0.0.1", daemon.loop.port());
  ASSERT_OK(fd.status());
  const char half_header[6] = {0x0c, 0x00, 0x00, 0x00, 0x01, 0x01};
  ASSERT_OK(net::SendAll(*fd, half_header, sizeof half_header));

  ASSERT_OK(net::SetRecvTimeoutSec(*fd, 5));
  char buf[64];
  auto n = net::RecvSome(*fd, buf, sizeof buf);
  // The server closes without sending anything: clean EOF, not a frame.
  ASSERT_OK(n.status());
  EXPECT_EQ(*n, 0u);
  EXPECT_GE(daemon.loop.idle_closed(), 1u);
  ::close(*fd);
}

TEST(ServerLoopTest, ActivityKeepsIdleTimeoutAtBay) {
  TestDaemon daemon({}, /*idle_timeout_ms=*/400);
  auto client = daemon.Connect();
  ASSERT_NE(client, nullptr);
  // Each request resets the clock; 6 x 150ms of activity outlives 400ms.
  for (int i = 0; i < 6; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    auto stats = client->Stats();
    ASSERT_OK(stats.status()) << "request " << i;
  }
  EXPECT_EQ(daemon.loop.idle_closed(), 0u);
}

TEST(ServerLoopTest, VersionMismatchGetsErrorFrameThenClose) {
  TestDaemon daemon;
  auto fd = net::ConnectTcp("127.0.0.1", daemon.loop.port());
  ASSERT_OK(fd.status());
  const std::string bad =
      EncodeRawFrame(9, static_cast<uint8_t>(FrameType::kStats), 3, 7, "");
  ASSERT_OK(net::SendAll(*fd, bad));

  ASSERT_OK(net::SetRecvTimeoutSec(*fd, 5));
  FrameReader reader;
  Frame frame;
  bool got_frame = false;
  bool got_eof = false;
  char buf[4096];
  while (!got_eof) {
    auto n = net::RecvSome(*fd, buf, sizeof buf);
    ASSERT_OK(n.status());
    if (*n == 0) {
      got_eof = true;
      break;
    }
    ASSERT_OK(reader.Feed(buf, *n));
    if (reader.Next(&frame)) got_frame = true;
  }
  ASSERT_TRUE(got_frame) << "no final error frame before close";
  EXPECT_TRUE(got_eof);
  EXPECT_EQ(frame.header.type, static_cast<uint8_t>(FrameType::kErrorReply));
  // The error reply is addressed with the offending frame's ids.
  EXPECT_EQ(frame.header.tenant_id, 3);
  EXPECT_EQ(frame.header.request_id, 7u);
  WireResult result;
  ASSERT_OK(DecodeResultPrefix(frame.payload, &result));
  EXPECT_EQ(result.code, StatusCode::kInvalidArgument);
  ::close(*fd);
}

TEST(ServerLoopTest, DrainAnswersInflightThenCloses) {
  TestDaemon daemon;
  auto client = daemon.Connect();
  ASSERT_NE(client, nullptr);
  // Drain serves open sessions and refuses new ones. Connect returns once
  // the handshake is done, possibly before the loop has accepted the
  // connection; one round trip makes the session live before the drain.
  ASSERT_OK(client->Stats().status());
  const DayRange range = DayRange::Window(kWindow, kWindow);

  // Fire pipelined probes with an ADVANCE among them and immediately drain:
  // every request that made it into the socket must still be answered
  // before the connection closes, the ADVANCE with its published day.
  std::vector<uint32_t> sent;
  constexpr uint32_t kAdvanceId = 1000;
  for (int i = 0; i < 16; ++i) {
    if (i == 8) {
      AdvanceRequest advance;
      advance.batch = MakeMixedBatch(kWindow + 1);
      ASSERT_OK(client->SendFrame(EncodeAdvanceRequest(0, kAdvanceId, advance)));
      sent.push_back(kAdvanceId);
    }
    auto id = client->SendProbe(range, "alpha");
    ASSERT_OK(id.status());
    sent.push_back(*id);
  }
  std::thread drainer([&daemon] { daemon.loop.Drain(); });

  for (uint32_t expected : sent) {
    auto reply = client->ReadReply();
    ASSERT_OK(reply.status()) << "reply " << expected << " lost in drain";
    EXPECT_EQ(reply->header.request_id, expected);
    if (expected == kAdvanceId) {
      AdvanceReply advanced;
      ASSERT_OK(DecodeAdvanceReply(reply->payload, &advanced));
      EXPECT_TRUE(advanced.result.ok()) << advanced.result.detail;
      EXPECT_EQ(advanced.current_day, kWindow + 1);
    }
  }
  // After the last reply the server closes: the next read is a clean EOF
  // surfaced as an error by the client.
  auto eof = client->ReadReply();
  EXPECT_FALSE(eof.ok());
  drainer.join();
  EXPECT_FALSE(daemon.loop.running());
  EXPECT_EQ(daemon.core.open_sessions(), 0u);

  // New connections are refused post-drain (nothing is listening).
  auto refused = net::ConnectTcp("127.0.0.1", daemon.loop.port());
  EXPECT_FALSE(refused.ok());
}

TEST(ServerLoopTest, SessionLimitRefusesAtAccept) {
  ServerCore::Options core_options;
  core_options.max_sessions = 1;
  TestDaemon daemon(core_options);
  auto first = daemon.Connect();
  ASSERT_NE(first, nullptr);
  ASSERT_OK(first->Stats().status());  // session 1 is live

  // The second connection is accepted by the kernel, then closed by the loop
  // without a frame: the client sees EOF on its first read.
  auto fd = net::ConnectTcp("127.0.0.1", daemon.loop.port());
  ASSERT_OK(fd.status());
  ASSERT_OK(net::SetRecvTimeoutSec(*fd, 5));
  char buf[16];
  auto n = net::RecvSome(*fd, buf, sizeof buf);
  ASSERT_OK(n.status());
  EXPECT_EQ(*n, 0u);
  ::close(*fd);

  // Closing the first session frees the slot.
  first.reset();
  for (int i = 0; i < 50; ++i) {
    if (daemon.core.open_sessions() == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  auto second = daemon.Connect();
  ASSERT_NE(second, nullptr);
  ASSERT_OK(second->Stats().status());
}

}  // namespace
}  // namespace serve
}  // namespace wavekit
