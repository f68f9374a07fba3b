// Blocking client for the waved binary protocol.
//
// One TCP connection, one tenant. The synchronous calls (Probe/Scan/
// Advance/Stats/Health) are what wavectl uses; the split Send*/ReadReply
// half is for pipelining — perfbench's perfload keeps a window of requests
// in flight per connection and matches replies by request id.

#ifndef WAVEKIT_SERVE_CLIENT_H_
#define WAVEKIT_SERVE_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "serve/protocol.h"
#include "util/result.h"
#include "util/status.h"

namespace wavekit {
namespace serve {

class Client {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    uint16_t tenant_id = 0;
    /// Reply wait budget; a server that goes silent longer than this fails
    /// the call with IOError("recv timeout"). 0 waits forever.
    int recv_timeout_sec = 30;
  };

  static Result<std::unique_ptr<Client>> Connect(Options options);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // --- Synchronous calls ----------------------------------------------------
  //
  // Each sends one request and blocks for its reply. The returned reply's
  // `result` carries the server-side status (kPartialResult = degraded
  // answer with a usable body); the Result wrapper fails only on transport
  // or protocol breakage.

  Result<QueryReply> Probe(const DayRange& range, const Value& value);
  Result<QueryReply> Scan(const DayRange& range, uint32_t max_entries = 0);
  Result<AdvanceReply> Advance(DayBatch batch);
  Result<StatsReply> Stats();
  Result<HealthReply> Health();

  // --- Pipelined half -------------------------------------------------------

  /// Sends a PROBE without waiting. Returns the request id to match the
  /// reply by.
  Result<uint32_t> SendProbe(const DayRange& range, const Value& value);

  /// Sends one encoded request frame without waiting.
  Status SendFrame(const std::string& frame);

  /// Blocks for the next reply frame (any type).
  Result<Frame> ReadReply();

  uint16_t tenant_id() const { return options_.tenant_id; }

 private:
  explicit Client(Options options) : options_(std::move(options)) {}

  /// Reads until one complete frame is buffered.
  Result<Frame> ReadFrameBlocking();

  Options options_;
  int fd_ = -1;
  uint32_t next_request_id_ = 1;
  FrameReader reader_;
};

}  // namespace serve
}  // namespace wavekit

#endif  // WAVEKIT_SERVE_CLIENT_H_
