// ServerCore: waved's transport-free request brain.
//
// The core owns tenants (one WaveService each), sessions (one per
// connection), admission control, and per-tenant rate limits — everything
// about serving *except* sockets. Bytes go in through Ingest() and reply
// bytes come out; serve/server_loop.h pumps a real epoll loop through it,
// while testing/server_sim.h pumps a deterministic in-memory loopback
// through the very same code under SimClock/SimExecutor. That seam is the
// whole design: the server logic that matters is exercised byte-for-byte in
// simulation.
//
// Threading: Ingest() may be called concurrently for *different* sessions
// (WaveService queries are thread-safe); a single session must be ingested
// by one thread at a time (the loop's per-connection ownership gives this
// for free). Tenant registration happens before serving starts.

#ifndef WAVEKIT_SERVE_SERVER_CORE_H_
#define WAVEKIT_SERVE_SERVER_CORE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "obs/metrics.h"
#include "serve/protocol.h"
#include "util/clock.h"
#include "util/result.h"
#include "util/status.h"
#include "wave/wave_service.h"

namespace wavekit {
namespace serve {

class ServerCore {
 public:
  struct Options {
    /// Requests per second each tenant may issue, enforced by a token bucket
    /// on the injected clock. 0 disables rate limiting.
    double tenant_rate_limit_rps = 0;
    /// Bucket depth: how many requests a tenant may burst above the steady
    /// rate. Defaults to one second's worth when 0.
    double tenant_rate_limit_burst = 0;

    /// Concurrent sessions admitted; OpenSession fails with
    /// kResourceExhausted beyond this. 0 = unlimited.
    size_t max_sessions = 0;

    /// When true, ADVANCE requests queue through AdvanceDayAsync and reply
    /// immediately with the still-current day; STATS exposes the pending
    /// count. When false, ADVANCE applies synchronously before replying.
    bool async_advance = false;

    /// Time source for rate limiting (SimClock under the sim harness).
    /// Defaults to the wall clock. Must outlive the core.
    Clock* clock = nullptr;

    /// When set, the core registers wavekit_server_* metrics here and
    /// unregisters them in its destructor.
    obs::MetricsRegistry* metrics_registry = nullptr;
  };

  /// \brief One connection's protocol state. Created by OpenSession,
  /// destroyed by CloseSession.
  class Session {
   public:
    uint64_t id() const { return id_; }
    /// Frames served on this session (any type, including error replies).
    uint64_t requests() const { return requests_; }

   private:
    friend class ServerCore;
    explicit Session(uint64_t id) : id_(id) {}
    uint64_t id_;
    uint64_t requests_ = 0;
    FrameReader reader_;
  };

  explicit ServerCore(Options options);
  ~ServerCore();

  ServerCore(const ServerCore&) = delete;
  ServerCore& operator=(const ServerCore&) = delete;

  // --- Tenants (register all before serving) --------------------------------

  /// Registers a tenant. Fails with kAlreadyExists on id reuse.
  Status AddTenant(uint16_t tenant_id, std::unique_ptr<WaveService> service);

  /// The tenant's service, or nullptr.
  WaveService* tenant(uint16_t tenant_id) const;

  size_t tenant_count() const;

  // --- Sessions -------------------------------------------------------------

  /// Admits a new connection. Fails with kResourceExhausted at max_sessions
  /// and kFailedPrecondition while draining.
  Result<Session*> OpenSession();

  void CloseSession(Session* session);

  size_t open_sessions() const;

  // --- The request path -----------------------------------------------------

  /// Feeds connection bytes into the session's frame reader and serves every
  /// complete frame, appending reply frames to `out` in request order
  /// (pipelining: N buffered requests yield N replies in one flush).
  ///
  /// A non-OK return means the connection is beyond repair (framing
  /// violation: bad version or oversized frame); one final kErrorReply has
  /// already been appended to `out`, and the caller must flush it and close.
  /// Application-level failures (unknown tenant, malformed body, rate limit,
  /// degraded serving) are healthy protocol traffic: they produce error
  /// replies inside `out` and return OK.
  Status Ingest(Session* session, const void* data, size_t size,
                std::string* out);

  // --- Drain ----------------------------------------------------------------

  /// Enters drain: new sessions are refused; requests already buffered or
  /// still arriving on open sessions keep being answered (the loop decides
  /// when to stop reading). Queued async advances are NOT cancelled — call
  /// WaitForMaintenance to let them finish.
  void BeginDrain();

  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Blocks until every tenant's queued async advances finished; returns the
  /// first sticky failure, if any.
  Status WaitForMaintenance();

  // --- Introspection --------------------------------------------------------

  uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }
  uint64_t errors_returned() const {
    return errors_returned_.load(std::memory_order_relaxed);
  }
  uint64_t rate_limited() const {
    return rate_limited_.load(std::memory_order_relaxed);
  }

 private:
  struct Tenant {
    std::unique_ptr<WaveService> service;
    // Token bucket (guarded by mutex; request-grained, never on the query
    // hot path inside WaveService).
    std::mutex mutex;
    double tokens = 0;
    uint64_t last_refill_us = 0;
  };

  /// Serves one complete frame, appending exactly one reply to `out`.
  void ServeFrame(Session* session, const Frame& frame, std::string* out);

  void ServeProbe(Tenant* tenant, const Frame& frame, std::string* out);
  void ServeScan(Tenant* tenant, const Frame& frame, std::string* out);
  void ServeAdvance(Tenant* tenant, const Frame& frame, std::string* out);
  void ServeStats(Tenant* tenant, const Frame& frame, std::string* out);
  void ServeHealth(Tenant* tenant, const Frame& frame, std::string* out);

  /// Takes one token from the tenant's bucket. False = rate-limited.
  bool AdmitRequest(Tenant* tenant);

  void AppendError(const FrameHeader& request, FrameType type, StatusCode code,
                   const std::string& detail, std::string* out);

  Options options_;
  Clock* clock_;

  mutable std::mutex tenants_mutex_;
  std::map<uint16_t, std::unique_ptr<Tenant>> tenants_;

  mutable std::mutex sessions_mutex_;
  std::map<uint64_t, std::unique_ptr<Session>> sessions_;
  uint64_t next_session_id_ = 1;

  std::atomic<bool> draining_{false};
  std::atomic<uint64_t> requests_served_{0};
  std::atomic<uint64_t> errors_returned_{0};
  std::atomic<uint64_t> rate_limited_{0};
};

/// Maps a wavekit Status onto the wire result prefix.
WireResult ToWireResult(const Status& status);

}  // namespace serve
}  // namespace wavekit

#endif  // WAVEKIT_SERVE_SERVER_CORE_H_
