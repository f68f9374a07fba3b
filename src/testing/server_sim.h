// Deterministic server simulation: the serving stack minus the sockets.
//
// ServerCore was split from the epoll loop precisely so that the request
// brain — framing, dispatch, per-tenant rate limits, ADVANCE, drain — can be
// driven byte-for-byte in process. An episode builds N tenants' WaveServices
// the way waved does (one MetricsRegistry shared with the core, waved's
// block cache and event ring; the technique and codec drawn from the
// episode seed) behind one ServerCore on a SimClock, opens one Session per
// tenant as an in-memory loopback connection, and then, each day:
//
//   - sends every tenant's ADVANCE in a seeded tenant order. The reply must
//     be OK and carry the new day, since waved publishes a day before it
//     answers; the brute-force OracleDB advances when the reply arrives;
//   - follows each ADVANCE with PROBEs of random tenants, so one tenant's
//     new day leaking into another's answers is caught;
//   - ends with a SCAN and a STATS per tenant (published day, no pending
//     advance), every reply decoded from the actual bytes and cross-checked
//     against the oracle.
//
// One ADVANCE per episode, at a seeded step, names a day the tenant cannot
// take next: it must be refused with kInvalidArgument, and HEALTH must not
// report the tenant degraded. Every episode ends with a drain rehearsal:
// BeginDrain must refuse new sessions, while one more ADVANCE on each open
// session is still answered with its new day. The registry's
// wavekit_server_requests_total must then equal the requests sent.
//
// Determinism is the contract, not a best effort: an episode's entire
// reply byte stream and trace are folded into a CRC-32 digest, and
// RunEpisode(e) twice must produce the identical digest (RunMany asserts
// this for every episode). Everything follows from (seed, episode): the
// scheme, technique, codec, workload, tenant order and probe values.

#ifndef WAVEKIT_TESTING_SERVER_SIM_H_
#define WAVEKIT_TESTING_SERVER_SIM_H_

#include <cstdint>
#include <string>

#include "util/status.h"

namespace wavekit {
namespace testing {

/// \brief Server-simulation configuration. Behaviour follows entirely from
/// `seed` and the episode number; the rest shapes the episode's size.
struct ServerSimConfig {
  /// Base seed: episode e of seed s replays the same scenario forever.
  uint64_t seed = 1;
  /// Episodes for RunMany (each runs twice: once to serve, once to confirm
  /// the byte-identical digest).
  uint64_t episodes = 8;
  /// Tenants behind the simulated server (one loopback session each).
  int tenants = 3;
  /// Daily transitions per tenant per episode.
  int days = 5;
  /// Sliding-window width (and first-window bootstrap size).
  int window = 4;
  /// Synthetic Netnews articles per day per tenant.
  uint64_t articles_per_day = 12;
  /// Cross-checked probes issued at each interleave point.
  int probes_per_step = 3;
};

/// \brief Outcome of one simulated serving episode.
struct ServerEpisodeResult {
  uint64_t episode = 0;
  /// OK when every reply decoded, every cross-check matched, and the drain
  /// rehearsal behaved.
  Status status = Status::OK();
  /// Deterministic episode trace: one line per request batch / publish /
  /// drain step. Byte-identical across runs of the same (seed, episode).
  std::string trace;
  /// CRC-32 over the episode's full reply byte stream plus the trace.
  uint32_t digest = 0;
  /// Total requests the simulated server answered.
  uint64_t requests = 0;
  /// Non-empty on failure: the command that replays this exact episode.
  std::string repro;
};

/// \brief Seed-reproducible in-process server simulator.
class ServerSimulator {
 public:
  explicit ServerSimulator(ServerSimConfig config) : config_(config) {}

  /// Runs episode `episode` of the configured seed.
  ServerEpisodeResult RunEpisode(uint64_t episode) const;

  /// Runs episodes 0..episodes-1, re-running each to assert the digest is
  /// byte-identical; stops at and returns the first failure, or the last
  /// (successful) result.
  ServerEpisodeResult RunMany() const;

  const ServerSimConfig& config() const { return config_; }

 private:
  ServerSimConfig config_;
};

/// \brief The repro command line for (seed, episode).
std::string ServerReproCommand(uint64_t seed, uint64_t episode);

}  // namespace testing
}  // namespace wavekit

#endif  // WAVEKIT_TESTING_SERVER_SIM_H_
