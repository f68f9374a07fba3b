// sim_torture: seed-reproducible whole-system simulation torture.
//
//   sim_torture [--serve] [--seed=1] [--episodes=64] [--scheme=all|del|reindex|...]
//               [--episode=E] [--print-trace] [--shrink=1] [--tmp-dir=/tmp]
//               [--inject-window-bug] [--bitrot] [--codec]
//   sim_torture --serve [--seed=1] [--episodes=8] [--tenants=3] [--days=5]
//               [--episode=E] [--print-trace]
//
// An unknown flag or a malformed value exits with status 2.
//
// --bitrot switches to the bit-rot scenario family (GenerateBitRot): every
// day commits cleanly, then silent data-at-rest corruption strikes and the
// episode asserts detection (scrub or query path), quarantine,
// subset-correct degraded answers, and online self-healing.
//
// --codec switches to the codec scenario family: each episode builds its
// indexes at codec=auto, so every oracle cross-check exercises compressed
// probe/scan decode. Composes with --bitrot: rot then lands on compressed
// extents and must still be detected and healed.
//
// Runs seed-derived torture episodes (testing/sim_harness.h) for the chosen
// scheme(s): each episode drives a full maintenance life — crashes, device
// faults, recovery — and cross-checks every query against a brute-force
// oracle. Deterministic by construction: a failing run prints
//
//   repro: sim_torture --seed=S --scheme=K --episode=E
//
// which replays the identical episode anywhere. With --shrink (default on)
// the failing scenario is greedily minimized before it is reported.
// --inject-window-bug enables the deliberate window-invariant mutation
// (wave/scheme.h, internal::SetWindowInvariantMutationForTesting) to
// demonstrate that the harness detects it.

#include <iostream>
#include <string>
#include <vector>

#include "testing/server_sim.h"
#include "testing/sim_harness.h"
#include "util/args.h"
#include "wave/scheme_factory.h"

namespace wavekit {
namespace {

void ReportFailure(const testing::Simulator& simulator,
                   const testing::EpisodeResult& failure, bool print_trace,
                   bool shrink) {
  std::cout << "FAILED: " << SchemeKindName(failure.kind) << " episode "
            << failure.episode << "\n"
            << "status: " << failure.status.ToString() << "\n"
            << "scenario: " << failure.scenario.ToString() << "\n";
  if (print_trace) std::cout << "trace:\n" << failure.trace;
  if (!failure.repro.empty()) {
    std::cout << "repro: " << failure.repro << "\n";
  }
  if (shrink) {
    std::cout << "shrinking...\n";
    const testing::Scenario minimal =
        simulator.Shrink(failure.kind, failure.scenario);
    std::cout << "minimal scenario: " << minimal.ToString() << "\n";
  }
}

/// --serve: the in-process server simulation (testing/server_sim.h) —
/// multi-tenant ServerCore over a loopback seam, probes interleaved with
/// single-stepped async advances, replies cross-checked against the oracle,
/// and every episode replayed to assert a byte-identical digest.
int ServeMain(const Args& args) {
  testing::ServerSimConfig config;
  config.seed = args.GetU64("seed", 1);
  config.episodes = args.GetU64("episodes", 8);
  config.tenants = static_cast<int>(args.GetU64("tenants", 3));
  config.days = static_cast<int>(args.GetU64("days", 5));
  const bool print_trace = args.GetBool("print-trace", false);
  const testing::ServerSimulator simulator(config);

  if (args.Has("episode")) {
    const uint64_t episode = args.GetU64("episode", 0);
    const testing::ServerEpisodeResult result = simulator.RunEpisode(episode);
    if (print_trace) std::cout << result.trace;
    if (result.status.ok()) {
      std::cout << "serve episode " << episode << ": ok (requests="
                << result.requests << " digest=" << result.digest << ")\n";
      return 0;
    }
    std::cout << "FAILED: serve episode " << episode << "\n"
              << "status: " << result.status.ToString() << "\n";
    if (!print_trace) std::cout << "trace:\n" << result.trace;
    if (!result.repro.empty()) std::cout << "repro: " << result.repro << "\n";
    return 1;
  }

  const testing::ServerEpisodeResult result = simulator.RunMany();
  if (result.status.ok()) {
    std::cout << "serve: " << config.episodes
              << " episodes ok (byte-identical replays)\n";
    return 0;
  }
  std::cout << "FAILED: serve episode " << result.episode << "\n"
            << "status: " << result.status.ToString() << "\n"
            << "trace:\n" << result.trace;
  if (!result.repro.empty()) std::cout << "repro: " << result.repro << "\n";
  return 1;
}

int Main(int argc, char** argv) {
  const Args args(argc, argv);
  const bool serve = args.GetBool("serve");
  const std::vector<std::string> unknown =
      serve ? args.Unknown({"serve", "seed", "episodes", "tenants", "days",
                            "episode", "print-trace"})
            : args.Unknown({"serve", "seed", "episodes", "scheme", "episode",
                            "print-trace", "shrink", "tmp-dir",
                            "inject-window-bug", "bitrot", "codec"});
  if (!unknown.empty()) {
    std::cerr << "sim_torture: unknown arguments:";
    for (const std::string& arg : unknown) std::cerr << " " << arg;
    std::cerr << "\n";
    return 2;
  }

  if (serve) return ServeMain(args);

  testing::SimConfig config;
  config.seed = args.GetU64("seed", 1);
  config.episodes = args.GetU64("episodes", 64);
  config.tmp_dir = args.Get("tmp-dir", "/tmp");
  const bool print_trace = args.GetBool("print-trace", false);
  const bool shrink = args.GetBool("shrink", true);

  if (args.GetBool("inject-window-bug", false)) {
    internal::SetWindowInvariantMutationForTesting(true);
    std::cout << "window-invariant mutation ENABLED (episodes should fail)\n";
  }

  std::vector<SchemeKind> kinds;
  const std::string scheme = args.Get("scheme", "all");
  if (scheme == "all") {
    kinds.assign(std::begin(kAllSchemeKinds), std::end(kAllSchemeKinds));
  } else {
    auto parsed = SchemeKindFromName(scheme);
    if (!parsed.ok()) {
      std::cerr << parsed.status().ToString() << "\n";
      return 2;
    }
    kinds.push_back(parsed.ValueOrDie());
  }

  testing::ScenarioFamily family;
  family.bitrot = args.GetBool("bitrot", false);
  family.codec = args.GetBool("codec", false);
  const testing::Simulator simulator(config);
  bool failed = false;
  for (SchemeKind kind : kinds) {
    if (args.Has("episode")) {
      const uint64_t episode = args.GetU64("episode", 0);
      const testing::EpisodeResult result =
          simulator.RunEpisode(kind, episode, family);
      if (print_trace) std::cout << result.trace;
      if (result.status.ok()) {
        std::cout << SchemeKindName(kind) << " episode " << episode
                  << ": ok (restarts=" << result.restarts << ")\n";
      } else {
        failed = true;
        ReportFailure(simulator, result, !print_trace, shrink);
      }
      continue;
    }
    const testing::EpisodeResult result = simulator.RunMany(kind, family);
    if (result.status.ok()) {
      std::cout << SchemeKindName(kind) << ": " << config.episodes
                << " episodes ok\n";
    } else {
      failed = true;
      ReportFailure(simulator, result, true, shrink);
    }
  }
  return failed ? 1 : 0;
}

}  // namespace
}  // namespace wavekit

int main(int argc, char** argv) { return wavekit::Main(argc, argv); }
