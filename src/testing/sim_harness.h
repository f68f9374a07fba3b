// Deterministic simulation harness (FoundationDB style): one uint64 seed
// derives an entire torture episode — virtual clock, workload, fault and
// crash schedule — and every query answer is cross-checked against a
// brute-force OracleDB. Any failure prints a one-line repro command
// (`sim_torture --seed=S --scheme=K --episode=E`) that replays the episode
// byte-for-byte on any machine, and a greedy shrinker minimizes the failing
// scenario before reporting it.
//
// An episode drives one maintenance scheme through a full life: Start over
// the first window, then N daily transitions under the intent-journal
// protocol (wave/recovery.h), with scheduled protocol crash points, device
// crash countdowns, and transient I/O error rates. Every failed day is
// followed by a simulated restart: RAM state is destroyed, the durable
// checkpoint is recovered, the recovered wave is adopted by a fresh scheme,
// and the interrupted day is re-run. After every successful day the harness
// asserts, against the oracle and the scheme's own contract:
//   - every planned TimedIndexProbe answer matches the oracle exactly,
//   - a full-window TimedSegmentScan matches the oracle exactly,
//   - QueryStats report no unhealthy or failed constituents,
//   - hard-window schemes cover exactly the last W days; soft-window (WATA
//     family) schemes cover at least the window and respect the Theorem 2
//     length bound W + ceil((W-1)/(n-1)) - 1,
//   - the constituent count stays within [1, n], and
//   - the checkpoint round-trips: serialize -> deserialize -> serialize is
//     byte-identical.

#ifndef WAVEKIT_TESTING_SIM_HARNESS_H_
#define WAVEKIT_TESTING_SIM_HARNESS_H_

#include <cstdint>
#include <string>

#include "testing/scenario.h"
#include "util/status.h"
#include "wave/scheme.h"

namespace wavekit {
namespace testing {

/// \brief Harness configuration. Everything an episode does follows from
/// `seed` and the episode number; the rest only shapes how many episodes run
/// and where scratch files live.
struct SimConfig {
  /// Base seed: episode e of seed s is the same scenario forever.
  uint64_t seed = 1;
  /// Episodes per scheme for RunMany.
  uint64_t episodes = 64;
  /// Directory for the episode's checkpoint/journal scratch files.
  std::string tmp_dir = "/tmp";
};

/// \brief Outcome of one episode (or one explicit scenario run).
struct EpisodeResult {
  SchemeKind kind = SchemeKind::kDel;
  uint64_t episode = 0;
  Scenario scenario;
  /// OK when every day and every cross-check passed.
  Status status = Status::OK();
  /// Deterministic episode trace: one line per day/restart, no wall-clock
  /// times, no filesystem paths. Two runs of the same (seed, scheme,
  /// episode) produce byte-identical traces.
  std::string trace;
  /// Simulated restarts (crash + recover cycles) the episode went through.
  int restarts = 0;
  /// Non-empty on failure: the command that replays this exact episode.
  std::string repro;
};

/// \brief Which scenario family an episode number selects. The families
/// compose; every one shares the base scenario's days, geometry and query
/// mix.
struct ScenarioFamily {
  /// The bit-rot variant (ScenarioGenerator::GenerateBitRot): silent
  /// data-at-rest corruption after committed days, with detection (scrub or
  /// query path), quarantine, subset-correct degraded serving, and online
  /// heal all asserted against the oracle inside the episode.
  bool bitrot = false;
  /// Every index built at CodecMode::kAuto, so every oracle cross-check (and
  /// every rot strike and heal) runs against compressed constituents.
  bool codec = false;
};

/// \brief Seed-reproducible whole-system simulator.
class Simulator {
 public:
  explicit Simulator(SimConfig config) : config_(std::move(config)) {}

  /// Runs episode `episode` of the configured seed and `family` for `kind`.
  EpisodeResult RunEpisode(SchemeKind kind, uint64_t episode,
                           ScenarioFamily family = {}) const;

  /// Runs an explicit (possibly shrunk) scenario. `label` tags the scratch
  /// files; it does not influence behaviour.
  EpisodeResult RunScenario(SchemeKind kind, const Scenario& scenario,
                            const std::string& label) const;

  /// Runs episodes 0..config().episodes-1 of `family` for `kind`; stops at
  /// and returns the first failure, or the last (successful) episode's
  /// result.
  EpisodeResult RunMany(SchemeKind kind, ScenarioFamily family = {}) const;

  /// Greedily minimizes a failing scenario: truncates days, drops scheduled
  /// faults one at a time, and zeroes error rates, keeping every change that
  /// still fails, until a fixpoint (or `max_runs` re-executions).
  Scenario Shrink(SchemeKind kind, const Scenario& failing,
                  int max_runs = 200) const;

  const SimConfig& config() const { return config_; }

 private:
  SimConfig config_;
};

/// \brief The repro command line for (seed, kind, episode) of `family`.
std::string ReproCommand(uint64_t seed, SchemeKind kind, uint64_t episode,
                         ScenarioFamily family = {});

}  // namespace testing
}  // namespace wavekit

#endif  // WAVEKIT_TESTING_SIM_HARNESS_H_
