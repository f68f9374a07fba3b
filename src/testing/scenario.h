// ScenarioGenerator: one seed -> one fully specified torture scenario.
//
// Everything an episode does — window geometry, day sizes, the skewed value
// distribution, the probe/scan mix, transient-error rates, and the schedule
// of protocol crash points and device crashes — is derived from a single
// uint64 seed via forked Rng streams. Day contents are a pure function of
// (workload_seed, day), so shrinking a scenario (dropping faults, truncating
// days) never perturbs the days that remain: the repro stays a repro.

#ifndef WAVEKIT_TESTING_SCENARIO_H_
#define WAVEKIT_TESTING_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "index/codec.h"
#include "update/update_technique.h"
#include "util/day.h"
#include "util/random.h"
#include "wave/day_store.h"

namespace wavekit {
namespace testing {

/// \brief One scheduled fault in an episode.
struct FaultEvent {
  enum class Kind {
    /// Arm a named protocol crash point before the day's AdvanceDay.
    kCrashPoint,
    /// Arm FaultInjectingDevice::ArmCrashAfterWrites before the AdvanceDay.
    kDeviceCrash,
    /// After the day's AdvanceDay commits, flip bits in one live bucket
    /// extent (silent corruption: the write succeeded long ago, the medium
    /// rotted). The harness then proves detection (scrub or read path),
    /// quarantine, and online heal, all inside the episode.
    kBitRot,
  };

  Day day = 0;
  Kind kind = Kind::kCrashPoint;
  std::string crash_point;  ///< kCrashPoint: which named point to arm.
  uint64_t countdown = 1;   ///< kDeviceCrash: writes until the crash fires.
  uint64_t target = 0;      ///< kBitRot: constituent/bucket selector + salt.
  int bits = 1;             ///< kBitRot: distinct bit positions to flip.
  bool detect_via_scrub = true;  ///< kBitRot: scrub pass vs. query path.

  std::string ToString() const;
};

/// \brief A complete, explicit episode description. Mutable by the shrinker.
struct Scenario {
  /// Seed of the deterministic workload streams (day contents, queries).
  uint64_t workload_seed = 1;

  // Window geometry (varies across episodes: the "window resize" axis).
  int window = 6;
  int num_indexes = 3;
  UpdateTechniqueKind technique = UpdateTechniqueKind::kSimpleShadow;

  /// Simulated days after Start (the episode runs days W+1 .. W+days).
  int days = 10;

  // Day-batch shape: per-day record count drawn uniformly from
  // [min_day_records, max_day_records]; each record carries
  // 1..values_per_record values drawn from a Zipf(value_universe, zipf_theta)
  // skewed distribution.
  int min_day_records = 2;
  int max_day_records = 8;
  int values_per_record = 2;
  uint64_t value_universe = 50;
  double zipf_theta = 0.9;

  // Query mix cross-checked against the oracle after every day.
  int probes_per_day = 6;
  bool scan_each_day = true;

  /// Bucket codec policy for every index the episode builds. kRaw keeps the
  /// classic byte layout; the codec episode family sets kAuto, so
  /// probes/scans/heals run against compressed extents too.
  CodecMode codec = CodecMode::kRaw;

  // Fault plan.
  double read_error_rate = 0.0;
  double write_error_rate = 0.0;
  int retry_attempts = 1;
  std::vector<FaultEvent> faults;

  /// Human-readable one-liner per field group (multi-line); used in shrink
  /// reports and --print_scenario.
  std::string ToString() const;
};

/// \brief Derives scenarios from a base seed; episode e of seed s is the
/// same scenario on every machine, forever.
class ScenarioGenerator {
 public:
  explicit ScenarioGenerator(uint64_t seed) : seed_(seed) {}

  /// The scenario of episode `episode`.
  Scenario Generate(uint64_t episode) const;

  /// The bit-rot variant of episode `episode`: the same base scenario (same
  /// workload, geometry and query mix — drawn from the identical stream, so
  /// Generate(e) stays byte-for-byte what it always was) with crash faults
  /// and transient-error rates cleared, and 1..3 kBitRot events appended
  /// from an independently forked stream. Pure corruption episodes: every
  /// day commits, then rot strikes and must be detected + healed.
  Scenario GenerateBitRot(uint64_t episode) const;

  uint64_t seed() const { return seed_; }

 private:
  uint64_t seed_;
};

/// \brief The day-`day` batch of `scenario` — a pure function of
/// (workload_seed, day), independent of every other day.
DayBatch MakeScenarioDay(const Scenario& scenario, Day day);

/// \brief One probe the harness should issue after day `day`: a value (often
/// live, sometimes absent) and a day range inside the live window.
struct ProbePlan {
  Value value;
  DayRange range;
};

/// \brief The deterministic probe list for day `day` of `scenario`.
std::vector<ProbePlan> MakeScenarioProbes(const Scenario& scenario, Day day);

}  // namespace testing
}  // namespace wavekit

#endif  // WAVEKIT_TESTING_SCENARIO_H_
