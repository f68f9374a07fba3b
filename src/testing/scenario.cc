#include "testing/scenario.h"

#include <algorithm>

#include "util/format.h"

namespace wavekit {
namespace testing {
namespace {

// The named crash points of the DurableMaintenance AdvanceDay protocol, in
// execution order (see wave/recovery.h and the crash-recovery torture).
const char* const kProtocolCrashPoints[] = {
    "journal.intent.before_rename",
    "journal.intent.after_rename",
    "advance.after_intent",
    "advance.after_transition",
    "checkpoint.before_rename",
    "checkpoint.after_rename",
    "advance.after_checkpoint",
    "journal.commit",
};
constexpr size_t kNumProtocolCrashPoints =
    sizeof(kProtocolCrashPoints) / sizeof(kProtocolCrashPoints[0]);

Value ValueForRank(uint64_t rank) { return "v" + std::to_string(rank); }

}  // namespace

std::string FaultEvent::ToString() const {
  switch (kind) {
    case Kind::kCrashPoint:
      return "day=" + std::to_string(day) + " crash_point=" + crash_point;
    case Kind::kDeviceCrash:
      return "day=" + std::to_string(day) +
             " device_crash_after_writes=" + std::to_string(countdown);
    case Kind::kBitRot:
      return "day=" + std::to_string(day) +
             " bit_rot target=" + std::to_string(target) +
             " bits=" + std::to_string(bits) +
             (detect_via_scrub ? " detect=scrub" : " detect=query");
  }
  return "?";
}

std::string Scenario::ToString() const {
  std::string out;
  out += "workload_seed=" + std::to_string(workload_seed);
  out += " window=" + std::to_string(window);
  out += " num_indexes=" + std::to_string(num_indexes);
  out += std::string(" technique=") +
         (technique == UpdateTechniqueKind::kPackedShadow ? "packed-shadow"
                                                          : "simple-shadow");
  out += " days=" + std::to_string(days);
  out += " records=[" + std::to_string(min_day_records) + "," +
         std::to_string(max_day_records) + "]";
  out += " values_per_record=" + std::to_string(values_per_record);
  out += " universe=" + std::to_string(value_universe);
  out += " zipf_theta=" + FormatDouble(zipf_theta, 3);
  out += " probes_per_day=" + std::to_string(probes_per_day);
  out += std::string(" scan_each_day=") + (scan_each_day ? "1" : "0");
  out += std::string(" codec=") + CodecModeName(codec);
  out += " read_error_rate=" + FormatDouble(read_error_rate, 4);
  out += " write_error_rate=" + FormatDouble(write_error_rate, 4);
  out += " retry_attempts=" + std::to_string(retry_attempts);
  out += " faults=" + std::to_string(faults.size());
  for (const FaultEvent& fault : faults) {
    out += "\n  fault: " + fault.ToString();
  }
  return out;
}

Scenario ScenarioGenerator::Generate(uint64_t episode) const {
  Rng rng = Rng(seed_).Fork(episode);
  Scenario s;
  // A distinct workload stream per episode, stable under shrinking.
  s.workload_seed = rng.Next();
  s.window = 4 + static_cast<int>(rng.Uniform(7));          // 4..10
  const int max_n = std::min(s.window, 5);
  s.num_indexes = 2 + static_cast<int>(rng.Uniform(
                          static_cast<uint64_t>(max_n - 1)));  // 2..max_n
  s.technique = rng.Bernoulli(0.5) ? UpdateTechniqueKind::kSimpleShadow
                                   : UpdateTechniqueKind::kPackedShadow;
  s.days = 8 + static_cast<int>(rng.Uniform(17));           // 8..24
  s.min_day_records = 1 + static_cast<int>(rng.Uniform(3));  // 1..3
  s.max_day_records =
      s.min_day_records + static_cast<int>(rng.Uniform(8));  // min..min+7
  s.values_per_record = 1 + static_cast<int>(rng.Uniform(3));  // 1..3
  s.value_universe = 20 + rng.Uniform(180);                  // 20..199
  s.zipf_theta = 0.5 + rng.NextDouble() * 0.7;               // 0.5..1.2
  s.probes_per_day = 4 + static_cast<int>(rng.Uniform(6));   // 4..9
  s.scan_each_day = true;
  if (rng.Bernoulli(0.4)) {
    // A "flaky disk" episode: transient errors plus enough retry budget
    // that most days still succeed; the rest exercise fail + recover.
    s.read_error_rate = rng.NextDouble() * 0.02;
    s.write_error_rate = rng.NextDouble() * 0.02;
    s.retry_attempts = 2 + static_cast<int>(rng.Uniform(2));  // 2..3
  }
  for (Day d = static_cast<Day>(s.window) + 1;
       d <= static_cast<Day>(s.window + s.days); ++d) {
    if (!rng.Bernoulli(0.12)) continue;
    FaultEvent fault;
    fault.day = d;
    if (rng.Bernoulli(0.5)) {
      fault.kind = FaultEvent::Kind::kCrashPoint;
      fault.crash_point =
          kProtocolCrashPoints[rng.Uniform(kNumProtocolCrashPoints)];
    } else {
      fault.kind = FaultEvent::Kind::kDeviceCrash;
      fault.countdown = 1 + rng.Uniform(80);
    }
    s.faults.push_back(std::move(fault));
  }
  return s;
}

Scenario ScenarioGenerator::GenerateBitRot(uint64_t episode) const {
  Scenario s = Generate(episode);
  // Pure-corruption family: no crashes, no transient errors. Every day's
  // transition commits cleanly, then the medium rots under it. Mixing rot
  // with crash/retry faults would make "healed within the episode" ambiguous
  // (a crash can legitimately outrun the heal), so those axes stay separate.
  s.faults.clear();
  s.read_error_rate = 0.0;
  s.write_error_rate = 0.0;
  s.retry_attempts = 1;
  // A stream of its own — offset far past any episode index so it can never
  // collide with the Fork(episode) stream Generate() draws from. Keeping
  // Generate() untouched keeps every existing episode trace byte-identical.
  Rng rot = Rng(seed_).Fork((uint64_t{1} << 40) + episode);
  const int strikes = 1 + static_cast<int>(rot.Uniform(3));  // 1..3
  for (int i = 0; i < strikes; ++i) {
    FaultEvent fault;
    fault.kind = FaultEvent::Kind::kBitRot;
    fault.day = static_cast<Day>(s.window) + 1 +
                static_cast<Day>(rot.Uniform(static_cast<uint64_t>(s.days)));
    fault.target = rot.Next();
    fault.bits = 1 + static_cast<int>(rot.Uniform(3));  // 1..3 flipped bits
    fault.detect_via_scrub = rot.Bernoulli(0.5);
    s.faults.push_back(std::move(fault));
  }
  // Deterministic handling order when two strikes land on the same day.
  std::stable_sort(s.faults.begin(), s.faults.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.day < b.day;
                   });
  return s;
}

DayBatch MakeScenarioDay(const Scenario& scenario, Day day) {
  // Stream 2*day: day contents. Stream 2*day+1: that day's probe plan.
  // Both are pure functions of (workload_seed, day), so a shrunk scenario
  // replays the surviving days byte-for-byte.
  Rng rng = Rng(scenario.workload_seed).Fork(static_cast<uint64_t>(day) * 2);
  const ZipfDistribution zipf(scenario.value_universe, scenario.zipf_theta);
  DayBatch batch;
  batch.day = day;
  const int span = scenario.max_day_records - scenario.min_day_records + 1;
  const int num_records =
      scenario.min_day_records +
      static_cast<int>(rng.Uniform(static_cast<uint64_t>(span)));
  uint64_t rid = static_cast<uint64_t>(day) * 1000000;
  for (int i = 0; i < num_records; ++i) {
    Record record;
    record.record_id = rid++;
    record.day = day;
    const int num_values =
        1 + static_cast<int>(
                rng.Uniform(static_cast<uint64_t>(scenario.values_per_record)));
    for (int v = 0; v < num_values; ++v) {
      record.values.push_back(ValueForRank(zipf.Sample(rng)));
    }
    batch.records.push_back(std::move(record));
  }
  return batch;
}

std::vector<ProbePlan> MakeScenarioProbes(const Scenario& scenario, Day day) {
  Rng rng =
      Rng(scenario.workload_seed).Fork(static_cast<uint64_t>(day) * 2 + 1);
  const ZipfDistribution zipf(scenario.value_universe, scenario.zipf_theta);
  const Day oldest = day - static_cast<Day>(scenario.window) + 1;
  std::vector<ProbePlan> probes;
  probes.reserve(static_cast<size_t>(scenario.probes_per_day));
  for (int i = 0; i < scenario.probes_per_day; ++i) {
    ProbePlan probe;
    // Mostly hot values; sometimes a value that cannot exist, so the
    // empty-answer path is exercised too.
    probe.value = rng.Bernoulli(0.85)
                      ? ValueForRank(zipf.Sample(rng))
                      : "missing" + std::to_string(rng.Uniform(1000));
    if (rng.Bernoulli(0.5)) {
      // Full live window. Kept inside the window on purpose: soft-window
      // schemes legitimately retain expired days, and per-entry filtering
      // (which this range triggers) is exactly the invariant under test.
      probe.range = DayRange{oldest, day};
    } else {
      const Day lo =
          oldest + static_cast<Day>(rng.Uniform(
                       static_cast<uint64_t>(scenario.window)));
      const Day hi =
          lo + static_cast<Day>(
                   rng.Uniform(static_cast<uint64_t>(day - lo + 1)));
      probe.range = DayRange{lo, hi};
    }
    probes.push_back(std::move(probe));
  }
  return probes;
}

}  // namespace testing
}  // namespace wavekit
