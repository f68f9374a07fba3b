// Telemetry overhead: the full observability pipeline vs. observability off.
//
// PR 7's pipeline hangs five observers onto a serving WaveService: the
// metrics registry (callback-polled), the span tracer at sample rate 1.0,
// the wall-clock latency decorator under the meter, the maintenance event
// journal, and a background time-series collector. The design claim is that
// all of it stays off the query hot path — callbacks are polled only at
// snapshot time, histogram records are relaxed atomics, the collector runs
// on its own thread. This bench quantifies the claim: single-thread probe
// throughput with everything on must stay within 5% of a service with no
// telemetry at all.
//
// Rounds alternate off/on (A/B interleaving) so clock drift and cache state
// hit both variants equally. `--smoke` runs a miniature configuration and
// skips the timing-based shape check (structural checks still run).
//
// Emits BENCH_obs.json.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "obs/event_journal.h"
#include "obs/latency_device.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "util/macros.h"
#include "util/random.h"
#include "wave/wave_service.h"
#include "workload/netnews.h"

namespace wavekit {
namespace {

struct Config {
  bool smoke = false;
  int window = 7;
  int num_indexes = 3;
  int days = 10;                // transitions past the start window
  uint64_t records = 400;       // articles per day
  int rounds = 6;               // timed rounds per variant, interleaved
  int probes_per_round = 20000;
};

/// One service under test. The registry is declared before the service so
/// it outlives the service's destructor (which unregisters its callbacks).
struct Variant {
  std::string name;
  obs::MetricsRegistry registry;
  std::unique_ptr<WaveService> service;
  double seconds = 0;
  uint64_t probes = 0;

  double ops_per_sec() const { return seconds > 0 ? probes / seconds : 0; }
};

Status BuildVariant(const Config& config, bool telemetry, Variant* variant) {
  WaveService::Options options;
  options.scheme = SchemeKind::kWata;
  options.config.window = config.window;
  options.config.num_indexes = config.num_indexes;
  options.cache_blocks = 1024;
  if (telemetry) {
    options.metrics_registry = &variant->registry;
    options.trace_sample_rate = 1.0;
    options.trace_ring_capacity = 512;
    options.track_device_latency = true;
    options.event_ring_capacity = 256;
    options.collector_interval_us = 10'000;  // 10 ms background sampling
    options.collector_ring_capacity = 256;
    options.collector_background_thread = true;
  }
  WAVEKIT_ASSIGN_OR_RETURN(variant->service, WaveService::Create(options));

  workload::NetnewsConfig netnews_config;
  netnews_config.articles_per_day = config.records;
  workload::NetnewsGenerator netnews(netnews_config);
  std::vector<DayBatch> first_window;
  for (Day d = 1; d <= config.window; ++d) {
    first_window.push_back(netnews.GenerateDay(d));
  }
  WAVEKIT_RETURN_NOT_OK(variant->service->Start(std::move(first_window)));
  for (Day d = config.window + 1;
       d <= config.window + static_cast<Day>(config.days); ++d) {
    WAVEKIT_RETURN_NOT_OK(variant->service->AdvanceDay(netnews.GenerateDay(d)));
  }
  return Status::OK();
}

/// One timed round of single-thread probes; adds into the variant's totals.
Status RunRound(const Config& config, Variant* variant) {
  workload::NetnewsConfig netnews_config;
  netnews_config.articles_per_day = config.records;
  workload::NetnewsGenerator netnews(netnews_config);
  Rng rng(config.probes_per_round);  // same word sequence for every round
  std::vector<Entry> out;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < config.probes_per_round; ++i) {
    WAVEKIT_RETURN_NOT_OK(
        variant->service->IndexProbe(netnews.SampleWord(rng), &out));
  }
  variant->seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  variant->probes += static_cast<uint64_t>(config.probes_per_round);
  return Status::OK();
}

void WriteJson(const Config& config, const Variant& off, const Variant& on,
               double overhead_pct) {
  const WaveService& svc = *on.service;
  std::ofstream out("BENCH_obs.json");
  out << "{\n"
      << "  \"bench\": \"obs_overhead\",\n";
  bench::WriteProvenance(out, config.rounds);
  out << "  \"smoke\": " << (config.smoke ? "true" : "false") << ",\n"
      << "  \"window\": " << config.window << ",\n"
      << "  \"days\": " << config.days << ",\n"
      << "  \"records_per_day\": " << config.records << ",\n"
      << "  \"rounds\": " << config.rounds << ",\n"
      << "  \"probes_per_round\": " << config.probes_per_round << ",\n"
      << "  \"probes_per_variant\": " << off.probes << ",\n"
      << "  \"obs_off_seconds\": " << off.seconds << ",\n"
      << "  \"obs_on_seconds\": " << on.seconds << ",\n"
      << "  \"obs_off_probes_per_sec\": " << off.ops_per_sec() << ",\n"
      << "  \"obs_on_probes_per_sec\": " << on.ops_per_sec() << ",\n"
      << "  \"overhead_pct\": " << overhead_pct << ",\n"
      << "  \"telemetry\": {\n"
      << "    \"registered_metrics\": " << on.registry.size() << ",\n"
      << "    \"spans_recorded\": " << svc.tracer()->spans_recorded() << ",\n"
      << "    \"events_appended\": " << svc.events()->total_appended() << ",\n"
      << "    \"timeseries_samples\": " << svc.collector()->samples_taken()
      << "\n"
      << "  }\n"
      << "}\n";
}

}  // namespace
}  // namespace wavekit

int main(int argc, char** argv) {
  using namespace wavekit;
  Config config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) config.smoke = true;
  }
  if (config.smoke) {
    config.days = 4;
    config.records = 100;
    config.rounds = 2;
    config.probes_per_round = 500;
  }

  bench::Banner(
      "Telemetry overhead: full observability pipeline vs. obs off",
      "the registry/tracer/latency/event/collector pipeline is polled-or-"
      "relaxed-atomic off the hot path; probes must stay within 5%");

  Variant off, on;
  off.name = "obs_off";
  on.name = "obs_on";
  Status status = BuildVariant(config, /*telemetry=*/false, &off);
  if (status.ok()) status = BuildVariant(config, /*telemetry=*/true, &on);
  if (!status.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", status.ToString().c_str());
    return 1;
  }

  // Warmup (untimed): fault the caches for both variants.
  off.seconds = on.seconds = 0;
  Config warmup = config;
  warmup.probes_per_round = config.probes_per_round / 4 + 1;
  status = RunRound(warmup, &off);
  if (status.ok()) status = RunRound(warmup, &on);
  off.seconds = on.seconds = 0;
  off.probes = on.probes = 0;

  for (int round = 0; status.ok() && round < config.rounds; ++round) {
    status = RunRound(config, &off);
    if (status.ok()) status = RunRound(config, &on);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "probe loop failed: %s\n", status.ToString().c_str());
    return 1;
  }

  const double overhead_pct =
      off.ops_per_sec() > 0
          ? (off.ops_per_sec() - on.ops_per_sec()) / off.ops_per_sec() * 100.0
          : 0.0;

  std::printf("\n%-10s %12s %10s %14s\n", "variant", "probes", "seconds",
              "probes/sec");
  for (const Variant* v : {&off, &on}) {
    std::printf("%-10s %12llu %10.4f %14.0f\n", v->name.c_str(),
                static_cast<unsigned long long>(v->probes), v->seconds,
                v->ops_per_sec());
  }
  std::printf("\ntelemetry-on pipeline state after the run:\n");
  std::printf("  registered metrics : %zu\n", on.registry.size());
  std::printf("  spans recorded     : %llu\n",
              static_cast<unsigned long long>(on.service->tracer()
                                                  ->spans_recorded()));
  std::printf("  events appended    : %llu\n",
              static_cast<unsigned long long>(on.service->events()
                                                  ->total_appended()));
  std::printf("  timeseries samples : %llu\n",
              static_cast<unsigned long long>(on.service->collector()
                                                  ->samples_taken()));
  std::printf("  probe overhead     : %.2f%%\n", overhead_pct);

  WriteJson(config, off, on, overhead_pct);
  std::printf("Wrote BENCH_obs.json\n");

  bench::ShapeChecks checks;
  checks.Check(on.registry.size() > 0,
               "telemetry variant registered metrics into the registry");
  checks.Check(on.service->tracer()->spans_recorded() > 0,
               "tracer recorded spans at sample rate 1.0");
  checks.Check(on.service->events()->total_appended() > 0,
               "event journal captured maintenance lifecycle events");
  checks.Check(on.service->latency_device() != nullptr &&
                   on.service->latency_device()
                           ->histogram(obs::OpKind::kRead, Phase::kQuery)
                           .count() +
                       on.service->latency_device()
                           ->histogram(obs::OpKind::kRead, Phase::kTransition)
                           .count() >
                       0,
               "latency decorator recorded real device reads");
  if (!config.smoke) {
    checks.Check(overhead_pct < 5.0,
                 "full telemetry costs < 5% single-thread probe throughput");
  }
  return checks.Finish();
}
