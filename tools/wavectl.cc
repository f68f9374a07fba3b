// wavectl: command-line experiment runner for wavekit.
//
//   wavectl schemes
//       List the maintenance schemes and update techniques.
//
//   wavectl run [--scheme=wata] [--window=7] [--indexes=3]
//               [--technique=simple-shadow] [--workload=netnews|tpcd]
//               [--days=21] [--records=100] [--probes=1000] [--scans=5]
//               [--case=scam|wse|tpcd] [--disks=N] [--per-day] [--csv=out.csv]
//       Run a scheme day by day on a synthetic workload; print per-day and
//       aggregate measurements (metered simulation + paper-priced model).
//
//   wavectl model [--case=scam] [--scheme=reindex] [--indexes=4]
//                 [--technique=simple-shadow] [--window=<case default>]
//       Analytic evaluation only (Tables 8-11 style numbers).
//
//   wavectl advise [--case=scam] [--window=<case default>] [--hard-window]
//                  [--no-packed-shadow] [--no-delete] [--max-indexes=10]
//                  [--max-probe-ms=...] [--top=5]
//       Rank wave-index configurations for the scenario under the given
//       constraints (the paper's Section 6 selection process).
//
//   wavectl metrics [--scheme=wata] [--window=7] [--indexes=3]
//                   [--technique=simple-shadow] [--days=14] [--records=200]
//                   [--probes=200] [--scans=5] [--cache-blocks=1024]
//                   [--format=prometheus|json]
//       Serve a short synthetic workload through a WaveService with every
//       observability hook registered, then dump the unified metrics
//       registry (device phase counters, cache shard stats, service latency
//       histograms) in Prometheus text or JSON.
//
//   wavectl trace [same workload flags] [--sample=1.0] [--ring=256]
//                 [--slow-us=0]
//       Same workload, but print the sampled AdvanceDay span trees: one root
//       per transition with child spans for each maintenance primitive the
//       scheme ran, annotated with the seek/byte delta each drew.
//
//   wavectl top [same workload flags]
//       Run the workload with full telemetry (latency decorator, event
//       journal, time-series collector) and print a one-shot "top"-style
//       summary: per-phase device I/O with observed-vs-modeled drift,
//       query/advance latency percentiles, and the tail of the event journal.
//
//   wavectl export-trace [same workload flags] [--sample=1.0] [--ring=1024]
//                        [--out=trace.json]
//       Export the sampled span ring as Chrome trace-event JSON (loadable in
//       chrome://tracing or Perfetto). Writes stdout unless --out is given.
//
//   wavectl events [same workload flags] [--ring=256] [--jsonl=events.jsonl]
//                  [--format=table|json]
//       Run the workload with the maintenance event journal enabled and dump
//       it: advance start/commit/rollback, retries, degraded transitions.
//
//   wavectl serve-metrics [same workload flags] [--port=9464]
//                         [--duration-s=30] [--interval-ms=1000]
//       Run the workload, then serve the live telemetry over an embedded
//       HTTP endpoint: /metrics (Prometheus), /metrics.json,
//       /timeseries.json, /events.json, /trace.json, /healthz. The
//       time-series collector keeps sampling in the background while
//       serving. --duration-s=0 serves until killed.
//
//   wavectl stats [same workload flags] [--format=table|json]
//       Run the workload, then print the per-index storage/codec breakdown:
//       buckets stored under each codec, stored vs uncompressed bytes, and
//       the compression ratio (run with --codec=auto to see savings). The
//       same totals are exported by `wavectl metrics` as the
//       wavekit_bucket_* gauges.
//
//   wavectl scrub [same workload flags] [--corrupt] [--heal=true|false]
//       Run the workload, then one operational scrub pass: verify every live
//       bucket checksum, quarantine corrupt constituents, and (default)
//       heal them online. --corrupt first flips a byte in one live bucket
//       through the raw device to demonstrate the detect->quarantine->heal
//       cycle end to end.
//
//   wavectl verify [same workload flags] [--corrupt]
//       CI-able integrity check: the same verification sweep, reported as
//       INTEGRITY OK / INTEGRITY FAILED with a non-zero exit on any
//       checksum mismatch or read error.
//
//   wavectl bench-io [--backend=file|uring|mmap] [--path=/data/probe.dat]
//                    [--direct] [--queue-depth=64] [--size-mb=64]
//                    [--block=4096] [--batch=64] [--ops=2000] [--seed=42]
//       fio-style device microbenchmark on a real storage backend:
//       sequential read/write bandwidth, random scalar latency, and random
//       batched throughput. Prints the measured seek time and transfer rate
//       in the units of the Section 5 cost model, for calibrating
//       model::CaseParams::hardware to the machine actually underneath.
//
//   The workload-driven subcommands (metrics, trace, top, export-trace,
//   events, serve-metrics, stats, scrub, verify) also accept
//   --backend/--path/--direct/--queue-depth to serve from a real device
//   instead of the modeled MemoryDevice, and --codec=raw|auto to choose the
//   bucket codec policy for every index the run builds.
//
//   Unknown subcommands or flags print usage and exit 2. A flag value that
//   does not parse as its type (a number, true/false), or a --codec other
//   than raw|auto, also exits 2.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "index/codec.h"
#include "model/space_model.h"
#include "storage/backend_registry.h"
#include "util/random.h"
#include "model/total_work.h"
#include "obs/event_journal.h"
#include "obs/http_exporter.h"
#include "obs/latency_device.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace_export.h"
#include "util/macros.h"
#include "sim/csv.h"
#include "sim/driver.h"
#include "sim/table_printer.h"
#include "util/args.h"
#include "util/format.h"
#include "wave/advisor.h"
#include "serve/client.h"
#include "wave/scheme_factory.h"
#include "wave/wave_service.h"
#include "workload/netnews.h"

namespace wavekit {
namespace {

model::CaseParams CaseByName(const std::string& name) {
  if (name == "wse") return model::CaseParams::Wse();
  if (name == "tpcd") return model::CaseParams::Tpcd();
  return model::CaseParams::Scam();
}

int Schemes() {
  sim::TablePrinter table({"scheme", "window", "daily critical path",
                           "needs delete code"});
  table.AddRow({"DEL", "hard", "one AddToIndex (after precomputed delete)",
                "yes"});
  table.AddRow({"REINDEX", "hard", "rebuild W/n days (always packed)", "no"});
  table.AddRow({"REINDEX+", "hard", "copy Temp + re-add shrinking tail", "no"});
  table.AddRow({"REINDEX++", "hard", "one AddToIndex (precomputed ladder)",
                "no"});
  table.AddRow({"WATA*", "soft", "one AddToIndex (bulk expiry by drop)",
                "no"});
  table.AddRow({"RATA*", "hard", "one AddToIndex + rename", "no"});
  table.AddRow({"KB-WATA", "soft", "one AddToIndex (size-bounded slices)",
                "no"});
  table.Print(std::cout);
  std::cout << "\nupdate techniques: in-place | simple-shadow | packed-shadow\n";
  return 0;
}

int RunExperiment(const Args& args) {
  sim::ExperimentConfig config;
  auto scheme = SchemeKindFromName(args.Get("scheme", "wata"));
  if (!scheme.ok()) {
    std::cerr << scheme.status() << "\n";
    return 2;
  }
  auto technique = UpdateTechniqueFromName(
      args.Get("technique", "simple-shadow"));
  if (!technique.ok()) {
    std::cerr << technique.status() << "\n";
    return 2;
  }
  config.scheme = scheme.ValueOrDie();
  config.scheme_config.window = args.GetInt("window", 7);
  config.scheme_config.num_indexes = args.GetInt("indexes", 3);
  config.scheme_config.technique = technique.ValueOrDie();
  config.workload = args.Get("workload", "netnews") == "tpcd"
                        ? sim::WorkloadKind::kTpcd
                        : sim::WorkloadKind::kNetnews;
  config.netnews.articles_per_day =
      static_cast<uint64_t>(args.GetInt("records", 100, 0, INT_MAX));
  config.tpcd.rows_per_day =
      static_cast<uint64_t>(args.GetInt("records", 500, 0, INT_MAX));
  config.days_to_run = args.GetInt("days", 3 * config.scheme_config.window);
  config.warmup_days =
      std::min(config.scheme_config.window, config.days_to_run / 2);
  config.query_mix.probes_per_day = args.GetInt("probes", 1000);
  config.query_mix.probe_sample = 8;
  config.query_mix.scans_per_day = args.GetInt("scans", 5);
  config.query_mix.scan_sample = 1;
  config.paper = CaseByName(args.Get("case", "scam"));
  config.num_disks = args.GetInt("disks", 1);
  if (config.scheme == SchemeKind::kKnownBoundWata) {
    config.scheme_config.size_bound_entries =
        config.netnews.articles_per_day * 60 *
        static_cast<uint64_t>(config.scheme_config.window);
  }

  auto run = sim::ExperimentDriver::Run(config);
  if (!run.ok()) {
    std::cerr << run.status() << "\n";
    return 1;
  }
  const sim::ExperimentResult result = std::move(run).ValueOrDie();

  const std::string csv_path = args.Get("csv", "");
  if (!csv_path.empty()) {
    Status s = sim::WriteCsv(result, csv_path);
    if (!s.ok()) {
      std::cerr << s << "\n";
      return 1;
    }
    std::cout << "per-day measurements written to " << csv_path << "\n";
  }

  if (args.GetBool("per-day")) {
    sim::TablePrinter days({"day", "sim trans", "sim pre", "sim query",
                            "model trans", "model pre", "space", "length"});
    for (const sim::DayStats& d : result.days) {
      days.AddRow({std::to_string(d.day),
                   FormatSeconds(d.sim_transition_seconds),
                   FormatSeconds(d.sim_precompute_seconds),
                   FormatSeconds(d.sim_query_seconds),
                   FormatSeconds(d.model_transition_seconds),
                   FormatSeconds(d.model_precompute_seconds),
                   FormatBytes(d.operation_bytes),
                   std::to_string(d.wave_length_days)});
    }
    days.Print(std::cout);
    std::cout << "\n";
  }

  const sim::Aggregates& agg = result.aggregates;
  sim::TablePrinter table({"measure", "simulation (scaled data)",
                           "model (paper parameters)"});
  table.SetTitle(std::string(SchemeKindName(config.scheme)) + " W=" +
                 std::to_string(config.scheme_config.window) + " n=" +
                 std::to_string(config.scheme_config.num_indexes) + " (" +
                 UpdateTechniqueKindName(config.scheme_config.technique) +
                 "), averages over the last " +
                 std::to_string(config.days_to_run - config.warmup_days) +
                 " days");
  table.AddRow({"transition/day", FormatSeconds(agg.avg_sim_transition_seconds),
                FormatSeconds(agg.avg_model_transition_seconds)});
  table.AddRow({"precompute/day", FormatSeconds(agg.avg_sim_precompute_seconds),
                FormatSeconds(agg.avg_model_precompute_seconds)});
  table.AddRow({"queries/day", FormatSeconds(agg.avg_sim_query_seconds),
                FormatSeconds(agg.avg_model_query_seconds)});
  table.AddRow({"total work/day", FormatSeconds(agg.avg_sim_total_work),
                FormatSeconds(agg.avg_model_total_work)});
  if (config.num_disks > 1) {
    table.AddRow({"queries/day (parallel, " +
                      std::to_string(config.num_disks) + " disks)",
                  FormatSeconds(agg.avg_sim_query_parallel_seconds), "-"});
  }
  table.AddRow({"steady space",
                FormatBytes(static_cast<uint64_t>(agg.avg_operation_bytes)),
                "-"});
  table.AddRow({"transition extra space",
                FormatBytes(static_cast<uint64_t>(agg.avg_transition_extra_bytes)),
                "-"});
  table.AddRow({"max wave length (days)",
                std::to_string(agg.max_wave_length_days), "-"});
  table.Print(std::cout);
  return 0;
}

int Model(const Args& args) {
  const model::CaseParams params = CaseByName(args.Get("case", "scam"));
  auto scheme = SchemeKindFromName(args.Get("scheme", "reindex"));
  auto technique = UpdateTechniqueFromName(
      args.Get("technique", "simple-shadow"));
  if (!scheme.ok() || !technique.ok()) {
    std::cerr << (scheme.ok() ? technique.status() : scheme.status()) << "\n";
    return 2;
  }
  const int window = args.GetInt("window", params.window);
  const int n = args.GetInt("indexes", 4);

  auto work = model::EstimateTotalWork(scheme.ValueOrDie(),
                                       technique.ValueOrDie(), params, window,
                                       n);
  if (!work.ok()) {
    std::cerr << work.status() << "\n";
    return 1;
  }
  const model::SpaceEstimate space = model::EstimateSpace(
      scheme.ValueOrDie(), technique.ValueOrDie(), params, window, n);

  sim::TablePrinter table({"measure", "value"});
  table.SetTitle(params.name + " / " +
                 std::string(SchemeKindName(scheme.ValueOrDie())) + " W=" +
                 std::to_string(window) + " n=" + std::to_string(n));
  table.AddRow({"transition/day",
                FormatSeconds(work.ValueOrDie().transition_seconds)});
  table.AddRow({"precompute/day",
                FormatSeconds(work.ValueOrDie().precompute_seconds)});
  table.AddRow({"queries/day", FormatSeconds(work.ValueOrDie().query_seconds)});
  table.AddRow({"total work/day", FormatSeconds(work.ValueOrDie().total())});
  table.AddRow({"avg operation space",
                FormatBytes(static_cast<uint64_t>(space.avg_operation_bytes))});
  table.AddRow({"max operation space",
                FormatBytes(static_cast<uint64_t>(space.max_operation_bytes))});
  table.AddRow({"avg transition space",
                FormatBytes(static_cast<uint64_t>(space.avg_transition_bytes))});
  table.Print(std::cout);
  return 0;
}

int Advise(const Args& args) {
  const model::CaseParams params = CaseByName(args.Get("case", "scam"));
  const int window = args.GetInt("window", params.window);
  AdvisorConstraints constraints;
  constraints.require_hard_window = args.GetBool("hard-window");
  constraints.can_implement_packed_shadow = !args.GetBool("no-packed-shadow");
  constraints.can_implement_delete = !args.GetBool("no-delete");
  constraints.max_indexes = args.GetInt("max-indexes", 10);
  const int max_probe_ms = args.GetInt("max-probe-ms", 0);
  if (max_probe_ms > 0) constraints.max_probe_seconds = max_probe_ms / 1000.0;

  auto ranked = RankWaveIndexOptions(params, window, constraints);
  if (!ranked.ok()) {
    std::cerr << ranked.status() << "\n";
    return 1;
  }
  if (ranked.ValueOrDie().empty()) {
    std::cerr << "no configuration satisfies the constraints\n";
    return 1;
  }
  const int top = args.GetInt("top", 5);
  sim::TablePrinter table({"#", "scheme", "n", "technique", "work/day",
                           "transition", "avg space", "probe"});
  table.SetTitle(params.name + " (W=" + std::to_string(window) + ")");
  int rank = 0;
  for (const Recommendation& r : ranked.ValueOrDie()) {
    if (++rank > top) break;
    table.AddRow({std::to_string(rank), std::string(SchemeKindName(r.scheme)),
                  std::to_string(r.num_indexes),
                  UpdateTechniqueKindName(r.technique),
                  FormatSeconds(r.work.total()),
                  FormatSeconds(r.work.transition_seconds),
                  FormatBytes(static_cast<uint64_t>(r.space.avg_total())),
                  FormatSeconds(r.probe_seconds)});
  }
  table.Print(std::cout);
  std::cout << "\nrecommendation: " << ranked.ValueOrDie().front().rationale
            << "\n";
  return 0;
}

/// The auto-generated backing file for a persistent --backend run without an
/// explicit --path; empty when none is needed. Callers remove it after the
/// service is gone.
std::string ScratchDevicePath(const Args& args) {
  const std::string backend = args.Get("backend", "memory");
  if (backend == "memory" || !args.Get("path", "").empty()) return "";
  return "/tmp/wavectl_" + backend + "_" + std::to_string(::getpid()) +
         ".wavedev";
}

/// Builds a WaveService wired to `registry`, serves a short synthetic
/// Netnews workload through it (start window + `--days` transitions,
/// `--probes` probes and `--scans` scans per day), and returns the service so
/// callers can inspect the registry or the tracer. `customize`, when set,
/// gets a final look at the options before the service is created (the
/// telemetry subcommands enable the latency decorator, event journal, and
/// time-series collector through it).
Result<std::unique_ptr<WaveService>> ServeSyntheticWorkload(
    const Args& args, obs::MetricsRegistry* registry, double sample_rate,
    size_t ring_capacity, uint64_t slow_op_threshold_us,
    const std::function<void(WaveService::Options*)>& customize = nullptr) {
  WaveService::Options options;
  WAVEKIT_ASSIGN_OR_RETURN(options.scheme,
                           SchemeKindFromName(args.Get("scheme", "wata")));
  WAVEKIT_ASSIGN_OR_RETURN(
      options.config.technique,
      UpdateTechniqueFromName(args.Get("technique", "simple-shadow")));
  options.config.window = args.GetInt("window", 7);
  options.config.num_indexes = args.GetInt("indexes", 3);
  const uint64_t records =
      static_cast<uint64_t>(args.GetInt("records", 200, 0, INT_MAX));
  if (options.scheme == SchemeKind::kKnownBoundWata) {
    options.config.size_bound_entries =
        records * 60 * static_cast<uint64_t>(options.config.window);
  }
  WAVEKIT_ASSIGN_OR_RETURN(options.config.codec,
                           CodecModeFromName(args.Get("codec", "raw")));
  options.cache_blocks =
      static_cast<size_t>(args.GetInt("cache-blocks", 1024, 0, INT_MAX));
  options.storage_backend = args.Get("backend", "memory");
  options.storage_path = args.Get("path", "");
  options.direct_io = args.GetBool("direct");
  options.io_queue_depth = args.GetInt("queue-depth", 64);
  if (options.storage_path.empty()) {
    options.storage_path = ScratchDevicePath(args);
  }
  options.metrics_registry = registry;
  options.trace_sample_rate = sample_rate;
  options.trace_ring_capacity = ring_capacity;
  options.slow_op_threshold_us = slow_op_threshold_us;
  if (customize) customize(&options);
  WAVEKIT_ASSIGN_OR_RETURN(std::unique_ptr<WaveService> service,
                           WaveService::Create(options));

  workload::NetnewsConfig netnews_config;
  netnews_config.articles_per_day = records;
  workload::NetnewsGenerator netnews(netnews_config);
  Rng rng(7);

  std::vector<DayBatch> first_window;
  for (Day d = 1; d <= options.config.window; ++d) {
    first_window.push_back(netnews.GenerateDay(d));
  }
  WAVEKIT_RETURN_NOT_OK(service->Start(std::move(first_window)));

  const int probes_per_day = args.GetInt("probes", 200);
  const int scans_per_day = args.GetInt("scans", 5);
  const Day last_day = options.config.window + args.GetInt("days", 14);
  for (Day d = options.config.window + 1; d <= last_day; ++d) {
    WAVEKIT_RETURN_NOT_OK(service->AdvanceDay(netnews.GenerateDay(d)));
    for (int i = 0; i < probes_per_day; ++i) {
      std::vector<Entry> out;
      WAVEKIT_RETURN_NOT_OK(service->IndexProbe(netnews.SampleWord(rng), &out));
    }
    for (int i = 0; i < scans_per_day; ++i) {
      uint64_t entries = 0;
      WAVEKIT_RETURN_NOT_OK(service->TimedSegmentScan(
          DayRange::Window(service->current_day(), 3),
          [&entries](const Value&, const Entry&) { ++entries; }));
    }
  }
  return service;
}

int Metrics(const Args& args) {
  obs::MetricsRegistry registry;
  auto service = ServeSyntheticWorkload(args, &registry, /*sample_rate=*/0.0,
                                        /*ring_capacity=*/256,
                                        /*slow_op_threshold_us=*/0);
  if (!service.ok()) {
    std::cerr << service.status() << "\n";
    return 1;
  }
  const std::string format = args.Get("format", "prometheus");
  int code = 0;
  if (format == "json") {
    std::cout << registry.RenderJson();
  } else if (format == "prometheus") {
    std::cout << registry.RenderPrometheus();
  } else {
    std::cerr << "unknown --format=" << format << " (prometheus|json)\n";
    code = 2;
  }
  service.ValueOrDie().reset();  // close the backing file before unlinking
  const std::string scratch = ScratchDevicePath(args);
  if (!scratch.empty()) std::remove(scratch.c_str());
  return code;
}

int Trace(const Args& args) {
  obs::MetricsRegistry registry;
  auto service = ServeSyntheticWorkload(
      args, &registry, args.GetDouble("sample", 1.0),
      static_cast<size_t>(args.GetInt("ring", 256, 0, INT_MAX)),
      static_cast<uint64_t>(args.GetInt("slow-us", 0, 0, INT_MAX)));
  if (!service.ok()) {
    std::cerr << service.status() << "\n";
    return 1;
  }
  const obs::Tracer* tracer = service.ValueOrDie()->tracer();
  const std::vector<obs::SpanRecord> spans = tracer->CompletedSpans();

  // Children finish before their parents, so group the flat ring into trees.
  std::map<uint64_t, std::vector<const obs::SpanRecord*>> children;
  std::vector<const obs::SpanRecord*> roots;
  for (const obs::SpanRecord& span : spans) {
    if (span.parent_span_id == 0) {
      roots.push_back(&span);
    } else {
      children[span.parent_span_id].push_back(&span);
    }
  }
  const std::function<void(const obs::SpanRecord&, int)> print =
      [&](const obs::SpanRecord& span, int depth) {
        std::cout << std::string(static_cast<size_t>(depth) * 2, ' ')
                  << span.name << "  " << span.duration_us << "us  seeks="
                  << span.seeks << " read=" << FormatBytes(span.bytes_read)
                  << " written=" << FormatBytes(span.bytes_written) << "\n";
        auto it = children.find(span.span_id);
        if (it == children.end()) return;
        for (const obs::SpanRecord* child : it->second) print(*child, depth + 1);
      };
  for (const obs::SpanRecord* root : roots) {
    std::cout << "trace " << root->trace_id << ":\n";
    print(*root, 1);
  }
  std::cout << "roots started=" << tracer->roots_started()
            << " sampled=" << tracer->roots_sampled()
            << " spans recorded=" << tracer->spans_recorded() << "\n";
  service.ValueOrDie().reset();
  const std::string scratch = ScratchDevicePath(args);
  if (!scratch.empty()) std::remove(scratch.c_str());
  return 0;
}

/// Workload-option hook enabling the full telemetry pipeline: latency
/// decorator under the meter, event journal, and time-series collector. The
/// 1 ms collector interval means every AdvanceDay tick takes a sample.
void EnableTelemetry(WaveService::Options* options) {
  options->track_device_latency = true;
  options->event_ring_capacity = 256;
  options->collector_interval_us = 1000;
  options->collector_ring_capacity = 256;
}

int Top(const Args& args) {
  obs::MetricsRegistry registry;
  auto service = ServeSyntheticWorkload(args, &registry, /*sample_rate=*/1.0,
                                        /*ring_capacity=*/256,
                                        /*slow_op_threshold_us=*/0,
                                        EnableTelemetry);
  if (!service.ok()) {
    std::cerr << service.status() << "\n";
    return 1;
  }
  WaveService& svc = *service.ValueOrDie();

  // Per-phase device I/O: the meter's modeled seconds next to the latency
  // decorator's measured wall-clock, and the ratio between them.
  const MeteredDevice::Snapshot io = svc.device()->snapshot();
  const CostModel model;
  const obs::LatencyTrackingDevice* latency = svc.latency_device();
  sim::TablePrinter device_table({"phase", "seeks", "read", "written", "syncs",
                                  "modeled", "observed", "drift"});
  device_table.SetTitle("device I/O by phase (backend=" +
                        svc.storage_backend() + ")");
  for (const auto& p : io.phases) {
    if (p.io.seeks == 0 && p.io.sync_ops == 0) continue;
    const double modeled = model.Seconds(p.io);
    const double observed = latency->observed_seconds(p.phase);
    device_table.AddRow(
        {p.name, std::to_string(p.io.seeks), FormatBytes(p.io.bytes_read),
         FormatBytes(p.io.bytes_written), std::to_string(p.io.sync_ops),
         FormatSeconds(modeled), FormatSeconds(observed),
         modeled > 0 ? FormatDouble(observed / modeled, 4) : "-"});
  }
  device_table.Print(std::cout);

  const WaveService::Instruments& metrics = svc.instruments();
  sim::TablePrinter ops({"operation", "count", "p50", "p99", "max"});
  const auto latency_row = [&ops](const std::string& name,
                                  const obs::Counter* count,
                                  const ConcurrentHistogram* latency) {
    const Histogram h = latency->Snapshot();
    ops.AddRow({name, std::to_string(count->value()),
                std::to_string(h.Percentile(0.5)) + " us",
                std::to_string(h.Percentile(0.99)) + " us",
                std::to_string(h.max()) + " us"});
  };
  latency_row("probe", metrics.probes, metrics.probe_latency_us);
  latency_row("scan", metrics.scans, metrics.scan_latency_us);
  latency_row("advance", metrics.days_advanced, metrics.advance_latency_us);
  std::cout << "\n";
  ops.Print(std::cout);

  std::cout << "\nday=" << svc.current_day()
            << " degraded=" << (svc.degraded() ? "yes" : "no")
            << " failed_advances=" << metrics.degraded_advances->value()
            << " retries=" << svc.scheme().fault_stats().retries
            << " samples="
            << (svc.collector() != nullptr ? svc.collector()->samples_taken()
                                           : 0)
            << " events="
            << (svc.events() != nullptr ? svc.events()->total_appended() : 0)
            << "\n";

  if (svc.events() != nullptr) {
    sim::TablePrinter events({"seq", "day", "event", "message"});
    events.SetTitle("event journal (most recent last)");
    const std::vector<obs::Event> ring = svc.events()->Events();
    const size_t start = ring.size() > 10 ? ring.size() - 10 : 0;
    for (size_t i = start; i < ring.size(); ++i) {
      events.AddRow({std::to_string(ring[i].sequence),
                     std::to_string(ring[i].day),
                     obs::EventTypeName(ring[i].type), ring[i].message});
    }
    std::cout << "\n";
    events.Print(std::cout);
  }

  service.ValueOrDie().reset();
  const std::string scratch = ScratchDevicePath(args);
  if (!scratch.empty()) std::remove(scratch.c_str());
  return 0;
}

int ExportTrace(const Args& args) {
  obs::MetricsRegistry registry;
  auto service = ServeSyntheticWorkload(
      args, &registry, args.GetDouble("sample", 1.0),
      static_cast<size_t>(args.GetInt("ring", 1024, 0, INT_MAX)),
      static_cast<uint64_t>(args.GetInt("slow-us", 0, 0, INT_MAX)));
  if (!service.ok()) {
    std::cerr << service.status() << "\n";
    return 1;
  }
  const std::string json =
      obs::RenderChromeTrace(*service.ValueOrDie()->tracer());
  int code = 0;
  const std::string out = args.Get("out", "");
  if (out.empty()) {
    std::cout << json;
  } else {
    std::ofstream file(out, std::ios::trunc);
    file << json;
    file.close();
    if (!file) {
      std::cerr << "export-trace: cannot write " << out << "\n";
      code = 1;
    } else {
      std::cout << "trace written to " << out << " ("
                << service.ValueOrDie()->tracer()->CompletedSpans().size()
                << " spans); open in chrome://tracing or Perfetto\n";
    }
  }
  service.ValueOrDie().reset();
  const std::string scratch = ScratchDevicePath(args);
  if (!scratch.empty()) std::remove(scratch.c_str());
  return code;
}

int Events(const Args& args) {
  obs::MetricsRegistry registry;
  const size_t ring =
      static_cast<size_t>(args.GetInt("ring", 256, 0, INT_MAX));
  const std::string jsonl = args.Get("jsonl", "");
  auto service = ServeSyntheticWorkload(
      args, &registry, /*sample_rate=*/0.0, /*ring_capacity=*/256,
      /*slow_op_threshold_us=*/0, [&](WaveService::Options* options) {
        options->event_ring_capacity = ring;
        options->event_jsonl_path = jsonl;
      });
  if (!service.ok()) {
    std::cerr << service.status() << "\n";
    return 1;
  }
  const obs::EventJournal* journal = service.ValueOrDie()->events();
  const std::string format = args.Get("format", "table");
  int code = 0;
  if (format == "json") {
    std::cout << journal->RenderJson();
  } else if (format == "table") {
    sim::TablePrinter table({"seq", "t_us", "day", "event", "message"});
    table.SetTitle("maintenance events (" +
                   std::to_string(journal->total_appended()) +
                   " appended, ring holds " +
                   std::to_string(journal->Events().size()) + ")");
    for (const obs::Event& event : journal->Events()) {
      table.AddRow({std::to_string(event.sequence),
                    std::to_string(event.timestamp_us),
                    std::to_string(event.day), obs::EventTypeName(event.type),
                    event.message});
    }
    table.Print(std::cout);
    if (!jsonl.empty()) {
      std::cout << "JSONL sink: " << jsonl
                << (journal->sink_ok() ? "" : " (WRITE FAILED)") << "\n";
    }
  } else {
    std::cerr << "unknown --format=" << format << " (table|json)\n";
    code = 2;
  }
  service.ValueOrDie().reset();
  const std::string scratch = ScratchDevicePath(args);
  if (!scratch.empty()) std::remove(scratch.c_str());
  return code;
}

int ServeMetrics(const Args& args) {
  obs::MetricsRegistry registry;
  const uint64_t interval_us =
      static_cast<uint64_t>(args.GetInt("interval-ms", 1000, 0, INT_MAX)) *
      1000;
  auto service = ServeSyntheticWorkload(
      args, &registry, /*sample_rate=*/1.0, /*ring_capacity=*/256,
      /*slow_op_threshold_us=*/0, [&](WaveService::Options* options) {
        EnableTelemetry(options);
        // Re-sample on wall-clock while the endpoint is being scraped, not
        // just on AdvanceDay ticks.
        options->collector_interval_us = interval_us > 0 ? interval_us : 1000;
        options->collector_background_thread = true;
      });
  if (!service.ok()) {
    std::cerr << service.status() << "\n";
    return 1;
  }
  WaveService* svc = service.ValueOrDie().get();

  obs::HttpExporter::Options http;
  http.port = static_cast<uint16_t>(args.GetInt("port", 9464, 0, 65535));
  http.registry = &registry;
  http.collector = svc->collector();
  http.events = svc->events();
  http.tracer = svc->tracer();
  http.health = [svc](std::string* detail) {
    if (!svc->degraded()) return true;
    *detail = svc->degraded_detail();
    return false;
  };
  obs::HttpExporter exporter(std::move(http));
  Status started = exporter.Start();
  if (!started.ok()) {
    std::cerr << started << "\n";
    return 1;
  }
  const int duration_s = args.GetInt("duration-s", 30);
  std::cout << "serving telemetry on http://127.0.0.1:" << exporter.port()
            << " (/metrics /metrics.json /timeseries.json /events.json "
               "/trace.json /healthz)\n"
            << "port=" << exporter.port() << "\n"
            << (duration_s > 0
                    ? "for " + std::to_string(duration_s) + "s...\n"
                    : "until killed...\n")
            << std::flush;
  for (int elapsed = 0; duration_s == 0 || elapsed < duration_s; ++elapsed) {
    std::this_thread::sleep_for(std::chrono::seconds(1));
  }
  exporter.Stop();
  std::cout << "served " << exporter.requests_served() << " requests\n";
  service.ValueOrDie().reset();
  const std::string scratch = ScratchDevicePath(args);
  if (!scratch.empty()) std::remove(scratch.c_str());
  return 0;
}

/// `wavectl stats`: the per-index storage/codec breakdown of the snapshot a
/// run ends on. This is the operational "how much am I saving" view; the
/// wavekit_bucket_* gauges export the totals row continuously.
int Stats(const Args& args) {
  obs::MetricsRegistry registry;
  auto service = ServeSyntheticWorkload(args, &registry, /*sample_rate=*/0.0,
                                        /*ring_capacity=*/256,
                                        /*slow_op_threshold_us=*/0);
  if (!service.ok()) {
    std::cerr << service.status() << "\n";
    return 1;
  }
  WaveService& svc = *service.ValueOrDie();
  // Released before the service: the constituents return their extents to
  // the service's allocator when the last reference drops.
  std::shared_ptr<const WaveIndex> snapshot = svc.Snapshot();
  int code = 0;
  const std::string format = args.Get("format", "table");
  const auto row_of = [](const std::string& name,
                         const ConstituentIndex::CodecBreakdown& b) {
    return std::vector<std::string>{
        name,
        std::to_string(b.raw_buckets),
        std::to_string(b.bitpack_buckets),
        FormatBytes(b.stored_bytes),
        FormatBytes(b.uncompressed_bytes),
        FormatDouble(b.ratio(), 3)};
  };
  const ConstituentIndex::CodecBreakdown totals = svc.CodecTotals();
  if (format == "json") {
    const auto json_of = [](const ConstituentIndex::CodecBreakdown& b) {
      return std::string("{\"raw_buckets\":") + std::to_string(b.raw_buckets) +
             ",\"bitpack_buckets\":" + std::to_string(b.bitpack_buckets) +
             ",\"stored_bytes\":" + std::to_string(b.stored_bytes) +
             ",\"uncompressed_bytes\":" + std::to_string(b.uncompressed_bytes) +
             ",\"ratio\":" + FormatDouble(b.ratio(), 4) + "}";
    };
    std::cout << "{\"indexes\":[";
    bool first = true;
    for (const auto& constituent : snapshot->constituents()) {
      if (!first) std::cout << ",";
      first = false;
      std::cout << "{\"name\":\"" << constituent->name() << "\",\"packed\":"
                << (constituent->packed() ? "true" : "false")
                << ",\"codecs\":" << json_of(constituent->CodecStats()) << "}";
    }
    std::cout << "],\"total\":" << json_of(totals) << "}\n";
  } else if (format == "table") {
    sim::TablePrinter table(
        {"index", "raw", "bitpack", "stored", "uncompressed", "ratio"});
    table.SetTitle("per-index bucket codec breakdown (codec=" +
                   args.Get("codec", "raw") + ")");
    for (const auto& constituent : snapshot->constituents()) {
      table.AddRow(row_of(constituent->name() +
                              (constituent->packed() ? " (packed)" : ""),
                          constituent->CodecStats()));
    }
    table.AddRow(row_of("TOTAL", totals));
    table.Print(std::cout);
    std::cout << "day=" << svc.current_day() << " constituents="
              << snapshot->num_constituents() << " saved="
              << FormatBytes(totals.uncompressed_bytes - totals.stored_bytes)
              << "\n";
  } else {
    std::cerr << "unknown --format=" << format << " (table|json)\n";
    code = 2;
  }
  snapshot.reset();
  service.ValueOrDie().reset();
  const std::string scratch = ScratchDevicePath(args);
  if (!scratch.empty()) std::remove(scratch.c_str());
  return code;
}

/// Flips one byte in the first live bucket found in the service's wave, via
/// the raw device — silent media corruption underneath a live service (the
/// directory checksum keeps the pre-rot truth, so the next scrub or read
/// must detect the divergence). Returns the "index/bucket" it corrupted.
Result<std::string> CorruptOneBucket(WaveService* svc) {
  const std::shared_ptr<const WaveIndex> snapshot = svc->Snapshot();
  if (snapshot == nullptr) {
    return Status::FailedPrecondition("service not started");
  }
  // Newest constituent first: its days are still in the day store, so the
  // demo can show the full detect -> quarantine -> heal cycle (the oldest
  // soft-window constituent may span pruned days, which heal must skip).
  const auto& constituents = snapshot->constituents();
  for (auto it = constituents.rbegin(); it != constituents.rend(); ++it) {
    const auto& constituent = *it;
    Extent live{0, 0};
    Value bucket;
    WAVEKIT_RETURN_NOT_OK(constituent->ForEachBucket(
        [&](const Value& value, const BucketInfo& info) {
          if (live.length == 0 && info.count > 0) {
            live = Extent{info.extent.offset, info.stored_length()};
            bucket = value;
          }
        }));
    if (live.length == 0) continue;
    std::vector<std::byte> buf(static_cast<size_t>(live.length));
    WAVEKIT_RETURN_NOT_OK(svc->device()->Read(live.offset, buf));
    buf[0] ^= std::byte{0x40};
    WAVEKIT_RETURN_NOT_OK(svc->device()->Write(live.offset, buf));
    return constituent->name() + "/" + bucket;
  }
  return Status::NotFound("no live bucket to corrupt");
}

void PrintScrubReport(const WaveService& svc, const ScrubReport& report) {
  sim::TablePrinter table({"measure", "value"});
  table.SetTitle("scrub pass");
  table.AddRow({"constituents scrubbed",
                std::to_string(report.constituents_scrubbed)});
  table.AddRow({"constituents skipped (unhealthy)",
                std::to_string(report.constituents_skipped)});
  table.AddRow({"buckets verified", std::to_string(report.buckets_verified)});
  table.AddRow({"bytes read", FormatBytes(report.bytes_read)});
  table.AddRow({"checksum mismatches", std::to_string(report.mismatches)});
  table.AddRow({"transient read errors", std::to_string(report.read_errors)});
  std::string quarantined;
  for (const std::string& name : report.quarantined) {
    if (!quarantined.empty()) quarantined += ", ";
    quarantined += name;
  }
  table.AddRow({"quarantined", quarantined.empty() ? "-" : quarantined});
  table.Print(std::cout);
  std::cout << "degraded=" << (svc.degraded() ? "yes" : "no");
  if (svc.degraded()) std::cout << " (" << svc.degraded_detail() << ")";
  std::cout << "\n";
}

/// `wavectl scrub`: the operational pass. Runs the synthetic workload,
/// optionally rots one bucket (--corrupt), scrubs, and (--heal, default on)
/// rebuilds whatever the scrub quarantined.
int Scrub(const Args& args) {
  obs::MetricsRegistry registry;
  auto service = ServeSyntheticWorkload(args, &registry, /*sample_rate=*/0.0,
                                        /*ring_capacity=*/256,
                                        /*slow_op_threshold_us=*/0);
  if (!service.ok()) {
    std::cerr << service.status() << "\n";
    return 1;
  }
  WaveService& svc = *service.ValueOrDie();
  int code = 0;
  if (args.GetBool("corrupt")) {
    auto where = CorruptOneBucket(&svc);
    if (!where.ok()) {
      std::cerr << where.status() << "\n";
      code = 1;
    } else {
      std::cout << "corrupted one byte in " << where.ValueOrDie() << "\n";
    }
  }
  if (code == 0) {
    auto report = svc.Scrub();
    if (!report.ok()) {
      std::cerr << report.status() << "\n";
      code = 1;
    } else {
      PrintScrubReport(svc, report.ValueOrDie());
      if (args.Get("heal", "true") == "true" &&
          !report.ValueOrDie().quarantined.empty()) {
        auto healed = svc.Heal();
        if (!healed.ok()) {
          std::cerr << healed.status() << "\n";
          code = 1;
        } else {
          std::cout << "healed=" << healed.ValueOrDie().healed
                    << " skipped=" << healed.ValueOrDie().skipped
                    << " degraded=" << (svc.degraded() ? "yes" : "no") << "\n";
        }
      }
    }
  }
  service.ValueOrDie().reset();
  const std::string scratch = ScratchDevicePath(args);
  if (!scratch.empty()) std::remove(scratch.c_str());
  return code;
}

/// `wavectl verify`: the CI-able integrity check. Same verification sweep as
/// scrub (corruption still quarantines — it is real), but frames the result
/// as pass/fail and exits non-zero on any checksum mismatch.
int Verify(const Args& args) {
  obs::MetricsRegistry registry;
  auto service = ServeSyntheticWorkload(args, &registry, /*sample_rate=*/0.0,
                                        /*ring_capacity=*/256,
                                        /*slow_op_threshold_us=*/0);
  if (!service.ok()) {
    std::cerr << service.status() << "\n";
    return 1;
  }
  WaveService& svc = *service.ValueOrDie();
  int code = 0;
  if (args.GetBool("corrupt")) {
    auto where = CorruptOneBucket(&svc);
    if (where.ok()) {
      std::cout << "corrupted one byte in " << where.ValueOrDie() << "\n";
    }
  }
  auto report = svc.Scrub();
  if (!report.ok()) {
    std::cerr << report.status() << "\n";
    code = 1;
  } else {
    const ScrubReport& r = report.ValueOrDie();
    if (r.mismatches == 0 && r.read_errors == 0) {
      std::cout << "INTEGRITY OK: " << r.buckets_verified << " buckets ("
                << FormatBytes(r.bytes_read) << ") verified across "
                << r.constituents_scrubbed << " constituents\n";
    } else {
      std::cout << "INTEGRITY FAILED: " << r.mismatches
                << " checksum mismatch(es), " << r.read_errors
                << " read error(s)";
      for (const std::string& name : r.quarantined) {
        std::cout << " quarantined=" << name;
      }
      std::cout << "\n";
      code = 1;
    }
  }
  service.ValueOrDie().reset();
  const std::string scratch = ScratchDevicePath(args);
  if (!scratch.empty()) std::remove(scratch.c_str());
  return code;
}

/// One timed I/O phase of bench-io.
struct IoPhase {
  std::string name;
  uint64_t ops = 0;
  uint64_t bytes = 0;
  double seconds = 0;

  double avg_us() const { return ops > 0 ? seconds * 1e6 / ops : 0; }
  double mb_per_s() const {
    return seconds > 0 ? static_cast<double>(bytes) / 1e6 / seconds : 0;
  }
};

/// fio-style microbenchmark of one storage backend, reporting the two
/// numbers the Section 5 cost model needs: seek time (random scalar
/// latency) and transfer rate (sequential bandwidth).
int BenchIo(const Args& args) {
  const std::string backend = args.Get("backend", "file");
  std::string path = args.Get("path", "");
  const bool own_path = path.empty();
  if (own_path) {
    path = "/tmp/wavectl_bench_io_" + std::to_string(::getpid()) + ".dat";
    std::remove(path.c_str());
  }
  const uint64_t size_bytes =
      static_cast<uint64_t>(args.GetInt("size-mb", 64, 0, INT_MAX)) << 20;
  const uint64_t block =
      static_cast<uint64_t>(args.GetInt("block", 4096, 0, INT_MAX));
  const size_t batch =
      static_cast<size_t>(args.GetInt("batch", 64, 0, INT_MAX));
  const uint64_t ops =
      static_cast<uint64_t>(args.GetInt("ops", 2000, 0, INT_MAX));
  if (block == 0 || size_bytes < block || batch == 0 || ops == 0) {
    std::cerr << "bench-io: need size-mb*MiB >= block > 0, batch > 0, "
                 "ops > 0\n";
    return 2;
  }

  BackendConfig config;
  config.path = path;
  config.capacity = size_bytes;
  config.direct_io = args.GetBool("direct");
  config.queue_depth = args.GetInt("queue-depth", 64);
  auto opened = BackendRegistry::Global().Create(backend, config);
  if (!opened.ok()) {
    std::cerr << opened.status() << "\n";
    return 1;
  }
  std::unique_ptr<Device> device = std::move(opened).ValueOrDie();

  const auto timed = [](IoPhase* phase, const std::function<Status()>& body) {
    const auto t0 = std::chrono::steady_clock::now();
    Status status = body();
    phase->seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return status;
  };
  Rng rng(static_cast<uint64_t>(args.GetInt("seed", 42)));
  const uint64_t blocks_in_file = size_bytes / block;
  const auto random_offset = [&] { return rng.Uniform(blocks_in_file) * block; };

  std::vector<IoPhase> phases;
  Status status = Status::OK();

  // Sequential write (covers the file, so later reads hit real bytes),
  // then sequential read: the model's transfer rate.
  const uint64_t seq_chunk = std::max<uint64_t>(block, 256 * 1024);
  std::vector<std::byte> chunk(seq_chunk);
  for (size_t i = 0; i < chunk.size(); ++i) {
    chunk[i] = static_cast<std::byte>((i * 131) & 0xFF);
  }
  {
    IoPhase phase{"seq write " + std::to_string(seq_chunk / 1024) + "K"};
    status = timed(&phase, [&] {
      for (uint64_t offset = 0; offset + seq_chunk <= size_bytes;
           offset += seq_chunk) {
        WAVEKIT_RETURN_NOT_OK(device->Write(offset, chunk));
        ++phase.ops;
        phase.bytes += seq_chunk;
      }
      return device->Sync();
    });
    phases.push_back(phase);
  }
  if (status.ok()) {
    IoPhase phase{"seq read " + std::to_string(seq_chunk / 1024) + "K"};
    status = timed(&phase, [&] {
      for (uint64_t offset = 0; offset + seq_chunk <= size_bytes;
           offset += seq_chunk) {
        WAVEKIT_RETURN_NOT_OK(device->Read(offset, chunk));
        ++phase.ops;
        phase.bytes += seq_chunk;
      }
      return Status::OK();
    });
    phases.push_back(phase);
  }

  // Random scalar ops: the model's seek time.
  std::vector<std::byte> buf(block);
  if (status.ok()) {
    IoPhase phase{"rand read " + std::to_string(block) + "B scalar"};
    status = timed(&phase, [&] {
      for (uint64_t i = 0; i < ops; ++i) {
        WAVEKIT_RETURN_NOT_OK(device->Read(random_offset(), buf));
        ++phase.ops;
        phase.bytes += block;
      }
      return Status::OK();
    });
    phases.push_back(phase);
  }
  if (status.ok()) {
    IoPhase phase{"rand write " + std::to_string(block) + "B scalar"};
    status = timed(&phase, [&] {
      for (uint64_t i = 0; i < ops; ++i) {
        WAVEKIT_RETURN_NOT_OK(device->Write(random_offset(), buf));
        ++phase.ops;
        phase.bytes += block;
      }
      return device->Sync();
    });
    phases.push_back(phase);
  }

  // Random batched ops at --batch extents per call: what the maintenance
  // write path (and a ring backend) actually sees.
  const auto random_batch = [&] {
    // Distinct blocks per batch: overlap would force call-order fallback.
    std::vector<uint64_t> picks;
    while (picks.size() < batch) {
      const uint64_t offset = random_offset();
      bool duplicate = false;
      for (uint64_t p : picks) duplicate |= (p == offset);
      if (!duplicate) picks.push_back(offset);
    }
    std::vector<Extent> extents;
    extents.reserve(batch);
    for (uint64_t p : picks) extents.push_back({p, block});
    return extents;
  };
  std::vector<std::byte> batch_buf(batch * block);
  const uint64_t batch_calls = std::max<uint64_t>(1, ops / batch);
  if (status.ok()) {
    IoPhase phase{"rand read batched x" + std::to_string(batch)};
    status = timed(&phase, [&] {
      for (uint64_t i = 0; i < batch_calls; ++i) {
        WAVEKIT_RETURN_NOT_OK(device->ReadBatch(random_batch(), batch_buf));
        phase.ops += batch;
        phase.bytes += batch * block;
      }
      return Status::OK();
    });
    phases.push_back(phase);
  }
  if (status.ok()) {
    IoPhase phase{"rand write batched x" + std::to_string(batch)};
    status = timed(&phase, [&] {
      for (uint64_t i = 0; i < batch_calls; ++i) {
        WAVEKIT_RETURN_NOT_OK(device->WriteBatch(random_batch(), batch_buf));
        phase.ops += batch;
        phase.bytes += batch * block;
      }
      return device->Sync();
    });
    phases.push_back(phase);
  }

  device.reset();
  if (own_path) std::remove(path.c_str());
  if (!status.ok()) {
    std::cerr << status << "\n";
    return 1;
  }

  sim::TablePrinter table({"phase", "ops", "avg latency", "throughput"});
  table.SetTitle("bench-io: backend=" + backend +
                 (config.direct_io ? " (O_DIRECT)" : "") + ", " +
                 std::to_string(size_bytes >> 20) + " MiB at " + path);
  for (const IoPhase& phase : phases) {
    table.AddRow({phase.name, std::to_string(phase.ops),
                  FormatDouble(phase.avg_us(), 1) + " us",
                  FormatDouble(phase.mb_per_s(), 1) + " MB/s"});
  }
  table.Print(std::cout);

  // Map onto the Section 5 cost model (CostModel::seek_seconds,
  // CostModel::transfer_bytes_per_second; Table 12 uses 14 ms and 10 MB/s).
  const IoPhase& seq_read = phases[1];
  const IoPhase& rand_read = phases[2];
  std::cout << "\ncalibrated model parameters for this device:\n"
            << "  seek_seconds              = "
            << FormatDouble(rand_read.avg_us() / 1e6, 6) << "  ("
            << FormatDouble(rand_read.avg_us() / 1000.0, 3) << " ms vs the "
            << "paper's 14 ms)\n"
            << "  transfer_bytes_per_second = "
            << FormatDouble(seq_read.mb_per_s() * 1e6, 0) << "  ("
            << FormatDouble(seq_read.mb_per_s(), 1) << " MB/s vs the paper's "
            << "10 MB/s)\n";
  return 0;
}

// --- waved client subcommands ----------------------------------------------
//
// wavectl is also the operator CLI for a running waved (tools/waved.cc):
//   wavectl probe --port=P --value=w00000001 [--tenant=0] [--lo=..] [--hi=..]
//   wavectl scan --port=P [--tenant=0] [--lo=..] [--hi=..] [--max=20]
//   wavectl advance --port=P [--tenant=0] [--day=N] [--records=200] [--seed=..]
//   wavectl server-stats --port=P [--tenant=0]
//   wavectl server-health --port=P [--tenant=0]

Result<std::unique_ptr<serve::Client>> ConnectToServer(const Args& args) {
  serve::Client::Options options;
  options.host = args.Get("host", "127.0.0.1");
  options.port = static_cast<uint16_t>(args.GetInt("port", 8787, 0, 65535));
  options.tenant_id =
      static_cast<uint16_t>(args.GetInt("tenant", 0, 0, 65535));
  return serve::Client::Connect(options);
}

DayRange RangeFromArgs(const Args& args) {
  DayRange range = DayRange::All();
  if (args.GetInt("lo", INT32_MIN) != INT32_MIN) {
    range.lo = args.GetInt("lo", 0);
  }
  if (args.GetInt("hi", INT32_MIN) != INT32_MIN) {
    range.hi = args.GetInt("hi", 0);
  }
  return range;
}

/// Prints a reply's result prefix; returns the exit code (0 for ok/partial).
int ReportResult(const serve::WireResult& result) {
  if (result.code == StatusCode::kOk) return 0;
  std::cerr << StatusCodeToString(result.code)
            << (result.detail.empty() ? "" : ": " + result.detail) << "\n";
  return result.code == StatusCode::kPartialResult ? 0 : 1;
}

int RemoteProbe(const Args& args) {
  const std::string value = args.Get("value", "");
  if (value.empty()) {
    std::cerr << "wavectl probe: --value is required\n";
    return 2;
  }
  auto client = ConnectToServer(args);
  if (!client.ok()) {
    std::cerr << client.status() << "\n";
    return 1;
  }
  auto reply = (*client)->Probe(RangeFromArgs(args), value);
  if (!reply.ok()) {
    std::cerr << reply.status() << "\n";
    return 1;
  }
  const int code = ReportResult(reply->result);
  std::cout << "entries=" << reply->entries.size()
            << " accessed=" << reply->stats.indexes_accessed
            << " skipped=" << reply->stats.indexes_skipped
            << " unhealthy=" << reply->stats.indexes_unhealthy << "\n";
  const int limit = args.GetInt("limit", 10);
  int shown = 0;
  for (const Entry& entry : reply->entries) {
    if (shown++ >= limit) {
      std::cout << "  ... (" << reply->entries.size() - shown + 1
                << " more)\n";
      break;
    }
    std::cout << "  record=" << entry.record_id << " day=" << entry.day
              << " aux=" << entry.aux << "\n";
  }
  return code;
}

int RemoteScan(const Args& args) {
  auto client = ConnectToServer(args);
  if (!client.ok()) {
    std::cerr << client.status() << "\n";
    return 1;
  }
  auto reply = (*client)->Scan(
      RangeFromArgs(args),
      static_cast<uint32_t>(args.GetInt("max", 20, 0, INT_MAX)));
  if (!reply.ok()) {
    std::cerr << reply.status() << "\n";
    return 1;
  }
  const int code = ReportResult(reply->result);
  std::cout << "entries=" << reply->entries.size()
            << " accessed=" << reply->stats.indexes_accessed << "\n";
  for (const Entry& entry : reply->entries) {
    std::cout << "  record=" << entry.record_id << " day=" << entry.day
              << " aux=" << entry.aux << "\n";
  }
  return code;
}

int RemoteAdvance(const Args& args) {
  auto client = ConnectToServer(args);
  if (!client.ok()) {
    std::cerr << client.status() << "\n";
    return 1;
  }
  // Day defaults to current_day + 1 (what a scheme will accept next).
  Day day = args.GetInt("day", 0);
  if (day == 0) {
    auto stats = (*client)->Stats();
    if (!stats.ok()) {
      std::cerr << stats.status() << "\n";
      return 1;
    }
    day = stats->current_day + 1;
  }
  workload::NetnewsConfig config;
  config.articles_per_day =
      static_cast<uint64_t>(args.GetInt("records", 200, 0, INT_MAX));
  config.seed = static_cast<uint64_t>(args.GetInt("seed", 42)) +
                static_cast<uint64_t>(args.GetInt("tenant", 0, 0, 65535)) *
                    1000003u;
  workload::NetnewsGenerator netnews(config);
  auto reply = (*client)->Advance(netnews.GenerateDay(day));
  if (!reply.ok()) {
    std::cerr << reply.status() << "\n";
    return 1;
  }
  const int code = ReportResult(reply->result);
  if (!reply->result.has_body()) return code;  // a refusal carries no day
  std::cout << "advanced to day " << day << " (server current_day="
            << reply->current_day << ")\n";
  return code;
}

int RemoteStats(const Args& args) {
  auto client = ConnectToServer(args);
  if (!client.ok()) {
    std::cerr << client.status() << "\n";
    return 1;
  }
  auto reply = (*client)->Stats();
  if (!reply.ok()) {
    std::cerr << reply.status() << "\n";
    return 1;
  }
  const int code = ReportResult(reply->result);
  sim::TablePrinter table({"metric", "value"});
  table.SetTitle("tenant " + std::to_string(args.GetInt("tenant", 0)));
  table.AddRow({"current_day", std::to_string(reply->current_day)});
  table.AddRow({"degraded", reply->degraded ? "yes" : "no"});
  table.AddRow({"probes", std::to_string(reply->probes)});
  table.AddRow({"scans", std::to_string(reply->scans)});
  table.AddRow({"days_advanced", std::to_string(reply->days_advanced)});
  table.AddRow({"async_advances", std::to_string(reply->async_advances)});
  table.AddRow({"pending_advances", std::to_string(reply->pending_advances)});
  table.AddRow({"degraded_advances", std::to_string(reply->degraded_advances)});
  table.AddRow({"partial_results", std::to_string(reply->partial_results)});
  table.Print(std::cout);
  return code;
}

int RemoteHealth(const Args& args) {
  auto client = ConnectToServer(args);
  if (!client.ok()) {
    std::cerr << client.status() << "\n";
    return 1;
  }
  auto reply = (*client)->Health();
  if (!reply.ok()) {
    std::cerr << reply.status() << "\n";
    return 1;
  }
  if (reply->degraded) {
    std::cout << "DEGRADED"
              << (reply->detail.empty() ? "" : ": " + reply->detail) << "\n";
    return 1;
  }
  std::cout << "ok\n";
  return 0;
}

void PrintUsage(std::ostream& out) {
  out << "usage: wavectl <schemes|run|model|advise|metrics|trace|top|"
         "export-trace|events|serve-metrics|stats|scrub|verify|bench-io|"
         "probe|scan|advance|server-stats|server-health> "
         "[--flag=value ...]\n"
         "see the header of tools/wavectl.cc for the full flag list\n";
}

int Main(int argc, char** argv) {
  // Flags every workload-driven subcommand shares (the synthetic Netnews
  // service behind metrics/trace/top/export-trace/events/serve-metrics).
  const std::vector<std::string> workload = {
      "scheme",       "window",  "indexes", "technique",   "records",
      "probes",       "scans",   "days",    "cache-blocks", "backend",
      "path",         "direct",  "queue-depth", "codec"};
  const auto plus = [&workload](std::initializer_list<const char*> extra) {
    std::vector<std::string> flags = workload;
    flags.insert(flags.end(), extra.begin(), extra.end());
    return flags;
  };

  struct Command {
    std::function<int(const Args&)> handler;
    std::vector<std::string> flags;
  };
  const std::map<std::string, Command> commands = {
      {"schemes", {[](const Args&) { return Schemes(); }, {}}},
      {"run",
       {RunExperiment,
        {"scheme", "window", "indexes", "technique", "workload", "days",
         "records", "probes", "scans", "case", "disks", "per-day", "csv"}}},
      {"model",
       {Model, {"case", "scheme", "indexes", "technique", "window"}}},
      {"advise",
       {Advise,
        {"case", "window", "hard-window", "no-packed-shadow", "no-delete",
         "max-indexes", "max-probe-ms", "top"}}},
      {"metrics", {Metrics, plus({"format"})}},
      {"trace", {Trace, plus({"sample", "ring", "slow-us"})}},
      {"top", {Top, plus({})}},
      {"export-trace",
       {ExportTrace, plus({"sample", "ring", "slow-us", "out"})}},
      {"events", {Events, plus({"ring", "jsonl", "format"})}},
      {"stats", {Stats, plus({"format"})}},
      {"scrub", {Scrub, plus({"corrupt", "heal"})}},
      {"verify", {Verify, plus({"corrupt"})}},
      {"serve-metrics",
       {ServeMetrics, plus({"port", "duration-s", "interval-ms"})}},
      {"bench-io",
       {BenchIo,
        {"backend", "path", "direct", "queue-depth", "size-mb", "block",
         "batch", "ops", "seed"}}},
      {"probe",
       {RemoteProbe,
        {"host", "port", "tenant", "value", "lo", "hi", "limit"}}},
      {"scan", {RemoteScan, {"host", "port", "tenant", "lo", "hi", "max"}}},
      {"advance",
       {RemoteAdvance, {"host", "port", "tenant", "day", "records", "seed"}}},
      {"server-stats", {RemoteStats, {"host", "port", "tenant"}}},
      {"server-health", {RemoteHealth, {"host", "port", "tenant"}}},
  };

  const std::string command = argc > 1 ? argv[1] : "";
  const auto it = commands.find(command);
  if (it == commands.end()) {
    if (!command.empty()) {
      std::cerr << "wavectl: unknown subcommand '" << command << "'\n";
    }
    PrintUsage(std::cerr);
    return 2;
  }
  const Args args(argc, argv, /*first=*/2);
  const std::vector<std::string> unknown = args.Unknown(it->second.flags);
  if (!unknown.empty()) {
    std::cerr << "wavectl " << command << ": unknown argument";
    for (const std::string& arg : unknown) std::cerr << " '" << arg << "'";
    std::cerr << "\n";
    PrintUsage(std::cerr);
    return 2;
  }
  if (const Result<CodecMode> codec =
          CodecModeFromName(args.Get("codec", "raw"));
      !codec.ok()) {
    std::cerr << "wavectl " << command << ": " << codec.status() << "\n";
    return 2;
  }
  return it->second.handler(args);
}

}  // namespace
}  // namespace wavekit

int main(int argc, char** argv) { return wavekit::Main(argc, argv); }
