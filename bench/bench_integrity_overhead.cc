// Integrity overhead: per-bucket CRC-32C verification on vs. off.
//
// PR 8 checksums every bucket's live prefix and verifies it at the trust
// boundary — whenever bytes cross the medium into the cache (probe, timed
// probe, scan, coalesced ReadBatch scan). Steady-state reads served from
// verified-resident cache bytes skip re-hashing (the background scrubber
// owns rot under resident blocks, reading the medium beneath the cache), so
// the bar is that end-to-end integrity costs < 5% of single-thread probe AND
// full-window scan throughput.
//
// Rounds alternate off/on (A/B interleaving) so clock drift and cache state
// hit both variants equally. `--smoke` runs a miniature configuration and
// skips the timing-based shape check (structural checks still run).
//
// Emits BENCH_integrity.json.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
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
  int days = 10;              // transitions past the start window
  uint64_t records = 2000;    // articles per day (dense postings lists)
  int rounds = 6;             // timed rounds per variant, interleaved
  int probes_per_round = 20000;
  int scans_per_round = 8;
};

struct Variant {
  std::string name;
  std::unique_ptr<WaveService> service;
  double probe_seconds = 0;
  double scan_seconds = 0;
  uint64_t probes = 0;
  uint64_t scans = 0;
  uint64_t entries_scanned = 0;

  double probes_per_sec() const {
    return probe_seconds > 0 ? probes / probe_seconds : 0;
  }
  double scans_per_sec() const {
    return scan_seconds > 0 ? scans / scan_seconds : 0;
  }
};

Status BuildVariant(const Config& config, bool verify, Variant* variant) {
  WaveService::Options options;
  options.scheme = SchemeKind::kWata;
  options.config.window = config.window;
  options.config.num_indexes = config.num_indexes;
  options.config.verify_checksums = verify;
  // Large enough (32 MiB) for the whole index to stay resident: the bench
  // measures the steady state, where reads are cache hits and the verifying
  // variant serves trusted bytes (medium reads were verified when the blocks
  // were filled; the scrubber owns rot under resident blocks).
  options.cache_blocks = 8192;
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

/// One timed round: single-thread probes, then full-window segment scans.
Status RunRound(const Config& config, Variant* variant) {
  workload::NetnewsConfig netnews_config;
  netnews_config.articles_per_day = config.records;
  workload::NetnewsGenerator netnews(netnews_config);
  Rng rng(config.probes_per_round);  // same word sequence for every round
  std::vector<Entry> out;
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < config.probes_per_round; ++i) {
    WAVEKIT_RETURN_NOT_OK(
        variant->service->IndexProbe(netnews.SampleWord(rng), &out));
  }
  variant->probe_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  variant->probes += static_cast<uint64_t>(config.probes_per_round);

  const DayRange window =
      DayRange::Window(variant->service->current_day(), config.window);
  t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < config.scans_per_round; ++i) {
    uint64_t visited = 0;
    WAVEKIT_RETURN_NOT_OK(variant->service->TimedSegmentScan(
        window, [&visited](const Value&, const Entry&) { ++visited; }));
    variant->entries_scanned += visited;
  }
  variant->scan_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  variant->scans += static_cast<uint64_t>(config.scans_per_round);
  return Status::OK();
}

double OverheadPct(double off_rate, double on_rate) {
  return off_rate > 0 ? (off_rate - on_rate) / off_rate * 100.0 : 0.0;
}

void WriteJson(const Config& config, const Variant& off, const Variant& on,
               double probe_overhead_pct, double scan_overhead_pct,
               uint64_t verified_buckets, uint64_t trusted_buckets) {
  std::ofstream out("BENCH_integrity.json");
  out << "{\n"
      << "  \"bench\": \"integrity_overhead\",\n";
  bench::WriteProvenance(out, config.rounds);
  out << "  \"smoke\": " << (config.smoke ? "true" : "false") << ",\n"
      << "  \"window\": " << config.window << ",\n"
      << "  \"days\": " << config.days << ",\n"
      << "  \"records_per_day\": " << config.records << ",\n"
      << "  \"rounds\": " << config.rounds << ",\n"
      << "  \"probes_per_variant\": " << off.probes << ",\n"
      << "  \"scans_per_variant\": " << off.scans << ",\n"
      << "  \"entries_per_scan\": "
      << (on.scans ? on.entries_scanned / on.scans : 0) << ",\n"
      << "  \"verify_off_probes_per_sec\": " << off.probes_per_sec() << ",\n"
      << "  \"verify_on_probes_per_sec\": " << on.probes_per_sec() << ",\n"
      << "  \"verify_off_scans_per_sec\": " << off.scans_per_sec() << ",\n"
      << "  \"verify_on_scans_per_sec\": " << on.scans_per_sec() << ",\n"
      << "  \"probe_overhead_pct\": " << probe_overhead_pct << ",\n"
      << "  \"scan_overhead_pct\": " << scan_overhead_pct << ",\n"
      << "  \"verified_buckets\": " << verified_buckets << ",\n"
      << "  \"trusted_buckets\": " << trusted_buckets << ",\n"
      << "  \"corruptions_detected\": "
      << on.service->integrity().corruptions_detected.load() << "\n"
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
    config.scans_per_round = 4;
  }

  bench::Banner(
      "Integrity overhead: per-bucket CRC-32C verification on vs. off",
      "verification is one sequential CRC pass over bytes the query already "
      "read; probes and scans must stay within 5%");

  Variant off, on;
  off.name = "verify_off";
  on.name = "verify_on";
  Status status = BuildVariant(config, /*verify=*/false, &off);
  if (status.ok()) status = BuildVariant(config, /*verify=*/true, &on);
  if (!status.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", status.ToString().c_str());
    return 1;
  }

  // Warmup (untimed): fault the caches for both variants.
  Config warmup = config;
  warmup.probes_per_round = config.probes_per_round / 4 + 1;
  warmup.scans_per_round = 1;
  status = RunRound(warmup, &off);
  if (status.ok()) status = RunRound(warmup, &on);
  off = Variant{off.name, std::move(off.service)};
  on = Variant{on.name, std::move(on.service)};

  for (int round = 0; status.ok() && round < config.rounds; ++round) {
    status = RunRound(config, &off);
    if (status.ok()) status = RunRound(config, &on);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "bench loop failed: %s\n", status.ToString().c_str());
    return 1;
  }

  const double probe_overhead =
      OverheadPct(off.probes_per_sec(), on.probes_per_sec());
  const double scan_overhead =
      OverheadPct(off.scans_per_sec(), on.scans_per_sec());
  const uint64_t verified = on.service->integrity().verified_buckets.load();
  const uint64_t trusted = on.service->integrity().trusted_buckets.load();

  std::printf("\n%-12s %12s %12s %14s %12s\n", "variant", "probes",
              "probes/sec", "scans/sec", "entries/scan");
  for (const Variant* v : {&off, &on}) {
    std::printf("%-12s %12llu %12.0f %14.2f %12llu\n", v->name.c_str(),
                static_cast<unsigned long long>(v->probes),
                v->probes_per_sec(), v->scans_per_sec(),
                static_cast<unsigned long long>(
                    v->scans ? v->entries_scanned / v->scans : 0));
  }
  std::printf("\n  verified buckets   : %llu\n",
              static_cast<unsigned long long>(verified));
  std::printf("  trusted buckets    : %llu\n",
              static_cast<unsigned long long>(trusted));
  std::printf("  probe overhead     : %.2f%%\n", probe_overhead);
  std::printf("  scan overhead      : %.2f%%\n", scan_overhead);

  WriteJson(config, off, on, probe_overhead, scan_overhead, verified, trusted);
  std::printf("Wrote BENCH_integrity.json\n");

  bench::ShapeChecks checks;
  checks.Check(on.entries_scanned == off.entries_scanned,
               "both variants scanned identical entry counts");
  checks.Check(verified > 0,
               "verifying variant actually checksummed buckets on the read "
               "path");
  checks.Check(trusted > 0,
               "steady-state reads were served from verified-resident cache "
               "bytes (trust-boundary skip engaged)");
  checks.Check(off.service->integrity().verified_buckets.load() == 0,
               "non-verifying variant skipped checksum work entirely");
  checks.Check(on.service->integrity().corruptions_detected.load() == 0,
               "clean run detected no corruption (no false positives)");
  if (!config.smoke) {
    checks.Check(probe_overhead < 5.0,
                 "checksum verification costs < 5% probe throughput");
    checks.Check(scan_overhead < 5.0,
                 "checksum verification costs < 5% scan throughput");
  }
  return checks.Finish();
}
