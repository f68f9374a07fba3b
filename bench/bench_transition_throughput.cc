// Transition throughput: parallel maintenance pipeline vs. the serial path.
//
// The paper's Section 5 measures transition cost in I/O operations; this
// bench measures the wall-clock effect of the parallel maintenance pipeline
// on packed REINDEX transitions (each one rebuilds a cluster from scratch —
// the heaviest per-day maintenance of any hard-window scheme).
//
// The backing store models a disk's per-request overhead with a real sleep
// per write REQUEST below the meter: one Write call is one request, and a
// WriteBatch counts one request per contiguous run of extents (a batched
// command queue / scatter-gather write). The serial builder issues one Write
// per bucket; the parallel builder partitions by value range and flushes
// ~1 MiB WriteBatch calls whose extents are adjacent, so the request count
// collapses and the remaining requests overlap across maintenance threads.
// Wall-clock CPU parallelism is deliberately not required — the speedup is
// structural (fewer, batched, overlapped requests), so the result is
// meaningful even on a single-core host.
//
// Also demonstrates background maintenance: with AdvanceDayAsync the
// transition runs on a maintenance runner while query threads keep probing
// the published snapshot throughout.
//
// Emits BENCH_transition.json. `--smoke` runs a miniature configuration and
// skips the timing-based shape checks (CI smoke coverage).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "storage/device.h"
#include "wave/wave_service.h"

namespace wavekit {
namespace {

constexpr auto kWriteRequestLatency = std::chrono::microseconds(25);

struct BenchConfig {
  int window = 8;
  int num_indexes = 2;  // clusters of 4 days: a heavy rebuild per transition
  int records_per_day = 4000;
  uint64_t num_values = 512;
  int measured_days = 12;
  bool smoke = false;
};

/// Models a disk's per-request overhead: every write request parks the
/// calling thread for a fixed service time before the memory copy. Sits
/// BELOW the meter (installed via WaveService::Options::device_interposer).
/// Reads pass through untouched — this bench measures the write-heavy
/// maintenance path, and probe traffic must not be throttled by it.
class SimulatedDiskDevice : public Device {
 public:
  explicit SimulatedDiskDevice(Device* inner) : inner_(inner) {}

  Status Read(uint64_t offset, std::span<std::byte> out) override {
    return inner_->Read(offset, out);
  }

  Status Write(uint64_t offset, std::span<const std::byte> data) override {
    write_requests_.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(kWriteRequestLatency);
    return inner_->Write(offset, data);
  }

  Status WriteBatch(std::span<const Extent> extents,
                    std::span<const std::byte> data) override {
    // One request per contiguous run of extents (scatter-gather write), then
    // one memory pass for the data.
    uint64_t runs = 0;
    for (size_t i = 0; i < extents.size(); ++i) {
      if (i == 0 || extents[i].offset !=
                        extents[i - 1].offset + extents[i - 1].length) {
        ++runs;
      }
    }
    write_requests_.fetch_add(runs, std::memory_order_relaxed);
    for (uint64_t r = 0; r < runs; ++r) {
      std::this_thread::sleep_for(kWriteRequestLatency);
    }
    return inner_->WriteBatch(extents, data);
  }

  uint64_t capacity() const override { return inner_->capacity(); }

  uint64_t write_requests() const {
    return write_requests_.load(std::memory_order_relaxed);
  }
  void ResetRequests() { write_requests_.store(0, std::memory_order_relaxed); }

 private:
  Device* inner_;
  std::atomic<uint64_t> write_requests_{0};
};

DayBatch MakeBatch(const BenchConfig& config, Day day) {
  DayBatch batch;
  batch.day = day;
  uint64_t rid = static_cast<uint64_t>(day) * 1000000;
  for (int i = 0; i < config.records_per_day; ++i) {
    Record record;
    record.record_id = rid++;
    record.day = day;
    record.values = {"v" + std::to_string(record.record_id % config.num_values)};
    batch.records.push_back(std::move(record));
  }
  return batch;
}

struct Cell {
  int threads = 0;
  int days = 0;
  double seconds = 0.0;
  double days_per_sec = 0.0;
  uint64_t write_requests = 0;  // during the measured transitions
};

struct Variant {
  std::unique_ptr<WaveService> service;
  SimulatedDiskDevice* sim = nullptr;
};

Variant MakeVariant(const BenchConfig& config, int maintenance_threads) {
  Variant variant;
  WaveService::Options options;
  options.scheme = SchemeKind::kReindex;
  options.config.window = config.window;
  options.config.num_indexes = config.num_indexes;
  options.config.technique = UpdateTechniqueKind::kPackedShadow;
  options.num_maintenance_threads = maintenance_threads;
  options.device_interposer = [&variant](Device* inner) {
    auto sim = std::make_unique<SimulatedDiskDevice>(inner);
    variant.sim = sim.get();
    return sim;
  };
  auto made = WaveService::Create(std::move(options));
  if (!made.ok()) made.status().Abort("Create");
  variant.service = std::move(made).ValueOrDie();

  std::vector<DayBatch> first;
  for (Day d = 1; d <= config.window; ++d) {
    first.push_back(MakeBatch(config, d));
  }
  Status started = variant.service->Start(std::move(first));
  if (!started.ok()) started.Abort("Start");
  return variant;
}

/// Times `config.measured_days` synchronous transitions.
Cell RunVariant(const BenchConfig& config, Variant& variant, int threads) {
  variant.sim->ResetRequests();
  const auto start = std::chrono::steady_clock::now();
  const Day from = variant.service->current_day();
  for (Day d = from + 1; d <= from + config.measured_days; ++d) {
    Status advanced = variant.service->AdvanceDay(MakeBatch(config, d));
    if (!advanced.ok()) advanced.Abort("AdvanceDay");
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;

  Cell cell;
  cell.threads = threads;
  cell.days = config.measured_days;
  cell.seconds = elapsed.count();
  cell.days_per_sec = cell.seconds > 0 ? config.measured_days / cell.seconds : 0;
  cell.write_requests = variant.sim->write_requests();
  return cell;
}

/// Probes a sample of values and returns the concatenated results, for
/// serial-vs-parallel parity checking.
std::vector<Entry> ProbeSample(const WaveService& service,
                               const BenchConfig& config) {
  std::vector<Entry> all;
  for (uint64_t v = 0; v < config.num_values; v += 7) {
    std::vector<Entry> out;
    Status probed = service.IndexProbe("v" + std::to_string(v), &out);
    if (!probed.ok()) probed.Abort("probe");
    all.insert(all.end(), out.begin(), out.end());
  }
  return all;
}

/// Advances one more day in the background while a reader probes
/// continuously; returns how many probes completed before the advance
/// finished (readers are never blocked by maintenance).
uint64_t ProbesDuringBackgroundAdvance(const BenchConfig& config,
                                       Variant& variant) {
  WaveService& service = *variant.service;
  const Day next = service.current_day() + 1;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> probes{0};
  std::thread reader([&]() {
    uint64_t v = 0;
    while (!done.load(std::memory_order_relaxed)) {
      std::vector<Entry> out;
      Status probed =
          service.IndexProbe("v" + std::to_string(v++ % config.num_values),
                             &out);
      if (!probed.ok()) probed.Abort("probe during advance");
      probes.fetch_add(1, std::memory_order_relaxed);
    }
  });
  service.AdvanceDayAsync(MakeBatch(config, next));
  Status waited = service.WaitForMaintenance();
  if (!waited.ok()) waited.Abort("WaitForMaintenance");
  done.store(true, std::memory_order_relaxed);
  reader.join();
  if (service.current_day() != next) {
    Status::Internal("async advance did not publish").Abort("AdvanceDayAsync");
  }
  return probes.load();
}

void WriteJson(const BenchConfig& config, const std::vector<Cell>& cells,
               double speedup_4v1, uint64_t probes_during_advance) {
  std::ofstream out("BENCH_transition.json");
  out << "{\n"
      << "  \"bench\": \"transition_throughput\",\n";
  bench::WriteProvenance(out, /*repetitions=*/1);
  out << "  \"scheme\": \"REINDEX\",\n"
      << "  \"technique\": \"packed-shadow\",\n"
      << "  \"smoke\": " << (config.smoke ? "true" : "false") << ",\n"
      << "  \"window\": " << config.window << ",\n"
      << "  \"num_indexes\": " << config.num_indexes << ",\n"
      << "  \"records_per_day\": " << config.records_per_day << ",\n"
      << "  \"num_values\": " << config.num_values << ",\n"
      << "  \"measured_days\": " << config.measured_days << ",\n"
      << "  \"write_request_latency_us\": "
      << std::chrono::duration_cast<std::chrono::microseconds>(
             kWriteRequestLatency)
             .count()
      << ",\n"
      << "  \"cells\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    out << "    {\"maintenance_threads\": " << c.threads
        << ", \"days\": " << c.days << ", \"seconds\": " << c.seconds
        << ", \"days_per_sec\": " << c.days_per_sec
        << ", \"write_requests\": " << c.write_requests << "}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"transition_speedup_4_threads_vs_serial\": " << speedup_4v1
      << ",\n"
      << "  \"probes_during_background_advance\": " << probes_during_advance
      << "\n"
      << "}\n";
}

}  // namespace
}  // namespace wavekit

int main(int argc, char** argv) {
  using namespace wavekit;
  BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) config.smoke = true;
  }
  if (config.smoke) {
    config.records_per_day = 400;
    config.num_values = 64;
    config.measured_days = 4;
  }

  bench::Banner(
      "Transition throughput: parallel maintenance pipeline",
      "shadow updating means queries are serviced using the old index while "
      "the new one is built — so the build itself can be parallelized and "
      "batched without any extra concurrency control");

  std::vector<Cell> cells;
  std::vector<std::vector<Entry>> parity;
  uint64_t probes_during_advance = 0;
  for (int threads : {1, 2, 4}) {
    Variant variant = MakeVariant(config, threads);
    cells.push_back(RunVariant(config, variant, threads));
    parity.push_back(ProbeSample(*variant.service, config));
    if (threads == 4) {
      probes_during_advance = ProbesDuringBackgroundAdvance(config, variant);
    }
  }

  std::printf("\n%-20s %8s %10s %14s %16s\n", "maintenance_threads", "days",
              "seconds", "days/sec", "write_requests");
  for (const Cell& c : cells) {
    std::printf("%-20d %8d %10.3f %14.1f %16llu\n", c.threads, c.days,
                c.seconds, c.days_per_sec,
                static_cast<unsigned long long>(c.write_requests));
  }

  const double speedup = cells.front().days_per_sec > 0
                             ? cells.back().days_per_sec /
                                   cells.front().days_per_sec
                             : 0.0;
  std::printf("\n4-thread transition speedup vs serial: %.2fx\n", speedup);
  std::printf("Probes served during one background AdvanceDayAsync: %llu\n",
              static_cast<unsigned long long>(probes_during_advance));

  WriteJson(config, cells, speedup, probes_during_advance);
  std::printf("Wrote BENCH_transition.json\n");

  bench::ShapeChecks checks;
  // Identical query results at every thread count: the parallel pipeline is
  // an execution strategy, not a different index.
  bool parity_ok = true;
  for (size_t i = 1; i < parity.size(); ++i) {
    if (parity[i].size() != parity[0].size()) parity_ok = false;
    for (size_t k = 0; parity_ok && k < parity[i].size(); ++k) {
      if (parity[i][k].record_id != parity[0][k].record_id ||
          parity[i][k].day != parity[0][k].day) {
        parity_ok = false;
      }
    }
  }
  checks.Check(parity_ok,
               "query results identical across maintenance thread counts");
  checks.Check(cells.back().write_requests < cells.front().write_requests,
               "batched writes issue fewer device requests than the serial "
               "per-bucket path");
  if (!config.smoke) {
    checks.Check(speedup >= 2.0,
                 "packed REINDEX transition throughput >= 2x at 4 maintenance "
                 "threads vs serial");
  }
  return checks.Finish();
}
