// Concurrent query throughput: sharded block cache vs. a single global mutex.
//
// The paper's motivation for shadow updates (Section 2.1) is that immutable
// constituents need "no concurrency control" on the read path. This bench
// quantifies the payoff at the storage layer: N reader threads issue Zipfian
// TimedIndexProbes (and TimedSegmentScans) against the same wave index, once
// with every block-cache access serialized behind one global mutex (a
// one-shard ShardedCachedDevice, the pre-sharding design) and once through
// the 16-shard lock-striped cache.
//
// The backing store models disk read latency with a real sleep below the
// cache, so a cache miss parks its reader the way a disk read would. Under
// the global mutex that sleep happens INSIDE the one lock — every other
// reader (even cache hits) stalls behind it. Under the sharded cache a miss
// holds only its shard, so misses on different shards overlap and hits on
// other shards proceed. That is the actual production difference, and it is
// what this bench measures — wall-clock CPU parallelism is deliberately not
// required, so the result is meaningful even on a single-core host.
//
// Emits BENCH_concurrent.json with every (variant, threads) cell plus the
// headline 4-thread probe speedup.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "obs/attach.h"
#include "storage/device.h"
#include "storage/extent_allocator.h"
#include "storage/metered_device.h"
#include "storage/sharded_cached_device.h"
#include "util/random.h"
#include "wave/day_store.h"
#include "wave/scheme_factory.h"
#include "wave/wave_index.h"

namespace wavekit {
namespace {

constexpr uint64_t kCapacity = uint64_t{1} << 26;  // 64 MiB backing device
constexpr uint64_t kBlockSize = 4096;
constexpr size_t kCacheBlocks = 64;  // 256 KiB: hot set cached, tail misses
constexpr size_t kNumShards = 16;
constexpr int kWindow = 8;
constexpr int kNumIndexes = 4;
constexpr int kSteadyStateDays = 16;
constexpr int kRecordsPerDay = 4000;
constexpr uint64_t kNumValues = 4096;
constexpr double kZipfTheta = 0.99;
constexpr auto kReadLatency = std::chrono::microseconds(25);
constexpr auto kWarmup = std::chrono::milliseconds(200);
constexpr auto kMeasure = std::chrono::milliseconds(400);

/// Models a disk: each read parks the calling thread for a fixed service
/// time before the memory copy. Sits BELOW the meter and the cache, so only
/// cache misses pay it — exactly like a real device. Writes are not modeled
/// (this bench measures the read path; the writer is idle while readers run).
class SimulatedLatencyDevice : public Device {
 public:
  explicit SimulatedLatencyDevice(Device* inner) : inner_(inner) {}

  Status Read(uint64_t offset, std::span<std::byte> out) override {
    std::this_thread::sleep_for(kReadLatency);
    return inner_->Read(offset, out);
  }
  Status Write(uint64_t offset, std::span<const std::byte> data) override {
    return inner_->Write(offset, data);
  }
  uint64_t capacity() const override { return inner_->capacity(); }

 private:
  Device* inner_;
};

DayBatch MakeZipfBatch(Day day) {
  DayBatch batch;
  batch.day = day;
  uint64_t rid = static_cast<uint64_t>(day) * 1000000;
  for (int i = 0; i < kRecordsPerDay; ++i) {
    Record record;
    record.record_id = rid++;
    record.day = day;
    record.values = {"v" + std::to_string(record.record_id % kNumValues)};
    batch.records.push_back(std::move(record));
  }
  return batch;
}

/// One fully built steady-state wave index doing its I/O through `io_device`.
struct Fixture {
  Fixture(Device* io_device_in, MeteredDevice* device_in,
          ExtentAllocator* allocator_in, DayStore* day_store_in) {
    SchemeEnv env{device_in, allocator_in, day_store_in};
    env.io_device = io_device_in;
    SchemeConfig config;
    config.window = kWindow;
    config.num_indexes = kNumIndexes;
    config.technique = UpdateTechniqueKind::kSimpleShadow;
    auto made = MakeScheme(SchemeKind::kWata, env, config);
    if (!made.ok()) made.status().Abort("MakeScheme");
    scheme = std::move(made).ValueOrDie();
    std::vector<DayBatch> first;
    for (Day d = 1; d <= kWindow; ++d) first.push_back(MakeZipfBatch(d));
    Status s = scheme->Start(std::move(first));
    if (!s.ok()) s.Abort("Start");
    for (Day d = kWindow + 1; d <= kWindow + kSteadyStateDays; ++d) {
      s = scheme->Transition(MakeZipfBatch(d));
      if (!s.ok()) s.Abort("Transition");
    }
  }

  std::unique_ptr<Scheme> scheme;
};

struct Cell {
  std::string variant;
  std::string op;
  int threads = 0;
  uint64_t ops = 0;
  double seconds = 0.0;
  double ops_per_sec = 0.0;
};

/// Runs `threads` readers against `wave` for a warmup + measure interval;
/// each reader executes `one_op(rng)` in a loop and the measured iterations
/// are aggregated.
template <typename OneOp>
Cell RunReaders(const std::string& variant, const std::string& op,
                int threads, const OneOp& one_op) {
  std::atomic<bool> measuring{false};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ops{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < threads; ++t) {
    readers.emplace_back([&, t]() {
      Rng rng(0xC0FFEE + 7919 * t);
      uint64_t local = 0;
      bool counted = false;
      while (!stop.load(std::memory_order_relaxed)) {
        one_op(rng);
        if (measuring.load(std::memory_order_relaxed)) {
          ++local;
          counted = true;
        } else if (counted) {
          // Measurement window closed: publish and park until stop.
          ops.fetch_add(local, std::memory_order_relaxed);
          local = 0;
          counted = false;
        }
      }
      if (counted) ops.fetch_add(local, std::memory_order_relaxed);
    });
  }
  std::this_thread::sleep_for(kWarmup);
  const auto start = std::chrono::steady_clock::now();
  measuring.store(true, std::memory_order_relaxed);
  std::this_thread::sleep_for(kMeasure);
  measuring.store(false, std::memory_order_relaxed);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& r : readers) r.join();

  Cell cell;
  cell.variant = variant;
  cell.op = op;
  cell.threads = threads;
  cell.ops = ops.load();
  cell.seconds = elapsed.count();
  cell.ops_per_sec = cell.seconds > 0 ? cell.ops / cell.seconds : 0.0;
  return cell;
}

std::vector<Cell> BenchVariant(const std::string& variant, Device* io_device,
                               MeteredDevice* device,
                               ExtentAllocator* allocator,
                               DayStore* day_store) {
  Fixture fixture(io_device, device, allocator, day_store);
  // Readers query an immutable snapshot, exactly like WaveService readers.
  const WaveIndex snapshot = fixture.scheme->wave();
  const ZipfDistribution zipf(kNumValues, kZipfTheta);

  std::vector<Cell> cells;
  for (int threads : {1, 2, 4, 8}) {
    cells.push_back(RunReaders(variant, "probe", threads, [&](Rng& rng) {
      std::vector<Entry> out;
      const Value value = "v" + std::to_string(zipf.Sample(rng));
      Status s = snapshot.TimedIndexProbe(DayRange::All(), value, &out);
      if (!s.ok()) s.Abort("probe");
    }));
  }
  for (int threads : {1, 2, 4, 8}) {
    cells.push_back(RunReaders(variant, "scan", threads, [&](Rng& rng) {
      // Scan a random 3-day slice so one iteration stays short enough for
      // the fixed measurement window.
      const Day lo = kWindow + 1 + static_cast<Day>(rng.Uniform(kWindow));
      uint64_t sink = 0;
      Status s = snapshot.TimedSegmentScan(
          DayRange{lo, lo + 2},
          [&sink](const Value&, const Entry& e) { sink += e.record_id; });
      if (!s.ok()) s.Abort("scan");
    }));
  }
  return cells;
}

double OpsPerSec(const std::vector<Cell>& cells, const std::string& op,
                 int threads) {
  for (const Cell& c : cells) {
    if (c.op == op && c.threads == threads) return c.ops_per_sec;
  }
  return 0.0;
}

void WriteJson(const std::vector<Cell>& cells, double probe_speedup_4t,
               double scan_speedup_4t) {
  std::ofstream out("BENCH_concurrent.json");
  out << "{\n"
      << "  \"bench\": \"concurrent_throughput\",\n";
  bench::WriteProvenance(out, /*repetitions=*/1);
  out << "  \"block_size\": " << kBlockSize << ",\n"
      << "  \"cache_blocks\": " << kCacheBlocks << ",\n"
      << "  \"num_shards\": " << kNumShards << ",\n"
      << "  \"simulated_read_latency_us\": "
      << std::chrono::duration_cast<std::chrono::microseconds>(kReadLatency)
             .count()
      << ",\n"
      << "  \"zipf_theta\": " << kZipfTheta << ",\n"
      << "  \"num_values\": " << kNumValues << ",\n"
      << "  \"cells\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    out << "    {\"variant\": \"" << c.variant << "\", \"op\": \"" << c.op
        << "\", \"threads\": " << c.threads << ", \"ops\": " << c.ops
        << ", \"seconds\": " << c.seconds
        << ", \"ops_per_sec\": " << c.ops_per_sec << "}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"probe_speedup_sharded_vs_global_mutex_4_threads\": "
      << probe_speedup_4t << ",\n"
      << "  \"scan_speedup_sharded_vs_global_mutex_4_threads\": "
      << scan_speedup_4t << "\n"
      << "}\n";
}

}  // namespace
}  // namespace wavekit

int main() {
  using namespace wavekit;
  bench::Banner(
      "Concurrent query throughput: sharded cache vs. global mutex",
      "shadow updates mean \"no concurrency control is required\" on reads; "
      "the storage layer must not reintroduce a serial bottleneck");

  // Independent device stacks so each variant builds and caches its own data.
  MemoryDevice memory_a(kCapacity), memory_b(kCapacity);
  SimulatedLatencyDevice slow_a(&memory_a), slow_b(&memory_b);
  MeteredDevice device_a(&slow_a), device_b(&slow_b);
  ExtentAllocator allocator_a(kCapacity), allocator_b(kCapacity);
  DayStore day_store_a, day_store_b;
  ShardedCachedDevice global_cache(&device_a, kCacheBlocks, kBlockSize,
                                   /*num_shards=*/1);
  ShardedCachedDevice sharded_cache(&device_b, kCacheBlocks, kBlockSize,
                                    kNumShards);

  // Observability rides along at zero hot-path cost: callback metrics are
  // polled only when the registry is snapshotted, after the timed runs.
  obs::MetricsRegistry registry;
  obs::AttachMeteredDevice(&registry, &device_a, "global_mutex");
  obs::AttachMeteredDevice(&registry, &device_b, "sharded");
  obs::AttachShardedCache(&registry, &sharded_cache, "sharded");

  const std::vector<Cell> baseline = BenchVariant(
      "global_mutex", &global_cache, &device_a, &allocator_a, &day_store_a);
  const std::vector<Cell> sharded = BenchVariant(
      "sharded", &sharded_cache, &device_b, &allocator_b, &day_store_b);
  std::vector<Cell> cells = baseline;
  cells.insert(cells.end(), sharded.begin(), sharded.end());

  std::printf("\n%-14s %-6s %8s %12s %14s\n", "variant", "op", "threads",
              "ops", "ops/sec");
  for (const Cell& c : cells) {
    std::printf("%-14s %-6s %8d %12llu %14.0f\n", c.variant.c_str(),
                c.op.c_str(), c.threads,
                static_cast<unsigned long long>(c.ops), c.ops_per_sec);
  }

  const double probe_speedup =
      OpsPerSec(sharded, "probe", 4) / OpsPerSec(baseline, "probe", 4);
  const double scan_speedup =
      OpsPerSec(sharded, "scan", 4) / OpsPerSec(baseline, "scan", 4);
  std::printf("\n4-thread probe speedup (sharded / global mutex): %.2fx\n",
              probe_speedup);
  std::printf("4-thread scan speedup  (sharded / global mutex): %.2fx\n",
              scan_speedup);

  WriteJson(cells, probe_speedup, scan_speedup);
  std::printf("Wrote BENCH_concurrent.json\n");
  bench::WriteMetricsJson(registry, "BENCH_concurrent_metrics.json");

  bench::ShapeChecks checks;
  checks.Check(probe_speedup >= 2.0,
               "sharded cache >= 2x aggregate probe throughput at 4 reader "
               "threads vs. single global mutex");
  checks.Check(OpsPerSec(sharded, "probe", 4) >
                   OpsPerSec(sharded, "probe", 1),
               "sharded probe throughput scales with reader threads");
  return checks.Finish();
}
