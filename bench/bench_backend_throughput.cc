// Backend throughput: the same wave index on real storage backends.
//
// Two layers of comparison, both emitted into BENCH_backend.json:
//
// 1. SERVICE LEVEL — WaveService with storage_backend = memory / file /
//    uring / mmap on one packed-REINDEX workload: Start, per-day transition
//    time, probe latency, and windowed segment-scan time. Query results
//    must be identical across backends (the backend is an execution
//    substrate, not a different index).
//
// 2. DEVICE LEVEL — the packed-REINDEX transition's bucket-write pattern is
//    recorded once (offsets + lengths of every maintenance write) and then
//    replayed against real files two ways: the "plain" path issues one
//    pwrite per bucket extent, exactly like today's serial maintenance
//    loop; the "uring batched" path hands each transition's whole extent
//    set to UringDevice::WriteBatch, which maps it 1:1 onto SQE chains
//    submitted in queue-depth waves. Same bytes, same file — the measured
//    difference is pure submission efficiency, and the headline number
//    `uring_batched_vs_file_plain_speedup` must clear 1.5x.
//
// `--smoke` runs a miniature configuration and skips timing-based shape
// checks (CI coverage); `--dir <path>` overrides where backing files live.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench/common.h"
#include "storage/backend_registry.h"
#include "storage/file_device.h"
#include "storage/uring_device.h"
#include "wave/wave_service.h"

namespace wavekit {
namespace {

struct BenchConfig {
  int window = 6;
  int num_indexes = 2;
  int records_per_day = 4000;
  uint64_t num_values = 512;
  int measured_days = 8;
  int replay_rounds = 3;
  uint64_t capacity = uint64_t{1} << 26;  // 64 MiB
  bool smoke = false;
  std::string dir = "/tmp";
};

DayBatch MakeBatch(const BenchConfig& config, Day day) {
  DayBatch batch;
  batch.day = day;
  uint64_t rid = static_cast<uint64_t>(day) * 1000000;
  for (int i = 0; i < config.records_per_day; ++i) {
    Record record;
    record.record_id = rid++;
    record.day = day;
    record.values = {"v" +
                     std::to_string(record.record_id % config.num_values)};
    batch.records.push_back(std::move(record));
  }
  return batch;
}

/// Interposer that records the extents of every maintenance write while
/// armed, grouped by transition (BeginGroup is called per AdvanceDay).
class RecordingDevice : public Device {
 public:
  explicit RecordingDevice(Device* inner) : inner_(inner) {}

  Status Read(uint64_t offset, std::span<std::byte> out) override {
    return inner_->Read(offset, out);
  }
  Status Write(uint64_t offset, std::span<const std::byte> data) override {
    Note(offset, data.size());
    return inner_->Write(offset, data);
  }
  Status WriteBatch(std::span<const Extent> extents,
                    std::span<const std::byte> data) override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (armed_ && !groups_.empty()) {
        for (const Extent& e : extents) {
          if (e.length > 0) groups_.back().push_back(e);
        }
      }
    }
    return inner_->WriteBatch(extents, data);
  }
  uint64_t capacity() const override { return inner_->capacity(); }
  Status Sync() override { return inner_->Sync(); }

  void Arm() {
    std::lock_guard<std::mutex> lock(mutex_);
    armed_ = true;
  }
  void BeginGroup() {
    std::lock_guard<std::mutex> lock(mutex_);
    groups_.emplace_back();
  }
  std::vector<std::vector<Extent>> TakeGroups() {
    std::lock_guard<std::mutex> lock(mutex_);
    armed_ = false;
    return std::move(groups_);
  }

 private:
  void Note(uint64_t offset, uint64_t length) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (armed_ && !groups_.empty() && length > 0) {
      groups_.back().push_back({offset, length});
    }
  }

  Device* inner_;
  std::mutex mutex_;
  bool armed_ = false;
  std::vector<std::vector<Extent>> groups_;
};

struct ServiceCell {
  std::string backend;
  bool available = true;
  double start_seconds = 0;
  double advance_seconds = 0;  // sum over measured_days
  double probe_avg_us = 0;
  double scan_seconds = 0;
  uint64_t probe_entries = 0;  // parity fingerprint
};

std::string DevicePathFor(const BenchConfig& config,
                          const std::string& backend) {
  return config.dir + "/wavekit_bench_backend_" + backend + "_" +
         std::to_string(::getpid()) + ".wavedev";
}

double Seconds(std::chrono::steady_clock::time_point from) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - from)
      .count();
}

ServiceCell RunServiceWorkload(const BenchConfig& config,
                               const std::string& backend) {
  ServiceCell cell;
  cell.backend = backend;
  const std::string path = DevicePathFor(config, backend);
  std::remove(path.c_str());

  WaveService::Options options;
  options.scheme = SchemeKind::kReindex;
  options.config.window = config.window;
  options.config.num_indexes = config.num_indexes;
  options.config.technique = UpdateTechniqueKind::kPackedShadow;
  options.device_capacity = config.capacity;
  bench::BackendChoice choice;
  choice.backend = backend;
  choice.path = path;
  bench::ApplyBackend(choice, &options);
  auto made = WaveService::Create(std::move(options));
  if (!made.ok()) made.status().Abort("Create(" + backend + ")");
  std::unique_ptr<WaveService> service = std::move(made).ValueOrDie();

  std::vector<DayBatch> first;
  for (Day d = 1; d <= config.window; ++d) {
    first.push_back(MakeBatch(config, d));
  }
  auto t0 = std::chrono::steady_clock::now();
  Status started = service->Start(std::move(first));
  if (!started.ok()) started.Abort("Start(" + backend + ")");
  cell.start_seconds = Seconds(t0);

  t0 = std::chrono::steady_clock::now();
  for (Day d = config.window + 1;
       d <= config.window + config.measured_days; ++d) {
    Status advanced = service->AdvanceDay(MakeBatch(config, d));
    if (!advanced.ok()) advanced.Abort("AdvanceDay(" + backend + ")");
  }
  cell.advance_seconds = Seconds(t0);

  // Probe a deterministic sample; count entries as the parity fingerprint.
  t0 = std::chrono::steady_clock::now();
  uint64_t probes = 0;
  for (uint64_t v = 0; v < config.num_values; v += 3) {
    std::vector<Entry> out;
    Status probed = service->IndexProbe("v" + std::to_string(v), &out);
    if (!probed.ok()) probed.Abort("probe(" + backend + ")");
    cell.probe_entries += out.size();
    ++probes;
  }
  cell.probe_avg_us = probes > 0 ? Seconds(t0) * 1e6 / probes : 0;

  t0 = std::chrono::steady_clock::now();
  const Day day = service->current_day();
  uint64_t scanned = 0;
  Status scan = service->TimedSegmentScan(
      DayRange::Window(day, config.window),
      [&](const Value&, const Entry&) { ++scanned; });
  if (!scan.ok()) scan.Abort("scan(" + backend + ")");
  cell.scan_seconds = Seconds(t0);
  cell.probe_entries += scanned;

  service.reset();  // close the backing file before unlinking it
  std::remove(path.c_str());
  return cell;
}

/// Records the packed-REINDEX maintenance write pattern on a memory-backed
/// service: one group of (offset, length) extents per transition.
std::vector<std::vector<Extent>> RecordTransitionPattern(
    const BenchConfig& config) {
  RecordingDevice* recorder = nullptr;
  WaveService::Options options;
  options.scheme = SchemeKind::kReindex;
  options.config.window = config.window;
  options.config.num_indexes = config.num_indexes;
  options.config.technique = UpdateTechniqueKind::kPackedShadow;
  options.device_capacity = config.capacity;
  options.device_interposer = [&recorder](Device* inner) {
    auto device = std::make_unique<RecordingDevice>(inner);
    recorder = device.get();
    return device;
  };
  auto made = WaveService::Create(std::move(options));
  if (!made.ok()) made.status().Abort("Create(recorder)");
  std::unique_ptr<WaveService> service = std::move(made).ValueOrDie();
  std::vector<DayBatch> first;
  for (Day d = 1; d <= config.window; ++d) {
    first.push_back(MakeBatch(config, d));
  }
  Status started = service->Start(std::move(first));
  if (!started.ok()) started.Abort("Start(recorder)");
  recorder->Arm();
  for (Day d = config.window + 1;
       d <= config.window + config.measured_days; ++d) {
    recorder->BeginGroup();
    Status advanced = service->AdvanceDay(MakeBatch(config, d));
    if (!advanced.ok()) advanced.Abort("AdvanceDay(recorder)");
  }
  return recorder->TakeGroups();
}

struct ReplayStats {
  double seconds = 0;
  uint64_t extents = 0;
  uint64_t bytes = 0;
  uint64_t batches = 0;  // WriteBatch calls (0 for the plain loop)
};

/// Re-lays the recorded pattern out at direct-I/O alignment: every bucket
/// write keeps its own extent (the per-bucket granularity is the point of
/// the comparison) but gets a 4 KiB-aligned slot with a block-multiple
/// length, so both the O_DIRECT pwrite loop and the O_DIRECT SQE path write
/// the same device blocks without read-modify-write bounces.
std::vector<std::vector<Extent>> AlignPattern(
    const std::vector<std::vector<Extent>>& groups, uint64_t capacity) {
  std::vector<std::vector<Extent>> aligned;
  aligned.reserve(groups.size());
  for (const auto& group : groups) {
    // Each transition reuses the same region, like the allocator reusing
    // freed shadow extents across days.
    uint64_t cursor = 0;
    std::vector<Extent> out;
    out.reserve(group.size());
    for (const Extent& e : group) {
      const uint64_t length =
          (e.length + kDirectIoAlignment - 1) & ~(kDirectIoAlignment - 1);
      if (cursor + length > capacity) break;  // never overflow the device
      out.push_back({cursor, length});
      cursor += length;
    }
    aligned.push_back(std::move(out));
  }
  return aligned;
}

/// Today's serial path: one pwrite per bucket extent.
ReplayStats ReplayPlain(Device* device,
                        const std::vector<std::vector<Extent>>& groups,
                        std::span<const std::byte> blob, int rounds) {
  ReplayStats stats;
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) {
    for (const auto& group : groups) {
      for (const Extent& e : group) {
        Status written =
            device->Write(e.offset, blob.subspan(0, e.length));
        if (!written.ok()) written.Abort("replay plain write");
        ++stats.extents;
        stats.bytes += e.length;
      }
    }
  }
  Status synced = device->Sync();
  if (!synced.ok()) synced.Abort("replay plain sync");
  stats.seconds = Seconds(t0);
  return stats;
}

/// The batched path: each transition's whole extent set in one WriteBatch
/// (chunked to bound the staging buffer).
ReplayStats ReplayBatched(Device* device,
                          const std::vector<std::vector<Extent>>& groups,
                          std::span<const std::byte> blob, int rounds) {
  constexpr size_t kChunkExtents = 1024;
  ReplayStats stats;
  std::vector<std::byte> staging;
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) {
    for (const auto& group : groups) {
      for (size_t begin = 0; begin < group.size(); begin += kChunkExtents) {
        const size_t end = std::min(begin + kChunkExtents, group.size());
        const std::span<const Extent> chunk(group.data() + begin,
                                            end - begin);
        uint64_t total = 0;
        for (const Extent& e : chunk) total += e.length;
        staging.resize(total);
        uint64_t cursor = 0;
        for (const Extent& e : chunk) {
          std::memcpy(staging.data() + cursor, blob.data(), e.length);
          cursor += e.length;
        }
        Status written = device->WriteBatch(chunk, staging);
        if (!written.ok()) written.Abort("replay batched write");
        ++stats.batches;
        stats.extents += chunk.size();
        stats.bytes += total;
      }
    }
  }
  Status synced = device->Sync();
  if (!synced.ok()) synced.Abort("replay batched sync");
  stats.seconds = Seconds(t0);
  return stats;
}

void WriteJson(const BenchConfig& config,
               const std::vector<ServiceCell>& cells, bool uring_ring,
               bool direct, const ReplayStats& plain,
               const ReplayStats& batched, double speedup) {
  std::ofstream out("BENCH_backend.json");
  out << "{\n"
      << "  \"bench\": \"backend_throughput\",\n";
  bench::WriteProvenance(out, /*repetitions=*/1);
  out << "  \"scheme\": \"REINDEX\",\n"
      << "  \"technique\": \"packed-shadow\",\n"
      << "  \"smoke\": " << (config.smoke ? "true" : "false") << ",\n"
      << "  \"window\": " << config.window << ",\n"
      << "  \"records_per_day\": " << config.records_per_day << ",\n"
      << "  \"measured_days\": " << config.measured_days << ",\n"
      << "  \"uring_ring_active\": " << (uring_ring ? "true" : "false")
      << ",\n"
      << "  \"service_cells\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const ServiceCell& c = cells[i];
    out << "    {\"backend\": \"" << c.backend << "\""
        << ", \"start_seconds\": " << c.start_seconds
        << ", \"advance_seconds\": " << c.advance_seconds
        << ", \"probe_avg_us\": " << c.probe_avg_us
        << ", \"scan_seconds\": " << c.scan_seconds
        << ", \"result_fingerprint\": " << c.probe_entries << "}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"transition_replay\": {\n"
      << "    \"rounds\": " << config.replay_rounds << ",\n"
      << "    \"direct_io\": " << (direct ? "true" : "false") << ",\n"
      << "    \"file_plain\": {\"seconds\": " << plain.seconds
      << ", \"extents\": " << plain.extents << ", \"bytes\": " << plain.bytes
      << "},\n"
      << "    \"uring_batched\": {\"seconds\": " << batched.seconds
      << ", \"extents\": " << batched.extents
      << ", \"bytes\": " << batched.bytes
      << ", \"batches\": " << batched.batches << "},\n"
      << "    \"uring_batched_vs_file_plain_speedup\": " << speedup << "\n"
      << "  }\n"
      << "}\n";
}

}  // namespace
}  // namespace wavekit

int main(int argc, char** argv) {
  using namespace wavekit;
  BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) config.smoke = true;
    if (std::strcmp(argv[i], "--dir") == 0 && i + 1 < argc) {
      config.dir = argv[++i];
    }
  }
  if (config.smoke) {
    config.records_per_day = 400;
    config.num_values = 64;
    config.measured_days = 3;
    config.replay_rounds = 1;
    config.capacity = uint64_t{1} << 24;
  }

  bench::Banner(
      "Backend throughput: memory vs file vs uring vs mmap",
      "the cost model charges seeks and transfers; real backends realize "
      "them — batched shadow writes amortize per-request overhead, which is "
      "where io_uring's single-submission batches beat one pwrite per "
      "bucket");

  // --- Service-level workload on every backend -------------------------------
  std::vector<ServiceCell> cells;
  for (const char* backend : {"memory", "file", "uring", "mmap"}) {
    cells.push_back(RunServiceWorkload(config, backend));
    const ServiceCell& c = cells.back();
    std::printf("%-8s start %.3fs  advance(%dd) %.3fs  probe %.1fus  scan "
                "%.3fs  fingerprint %llu\n",
                c.backend.c_str(), c.start_seconds, config.measured_days,
                c.advance_seconds, c.probe_avg_us, c.scan_seconds,
                static_cast<unsigned long long>(c.probe_entries));
  }

  // --- Device-level replay: plain pwrite loop vs uring batches ---------------
  //
  // Run in O_DIRECT mode when the filesystem allows it: buffered writes
  // collapse into page-cache memcpys where submission cost is noise; direct
  // writes pay real device latency, which the plain loop serializes and the
  // ring overlaps at queue depth.
  std::printf("\nRecording packed-REINDEX transition write pattern...\n");
  const std::vector<std::vector<Extent>> recorded =
      RecordTransitionPattern(config);
  const bool direct = FileDevice::DirectIoSupported(config.dir);
  const std::vector<std::vector<Extent>> groups =
      direct ? AlignPattern(recorded, config.capacity) : recorded;
  uint64_t pattern_extents = 0, pattern_bytes = 0, max_extent = 0;
  for (const auto& group : groups) {
    for (const Extent& e : group) {
      ++pattern_extents;
      pattern_bytes += e.length;
      max_extent = std::max(max_extent, e.length);
    }
  }
  std::printf("  %zu transitions, %llu extents, %.1f MiB (%s)\n",
              groups.size(),
              static_cast<unsigned long long>(pattern_extents),
              static_cast<double>(pattern_bytes) / (1 << 20),
              direct ? "O_DIRECT, block-aligned" : "buffered");
  const std::vector<std::byte> blob(max_extent, std::byte{0x6B});

  const std::string plain_path = DevicePathFor(config, "replay_plain");
  const std::string uring_path = DevicePathFor(config, "replay_uring");
  std::remove(plain_path.c_str());
  std::remove(uring_path.c_str());

  FileDevice::OpenOptions plain_options;
  plain_options.direct_io = direct;
  auto plain_open = FileDevice::Open(plain_path, config.capacity,
                                     plain_options);
  if (!plain_open.ok()) plain_open.status().Abort("open plain");
  std::unique_ptr<FileDevice> plain_device =
      std::move(plain_open).ValueOrDie();
  const ReplayStats plain = ReplayPlain(plain_device.get(), groups, blob,
                                        config.replay_rounds);

  UringDevice::Options uring_options;
  uring_options.direct_io = direct;
  auto uring_open = UringDevice::Open(uring_path, config.capacity,
                                      uring_options);
  if (!uring_open.ok()) uring_open.status().Abort("open uring");
  std::unique_ptr<UringDevice> uring_device =
      std::move(uring_open).ValueOrDie();
  const bool ring_active = uring_device->using_ring();
  const ReplayStats batched = ReplayBatched(uring_device.get(), groups, blob,
                                            config.replay_rounds);

  const double speedup =
      batched.seconds > 0 ? plain.seconds / batched.seconds : 0;
  std::printf("\nTransition write replay (%d rounds):\n",
              config.replay_rounds);
  std::printf("  file plain loop    %8.3fs  (%llu pwrites)\n", plain.seconds,
              static_cast<unsigned long long>(plain.extents));
  std::printf("  uring batched      %8.3fs  (%llu batches, ring %s)\n",
              batched.seconds,
              static_cast<unsigned long long>(batched.batches),
              ring_active ? "active" : "FALLBACK");
  std::printf("  speedup            %8.2fx\n", speedup);

  plain_device.reset();
  uring_device.reset();
  std::remove(plain_path.c_str());
  std::remove(uring_path.c_str());

  WriteJson(config, cells, ring_active, direct, plain, batched, speedup);
  std::printf("Wrote BENCH_backend.json\n");

  bench::ShapeChecks checks;
  bool parity = true;
  for (const ServiceCell& c : cells) {
    if (c.probe_entries != cells.front().probe_entries) parity = false;
  }
  checks.Check(parity, "identical query results on every backend");
  checks.Check(batched.extents == plain.extents,
               "replay paths wrote the same extent set");
  if (!config.smoke) {
    // Only enforceable where the physics exist: a live ring and O_DIRECT
    // (buffered page-cache writes have no device latency to overlap).
    checks.Check(
        !(ring_active && direct) || speedup >= 1.5,
        "uring batched transition replay >= 1.5x plain file pwrite loop");
  }
  return checks.Finish();
}
