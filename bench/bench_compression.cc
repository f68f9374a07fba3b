// Compressed constituents: per-bucket codec (raw vs auto) across the
// paper's three case-study shapes.
//
// Packed constituents are immutable between rebuilds, so their buckets can
// be stored compressed (index/codec.h: bit-packed wherever that is smaller
// than raw, per bucket) and decoded at the read boundary. This bench builds
// each shape twice — codec=raw and codec=auto — on a REINDEX wave (fully packed
// constituents, rebuilt every transition) with the cache disabled, so every
// probe and scan pays the medium for exactly the stored bytes. A
// MeteredDevice counts the seeks and bytes; the paper's Table 12 cost model
// (14 ms seek, 10 MB/s transfer) prices them into modeled seconds.
//
// Shapes: `scam` and `wse` are Netnews-shaped posting lists (the SCAM and
// Web-Search-Engine case studies); `tpcd` is the LINEITEM/SUPPKEY warehouse
// (uniform keys, large dense buckets — where transfer time matters most);
// `tpcd_file` repeats the TPC-D shape on the real file backend to show the
// savings are not an artifact of the memory device.
//
// Bars (checked on the tpcd shape, skipped under --smoke): codec=auto moves
// >= 1.5x fewer probe-path bytes than raw and delivers >= 1.2x modeled
// probe throughput.
//
// Emits BENCH_compression.json.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "index/codec.h"
#include "storage/cost_model.h"
#include "util/macros.h"
#include "util/random.h"
#include "wave/wave_service.h"
#include "workload/netnews.h"
#include "workload/tpcd.h"

namespace wavekit {
namespace {

struct Shape {
  std::string name;
  bool tpcd = false;
  std::string backend = "memory";
  int window = 7;
  int days = 4;  // transitions (= REINDEX rebuilds) past the start window
  uint64_t records = 2000;    // articles or LINEITEM rows per day
  uint64_t suppliers = 64;    // SUPPKEY universe (tpcd shapes only)
  int probes = 2000;
  int scans = 2;
};

struct VariantResult {
  std::string codec;
  uint64_t raw_buckets = 0;
  uint64_t bitpack_buckets = 0;
  uint64_t stored_bytes = 0;
  uint64_t uncompressed_bytes = 0;
  double rebuild_wall_seconds = 0;
  double rebuild_modeled_seconds = 0;
  uint64_t probe_bytes = 0;
  uint64_t probe_seeks = 0;
  uint64_t probe_entries = 0;
  double probe_wall_seconds = 0;
  double probe_modeled_seconds = 0;
  uint64_t scan_bytes = 0;
  uint64_t scan_entries = 0;
  double scan_wall_seconds = 0;
  double scan_modeled_seconds = 0;

  double bytes_ratio() const {
    return stored_bytes > 0
               ? static_cast<double>(uncompressed_bytes) / stored_bytes
               : 1.0;
  }
};

double Elapsed(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

Status RunVariant(const Shape& shape, CodecMode codec, VariantResult* result) {
  result->codec = CodecModeName(codec);

  WaveService::Options options;
  options.scheme = SchemeKind::kReindex;
  options.config.window = shape.window;
  options.config.num_indexes = 1;
  options.config.codec = codec;
  // No cache: every probe/scan reads the medium, so the meter sees exactly
  // the stored bytes each query path moves.
  options.cache_blocks = 0;
  options.storage_backend = shape.backend;
  if (shape.backend != "memory") {
    options.storage_path = "/tmp/wavekit_bench_compression_" + shape.name +
                           "_" + result->codec + ".dat";
  }
  WAVEKIT_ASSIGN_OR_RETURN(std::unique_ptr<WaveService> service,
                           WaveService::Create(options));

  workload::NetnewsConfig netnews_config;
  netnews_config.articles_per_day = shape.records;
  workload::NetnewsGenerator netnews(netnews_config);
  workload::TpcdConfig tpcd_config;
  tpcd_config.rows_per_day = shape.records;
  tpcd_config.num_suppliers = shape.suppliers;
  workload::TpcdGenerator tpcd(tpcd_config);
  const auto generate_day = [&](Day d) {
    return shape.tpcd ? tpcd.GenerateDay(d) : netnews.GenerateDay(d);
  };
  const auto sample_value = [&](Rng& rng) {
    return shape.tpcd ? tpcd.SampleSuppkey(rng) : netnews.SampleWord(rng);
  };
  const CostModel model = CostModel::Paper();

  std::vector<DayBatch> first_window;
  for (Day d = 1; d <= static_cast<Day>(shape.window); ++d) {
    first_window.push_back(generate_day(d));
  }
  WAVEKIT_RETURN_NOT_OK(service->Start(std::move(first_window)));

  // REINDEX rebuild cost: every transition rebuilds the full packed window,
  // so `days` advances meter `days` complete rebuilds (reads of the day
  // store plus writes of the new constituent — compressed writes are
  // smaller).
  service->device()->Reset();
  auto t0 = std::chrono::steady_clock::now();
  for (Day d = shape.window + 1;
       d <= shape.window + static_cast<Day>(shape.days); ++d) {
    WAVEKIT_RETURN_NOT_OK(service->AdvanceDay(generate_day(d)));
  }
  result->rebuild_wall_seconds = Elapsed(t0);
  result->rebuild_modeled_seconds = model.Seconds(service->device()->total());

  const ConstituentIndex::CodecBreakdown totals = service->CodecTotals();
  result->raw_buckets = totals.raw_buckets;
  result->bitpack_buckets = totals.bitpack_buckets;
  result->stored_bytes = totals.stored_bytes;
  result->uncompressed_bytes = totals.uncompressed_bytes;

  // Probe path: same value sequence for both variants.
  service->device()->Reset();
  Rng rng(424242);
  std::vector<Entry> out;
  t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < shape.probes; ++i) {
    out.clear();
    WAVEKIT_RETURN_NOT_OK(service->IndexProbe(sample_value(rng), &out));
    result->probe_entries += out.size();
  }
  result->probe_wall_seconds = Elapsed(t0);
  IoCounters io = service->device()->total();
  result->probe_bytes = io.bytes_read;
  result->probe_seeks = io.seeks;
  result->probe_modeled_seconds = model.Seconds(io);

  // Scan path: full-window segment scans.
  const DayRange window =
      DayRange::Window(service->current_day(), shape.window);
  service->device()->Reset();
  t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < shape.scans; ++i) {
    WAVEKIT_RETURN_NOT_OK(service->TimedSegmentScan(
        window, [&result](const Value&, const Entry&) {
          ++result->scan_entries;
        }));
  }
  result->scan_wall_seconds = Elapsed(t0);
  io = service->device()->total();
  result->scan_bytes = io.bytes_read;
  result->scan_modeled_seconds = model.Seconds(io);
  return Status::OK();
}

double Ratio(double raw, double compressed) {
  return compressed > 0 ? raw / compressed : 0.0;
}

void PrintShapeTable(const Shape& shape, const VariantResult& raw,
                     const VariantResult& auto_result) {
  std::printf("\n[%s] window=%d days=%d records/day=%llu backend=%s\n",
              shape.name.c_str(), shape.window, shape.days,
              static_cast<unsigned long long>(shape.records),
              shape.backend.c_str());
  std::printf("  %-6s %14s %14s %12s %14s %14s %12s\n", "codec", "stored",
              "uncompressed", "probe MB", "probe s(mod)", "scan s(mod)",
              "rebuild s");
  for (const VariantResult* v : {&raw, &auto_result}) {
    std::printf("  %-6s %14llu %14llu %12.2f %14.3f %14.3f %12.3f\n",
                v->codec.c_str(),
                static_cast<unsigned long long>(v->stored_bytes),
                static_cast<unsigned long long>(v->uncompressed_bytes),
                v->probe_bytes / 1e6, v->probe_modeled_seconds,
                v->scan_modeled_seconds, v->rebuild_wall_seconds);
  }
  std::printf(
      "  -> stored %.2fx smaller, probe bytes %.2fx fewer, modeled probe "
      "%.2fx faster, modeled scan %.2fx faster\n",
      auto_result.bytes_ratio(),
      Ratio(static_cast<double>(raw.probe_bytes),
            static_cast<double>(auto_result.probe_bytes)),
      Ratio(raw.probe_modeled_seconds, auto_result.probe_modeled_seconds),
      Ratio(raw.scan_modeled_seconds, auto_result.scan_modeled_seconds));
}

void WriteVariantJson(std::ofstream& out, const VariantResult& v,
                      const char* indent) {
  out << indent << "\"codec\": \"" << v.codec << "\",\n"
      << indent << "\"buckets_raw\": " << v.raw_buckets << ",\n"
      << indent << "\"buckets_bitpack\": " << v.bitpack_buckets << ",\n"
      << indent << "\"stored_bytes\": " << v.stored_bytes << ",\n"
      << indent << "\"uncompressed_bytes\": " << v.uncompressed_bytes << ",\n"
      << indent << "\"probe_bytes\": " << v.probe_bytes << ",\n"
      << indent << "\"probe_seeks\": " << v.probe_seeks << ",\n"
      << indent << "\"probe_entries\": " << v.probe_entries << ",\n"
      << indent << "\"probe_wall_seconds\": " << v.probe_wall_seconds << ",\n"
      << indent << "\"probe_modeled_seconds\": " << v.probe_modeled_seconds
      << ",\n"
      << indent << "\"scan_bytes\": " << v.scan_bytes << ",\n"
      << indent << "\"scan_entries\": " << v.scan_entries << ",\n"
      << indent << "\"scan_wall_seconds\": " << v.scan_wall_seconds << ",\n"
      << indent << "\"scan_modeled_seconds\": " << v.scan_modeled_seconds
      << ",\n"
      << indent << "\"rebuild_wall_seconds\": " << v.rebuild_wall_seconds
      << ",\n"
      << indent
      << "\"rebuild_modeled_seconds\": " << v.rebuild_modeled_seconds << "\n";
}

}  // namespace
}  // namespace wavekit

int main(int argc, char** argv) {
  using namespace wavekit;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  std::vector<Shape> shapes;
  {
    Shape scam;
    scam.name = "scam";
    scam.window = 7;
    scam.days = 4;
    scam.records = 1500;
    scam.probes = 4000;
    scam.scans = 4;
    Shape wse;
    wse.name = "wse";
    wse.window = 10;
    wse.days = 4;
    wse.records = 5000;
    wse.probes = 2500;
    wse.scans = 3;
    Shape tpcd;
    tpcd.name = "tpcd";
    tpcd.tpcd = true;
    tpcd.window = 10;
    tpcd.days = 4;
    tpcd.records = 30000;
    tpcd.suppliers = 64;
    tpcd.probes = 1500;
    tpcd.scans = 2;
    Shape tpcd_file;
    tpcd_file.name = "tpcd_file";
    tpcd_file.tpcd = true;
    tpcd_file.backend = "file";
    tpcd_file.window = 10;
    tpcd_file.days = 3;
    tpcd_file.records = 8000;
    tpcd_file.suppliers = 64;
    tpcd_file.probes = 1000;
    tpcd_file.scans = 2;
    shapes = {scam, wse, tpcd, tpcd_file};
  }
  if (smoke) {
    for (Shape& shape : shapes) {
      shape.days = 2;
      shape.records = shape.tpcd ? 1500 : 200;
      shape.suppliers = 32;
      shape.probes = 200;
      shape.scans = 1;
    }
  }

  bench::Banner(
      "Compressed constituents: per-bucket codec (raw vs auto)",
      "packed buckets decode at the read boundary, so probes and scans move "
      "the stored (compressed) bytes; TPC-D bar: >= 1.5x fewer probe-path "
      "bytes, >= 1.2x modeled probe throughput");

  std::vector<VariantResult> raw_results(shapes.size());
  std::vector<VariantResult> auto_results(shapes.size());
  for (size_t i = 0; i < shapes.size(); ++i) {
    Status status = RunVariant(shapes[i], CodecMode::kRaw, &raw_results[i]);
    if (status.ok()) {
      status = RunVariant(shapes[i], CodecMode::kAuto, &auto_results[i]);
    }
    if (!status.ok()) {
      std::fprintf(stderr, "shape %s failed: %s\n", shapes[i].name.c_str(),
                   status.ToString().c_str());
      return 1;
    }
    PrintShapeTable(shapes[i], raw_results[i], auto_results[i]);
  }

  std::ofstream out("BENCH_compression.json");
  out << "{\n"
      << "  \"bench\": \"compression\",\n";
  bench::WriteProvenance(out, /*repetitions=*/1);
  out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"cost_model\": {\"seek_seconds\": 0.014, "
         "\"transfer_bytes_per_second\": 10000000},\n"
      << "  \"shapes\": [\n";
  for (size_t i = 0; i < shapes.size(); ++i) {
    const Shape& shape = shapes[i];
    const VariantResult& raw = raw_results[i];
    const VariantResult& packed = auto_results[i];
    out << "    {\n"
        << "      \"name\": \"" << shape.name << "\",\n"
        << "      \"workload\": \"" << (shape.tpcd ? "tpcd" : "netnews")
        << "\",\n"
        << "      \"backend\": \"" << shape.backend << "\",\n"
        << "      \"window\": " << shape.window << ",\n"
        << "      \"days\": " << shape.days << ",\n"
        << "      \"records_per_day\": " << shape.records << ",\n"
        << "      \"probes\": " << shape.probes << ",\n"
        << "      \"scans\": " << shape.scans << ",\n"
        << "      \"raw\": {\n";
    WriteVariantJson(out, raw, "        ");
    out << "      },\n"
        << "      \"auto\": {\n";
    WriteVariantJson(out, packed, "        ");
    out << "      },\n"
        << "      \"stored_bytes_ratio\": " << packed.bytes_ratio() << ",\n"
        << "      \"probe_bytes_ratio\": "
        << Ratio(static_cast<double>(raw.probe_bytes),
                 static_cast<double>(packed.probe_bytes))
        << ",\n"
        << "      \"probe_modeled_speedup\": "
        << Ratio(raw.probe_modeled_seconds, packed.probe_modeled_seconds)
        << ",\n"
        << "      \"scan_modeled_speedup\": "
        << Ratio(raw.scan_modeled_seconds, packed.scan_modeled_seconds)
        << ",\n"
        << "      \"rebuild_modeled_ratio\": "
        << Ratio(raw.rebuild_modeled_seconds, packed.rebuild_modeled_seconds)
        << "\n"
        << "    }" << (i + 1 < shapes.size() ? "," : "") << "\n";
  }
  out << "  ]\n"
      << "}\n";
  std::printf("\nWrote BENCH_compression.json\n");

  bench::ShapeChecks checks;
  for (size_t i = 0; i < shapes.size(); ++i) {
    const std::string& name = shapes[i].name;
    const VariantResult& raw = raw_results[i];
    const VariantResult& packed = auto_results[i];
    checks.Check(raw.stored_bytes == raw.uncompressed_bytes,
                 name + ": codec=raw stores buckets byte-identical");
    checks.Check(packed.bitpack_buckets > 0,
                 name + ": codec=auto actually compressed buckets");
    checks.Check(packed.stored_bytes < raw.stored_bytes,
                 name + ": codec=auto stores fewer bytes than raw");
    checks.Check(packed.uncompressed_bytes == raw.uncompressed_bytes,
                 name + ": both variants index the same logical bytes");
    checks.Check(packed.probe_entries == raw.probe_entries,
                 name + ": probes returned identical entry counts");
    checks.Check(packed.scan_entries == raw.scan_entries,
                 name + ": scans visited identical entry counts");
    checks.Check(packed.probe_bytes < raw.probe_bytes,
                 name + ": probes moved fewer bytes under compression");
  }
  if (!smoke) {
    const VariantResult& raw = raw_results[2];
    const VariantResult& packed = auto_results[2];
    checks.Check(static_cast<double>(raw.probe_bytes) >=
                     1.5 * static_cast<double>(packed.probe_bytes),
                 "tpcd: >= 1.5x fewer probe-path bytes vs raw");
    checks.Check(raw.probe_modeled_seconds >=
                     1.2 * packed.probe_modeled_seconds,
                 "tpcd: >= 1.2x modeled probe throughput vs raw");
  }
  return checks.Finish();
}
