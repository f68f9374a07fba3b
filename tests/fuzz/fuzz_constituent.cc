// libFuzzer target for the constituent read-verify path.
//
// A constituent's bucket extents are the one data-plane surface whose bytes
// can change underneath the process: bit rot, torn data writes, misdirected
// I/O. The read path re-checksums every bucket's stored bytes before
// delivering entries (index/constituent_index.cc ReadVerified). The
// contract under fuzzing, with the fuzz input interpreted as an arbitrary
// overwrite of the device:
//
//   - no crash, throw, or sanitizer trip, no matter what bytes land where;
//   - every access returns OK or DataLoss — nothing else;
//   - any DataLoss quarantines the constituent (corrupt + unhealthy);
//   - if every access returns OK, the entries served are EXACTLY the
//     pristine ones — corrupt data is never silently returned.
//
// Build (Clang only):  cmake -B build-fuzz -S . -DWAVEKIT_FUZZ=ON \
//                          -DCMAKE_CXX_COMPILER=clang++
//                      cmake --build build-fuzz --target fuzz_constituent
// Run:                 build-fuzz/tests/fuzz/fuzz_constituent \
//                          tests/fuzz/corpus/constituent
//
// Without Clang, -DWAVEKIT_FUZZ_STANDALONE=ON builds the same harness with a
// plain main() that replays corpus files passed on the command line.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "index/constituent_index.h"
#include "index/index_builder.h"
#include "index/record.h"
#include "storage/device.h"
#include "storage/extent_allocator.h"

namespace {

constexpr uint64_t kDeviceBytes = uint64_t{1} << 20;

using Row = std::tuple<std::string, uint64_t, wavekit::Day, uint32_t>;

// Deterministic two-day workload: a few values with multi-entry buckets so
// both the probe and the coalesced scan paths have something to verify.
std::vector<wavekit::DayBatch> MakeBatches() {
  std::vector<wavekit::DayBatch> batches;
  for (wavekit::Day day = 1; day <= 2; ++day) {
    wavekit::DayBatch batch;
    batch.day = day;
    for (uint64_t r = 0; r < 8; ++r) {
      wavekit::Record record;
      record.record_id = static_cast<uint64_t>(day) * 100 + r;
      record.day = day;
      record.values = {std::string(1, static_cast<char>('a' + r % 4)),
                       "common"};
      batch.records.push_back(std::move(record));
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

wavekit::Status CollectRows(const wavekit::ConstituentIndex& index,
                            std::vector<Row>* rows) {
  rows->clear();
  wavekit::Status status =
      index.Scan([&](const wavekit::Value& value, const wavekit::Entry& e) {
        rows->emplace_back(value, e.record_id, e.day, e.aux);
      });
  std::sort(rows->begin(), rows->end());
  return status;
}

bool OkOrDataLoss(const wavekit::Status& status) {
  return status.ok() || status.IsDataLoss();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  wavekit::MemoryDevice device(kDeviceBytes);
  wavekit::ExtentAllocator allocator(device.capacity());

  const std::vector<wavekit::DayBatch> batches = MakeBatches();
  std::vector<const wavekit::DayBatch*> ptrs;
  for (const wavekit::DayBatch& b : batches) ptrs.push_back(&b);
  auto built = wavekit::IndexBuilder::BuildPacked(&device, &allocator, {},
                                                  ptrs, "fuzz");
  if (!built.ok()) {
    std::fprintf(stderr, "pristine build failed: %s\n",
                 built.status().ToString().c_str());
    __builtin_trap();
  }
  auto index = std::move(built).ValueOrDie();

  std::vector<Row> pristine;
  if (!CollectRows(*index, &pristine).ok()) {
    std::fprintf(stderr, "pristine scan failed\n");
    __builtin_trap();
  }

  // The fuzz input is an overwrite plan: 8 bytes of offset seed, then the
  // payload to splat at (seed % capacity), clamped to the device end. This
  // models arbitrary medium corruption beneath the index's bookkeeping.
  if (size > 8) {
    uint64_t seed = 0;
    std::memcpy(&seed, data, sizeof(seed));
    const uint64_t offset = seed % device.capacity();
    const size_t payload = std::min<size_t>(
        size - 8, static_cast<size_t>(device.capacity() - offset));
    if (payload > 0) {
      auto bytes = reinterpret_cast<const std::byte*>(data + 8);
      if (!device.Write(offset, std::span(bytes, payload)).ok()) {
        std::fprintf(stderr, "in-bounds device write failed\n");
        __builtin_trap();
      }
    }
  }

  // Exercise every read path. Each must cleanly succeed or report DataLoss.
  bool data_loss = false;
  for (const wavekit::Value& value : index->layout_order()) {
    std::vector<wavekit::Entry> out;
    wavekit::Status status = index->Probe(value, &out);
    if (!OkOrDataLoss(status)) {
      std::fprintf(stderr, "probe: unexpected status %s\n",
                   status.ToString().c_str());
      __builtin_trap();
    }
    data_loss = data_loss || status.IsDataLoss();

    out.clear();
    status = index->TimedProbe(value, wavekit::DayRange::Window(2, 2), &out);
    if (!OkOrDataLoss(status)) {
      std::fprintf(stderr, "timed probe: unexpected status %s\n",
                   status.ToString().c_str());
      __builtin_trap();
    }
    data_loss = data_loss || status.IsDataLoss();
  }

  std::vector<Row> rows;
  wavekit::Status scan = CollectRows(*index, &rows);
  if (!OkOrDataLoss(scan)) {
    std::fprintf(stderr, "scan: unexpected status %s\n",
                 scan.ToString().c_str());
    __builtin_trap();
  }
  data_loss = data_loss || scan.IsDataLoss();

  if (data_loss) {
    // Detection must quarantine: corrupt + unhealthy, never served silently.
    if (!index->corrupt() || index->healthy()) {
      std::fprintf(stderr, "DataLoss without quarantine\n");
      __builtin_trap();
    }
  } else if (scan.ok() && rows != pristine) {
    // Every path said OK, so the bytes must be the pristine ones: either the
    // overwrite landed outside live prefixes (slack / free space) or wrote
    // back identical bytes. Divergence here is silent corruption served.
    std::fprintf(stderr, "silent corruption: scan OK but rows differ\n");
    __builtin_trap();
  }
  return 0;
}

#ifdef WAVEKIT_FUZZ_STANDALONE
// Corpus replay driver for toolchains without libFuzzer.
#include <fstream>
#include <sstream>

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::ifstream in(argv[i], std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[i]);
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string contents = buffer.str();
    LLVMFuzzerTestOneInput(
        reinterpret_cast<const uint8_t*>(contents.data()), contents.size());
    std::printf("ok %s (%zu bytes)\n", argv[i], contents.size());
  }
  return 0;
}
#endif  // WAVEKIT_FUZZ_STANDALONE
