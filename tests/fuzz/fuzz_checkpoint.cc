// libFuzzer target for the checkpoint parser.
//
// DeserializeCheckpoint is the one place wavekit parses bytes it did not
// write in the same process: a checkpoint file that survived a crash, a torn
// write, or bit rot. The contract under fuzzing:
//
//   - arbitrary input never crashes, throws, or trips a sanitizer;
//   - input that parses OK re-serializes to a canonical form that parses
//     back to the same bytes (the round-trip identity the simulation
//     harness asserts on every healthy day, generalized to non-canonical
//     but accepted inputs).
//
// Build (Clang only):  cmake -B build-fuzz -S . -DWAVEKIT_FUZZ=ON \
//                          -DCMAKE_CXX_COMPILER=clang++
//                      cmake --build build-fuzz --target fuzz_checkpoint
// Run:                 build-fuzz/tests/fuzz/fuzz_checkpoint \
//                          tests/fuzz/corpus/checkpoint
//
// Without Clang, -DWAVEKIT_FUZZ_STANDALONE=ON builds the same harness with a
// plain main() that replays corpus files passed on the command line — a
// regression driver, not a fuzzer.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

#include "storage/device.h"
#include "storage/extent_allocator.h"
#include "wave/checkpoint.h"

namespace {

// Small on purpose: bucket extents beyond the device must be rejected by
// bounds checks, and a tiny device reaches that path with tiny inputs.
constexpr uint64_t kDeviceBytes = uint64_t{1} << 20;

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string contents(reinterpret_cast<const char*>(data), size);
  wavekit::MemoryDevice device(kDeviceBytes);
  wavekit::ExtentAllocator allocator(device.capacity());
  wavekit::ConstituentIndex::Options options;
  auto parsed = wavekit::DeserializeCheckpoint(contents, &device, &allocator,
                                               options);
  if (!parsed.ok()) return 0;

  // Canonicalization fixpoint: anything accepted serializes to a form that
  // parses back and re-serializes identically. (Byte-identity with the raw
  // input is too strong — the token parser tolerates whitespace variants.)
  auto canonical = wavekit::SerializeCheckpoint(parsed.ValueOrDie());
  if (!canonical.ok()) {
    std::fprintf(stderr, "accepted checkpoint failed to re-serialize\n");
    __builtin_trap();
  }
  wavekit::MemoryDevice device2(kDeviceBytes);
  wavekit::ExtentAllocator allocator2(device2.capacity());
  auto reparsed = wavekit::DeserializeCheckpoint(
      canonical.ValueOrDie(), &device2, &allocator2, options);
  if (!reparsed.ok()) {
    std::fprintf(stderr, "canonical checkpoint failed to re-parse\n");
    __builtin_trap();
  }
  auto fixpoint = wavekit::SerializeCheckpoint(reparsed.ValueOrDie());
  if (!fixpoint.ok() || fixpoint.ValueOrDie() != canonical.ValueOrDie()) {
    std::fprintf(stderr, "checkpoint canonical form is not a fixpoint\n");
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
