// libFuzzer target for the bucket codecs (index/codec.h).
//
// DecodeBucket is a trust boundary: with verify_checksums=false the decoder
// is the only thing standing between rotten device bytes and the query
// path. The contract under fuzzing:
//
//   - DecodeBucket on arbitrary bytes, under every codec id and a spread of
//     claimed entry counts, never crashes, overreads, or trips a sanitizer
//     (it may return OK or DataLoss, nothing else matters here);
//   - EncodeBucket is deterministic, never beats itself (two encodes of the
//     same entries are byte-identical), never exceeds the raw size, and
//     round-trips: decode(encode(entries)) == entries for every CodecMode.
//
// Build (Clang only):  cmake -B build-fuzz -S . -DWAVEKIT_FUZZ=ON \
//                          -DCMAKE_CXX_COMPILER=clang++
//                      cmake --build build-fuzz --target fuzz_codec
// Run:                 build-fuzz/tests/fuzz/fuzz_codec \
//                          tests/fuzz/corpus/codec
//
// Without Clang, -DWAVEKIT_FUZZ_STANDALONE=ON builds the same harness with a
// plain main() that replays corpus files passed on the command line — a
// regression driver, not a fuzzer.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "index/codec.h"
#include "index/entry.h"

namespace {

// Decode allocates `count` entries up front, so cap the claimed counts the
// harness tries: large enough to exercise count/size mismatches, small
// enough that the fuzzer spends cycles on the parser, not the allocator.
constexpr size_t kMaxCount = size_t{1} << 20;

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace wavekit;
  const std::byte* bytes = reinterpret_cast<const std::byte*>(data);

  // Arbitrary bytes through every decoder, with claimed counts both
  // consistent and inconsistent with the input size.
  const size_t counts[] = {0, 1, size / kEntrySize, size / 4 + 1,
                           2 * size + 7};
  for (const Codec codec : kAllCodecs) {
    for (const size_t count : counts) {
      if (count > kMaxCount) continue;
      std::vector<Entry> out(count);
      const Status status = DecodeBucket(codec, bytes, size, count, out.data());
      if (codec == Codec::kRaw && size == count * kEntrySize && !status.ok()) {
        std::fprintf(stderr, "raw decode rejected an exact-size input\n");
        __builtin_trap();
      }
    }
  }

  // Reinterpret the input as entries and assert the encode/decode identity
  // for every build mode.
  const size_t count = size / kEntrySize;
  if (count == 0) return 0;
  std::vector<Entry> entries(count);
  std::memcpy(entries.data(), data, count * kEntrySize);
  for (const CodecMode mode : {CodecMode::kRaw, CodecMode::kAuto}) {
    const EncodedBucket encoded = EncodeBucket(entries.data(), count, mode);
    const EncodedBucket again = EncodeBucket(entries.data(), count, mode);
    if (encoded.codec != again.codec || encoded.bytes != again.bytes) {
      std::fprintf(stderr, "encode is not deterministic\n");
      __builtin_trap();
    }
    if (encoded.stored_length(count) > count * kEntrySize) {
      std::fprintf(stderr, "encoded bucket larger than raw\n");
      __builtin_trap();
    }
    std::vector<Entry> decoded(count);
    const Status status =
        encoded.codec == Codec::kRaw
            ? DecodeBucket(Codec::kRaw, bytes, count * kEntrySize, count,
                           decoded.data())
            : DecodeBucket(encoded.codec, encoded.bytes.data(),
                           encoded.bytes.size(), count, decoded.data());
    if (!status.ok()) {
      std::fprintf(stderr, "decode of a fresh encode failed: %s\n",
                   status.ToString().c_str());
      __builtin_trap();
    }
    if (std::memcmp(decoded.data(), entries.data(), count * kEntrySize) != 0) {
      std::fprintf(stderr, "round-trip mismatch under mode %s\n",
                   CodecModeName(mode));
      __builtin_trap();
    }
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
