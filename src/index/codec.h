// Per-bucket codecs: compressed on-device bucket layouts.
//
// Probe and scan cost is dominated by bucket transfer (the Trans * S' term
// of the paper's cost model), so shrinking on-device bucket bytes is a
// direct speedup on both the modeled disk and the real backends. A bucket
// holds `count` 16-byte entries; a codec re-encodes that entry sequence as a
// smaller byte string. Two codecs exist:
//
//   kRaw     — the identity layout: count * kEntrySize bytes, appendable in
//              place. The only codec simple (mutable) constituents use.
//   kBitPack — columnar fixed-width bit packing: per column a base (min)
//              and a bit width, then count fields of (value - base). Packed
//              buckets hold one day cluster of ids assigned in insertion
//              order, so every column sits in a narrow range.
//
// Encoding is a pure function of the entry sequence — two builds of the same
// bucket (serial or parallel) produce byte-identical extents, which the
// deterministic sim harness and the serial-parity tests rely on. Under
// CodecMode::kAuto, `EncodeBucket` prices the bitpack layout in one O(n)
// pass and encodes it only when it is strictly smaller than raw, so kRaw
// remains the canonical form for incompressible buckets.
//
// Decoding (`DecodeBucket`) is the trust boundary's companion: it must never
// crash or overread on arbitrary bytes (fuzz_codec enforces this) and
// returns Status::DataLoss on any malformed input. Per-bucket CRC-32C is
// computed over the *stored* (compressed) bytes, so corruption is caught by
// the existing checksum machinery before decode even runs; decode hardening
// is defense in depth for verify_checksums=false configurations.

#ifndef WAVEKIT_INDEX_CODEC_H_
#define WAVEKIT_INDEX_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "index/entry.h"
#include "util/result.h"
#include "util/status.h"

namespace wavekit {

/// \brief On-device bucket layout identifier. Stable: persisted in
/// checkpoint v4 bucket lines as a small integer. Id 1 belonged to a retired
/// varint layout and is rejected.
enum class Codec : uint8_t {
  kRaw = 0,
  kBitPack = 2,
};

/// Every codec, in id order.
inline constexpr Codec kAllCodecs[] = {Codec::kRaw, Codec::kBitPack};

/// \brief Build-time codec policy for an index. kRaw disables compression
/// entirely (every path byte-identical to pre-codec builds). kAuto stores a
/// bucket as kBitPack exactly when that is strictly smaller than raw.
enum class CodecMode : uint8_t {
  kRaw = 0,
  kAuto = 1,
};

const char* CodecName(Codec codec);
const char* CodecModeName(CodecMode mode);

/// Parses "raw" / "auto"; InvalidArgument otherwise.
Result<CodecMode> CodecModeFromName(const std::string& name);

/// Validates a persisted codec id; InvalidArgument unless it names a codec.
Result<Codec> CodecFromId(uint64_t id);

/// \brief Result of encoding one bucket. For kRaw, `bytes` stays empty and
/// callers use the raw entry bytes directly (no copy on the common path).
struct EncodedBucket {
  Codec codec = Codec::kRaw;
  std::vector<std::byte> bytes;

  /// Bytes this bucket occupies on the device.
  uint64_t stored_length(size_t count) const {
    return codec == Codec::kRaw ? count * kEntrySize : bytes.size();
  }
};

/// \brief Encodes `entries[0..count)` under `mode`. Deterministic; returns
/// kRaw (empty bytes) whenever bitpack does not beat the raw size strictly.
EncodedBucket EncodeBucket(const Entry* entries, size_t count, CodecMode mode);

/// \brief Decodes `size` stored bytes into exactly `count` entries at `out`
/// (caller-sized). Never crashes or overreads on arbitrary input; returns
/// Status::DataLoss on malformed/truncated/trailing bytes. For kRaw, `size`
/// must equal count * kEntrySize.
Status DecodeBucket(Codec codec, const std::byte* data, size_t size,
                    size_t count, Entry* out);

}  // namespace wavekit

#endif  // WAVEKIT_INDEX_CODEC_H_
