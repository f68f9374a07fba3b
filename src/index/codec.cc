#include "index/codec.h"

#include <bit>
#include <cstring>
#include <limits>

namespace wavekit {
namespace {

// ---------------------------------------------------------------------------
// Varint / zigzag primitives (LEB128, little-endian groups of 7 bits).

inline uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

inline int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

// Column deltas are taken and summed in uint64_t, which wraps where int64_t
// arithmetic would overflow (far-apart record ids, hostile bytes). Wherever
// the signed difference fits, the zigzag code is the same as signed
// arithmetic's.
inline uint64_t ZigZagDelta(uint64_t value, uint64_t prev) {
  return ZigZag(static_cast<int64_t>(value - prev));
}

inline size_t VarintSize(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

inline void PutVarint(uint64_t v, std::vector<std::byte>* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<std::byte>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<std::byte>(v));
}

// Bounds-checked varint read. Rejects encodings longer than 10 bytes and
// set bits beyond the 64th (non-canonical / overflowing input).
inline bool GetVarint(const std::byte* data, size_t size, size_t* at,
                      uint64_t* out) {
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (*at >= size) return false;
    const uint64_t b = static_cast<uint64_t>(data[(*at)++]);
    if (shift == 63 && (b & 0xfe) != 0) return false;  // overflows 64 bits
    v |= (b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      *out = v;
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Bit packing primitives.

inline int BitWidth(uint64_t max_delta) {
  return max_delta == 0 ? 0 : 64 - std::countl_zero(max_delta);
}

inline uint64_t PackedBytes(size_t count, int width) {
  return (static_cast<uint64_t>(count) * static_cast<uint64_t>(width) + 7) / 8;
}

void PutFixed(uint64_t v, int bytes, std::vector<std::byte>* out) {
  for (int i = 0; i < bytes; ++i) {
    out->push_back(static_cast<std::byte>(v & 0xff));
    v >>= 8;
  }
}

inline bool GetFixed(const std::byte* data, size_t size, size_t* at, int bytes,
                     uint64_t* out) {
  if (size - *at < static_cast<size_t>(bytes)) return false;
  uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<uint64_t>(data[*at + i]) << (8 * i);
  }
  *at += bytes;
  *out = v;
  return true;
}

// Appends `count` fields of `width` bits each, LSB-first in a little-endian
// bit stream. Requires width <= 57 so a field always fits the accumulator
// alongside up to 7 pending bits; wider fields go through PackColumnWide.
void PackColumn(const uint64_t* deltas, size_t count, int width,
                std::vector<std::byte>* out) {
  if (width == 0) return;
  uint64_t acc = 0;
  int acc_bits = 0;
  for (size_t i = 0; i < count; ++i) {
    acc |= deltas[i] << acc_bits;
    acc_bits += width;
    while (acc_bits >= 8) {
      out->push_back(static_cast<std::byte>(acc & 0xff));
      acc >>= 8;
      acc_bits -= 8;
    }
  }
  if (acc_bits > 0) out->push_back(static_cast<std::byte>(acc & 0xff));
}

bool UnpackColumn(const std::byte* data, size_t size, size_t* at, size_t count,
                  int width, uint64_t* out) {
  if (width == 0) {
    for (size_t i = 0; i < count; ++i) out[i] = 0;
    return true;
  }
  const uint64_t need = PackedBytes(count, width);
  if (size - *at < need) return false;
  const std::byte* p = data + *at;
  uint64_t acc = 0;
  int acc_bits = 0;
  size_t byte_at = 0;
  const uint64_t mask =
      width == 64 ? ~uint64_t{0} : ((uint64_t{1} << width) - 1);
  for (size_t i = 0; i < count; ++i) {
    while (acc_bits < width) {
      // Widths up to 57 always fit; for wider fields split the load.
      if (acc_bits <= 56) {
        acc |= static_cast<uint64_t>(p[byte_at++]) << acc_bits;
        acc_bits += 8;
      } else {
        break;
      }
    }
    if (acc_bits >= width) {
      out[i] = acc & mask;
      acc >>= width;
      acc_bits -= width;
    } else {
      // width in (57, 64]: assemble from acc plus the remaining high bits.
      uint64_t v = acc;
      int have = acc_bits;
      acc = 0;
      acc_bits = 0;
      while (have < width) {
        const uint64_t b = static_cast<uint64_t>(p[byte_at++]);
        if (have + 8 <= width) {
          v |= b << have;
          have += 8;
        } else {
          const int take = width - have;
          v |= (b & ((uint64_t{1} << take) - 1)) << have;
          acc = b >> take;
          acc_bits = 8 - take;
          have = width;
        }
      }
      out[i] = v & mask;
    }
  }
  *at += need;
  return true;
}

// The wide-field path in PackColumn: widths above 57 can carry more pending
// bits than the 64-bit accumulator holds after a flush, so packing splits
// each field into byte-sized emissions directly.
void PackColumnWide(const uint64_t* deltas, size_t count, int width,
                    std::vector<std::byte>* out) {
  uint64_t acc = 0;
  int acc_bits = 0;
  for (size_t i = 0; i < count; ++i) {
    uint64_t v = deltas[i];
    int left = width;
    while (left > 0) {
      const int take = std::min(8 - acc_bits, left);
      acc |= (v & ((uint64_t{1} << take) - 1)) << acc_bits;
      v >>= take;
      left -= take;
      acc_bits += take;
      if (acc_bits == 8) {
        out->push_back(static_cast<std::byte>(acc));
        acc = 0;
        acc_bits = 0;
      }
    }
  }
  if (acc_bits > 0) out->push_back(static_cast<std::byte>(acc));
}

// ---------------------------------------------------------------------------
// kDelta: columnar zigzag-delta varints.

// A day as the uint64_t its column deltas are taken in (sign-extended).
inline uint64_t DayBits(Day day) {
  return static_cast<uint64_t>(int64_t{day});
}

size_t DeltaSize(const Entry* entries, size_t count) {
  size_t total = 0;
  uint64_t prev_id = 0;
  uint64_t prev_day = 0;
  for (size_t i = 0; i < count; ++i) {
    total += VarintSize(ZigZagDelta(entries[i].record_id, prev_id));
    total += VarintSize(ZigZagDelta(DayBits(entries[i].day), prev_day));
    total += VarintSize(entries[i].aux);
    prev_id = entries[i].record_id;
    prev_day = DayBits(entries[i].day);
  }
  return total;
}

void DeltaEncode(const Entry* entries, size_t count,
                 std::vector<std::byte>* out) {
  uint64_t prev = 0;
  for (size_t i = 0; i < count; ++i) {
    PutVarint(ZigZagDelta(entries[i].record_id, prev), out);
    prev = entries[i].record_id;
  }
  prev = 0;
  for (size_t i = 0; i < count; ++i) {
    PutVarint(ZigZagDelta(DayBits(entries[i].day), prev), out);
    prev = DayBits(entries[i].day);
  }
  for (size_t i = 0; i < count; ++i) {
    PutVarint(entries[i].aux, out);
  }
}

Status DeltaDecode(const std::byte* data, size_t size, size_t count,
                   Entry* out) {
  size_t at = 0;
  uint64_t v = 0;
  uint64_t prev = 0;
  for (size_t i = 0; i < count; ++i) {
    if (!GetVarint(data, size, &at, &v)) {
      return Status::DataLoss("codec: truncated delta record_id column");
    }
    prev += static_cast<uint64_t>(UnZigZag(v));
    out[i].record_id = prev;
  }
  prev = 0;
  for (size_t i = 0; i < count; ++i) {
    if (!GetVarint(data, size, &at, &v)) {
      return Status::DataLoss("codec: truncated delta day column");
    }
    prev += static_cast<uint64_t>(UnZigZag(v));
    const int64_t day = static_cast<int64_t>(prev);
    if (day < std::numeric_limits<Day>::min() ||
        day > std::numeric_limits<Day>::max()) {
      return Status::DataLoss("codec: delta day out of range");
    }
    out[i].day = static_cast<Day>(day);
  }
  for (size_t i = 0; i < count; ++i) {
    if (!GetVarint(data, size, &at, &v)) {
      return Status::DataLoss("codec: truncated delta aux column");
    }
    if (v > std::numeric_limits<uint32_t>::max()) {
      return Status::DataLoss("codec: delta aux out of range");
    }
    out[i].aux = static_cast<uint32_t>(v);
  }
  if (at != size) {
    return Status::DataLoss("codec: trailing bytes after delta columns");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// kBitPack: per-column base + fixed-width packed (value - base).
//
// Layout: [id base: 8B][id width: 1B][packed ids]
//         [day base: 4B][day width: 1B][packed days]
//         [aux base: 4B][aux width: 1B][packed auxes]
// Deltas are computed in the column's unsigned representation, so signed
// days work via two's-complement wraparound.

struct BitPackPlan {
  uint64_t id_base = 0, day_base = 0, aux_base = 0;
  int id_width = 0, day_width = 0, aux_width = 0;
};

BitPackPlan PlanBitPack(const Entry* entries, size_t count) {
  BitPackPlan plan;
  uint64_t id_min = entries[0].record_id, id_max = entries[0].record_id;
  uint32_t day_min = static_cast<uint32_t>(entries[0].day);
  uint32_t day_max = day_min;
  uint32_t aux_min = entries[0].aux, aux_max = entries[0].aux;
  for (size_t i = 1; i < count; ++i) {
    id_min = std::min(id_min, entries[i].record_id);
    id_max = std::max(id_max, entries[i].record_id);
    const uint32_t d = static_cast<uint32_t>(entries[i].day);
    day_min = std::min(day_min, d);
    day_max = std::max(day_max, d);
    aux_min = std::min(aux_min, entries[i].aux);
    aux_max = std::max(aux_max, entries[i].aux);
  }
  plan.id_base = id_min;
  plan.day_base = day_min;
  plan.aux_base = aux_min;
  plan.id_width = BitWidth(id_max - id_min);
  plan.day_width = BitWidth(uint64_t{day_max} - day_min);
  plan.aux_width = BitWidth(uint64_t{aux_max} - aux_min);
  return plan;
}

size_t BitPackSize(size_t count, const BitPackPlan& plan) {
  return (8 + 1 + PackedBytes(count, plan.id_width)) +
         (4 + 1 + PackedBytes(count, plan.day_width)) +
         (4 + 1 + PackedBytes(count, plan.aux_width));
}

void BitPackEncode(const Entry* entries, size_t count, const BitPackPlan& plan,
                   std::vector<std::byte>* out) {
  std::vector<uint64_t> deltas(count);

  PutFixed(plan.id_base, 8, out);
  PutFixed(static_cast<uint64_t>(plan.id_width), 1, out);
  for (size_t i = 0; i < count; ++i) {
    deltas[i] = entries[i].record_id - plan.id_base;
  }
  if (plan.id_width > 57) {
    PackColumnWide(deltas.data(), count, plan.id_width, out);
  } else {
    PackColumn(deltas.data(), count, plan.id_width, out);
  }

  PutFixed(plan.day_base, 4, out);
  PutFixed(static_cast<uint64_t>(plan.day_width), 1, out);
  for (size_t i = 0; i < count; ++i) {
    deltas[i] = uint64_t{static_cast<uint32_t>(entries[i].day)} -
                plan.day_base;
  }
  PackColumn(deltas.data(), count, plan.day_width, out);

  PutFixed(plan.aux_base, 4, out);
  PutFixed(static_cast<uint64_t>(plan.aux_width), 1, out);
  for (size_t i = 0; i < count; ++i) {
    deltas[i] = uint64_t{entries[i].aux} - plan.aux_base;
  }
  PackColumn(deltas.data(), count, plan.aux_width, out);
}

Status BitPackDecode(const std::byte* data, size_t size, size_t count,
                     Entry* out) {
  size_t at = 0;
  uint64_t base = 0, width = 0;
  std::vector<uint64_t> deltas(count);

  if (!GetFixed(data, size, &at, 8, &base) ||
      !GetFixed(data, size, &at, 1, &width) || width > 64 ||
      !UnpackColumn(data, size, &at, count, static_cast<int>(width),
                    deltas.data())) {
    return Status::DataLoss("codec: malformed bitpack record_id column");
  }
  for (size_t i = 0; i < count; ++i) out[i].record_id = base + deltas[i];

  if (!GetFixed(data, size, &at, 4, &base) ||
      !GetFixed(data, size, &at, 1, &width) || width > 32 ||
      !UnpackColumn(data, size, &at, count, static_cast<int>(width),
                    deltas.data())) {
    return Status::DataLoss("codec: malformed bitpack day column");
  }
  for (size_t i = 0; i < count; ++i) {
    out[i].day = static_cast<Day>(
        static_cast<uint32_t>(base + deltas[i]));
  }

  if (!GetFixed(data, size, &at, 4, &base) ||
      !GetFixed(data, size, &at, 1, &width) || width > 32 ||
      !UnpackColumn(data, size, &at, count, static_cast<int>(width),
                    deltas.data())) {
    return Status::DataLoss("codec: malformed bitpack aux column");
  }
  for (size_t i = 0; i < count; ++i) {
    out[i].aux = static_cast<uint32_t>(base + deltas[i]);
  }

  if (at != size) {
    return Status::DataLoss("codec: trailing bytes after bitpack columns");
  }
  return Status::OK();
}

}  // namespace

const char* CodecName(Codec codec) {
  switch (codec) {
    case Codec::kRaw:
      return "raw";
    case Codec::kDelta:
      return "delta";
    case Codec::kBitPack:
      return "bitpack";
  }
  return "unknown";
}

const char* CodecModeName(CodecMode mode) {
  switch (mode) {
    case CodecMode::kRaw:
      return "raw";
    case CodecMode::kAuto:
      return "auto";
    case CodecMode::kDelta:
      return "delta";
    case CodecMode::kBitPack:
      return "bitpack";
  }
  return "unknown";
}

Result<CodecMode> CodecModeFromName(const std::string& name) {
  if (name == "raw") return CodecMode::kRaw;
  if (name == "auto") return CodecMode::kAuto;
  if (name == "delta") return CodecMode::kDelta;
  if (name == "bitpack") return CodecMode::kBitPack;
  return Status::InvalidArgument("unknown codec mode: " + name +
                                 " (want raw|auto|delta|bitpack)");
}

Result<Codec> CodecFromId(uint64_t id) {
  if (id >= static_cast<uint64_t>(kNumCodecs)) {
    return Status::InvalidArgument("codec id out of range: " +
                                   std::to_string(id));
  }
  return static_cast<Codec>(id);
}

EncodedBucket EncodeBucket(const Entry* entries, size_t count,
                           CodecMode mode) {
  EncodedBucket result;
  if (mode == CodecMode::kRaw || count == 0) return result;

  const size_t raw_size = count * kEntrySize;
  const bool try_delta =
      mode == CodecMode::kAuto || mode == CodecMode::kDelta;
  const bool try_bitpack =
      mode == CodecMode::kAuto || mode == CodecMode::kBitPack;

  const size_t delta_size =
      try_delta ? DeltaSize(entries, count) : raw_size;
  BitPackPlan plan;
  size_t bitpack_size = raw_size;
  if (try_bitpack) {
    plan = PlanBitPack(entries, count);
    bitpack_size = BitPackSize(count, plan);
  }

  // Strictly-smaller-than-raw wins; between codecs the smaller wins, with
  // kDelta (the lower id) as the deterministic tiebreak.
  Codec winner = Codec::kRaw;
  size_t winner_size = raw_size;
  if (try_delta && delta_size < winner_size) {
    winner = Codec::kDelta;
    winner_size = delta_size;
  }
  if (try_bitpack && bitpack_size < winner_size) {
    winner = Codec::kBitPack;
    winner_size = bitpack_size;
  }
  if (winner == Codec::kRaw) return result;

  result.codec = winner;
  result.bytes.reserve(winner_size);
  if (winner == Codec::kDelta) {
    DeltaEncode(entries, count, &result.bytes);
  } else {
    BitPackEncode(entries, count, plan, &result.bytes);
  }
  return result;
}

Status DecodeBucket(Codec codec, const std::byte* data, size_t size,
                    size_t count, Entry* out) {
  switch (codec) {
    case Codec::kRaw:
      if (size != count * kEntrySize) {
        return Status::DataLoss("codec: raw bucket size mismatch");
      }
      if (count > 0) std::memcpy(out, data, size);
      return Status::OK();
    case Codec::kDelta:
      return DeltaDecode(data, size, count, out);
    case Codec::kBitPack:
      return BitPackDecode(data, size, count, out);
  }
  return Status::DataLoss("codec: unknown codec id");
}

}  // namespace wavekit
