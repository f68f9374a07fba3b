#include "index/codec.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace wavekit {
namespace {

static_assert(std::endian::native == std::endian::little,
              "packed columns are moved as little-endian words");

// A 16-byte window holds any field of up to 64 bits at any bit offset within
// its first byte, so one shift places or extracts it.
__extension__ typedef unsigned __int128 Window;

// ---------------------------------------------------------------------------
// kBitPack: per-column base + fixed-width packed (value - base).
//
// Layout: [id base: 8B][id width: 1B][packed ids]
//         [day base: 4B][day width: 1B][packed days]
//         [aux base: 4B][aux width: 1B][packed auxes]
// A packed column holds `count` fields of `width` bits, LSB-first in a
// little-endian bit stream: field i is bits [i * width, (i + 1) * width).
// Fields are taken in the column's unsigned representation, so signed days
// work via two's-complement wraparound.

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

// Appends a column of `count` fields: the base, the width (0..64), then
// value(i) - base packed in `width` bits each.
template <typename Value>
void PackColumn(size_t count, uint64_t base, int base_bytes, int width,
                const Value& value, std::vector<std::byte>* out) {
  PutFixed(base, base_bytes, out);
  PutFixed(static_cast<uint64_t>(width), 1, out);
  if (width == 0) return;
  const size_t at = out->size();
  out->resize(at + PackedBytes(count, width));
  std::byte* p = out->data() + at;
  Window acc = 0;
  int acc_bits = 0;  // below 64 between fields
  for (size_t i = 0; i < count; ++i) {
    acc |= static_cast<Window>(value(i) - base) << acc_bits;
    acc_bits += width;
    if (acc_bits >= 64) {
      const uint64_t word = static_cast<uint64_t>(acc);
      std::memcpy(p, &word, 8);
      p += 8;
      acc >>= 64;
      acc_bits -= 64;
    }
  }
  const uint64_t word = static_cast<uint64_t>(acc);
  std::memcpy(p, &word, static_cast<size_t>(acc_bits + 7) / 8);
}

// Reads a column of `count` fields at data[*at..size) and hands field i to
// store(i, base + field); false if the column is malformed or truncated.
// Each field is cut from the 16-byte window at its first byte. Windows that
// would cross the column's end read a zero-padded copy of its last bytes
// instead, so nothing past the column is read.
template <typename Store>
bool UnpackColumn(const std::byte* data, size_t size, size_t* at, size_t count,
                  int base_bytes, int max_width, const Store& store) {
  uint64_t base = 0;
  uint64_t width = 0;
  if (!GetFixed(data, size, at, base_bytes, &base) ||
      !GetFixed(data, size, at, 1, &width) ||
      width > static_cast<uint64_t>(max_width)) {
    return false;
  }
  if (width == 0) {
    for (size_t i = 0; i < count; ++i) store(i, base);
    return true;
  }
  const uint64_t bytes = PackedBytes(count, static_cast<int>(width));
  if (size - *at < bytes) return false;
  const std::byte* column = data + *at;
  *at += bytes;

  const uint64_t mask = ~uint64_t{0} >> (64 - width);
  const auto field = [mask](const std::byte* window, uint64_t bit) {
    Window w;
    std::memcpy(&w, window, sizeof(w));
    return static_cast<uint64_t>(w >> (bit & 7)) & mask;
  };
  // Field i reads in place while its window ends inside the column.
  const size_t in_place =
      bytes < sizeof(Window)
          ? 0
          : std::min<uint64_t>(count,
                               ((bytes - sizeof(Window)) * 8 + 7) / width + 1);
  size_t i = 0;
  uint64_t bit = 0;
  for (; i < in_place; ++i) {
    store(i, base + field(column + (bit >> 3), bit));
    bit += width;
  }
  if (i == count) return true;
  // Fewer than 16 bytes remain from here on.
  const uint64_t tail_at = bit >> 3;
  std::byte tail[2 * sizeof(Window)] = {};
  std::memcpy(tail, column + tail_at, bytes - tail_at);
  for (; i < count; ++i) {
    store(i, base + field(tail + ((bit >> 3) - tail_at), bit));
    bit += width;
  }
  return true;
}

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
  PackColumn(
      count, plan.id_base, 8, plan.id_width,
      [entries](size_t i) { return entries[i].record_id; }, out);
  PackColumn(
      count, plan.day_base, 4, plan.day_width,
      [entries](size_t i) {
        return uint64_t{static_cast<uint32_t>(entries[i].day)};
      },
      out);
  PackColumn(
      count, plan.aux_base, 4, plan.aux_width,
      [entries](size_t i) { return uint64_t{entries[i].aux}; }, out);
}

Status BitPackDecode(const std::byte* data, size_t size, size_t count,
                     Entry* out) {
  size_t at = 0;
  if (!UnpackColumn(data, size, &at, count, 8, 64,
                    [out](size_t i, uint64_t v) { out[i].record_id = v; })) {
    return Status::DataLoss("codec: malformed bitpack record_id column");
  }
  if (!UnpackColumn(data, size, &at, count, 4, 32,
                    [out](size_t i, uint64_t v) {
                      out[i].day = static_cast<Day>(static_cast<uint32_t>(v));
                    })) {
    return Status::DataLoss("codec: malformed bitpack day column");
  }
  if (!UnpackColumn(data, size, &at, count, 4, 32,
                    [out](size_t i, uint64_t v) {
                      out[i].aux = static_cast<uint32_t>(v);
                    })) {
    return Status::DataLoss("codec: malformed bitpack aux column");
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
  }
  return "unknown";
}

Result<CodecMode> CodecModeFromName(const std::string& name) {
  if (name == "raw") return CodecMode::kRaw;
  if (name == "auto") return CodecMode::kAuto;
  return Status::InvalidArgument("unknown codec mode: " + name +
                                 " (want raw|auto)");
}

Result<Codec> CodecFromId(uint64_t id) {
  for (const Codec codec : kAllCodecs) {
    if (static_cast<uint64_t>(codec) == id) return codec;
  }
  return Status::InvalidArgument("unknown codec id: " + std::to_string(id));
}

EncodedBucket EncodeBucket(const Entry* entries, size_t count,
                           CodecMode mode) {
  EncodedBucket result;
  if (mode == CodecMode::kRaw || count == 0) return result;
  const BitPackPlan plan = PlanBitPack(entries, count);
  const size_t size = BitPackSize(count, plan);
  if (size >= count * kEntrySize) return result;
  result.codec = Codec::kBitPack;
  result.bytes.reserve(size);
  BitPackEncode(entries, count, plan, &result.bytes);
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
    case Codec::kBitPack:
      return BitPackDecode(data, size, count, out);
  }
  return Status::DataLoss("codec: unknown codec id");
}

}  // namespace wavekit
