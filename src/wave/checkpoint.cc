#include "wave/checkpoint.h"

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "util/crc32.h"
#include "util/fs.h"
#include "util/macros.h"

namespace wavekit {
namespace {

// Line-oriented text format. Values are written length-prefixed so any byte
// except '\n' is safe (and wavekit values never contain newlines):
//
//   wavekit-checkpoint 4
//   constituents <n>
//   constituent <len>:<name> packed <0|1> days <d1,d2,...> buckets <m>
//   bucket <len>:<value> <offset> <count> <capacity> <crc32c> <codec> <stored>
//   ...
//   footer <body-length> <crc32-of-body>
//
// The footer covers every byte before it; it is validated (length first,
// then CRC) before the body is parsed at all. Bucket lines carry the codec
// id (index/codec.h) and the stored byte length (the live prefix for raw
// buckets, the exact encoded extent otherwise).

void AppendLengthPrefixed(std::string* out, const std::string& s) {
  *out += std::to_string(s.size());
  *out += ':';
  *out += s;
}

class Parser {
 public:
  explicit Parser(const std::string& contents)
      : in_(contents), size_(contents.size()) {}

  Result<std::string> Token() {
    std::string token;
    if (!(in_ >> token)) return Status::InvalidArgument("truncated checkpoint");
    return token;
  }

  Result<int64_t> Int() {
    int64_t value;
    if (!(in_ >> value)) {
      return Status::InvalidArgument("expected integer in checkpoint");
    }
    return value;
  }

  Result<std::string> LengthPrefixed() {
    size_t length;
    char colon;
    if (!(in_ >> length >> colon) || colon != ':') {
      return Status::InvalidArgument("malformed length-prefixed string");
    }
    // A string cannot be longer than the file holding it; checking before
    // allocating keeps a corrupt length field from requesting gigabytes.
    if (length > size_) {
      return Status::InvalidArgument("length-prefixed string longer than file");
    }
    std::string out(length, '\0');
    if (!in_.read(out.data(), static_cast<std::streamsize>(length))) {
      return Status::InvalidArgument("truncated length-prefixed string");
    }
    return out;
  }

  Status Expect(const std::string& expected) {
    WAVEKIT_ASSIGN_OR_RETURN(std::string token, Token());
    if (token != expected) {
      return Status::InvalidArgument("expected '" + expected + "', found '" +
                                     token + "'");
    }
    return Status::OK();
  }

 private:
  std::istringstream in_;
  size_t size_;
};

Result<TimeSet> ParseDays(const std::string& csv) {
  TimeSet days;
  std::istringstream in(csv);
  std::string piece;
  while (std::getline(in, piece, ',')) {
    if (piece.empty()) continue;
    // strtol instead of std::stol: a corrupt file must surface as a Status,
    // not an exception.
    errno = 0;
    char* end = nullptr;
    const long value = std::strtol(piece.c_str(), &end, 10);
    if (end == piece.c_str() || *end != '\0' || errno == ERANGE ||
        value < std::numeric_limits<Day>::min() ||
        value > std::numeric_limits<Day>::max()) {
      return Status::InvalidArgument("malformed day '" + piece +
                                     "' in checkpoint");
    }
    days.insert(static_cast<Day>(value));
  }
  return days;
}

// Validates the trailing "footer <body-length> <crc32>\n" line and returns
// the body (everything before the footer line). The length check catches
// truncation and appended garbage; the CRC catches bit flips.
Result<std::string> CheckFooter(const std::string& contents) {
  const size_t footer_at = contents.rfind("\nfooter ");
  // The footer must be the complete last line: a file that lost even its
  // final newline was not written out in full.
  if (footer_at == std::string::npos || contents.back() != '\n') {
    return Status::InvalidArgument(
        "checkpoint footer missing (file truncated or corrupt)");
  }
  const std::string footer_line = contents.substr(footer_at + 1);
  std::istringstream in(footer_line);
  std::string tag;
  uint64_t body_length = 0;
  uint64_t crc = 0;
  if (!(in >> tag >> body_length >> crc) || tag != "footer") {
    return Status::InvalidArgument("malformed checkpoint footer");
  }
  if (body_length != footer_at + 1) {
    return Status::InvalidArgument(
        "checkpoint length mismatch: footer says " +
        std::to_string(body_length) + " body bytes, file has " +
        std::to_string(footer_at + 1) + " (file truncated or corrupt)");
  }
  std::string body = contents.substr(0, body_length);
  if (Crc32(body) != crc) {
    return Status::InvalidArgument(
        "checkpoint CRC mismatch (file corrupt)");
  }
  return body;
}

}  // namespace

Result<std::string> SerializeCheckpoint(const WaveIndex& wave) {
  std::string out;
  out += "wavekit-checkpoint " + std::to_string(kCheckpointVersion) + "\n";
  out += "constituents " + std::to_string(wave.num_constituents()) + "\n";
  for (const auto& constituent : wave.constituents()) {
    out += "constituent ";
    AppendLengthPrefixed(&out, constituent->name());
    out += std::string(" packed ") + (constituent->packed() ? "1" : "0");
    out += " days ";
    bool first = true;
    for (Day d : constituent->time_set()) {
      if (!first) out += ",";
      out += std::to_string(d);
      first = false;
    }
    if (constituent->time_set().empty()) out += "-";
    out += " buckets " + std::to_string(constituent->distinct_values()) + "\n";
    Status status = constituent->ForEachBucket(
        [&out](const Value& value, const BucketInfo& info) {
          out += "bucket ";
          AppendLengthPrefixed(&out, value);
          out += " " + std::to_string(info.extent.offset) + " " +
                 std::to_string(info.count) + " " +
                 std::to_string(info.capacity) + " " +
                 std::to_string(info.crc) + " " +
                 std::to_string(static_cast<int>(info.codec)) + " " +
                 std::to_string(info.stored_length()) + "\n";
        });
    WAVEKIT_RETURN_NOT_OK(status);
  }
  out += "footer " + std::to_string(out.size()) + " " +
         std::to_string(Crc32(out)) + "\n";
  return out;
}

Status WriteCheckpoint(const WaveIndex& wave, const std::string& path) {
  WAVEKIT_ASSIGN_OR_RETURN(std::string contents, SerializeCheckpoint(wave));
  return AtomicWriteFile(path, contents, "checkpoint");
}

Result<WaveIndex> DeserializeCheckpoint(const std::string& contents,
                                        Device* device,
                                        ExtentAllocator* allocator,
                                        ConstituentIndex::Options options) {
  // Header first (so a checkpoint from another format version gets a clear
  // version error, not a footer complaint), then footer integrity, then body.
  {
    Parser header(contents);
    WAVEKIT_RETURN_NOT_OK(header.Expect("wavekit-checkpoint"));
    WAVEKIT_ASSIGN_OR_RETURN(const int64_t version, header.Int());
    if (version != kCheckpointVersion) {
      return Status::InvalidArgument("unsupported checkpoint version " +
                                     std::to_string(version));
    }
  }
  WAVEKIT_ASSIGN_OR_RETURN(std::string body, CheckFooter(contents));
  Parser parser(body);
  WAVEKIT_RETURN_NOT_OK(parser.Expect("wavekit-checkpoint"));
  WAVEKIT_RETURN_NOT_OK(parser.Int().status());
  WAVEKIT_RETURN_NOT_OK(parser.Expect("constituents"));
  WAVEKIT_ASSIGN_OR_RETURN(int64_t num_constituents, parser.Int());
  if (num_constituents < 0) {
    return Status::InvalidArgument("negative constituent count");
  }

  WaveIndex wave;
  for (int64_t i = 0; i < num_constituents; ++i) {
    WAVEKIT_RETURN_NOT_OK(parser.Expect("constituent"));
    WAVEKIT_ASSIGN_OR_RETURN(std::string name, parser.LengthPrefixed());
    WAVEKIT_RETURN_NOT_OK(parser.Expect("packed"));
    WAVEKIT_ASSIGN_OR_RETURN(int64_t packed, parser.Int());
    WAVEKIT_RETURN_NOT_OK(parser.Expect("days"));
    WAVEKIT_ASSIGN_OR_RETURN(std::string days_csv, parser.Token());
    WAVEKIT_RETURN_NOT_OK(parser.Expect("buckets"));
    WAVEKIT_ASSIGN_OR_RETURN(int64_t num_buckets, parser.Int());

    auto index = std::make_shared<ConstituentIndex>(device, allocator, options,
                                                    name);
    for (int64_t b = 0; b < num_buckets; ++b) {
      WAVEKIT_RETURN_NOT_OK(parser.Expect("bucket"));
      WAVEKIT_ASSIGN_OR_RETURN(std::string value, parser.LengthPrefixed());
      WAVEKIT_ASSIGN_OR_RETURN(int64_t offset, parser.Int());
      WAVEKIT_ASSIGN_OR_RETURN(int64_t count, parser.Int());
      WAVEKIT_ASSIGN_OR_RETURN(int64_t capacity, parser.Int());
      WAVEKIT_ASSIGN_OR_RETURN(int64_t crc, parser.Int());
      if (crc < 0 || crc > std::numeric_limits<uint32_t>::max()) {
        return Status::InvalidArgument("corrupt bucket crc for '" + value +
                                       "'");
      }
      WAVEKIT_ASSIGN_OR_RETURN(int64_t codec_id, parser.Int());
      if (codec_id < 0) {
        return Status::InvalidArgument("corrupt bucket codec for '" + value +
                                       "'");
      }
      WAVEKIT_ASSIGN_OR_RETURN(const Codec codec,
                               CodecFromId(static_cast<uint64_t>(codec_id)));
      WAVEKIT_ASSIGN_OR_RETURN(int64_t stored, parser.Int());
      // Bounds before any cast: a corrupt offset/capacity must not wrap into
      // a plausible-looking extent.
      if (count < 0 || capacity < count || offset < 0 ||
          capacity > static_cast<int64_t>(device->capacity() / kEntrySize)) {
        return Status::InvalidArgument("corrupt bucket bounds for '" + value +
                                       "'");
      }
      // The stored length must agree with the codec's invariants: raw
      // buckets store exactly their live prefix inside a capacity-sized
      // extent; compressed buckets are exactly filled and strictly beat the
      // raw size.
      if (codec == Codec::kRaw) {
        if (stored != count * static_cast<int64_t>(kEntrySize)) {
          return Status::InvalidArgument(
              "corrupt stored length for raw bucket '" + value + "'");
        }
      } else {
        if (count != capacity || stored <= 0 ||
            stored >= count * static_cast<int64_t>(kEntrySize)) {
          return Status::InvalidArgument(
              "corrupt stored length for compressed bucket '" + value + "'");
        }
      }
      const Extent extent{
          static_cast<uint64_t>(offset),
          codec == Codec::kRaw ? static_cast<uint64_t>(capacity) * kEntrySize
                               : static_cast<uint64_t>(stored)};
      WAVEKIT_RETURN_NOT_OK(
          allocator->Reserve(extent).WithContext("reserving bucket of '" +
                                                 value + "'"));
      WAVEKIT_RETURN_NOT_OK(index->InstallBucket(
          value,
          BucketInfo{extent, static_cast<uint32_t>(count),
                     static_cast<uint32_t>(capacity),
                     static_cast<uint32_t>(crc), codec}));
    }
    if (days_csv != "-") {
      WAVEKIT_ASSIGN_OR_RETURN(index->mutable_time_set(), ParseDays(days_csv));
    }
    index->set_packed(packed != 0);
    WAVEKIT_RETURN_NOT_OK(index->CheckConsistency());
    wave.AddIndex(std::move(index));
  }
  return wave;
}

Result<WaveIndex> LoadCheckpoint(const std::string& path, Device* device,
                                 ExtentAllocator* allocator,
                                 ConstituentIndex::Options options) {
  WAVEKIT_ASSIGN_OR_RETURN(std::string contents, ReadFileToString(path));
  return DeserializeCheckpoint(contents, device, allocator, options);
}

}  // namespace wavekit
