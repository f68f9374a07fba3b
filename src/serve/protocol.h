// waved wire protocol: transport-free frame encode / decode / validate.
//
// The serving stack splits into this pure codec layer and the socket-owning
// ServerLoop (serve/server_loop.h). Nothing here touches a file descriptor:
// frames go in and out as byte strings, which is what makes the protocol
// fuzzable (tests/fuzz/fuzz_protocol.cc feeds arbitrary bytes straight into
// FrameReader) and sim-drivable (testing/server_sim.h runs a whole server
// over an in-memory loopback under SimClock/SimExecutor).
//
// Wire format (all integers little-endian):
//
//   frame   := header payload
//   header  := payload_len:u32 version:u8 type:u8 tenant_id:u16 request_id:u32
//              (12 bytes; payload_len counts payload only, max 4 MiB)
//
// Request payloads (client -> server):
//   PROBE   := lo:i32 hi:i32 value_len:u32 value:bytes
//   SCAN    := lo:i32 hi:i32 max_entries:u32   (0 = all that fit one reply)
//   ADVANCE := day:i32 record_count:u32 record*
//     record := record_id:u64 num_values:u16 (value_len:u32 value:bytes aux:u32)*
//   STATS   := (empty)
//   HEALTH  := (empty)
//
// Reply payloads (server -> client) all begin with a result prefix:
//   result  := code:u8 detail_len:u16 detail:bytes
// where code is the wavekit StatusCode (kOk, kPartialResult for degraded
// serving, kResourceExhausted for rate limiting, ...). A reply frame's type
// is the request type with the high bit set; kErrorReply (0xFF) answers
// frames whose request type was itself unusable. Bodies follow the result
// prefix when code is kOk or kPartialResult (a degraded answer still carries
// the entries it could assemble):
//   PROBE/SCAN reply := result stats entry_count:u32 entry*
//     stats  := accessed:u32 skipped:u32 unhealthy:u32 failed:u32
//               fallbacks:u32 entries_returned:u64
//     entry  := record_id:u64 day:i32 aux:u32
//   ADVANCE reply    := result current_day:i32
//   STATS reply      := result probes:u64 scans:u64 days_advanced:u64
//                       async_advances:u64 pending_advances:u64
//                       degraded_advances:u64 partial_results:u64
//                       current_day:i32 degraded:u8
//   HEALTH reply     := result degraded:u8 detail_len:u32 detail:bytes
//   error reply      := result

#ifndef WAVEKIT_SERVE_PROTOCOL_H_
#define WAVEKIT_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "index/entry.h"
#include "index/record.h"
#include "util/day.h"
#include "util/status.h"
#include "wave/wave_index.h"

namespace wavekit {
namespace serve {

inline constexpr uint8_t kProtocolVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 12;
/// Upper bound on a frame payload; FrameReader rejects larger frames before
/// buffering a single payload byte, so a hostile length field cannot drive
/// allocation.
inline constexpr uint32_t kMaxPayloadBytes = 4u << 20;
/// The most entries one PROBE/SCAN reply can carry within kMaxPayloadBytes:
/// room is kept for the largest result prefix (code:u8, detail_len:u16 and a
/// detail the encoder clamps to 0xFFFF bytes), the stats (28 bytes) and
/// entry_count:u32, at 16 bytes per entry.
inline constexpr uint32_t kMaxReplyEntries =
    (kMaxPayloadBytes - (3 + 0xFFFF) - 28 - 4) / 16;

enum class FrameType : uint8_t {
  kProbe = 1,
  kScan = 2,
  kAdvance = 3,
  kStats = 4,
  kHealth = 5,
  kProbeReply = 0x81,
  kScanReply = 0x82,
  kAdvanceReply = 0x83,
  kStatsReply = 0x84,
  kHealthReply = 0x85,
  /// Answers a frame whose request type was unrecognized; also the type of
  /// the final frame sent before closing a connection whose stream became
  /// unparseable (bad version / oversized frame).
  kErrorReply = 0xFF,
};

/// True for the five client-originated request types.
bool IsRequestType(uint8_t type);

struct FrameHeader {
  uint32_t payload_len = 0;
  uint8_t version = kProtocolVersion;
  uint8_t type = 0;
  uint16_t tenant_id = 0;
  uint32_t request_id = 0;
};

struct Frame {
  FrameHeader header;
  std::string payload;
};

// --- Request bodies ---------------------------------------------------------

struct ProbeRequest {
  DayRange range;
  Value value;
};

struct ScanRequest {
  DayRange range;
  /// Entries after which the server truncates the reply with kPartialResult
  /// (a transport guard, not a query semantic). 0 asks for as many as fit in
  /// one reply frame; the server never sends more than kMaxReplyEntries.
  uint32_t max_entries = 0;
};

struct AdvanceRequest {
  DayBatch batch;
};

// --- Reply bodies -----------------------------------------------------------

/// The result prefix every reply starts with.
struct WireResult {
  StatusCode code = StatusCode::kOk;
  std::string detail;

  bool ok() const { return code == StatusCode::kOk; }
  /// kOk or kPartialResult — the reply carries a usable body.
  bool has_body() const {
    return code == StatusCode::kOk || code == StatusCode::kPartialResult;
  }
};

struct QueryReply {
  WireResult result;
  QueryStats stats;
  std::vector<Entry> entries;
};

struct AdvanceReply {
  WireResult result;
  Day current_day = 0;
};

struct StatsReply {
  WireResult result;
  uint64_t probes = 0;
  uint64_t scans = 0;
  uint64_t days_advanced = 0;
  uint64_t async_advances = 0;
  uint64_t pending_advances = 0;
  uint64_t degraded_advances = 0;
  uint64_t partial_results = 0;
  Day current_day = 0;
  bool degraded = false;
};

struct HealthReply {
  WireResult result;
  bool degraded = false;
  std::string detail;
};

// --- Encode -----------------------------------------------------------------
//
// Encoders cannot fail (they serialize well-formed in-memory structs); each
// returns the complete frame, header included, ready to write to a socket.

std::string EncodeProbeRequest(uint16_t tenant_id, uint32_t request_id,
                               const ProbeRequest& request);
std::string EncodeScanRequest(uint16_t tenant_id, uint32_t request_id,
                              const ScanRequest& request);
std::string EncodeAdvanceRequest(uint16_t tenant_id, uint32_t request_id,
                                 const AdvanceRequest& request);
std::string EncodeStatsRequest(uint16_t tenant_id, uint32_t request_id);
std::string EncodeHealthRequest(uint16_t tenant_id, uint32_t request_id);

std::string EncodeQueryReply(const FrameHeader& request, const QueryReply& reply);
std::string EncodeAdvanceReply(const FrameHeader& request,
                               const AdvanceReply& reply);
std::string EncodeStatsReply(const FrameHeader& request, const StatsReply& reply);
std::string EncodeHealthReply(const FrameHeader& request,
                              const HealthReply& reply);
/// An error reply echoing `request`'s tenant/request ids; `type` chooses the
/// reply frame type (kErrorReply for unusable requests, or the matching
/// reply type when a well-typed request failed).
std::string EncodeErrorReply(const FrameHeader& request, FrameType type,
                             StatusCode code, const std::string& detail);

/// Low-level frame assembly for tests and the fuzzer: wraps `payload` in a
/// header with the given fields verbatim (no validation).
std::string EncodeRawFrame(uint8_t version, uint8_t type, uint16_t tenant_id,
                           uint32_t request_id, const std::string& payload);

// --- Decode -----------------------------------------------------------------
//
// Decoders validate exhaustively: every read is bounds-checked, trailing
// bytes are rejected, and no decoder allocates more than a constant factor of
// the (already length-capped) payload. On error the out-param is untouched.

Status DecodeProbeRequest(const std::string& payload, ProbeRequest* out);
Status DecodeScanRequest(const std::string& payload, ScanRequest* out);
Status DecodeAdvanceRequest(const std::string& payload, AdvanceRequest* out);

Status DecodeQueryReply(const std::string& payload, QueryReply* out);
Status DecodeAdvanceReply(const std::string& payload, AdvanceReply* out);
Status DecodeStatsReply(const std::string& payload, StatsReply* out);
Status DecodeHealthReply(const std::string& payload, HealthReply* out);
/// Decodes just the result prefix (any reply type, including kErrorReply).
Status DecodeResultPrefix(const std::string& payload, WireResult* out);

// --- Incremental reassembly -------------------------------------------------

/// \brief Reassembles frames from an arbitrary byte stream (partial reads,
/// pipelined requests, hostile input).
///
/// Feed() appends bytes; Next() pops complete frames. A framing violation —
/// unsupported version or a payload_len beyond the cap — is *sticky*: the
/// stream past that point cannot be trusted, so Feed() keeps failing and the
/// connection must be torn down after sending one kErrorReply built from
/// error_header(). Violations are detected from the 12 header bytes alone,
/// before any payload is buffered.
class FrameReader {
 public:
  explicit FrameReader(uint32_t max_payload_bytes = kMaxPayloadBytes)
      : max_payload_bytes_(max_payload_bytes) {}

  /// Appends bytes to the stream. Returns the sticky framing error, if any.
  Status Feed(const void* data, size_t size);

  /// Pops the next complete frame into `out`. False when no complete frame
  /// is buffered (or the reader is in the error state).
  bool Next(Frame* out);

  /// The sticky framing error (OK while the stream is well-formed).
  const Status& error() const { return error_; }

  /// The header of the frame that broke the stream (valid when !error().ok();
  /// its tenant/request ids let the server address the final error reply).
  const FrameHeader& error_header() const { return error_header_; }

  /// Bytes buffered but not yet consumed by Next().
  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  uint32_t max_payload_bytes_;
  std::string buffer_;
  size_t consumed_ = 0;  // prefix of buffer_ already handed out via Next()
  Status error_;
  FrameHeader error_header_;
};

}  // namespace serve
}  // namespace wavekit

#endif  // WAVEKIT_SERVE_PROTOCOL_H_
