// libFuzzer target for the waved wire protocol (serve/protocol.h).
//
// FrameReader is the trust boundary between the network and the server: it
// sees raw socket bytes before any authentication or dispatch. The contract
// under fuzzing:
//
//   - Feed/Next on arbitrary bytes never crash, overread, or trip a
//     sanitizer, and never buffer more than header + max payload per frame
//     (a hostile length field must not drive allocation);
//   - the frame sequence is reassembly-invariant: feeding the same bytes
//     byte-by-byte yields exactly the frames one big Feed yields, with the
//     same sticky error at the same point;
//   - a popped frame re-encodes byte-identically (EncodeRawFrame is the
//     inverse of frame extraction);
//   - every body decoder (requests and replies) on a popped payload either
//     succeeds or returns InvalidArgument — never crashes, never
//     over-allocates on hostile count fields;
//   - decoded requests round-trip: encode(decode(frame)) re-decodes to the
//     same struct (for ADVANCE: every record id, value and aux);
//   - a decoded ADVANCE batch groups (GroupedDay::From, what the day store
//     keeps) exactly as a std::map keyed by value would.
//
// Build (Clang only):  cmake -B build-fuzz -S . -DWAVEKIT_FUZZ=ON \
//                          -DCMAKE_CXX_COMPILER=clang++
//                      cmake --build build-fuzz --target fuzz_protocol
// Run:                 build-fuzz/tests/fuzz/fuzz_protocol \
//                          tests/fuzz/corpus/protocol
//
// Without Clang, the same harness builds as a standalone corpus-replay
// binary (WAVEKIT_FUZZ_STANDALONE) — a regression driver, not a fuzzer.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "index/grouped_day.h"
#include "serve/protocol.h"
#include "util/status.h"

namespace {

using wavekit::Status;
using wavekit::StatusCode;
namespace serve = wavekit::serve;

void Trap(const char* what) {
  std::fprintf(stderr, "fuzz_protocol: %s\n", what);
  __builtin_trap();
}

/// Pops every complete frame, recording the final sticky error (if any).
std::vector<serve::Frame> DrainFrames(serve::FrameReader* reader,
                                      Status* final_error) {
  std::vector<serve::Frame> frames;
  serve::Frame frame;
  while (reader->Next(&frame)) frames.push_back(frame);
  *final_error = reader->error();
  return frames;
}

bool SameHeader(const serve::FrameHeader& a, const serve::FrameHeader& b) {
  return a.payload_len == b.payload_len && a.version == b.version &&
         a.type == b.type && a.tenant_id == b.tenant_id &&
         a.request_id == b.request_id;
}

/// Every decoder must return OK or InvalidArgument on arbitrary payloads —
/// anything else (or a crash, caught by the sanitizer) is a bug.
void CheckDecoderContract(const Status& status) {
  if (!status.ok() && status.code() != StatusCode::kInvalidArgument) {
    Trap("decoder returned neither OK nor InvalidArgument");
  }
}

/// Every record id, value and aux, not only the day and the record count.
bool SameBatch(const wavekit::DayBatch& a, const wavekit::DayBatch& b) {
  if (a.day != b.day || a.records.size() != b.records.size()) return false;
  for (size_t r = 0; r < a.records.size(); ++r) {
    const wavekit::Record& x = a.records[r];
    const wavekit::Record& y = b.records[r];
    if (x.record_id != y.record_id || x.values != y.values) return false;
    for (size_t i = 0; i < x.values.size(); ++i) {
      if (x.AuxFor(i) != y.AuxFor(i)) return false;
    }
  }
  return true;
}

/// The wire is the untrusted route into the day store, so every decoded
/// batch is grouped as DayStore::Put groups it and checked against a
/// std::map grouping: the same values in the same order, and per value the
/// same entries in record-then-position order.
void CheckGrouping(const wavekit::DayBatch& batch) {
  std::map<wavekit::Value, std::vector<wavekit::Entry>> reference;
  for (const wavekit::Record& record : batch.records) {
    for (size_t i = 0; i < record.values.size(); ++i) {
      reference[record.values[i]].push_back(
          wavekit::Entry{record.record_id, batch.day, record.AuxFor(i)});
    }
  }
  const wavekit::GroupedDay day = wavekit::GroupedDay::From(batch);
  if (day.day() != batch.day || day.record_count() != batch.records.size() ||
      day.EntryCount() != batch.EntryCount() ||
      day.value_count() != reference.size()) {
    Trap("grouped ADVANCE batch differs from the reference in shape");
  }
  size_t v = 0;
  for (const auto& [value, entries] : reference) {
    const std::span<const wavekit::GroupedDay::Posting> run = day.run(v);
    if (day.value(v) != value || run.size() != entries.size()) {
      Trap("grouped ADVANCE batch has a wrong value or run");
    }
    for (size_t i = 0; i < run.size(); ++i) {
      if (!(day.EntryOf(run[i]) == entries[i])) {
        Trap("grouped ADVANCE batch has a wrong entry");
      }
    }
    ++v;
  }
}

void ExerciseDecoders(const serve::Frame& frame) {
  {
    serve::ProbeRequest out;
    const Status status = serve::DecodeProbeRequest(frame.payload, &out);
    CheckDecoderContract(status);
    if (status.ok()) {
      const std::string encoded = serve::EncodeProbeRequest(
          frame.header.tenant_id, frame.header.request_id, out);
      serve::ProbeRequest again;
      if (!serve::DecodeProbeRequest(
               encoded.substr(serve::kFrameHeaderBytes), &again)
               .ok() ||
          again.range.lo != out.range.lo || again.range.hi != out.range.hi ||
          again.value != out.value) {
        Trap("PROBE round-trip mismatch");
      }
    }
  }
  {
    serve::ScanRequest out;
    const Status status = serve::DecodeScanRequest(frame.payload, &out);
    CheckDecoderContract(status);
    if (status.ok()) {
      const std::string encoded = serve::EncodeScanRequest(
          frame.header.tenant_id, frame.header.request_id, out);
      serve::ScanRequest again;
      if (!serve::DecodeScanRequest(encoded.substr(serve::kFrameHeaderBytes),
                                    &again)
               .ok() ||
          again.range.lo != out.range.lo || again.range.hi != out.range.hi ||
          again.max_entries != out.max_entries) {
        Trap("SCAN round-trip mismatch");
      }
    }
  }
  {
    serve::AdvanceRequest out;
    const Status status = serve::DecodeAdvanceRequest(frame.payload, &out);
    CheckDecoderContract(status);
    if (status.ok()) {
      const std::string encoded = serve::EncodeAdvanceRequest(
          frame.header.tenant_id, frame.header.request_id, out);
      serve::AdvanceRequest again;
      if (!serve::DecodeAdvanceRequest(
               encoded.substr(serve::kFrameHeaderBytes), &again)
               .ok() ||
          !SameBatch(again.batch, out.batch)) {
        Trap("ADVANCE round-trip mismatch");
      }
      CheckGrouping(out.batch);
    }
  }
  {
    serve::QueryReply out;
    CheckDecoderContract(serve::DecodeQueryReply(frame.payload, &out));
  }
  {
    serve::AdvanceReply out;
    CheckDecoderContract(serve::DecodeAdvanceReply(frame.payload, &out));
  }
  {
    serve::StatsReply out;
    CheckDecoderContract(serve::DecodeStatsReply(frame.payload, &out));
  }
  {
    serve::HealthReply out;
    CheckDecoderContract(serve::DecodeHealthReply(frame.payload, &out));
  }
  {
    serve::WireResult out;
    CheckDecoderContract(serve::DecodeResultPrefix(frame.payload, &out));
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  // Cap the reader the way a unit test would: hostile length fields are
  // exercised against a small limit so the error path fires often, and the
  // reader can never buffer beyond header + limit per frame.
  constexpr uint32_t kLimit = 1u << 16;

  serve::FrameReader whole(kLimit);
  (void)whole.Feed(data, size);
  Status whole_error;
  const std::vector<serve::Frame> frames = DrainFrames(&whole, &whole_error);

  // Reassembly invariance: byte-by-byte feeding yields the same frames and
  // the same terminal error.
  serve::FrameReader dribble(kLimit);
  for (size_t i = 0; i < size; ++i) {
    if (!dribble.Feed(data + i, 1).ok()) break;
  }
  Status dribble_error;
  const std::vector<serve::Frame> again = DrainFrames(&dribble, &dribble_error);
  if (frames.size() != again.size()) Trap("reassembly changed frame count");
  if (whole_error.ok() != dribble_error.ok() ||
      (!whole_error.ok() &&
       whole_error.message() != dribble_error.message())) {
    Trap("reassembly changed the sticky error");
  }
  if (!whole_error.ok() &&
      !SameHeader(whole.error_header(), dribble.error_header())) {
    Trap("reassembly changed the error header");
  }

  for (size_t i = 0; i < frames.size(); ++i) {
    const serve::Frame& frame = frames[i];
    if (!SameHeader(frame.header, again[i].header) ||
        frame.payload != again[i].payload) {
      Trap("reassembly changed a frame");
    }
    if (frame.payload.size() != frame.header.payload_len ||
        frame.payload.size() > kLimit) {
      Trap("frame escaped the payload cap");
    }
    // EncodeRawFrame must be the exact inverse of frame extraction: feeding
    // a popped frame's re-encoding back through a reader yields the frame.
    const std::string reencoded =
        serve::EncodeRawFrame(frame.header.version, frame.header.type,
                              frame.header.tenant_id, frame.header.request_id,
                              frame.payload);
    serve::FrameReader echo(kLimit);
    serve::Frame echoed;
    if (!echo.Feed(reencoded.data(), reencoded.size()).ok() ||
        !echo.Next(&echoed) || !SameHeader(echoed.header, frame.header) ||
        echoed.payload != frame.payload) {
      Trap("re-encode did not round-trip through the reader");
    }
    ExerciseDecoders(frame);
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
