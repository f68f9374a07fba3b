// IndexBuilder: the paper's BuildIndex operation and the packed-region
// writer it shares with packed shadow updating.
//
// "We assume here that a packed index is achieved by scanning the Days
// records and counting the number of entries needed in each bucket. Then
// contiguous buckets of the appropriate size are allocated on disk."
// (Section 2.2.) The builder performs exactly that two-pass construction.
// Packed shadowing's scan-copy (Section 2.1) ends the same way, so both go
// through WritePacked: encode each bucket, size one contiguous region, write
// the buckets back to back, install them. A raw index is the same path at
// CodecMode::kRaw, where encoding is the identity.

#ifndef WAVEKIT_INDEX_INDEX_BUILDER_H_
#define WAVEKIT_INDEX_INDEX_BUILDER_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "index/constituent_index.h"
#include "util/thread_pool.h"

namespace wavekit {

/// The buckets of one packed region in layout order: each value with its
/// entries (at least one) in bucket order.
using PackedBuckets = std::vector<std::pair<Value, std::vector<Entry>>>;

/// \brief Builds packed constituent indexes from day batches.
class IndexBuilder {
 public:
  /// Builds a packed index over `batches`. Pass 1 groups entries per value
  /// (in memory); pass 2 is WritePacked over the buckets in sorted value
  /// order. The result's time-set is the set of batch days; its packed
  /// invariant holds.
  ///
  /// With `parallel.enabled()`, chunks of day batches are grouped
  /// concurrently and each value-range partition merges its buckets on the
  /// pool before WritePacked runs its parallel schedule. The resulting index
  /// is identical (same layout order, same bucket bytes at the same offsets)
  /// to the serial build; only the I/O schedule differs.
  static Result<std::unique_ptr<ConstituentIndex>> BuildPacked(
      Device* device, ExtentAllocator* allocator,
      ConstituentIndex::Options options,
      std::span<const DayBatch* const> batches, std::string name,
      const ParallelContext& parallel = {});

  /// Convenience overload for a single day.
  static Result<std::unique_ptr<ConstituentIndex>> BuildPacked(
      Device* device, ExtentAllocator* allocator,
      ConstituentIndex::Options options, const DayBatch& batch,
      std::string name, const ParallelContext& parallel = {});

  /// Writes `buckets` into `index` (which must be empty) as one packed
  /// region on its device: encodes each bucket with the index's codec,
  /// allocates one region of the summed stored sizes, writes the buckets
  /// back to back, and installs them in order. Encoding is a pure function
  /// of a bucket's entries, so the stored bytes, CRCs and offsets do not
  /// depend on `parallel`; only the write schedule does:
  ///   - serial: one Write per bucket in layout order, the op sequence the
  ///     cost model meters;
  ///   - parallel: each value-range partition writes its slice with
  ///     ~kWriteChunkBytes WriteBatch calls, after checking `crash_point`
  ///     once per task.
  /// All-or-nothing in both modes: on a failed write or crash point the
  /// region is freed before anything is installed, so the caller may retry.
  static Status WritePacked(ConstituentIndex* index,
                            const PackedBuckets& buckets,
                            const ParallelContext& parallel,
                            std::string_view crash_point);

  /// Bytes per WriteBatch extent in the parallel write stage (also the batch
  /// granularity of the parallel clone path): large enough to amortize
  /// per-op cost, small enough to overlap serialization with I/O.
  static constexpr uint64_t kWriteChunkBytes = uint64_t{1} << 20;  // 1 MiB
};

}  // namespace wavekit

#endif  // WAVEKIT_INDEX_INDEX_BUILDER_H_
