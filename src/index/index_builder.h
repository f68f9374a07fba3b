// IndexBuilder: the paper's BuildIndex operation and the packed-region
// writer it shares with packed shadow updating.
//
// "We assume here that a packed index is achieved by scanning the Days
// records and counting the number of entries needed in each bucket. Then
// contiguous buckets of the appropriate size are allocated on disk."
// (Section 2.2.) The counting pass runs once per day, at ingest: a
// GroupedDay (index/grouped_day.h) holds each day's entries counted and
// grouped by value. A build merges its days' groups into the buckets.
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
#include "index/grouped_day.h"
#include "util/thread_pool.h"

namespace wavekit {

/// The buckets of one packed region in layout order: each value with its
/// entries (at least one) in bucket order.
using PackedBuckets = std::vector<std::pair<Value, std::vector<Entry>>>;

/// \brief Builds packed constituent indexes from grouped days.
class IndexBuilder {
 public:
  /// Builds a packed index over `days`. Step 1 merges the days' sorted value
  /// lists into their union, the buckets in layout order; step 2 fills each
  /// bucket by concatenating the days' runs of its value in `days` order,
  /// then WritePacked writes them. The result's time-set is the set of the
  /// days; its packed invariant holds.
  ///
  /// With `parallel.enabled()`, each value-range slice of the union fills
  /// its buckets on the pool (crash point "builder.parallel.group") before
  /// WritePacked runs its parallel schedule. The resulting index is
  /// identical (same layout order, same bucket bytes at the same offsets)
  /// to the serial build; only the I/O schedule differs.
  static Result<std::unique_ptr<ConstituentIndex>> BuildPacked(
      Device* device, ExtentAllocator* allocator,
      ConstituentIndex::Options options,
      std::span<const GroupedDay* const> days, std::string name,
      const ParallelContext& parallel = {});

  /// Adapters for callers that hold DayBatches: each batch goes through
  /// GroupedDay::From, then the build above.
  static Result<std::unique_ptr<ConstituentIndex>> BuildPacked(
      Device* device, ExtentAllocator* allocator,
      ConstituentIndex::Options options,
      std::span<const DayBatch* const> batches, std::string name,
      const ParallelContext& parallel = {});
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
