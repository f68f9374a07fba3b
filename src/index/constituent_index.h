// ConstituentIndex: one "conventional" index of a wave index.
//
// Holds an in-memory Directory mapping values to on-device buckets of fixed
// 16-byte entries. Supports the paper's access operations (probe / scan with
// optional time restriction) and the mutation primitives the update
// techniques of Section 2.1 are built from: CONTIGUOUS incremental append
// and delete [FJ92], and whole-index copy (the CP operation).
//
// A packed index (Section 2) has every bucket filled exactly (count ==
// capacity) and all buckets laid out contiguously on the device in layout
// order, so a SegmentScan is one seek plus a sequential sweep.

#ifndef WAVEKIT_INDEX_CONSTITUENT_INDEX_H_
#define WAVEKIT_INDEX_CONSTITUENT_INDEX_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "index/codec.h"
#include "index/directory.h"
#include "index/entry.h"
#include "index/growth_policy.h"
#include "index/record.h"
#include "storage/extent_allocator.h"
#include "util/day.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace wavekit {

/// Visitor for scans; called once per live entry.
using EntryCallback = std::function<void(const Value&, const Entry&)>;

/// The entry limit of a scan that delivers every entry it visits.
inline constexpr uint64_t kNoEntryLimit = UINT64_MAX;

/// \brief Shared integrity counters, bumped by checksum verification and
/// quarantine across all constituents wired to the same instance (the
/// serving stack owns one and exports it as wavekit_* metrics). All fields
/// are relaxed atomics: counts only, no ordering.
struct IntegrityStats {
  /// Buckets whose checksum was verified on a read path.
  std::atomic<uint64_t> verified_buckets{0};
  /// Buckets served wholly from verified-resident cache blocks, so reads
  /// skipped re-verifying them (storage/device.h ReadBatchTracked).
  std::atomic<uint64_t> trusted_buckets{0};
  /// Checksum mismatches detected (read path or scrub).
  std::atomic<uint64_t> corruptions_detected{0};
  /// Constituents quarantined because of a checksum mismatch.
  std::atomic<uint64_t> quarantines{0};
};

/// \brief One constituent index over a cluster of days.
class ConstituentIndex {
 public:
  struct Options {
    GrowthPolicy growth;
    /// When true (the default), every read path recomputes each bucket's
    /// CRC-32C over the bytes the device returned and compares it to the
    /// directory's BucketInfo::crc before delivering entries; a mismatch
    /// quarantines the constituent and fails with Status::DataLoss.
    /// Checksums are *maintained* regardless, so flipping this off (the
    /// integrity-overhead benchmark's baseline) only skips verification.
    bool verify_checksums = true;
    /// Optional shared counters; may be null. Must outlive the index.
    IntegrityStats* integrity = nullptr;
    /// Bucket codec policy for packed builds (index/codec.h). kRaw keeps
    /// every layout byte-identical to pre-codec builds. Compressed buckets
    /// are immutable on device: AppendEntries / DeleteDays decode and
    /// rewrite them as kRaw (rewrite-on-mutation), so simple constituents
    /// stay appendable.
    CodecMode codec = CodecMode::kRaw;
  };

  /// Creates an empty index. `device` and `allocator` must outlive it.
  ConstituentIndex(Device* device, ExtentAllocator* allocator, Options options,
                   std::string name);

  /// Frees all bucket extents (best effort).
  ~ConstituentIndex();

  ConstituentIndex(const ConstituentIndex&) = delete;
  ConstituentIndex& operator=(const ConstituentIndex&) = delete;

  // --- Metadata ------------------------------------------------------------

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// The set of days this index covers (its cluster).
  const TimeSet& time_set() const { return time_set_; }
  TimeSet& mutable_time_set() { return time_set_; }

  /// True when the packed invariant is expected to hold (set by packed
  /// builds / packed shadow updates; cleared by incremental updates).
  bool packed() const { return packed_; }
  void set_packed(bool packed) { packed_ = packed; }

  /// Serving health (degraded-mode serving, wave/wave_index.h). Cleared by
  /// the maintenance layer when an update or rebuild of this constituent
  /// failed with an I/O error, so its contents are suspect (stale or
  /// partially written). Queries skip unhealthy constituents and report a
  /// partial result instead of failing. Atomic because published snapshots
  /// share this object with the maintenance thread.
  bool healthy() const { return healthy_.load(std::memory_order_relaxed); }
  void set_healthy(bool healthy) {
    healthy_.store(healthy, std::memory_order_relaxed);
  }

  /// True when the constituent was quarantined after a checksum mismatch
  /// (read path, scrub, or recovery revalidation). A corrupt constituent is
  /// always unhealthy; unlike a transiently-unhealthy one, retrying its I/O
  /// never helps — it must be rebuilt from segment data (self-healing,
  /// wave/scheme.h HealUnhealthy).
  bool corrupt() const { return corrupt_.load(std::memory_order_relaxed); }

  /// Quarantines the constituent: marks it corrupt and unhealthy and bumps
  /// the integrity counters. Const because corruption is detected on const
  /// read paths; the flags are the only mutable state touched. Idempotent
  /// (counters bump once).
  void Quarantine() const;

  /// Device bytes reserved by this index (sum of bucket capacities).
  uint64_t allocated_bytes() const { return allocated_bytes_; }

  /// Device bytes holding live entries (sum of bucket counts).
  uint64_t live_bytes() const { return entry_count_ * kEntrySize; }

  /// Number of live entries.
  uint64_t entry_count() const { return entry_count_; }

  /// Number of distinct values.
  size_t distinct_values() const { return directory_.size(); }

  const Options& options() const { return options_; }
  Device* device() const { return device_; }
  ExtentAllocator* allocator() const { return allocator_; }

  /// \brief Per-codec bucket census: how many buckets each codec holds,
  /// stored (on-device) bytes vs. the raw bytes the same entries would
  /// occupy. Directory metadata only, no device I/O.
  struct CodecBreakdown {
    uint64_t raw_buckets = 0;
    uint64_t bitpack_buckets = 0;
    /// Live stored bytes (stored_length() summed; excludes kRaw slack).
    uint64_t stored_bytes = 0;
    /// The same entries at kEntrySize each.
    uint64_t uncompressed_bytes = 0;

    /// Compression ratio >= 1 (uncompressed / stored); 1.0 when empty.
    double ratio() const {
      return stored_bytes > 0
                 ? static_cast<double>(uncompressed_bytes) /
                       static_cast<double>(stored_bytes)
                 : 1.0;
    }

    /// Buckets stored under `codec`.
    uint64_t buckets(Codec codec) const {
      return codec == Codec::kRaw ? raw_buckets : bitpack_buckets;
    }

    CodecBreakdown& operator+=(const CodecBreakdown& other) {
      raw_buckets += other.raw_buckets;
      bitpack_buckets += other.bitpack_buckets;
      stored_bytes += other.stored_bytes;
      uncompressed_bytes += other.uncompressed_bytes;
      return *this;
    }
  };
  CodecBreakdown CodecStats() const;

  /// Values in on-device layout order (the order buckets were placed).
  const std::vector<Value>& layout_order() const { return layout_order_; }

  /// Visits every (value, bucket) pair in layout order — directory metadata
  /// only, no device I/O (used by checkpointing).
  Status ForEachBucket(
      const std::function<void(const Value&, const BucketInfo&)>& fn) const;

  // --- Access operations (paper Section 2.2) --------------------------------

  /// IndexProbe: appends all entries for `value` to `*out`. A miss is OK with
  /// nothing appended.
  Status Probe(const Value& value, std::vector<Entry>* out) const;

  /// TimedIndexProbe restricted to this constituent: appends entries for
  /// `value` whose day lies in `range`. When `range` covers the whole
  /// time-set the per-entry filter is skipped (paper: cluster-aligned timed
  /// queries need no timestamps).
  Status TimedProbe(const Value& value, const DayRange& range,
                    std::vector<Entry>* out) const;

  /// SegmentScan: visits every live entry, bucket by bucket in layout order.
  Status Scan(const EntryCallback& callback) const;

  /// TimedSegmentScan restricted to this constituent: visits the entries
  /// whose day lies in `range`, bucket by bucket in layout order.
  ///
  /// With a `limit`, the scan delivers at most `limit` entries, the first
  /// `limit` of the unlimited scan in the same order, and stops reading once
  /// it has: no read batch follows the one in which it reaches the limit.
  /// Its first batch holds limit * kEntrySize stored bytes (at least one
  /// bucket) and each later batch doubles, up to 4 MiB, so the bytes read
  /// grow with the entries delivered, not with the constituent. An
  /// unlimited scan reads 4 MiB batches from the first. A batch
  /// the scan stops in has read buckets it never checksummed: only the
  /// buckets it delivered count as verified (or trusted) and are marked
  /// verified in the cache.
  Status TimedScan(const DayRange& range, const EntryCallback& callback,
                   uint64_t limit = kNoEntryLimit) const;

  // --- Mutation primitives ---------------------------------------------------

  /// Appends `entries` to `value`'s bucket, growing/relocating it per the
  /// CONTIGUOUS policy. Clears the packed flag.
  Status AppendEntries(const Value& value, std::span<const Entry> entries);

  /// Adds all entries of `batch` (grouped per value) and adds the day to the
  /// time-set. This is the in-place form of the paper's AddToIndex.
  Status AddBatch(const DayBatch& batch);

  /// Deletes every entry whose day is in `days`, shrinking buckets per the
  /// CONTIGUOUS policy and dropping emptied values. Removes the days from
  /// the time-set. This is the in-place form of DeleteFromIndex.
  Status DeleteDays(const TimeSet& days);

  /// Installs a pre-written bucket (packed writer, clones, checkpoint
  /// restore). The extent must already hold the bucket's stored bytes, and
  /// `info.crc` is their CRC-32C: the live prefix of `count` entries for
  /// kRaw. For a compressed codec the extent must be exactly the encoded
  /// bytes (strictly smaller than raw) of a count == capacity bucket.
  Status InstallBucket(const Value& value, const BucketInfo& info);

  // --- Whole-index operations -------------------------------------------------

  /// The CP operation: copies every bucket (full capacity, preserving slack)
  /// into one fresh contiguous region and returns the copy. Reads and writes
  /// allocated_bytes() each way, checking each bucket's stored bytes like a
  /// scan does (bytes the cache holds as verified are not re-hashed) before
  /// they land anywhere. Serially it issues one read and then one write per
  /// bucket, in layout order; with `parallel.enabled()` each of the pool's
  /// slices of the bucket range is copied in ~1 MiB batches. The clone is
  /// identical either way (same layout, same bytes). On failure the region
  /// is freed and the source is untouched.
  Result<std::unique_ptr<ConstituentIndex>> Clone(
      std::string name, const ParallelContext& parallel = {}) const;

  /// Clone onto a DIFFERENT device (multi-disk deployments, paper Section 8:
  /// "building new constituent indices on separate disks avoids contention").
  Result<std::unique_ptr<ConstituentIndex>> CloneTo(
      Device* device, ExtentAllocator* allocator, std::string name,
      const ParallelContext& parallel = {}) const;

  /// Releases every bucket extent and clears the index. Idempotent. This is
  /// the space-reclaiming half of the paper's DropIndex.
  Status Destroy();

  // --- Invariants ---------------------------------------------------------------

  /// Verifies the packed invariant: all buckets exactly filled and physically
  /// contiguous in layout order.
  Status CheckPacked() const;

  /// Verifies internal consistency: directory and layout order agree, counts
  /// and capacities are coherent, accounting sums match.
  Status CheckConsistency() const;

 private:
  /// A bucket as a read sees it: its value and a copy of its directory
  /// entry, so a run of buckets is one dense array.
  struct BucketRef {
    const Value* value;
    BucketInfo info;
  };

  /// The one verified bucket read, and the only code that reads bucket
  /// bytes from the device or marks them verified. Reads `run`, buckets in
  /// layout order, back to back into `buffer` with one device batch over
  /// their coalesced extents: each bucket's stored bytes, or its whole
  /// extent when `whole_extents` (a clone copies slack too). Unless the
  /// device reports the whole batch trusted, it checks each bucket's
  /// CRC-32C over its stored bytes before handing them on; a mismatch
  /// quarantines the constituent and fails with DataLoss. It hands bucket
  /// k's bytes to `visit(k, bytes)` in order until `visit` returns false,
  /// counts the buckets it handed on as verified or trusted, and marks
  /// verified only the stored bytes of the buckets it checked. `buffer`
  /// holds exactly the run's bytes.
  template <typename Visit>
  Status ReadVerified(std::span<const BucketRef> run, bool whole_extents,
                      std::span<std::byte> buffer, const Visit& visit) const;

  /// Appends the entries of one bucket that `keep(entry)` accepts to
  /// `*out`, read through ReadVerified: a raw bucket's bytes land straight
  /// in `*out`, a compressed one is decoded there from scratch, and either
  /// is then filtered in place. On failure `*out` is left as it was.
  template <typename Keep>
  Status CollectBucket(const Value& value, const BucketInfo& info,
                       const Keep& keep, std::vector<Entry>* out) const;

  Status WriteEntriesAt(uint64_t offset, std::span<const Entry> entries);
  /// Allocates `length` bytes and writes `entries` at their start. A failed
  /// write frees the extent again, so a failed mutation leaks nothing.
  Result<Extent> WriteToNewExtent(uint64_t length,
                                  std::span<const Entry> entries);
  Status RemoveValue(const Value& value);

  /// Corruption found on a read: bumps the corruption counter, quarantines
  /// the constituent and returns DataLoss with `message`.
  Status Corrupted(std::string message) const;
  /// Decodes a bucket's stored bytes into `out` (exactly `count` entries;
  /// a raw bucket is copied). A decode failure is corruption that slipped
  /// past (or bypassed) the checksum, and is treated as one.
  Status DecodeStoredBucket(const Value& value, Codec codec,
                            const std::byte* bytes, uint64_t length,
                            uint32_t count, Entry* out) const;

  Device* device_;
  ExtentAllocator* allocator_;
  Options options_;
  std::string name_;
  Directory directory_;
  std::vector<Value> layout_order_;
  TimeSet time_set_;
  /// Mutable: corruption is detected (and must quarantine) on const reads.
  mutable std::atomic<bool> healthy_{true};
  mutable std::atomic<bool> corrupt_{false};
  bool packed_ = false;
  uint64_t entry_count_ = 0;
  uint64_t allocated_bytes_ = 0;
};

}  // namespace wavekit

#endif  // WAVEKIT_INDEX_CONSTITUENT_INDEX_H_
