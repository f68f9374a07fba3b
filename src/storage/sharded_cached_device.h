// ShardedCachedDevice: a thread-safe, lock-striped LRU block cache.
//
// The single-threaded CachedDevice funnels every probe through one LRU; with
// many reader threads probing one WaveService (wave/wave_service.h) that
// would re-serialize exactly the I/O the paper says needs no concurrency
// control. Here the block space is striped over N independent shards keyed by
// block_id % N — each with its own mutex, LRU list, and stats — so concurrent
// probes of distinct hot buckets touch distinct locks and proceed in
// parallel. Zipfian workloads concentrate on few hot buckets, but hot BLOCKS
// of different buckets land in different shards, which is what matters.
//
// Like CachedDevice, place this ABOVE the MeteredDevice: hits never reach the
// wrapped device, so modeled seek/transfer costs reflect only true disk
// traffic. Writes are write-through under the shard lock, so readers of a
// cached block always see either the full old or full new bytes of a block.

#ifndef WAVEKIT_STORAGE_SHARDED_CACHED_DEVICE_H_
#define WAVEKIT_STORAGE_SHARDED_CACHED_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "storage/cached_device.h"  // CacheStats
#include "storage/device.h"

namespace wavekit {

/// \brief Thread-safe fixed-capacity LRU block cache over a Device, striped
/// into independently locked shards.
///
/// Safe for any number of concurrent Read/ReadBatch/Write callers, provided
/// the wrapped device is (MemoryDevice, FileDevice, and MeteredDevice all
/// are). Invalidate/ResetStats may run concurrently too. Capacity is divided
/// evenly across shards, so a pathological workload hammering one shard can
/// cache at most capacity_blocks / num_shards blocks — acceptable: block ids
/// of hot buckets spread uniformly over shards by construction.
class ShardedCachedDevice : public Device {
 public:
  /// `inner` must outlive this object. `capacity_blocks` > 0; `block_size`
  /// defaults to 4 KiB; `num_shards` is clamped to >= 1 (use 1 to recover
  /// exact CachedDevice behaviour plus a lock).
  ShardedCachedDevice(Device* inner, size_t capacity_blocks,
                      uint64_t block_size = 4096, size_t num_shards = 16);

  Status Read(uint64_t offset, std::span<std::byte> out) override;
  Status Write(uint64_t offset, std::span<const std::byte> data) override;
  Status WriteBatch(std::span<const Extent> extents,
                    std::span<const std::byte> data) override;
  uint64_t capacity() const override { return inner_->capacity(); }
  // Write-through cache: the inner device holds every byte, so Sync forwards.
  Status Sync() override { return inner_->Sync(); }

  /// Verified-residency tracking (see storage/device.h): blocks enter the
  /// cache untrusted; MarkVerified records, per still-resident block that was
  /// filled BEFORE the tracking read began (block.fill_gen < fill_token),
  /// exactly the bytes the verified extents cover — a byte-granular bitmap,
  /// not a whole-block bit, because bucket extents are byte-granular and
  /// live prefixes are separated by slack, so whole-block (or single-range)
  /// trust would leave most blocks permanently untrusted. A batch reports
  /// all_trusted only when every byte it read is marked trusted. Because a
  /// call's own fills carry generations >= its token, promotion needs two
  /// verified passes: the first verifies the freshly filled bytes, the
  /// second (an all-hit pass over unchanged blocks) promotes — and any block
  /// refilled concurrently mid-pass is left untrusted.
  Status ReadBatchTracked(std::span<const Extent> extents,
                          std::span<std::byte> out, bool* all_trusted,
                          uint64_t* fill_token) override;
  void MarkVerified(std::span<const Extent> extents,
                    uint64_t fill_token) override;

  /// Aggregated counters over all shards (each shard sampled under its own
  /// lock; the sum is a consistent-enough snapshot under concurrency).
  CacheStats stats() const;

  /// Counters of one shard (for distribution diagnostics/tests).
  CacheStats shard_stats(size_t shard) const;

  void ResetStats();

  /// Total blocks currently cached across shards.
  size_t cached_blocks() const;

  /// Blocks cached in one shard.
  size_t shard_cached_blocks(size_t shard) const;

  size_t capacity_blocks() const { return capacity_blocks_; }
  uint64_t block_size() const { return block_size_; }
  size_t num_shards() const { return shards_.size(); }

  /// Drops every cached block (stats are kept).
  void Invalidate();

 private:
  struct CachedBlock {
    uint64_t block_id;
    std::vector<std::byte> bytes;
    // Verified-residency state: the fill generation (from fill_counter_)
    // stamped when the block was loaded, and one bit per block byte set
    // once checksum verification has covered that byte since the fill.
    // Lazily sized on first MarkVerified (empty = nothing trusted), so
    // blocks that never serve a checksumming reader pay nothing.
    uint64_t fill_gen = 0;
    std::vector<uint64_t> trusted;
  };
  using LruList = std::list<CachedBlock>;

  struct Shard {
    mutable std::mutex mutex;
    LruList lru;  // front = most recently used
    std::unordered_map<uint64_t, LruList::iterator> index;
    CacheStats stats;
  };

  Shard& ShardFor(uint64_t block_id) {
    return shards_[static_cast<size_t>(block_id % shards_.size())];
  }

  // Copies bytes [within, within + n) of `block_id` into `out`, loading the
  // block on miss. The copy happens under the shard lock so eviction or a
  // concurrent write-through cannot tear it. When `trusted_accum` is
  // non-null it is cleared unless every requested byte is marked trusted (a
  // miss counts as untrusted).
  Status ReadThroughBlock(uint64_t block_id, uint64_t within,
                          std::span<std::byte> out,
                          bool* trusted_accum = nullptr);

  // Patches cached blocks overlapping [offset, offset+data.size()) under
  // their shard locks after a device write, or evicts them when the write
  // failed (the device's contents are then unknown).
  void PatchCache(uint64_t offset, std::span<const std::byte> data,
                  bool written_ok);

  Device* inner_;
  size_t capacity_blocks_;
  uint64_t block_size_;
  size_t per_shard_capacity_;
  std::vector<Shard> shards_;
  // Monotone count of block fills, stamped into CachedBlock::fill_gen so
  // MarkVerified can reject blocks filled after its token was issued.
  std::atomic<uint64_t> fill_counter_{1};
};

}  // namespace wavekit

#endif  // WAVEKIT_STORAGE_SHARDED_CACHED_DEVICE_H_
