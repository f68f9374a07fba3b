// Directory: the in-memory search structure mapping values to buckets.
//
// The paper assumes "the directory is in memory, and the buckets are on
// disk" and allows "e.g., a B+Tree or a hash table"; no cost term depends on
// which. wavekit uses a hash table. Directory operations are never charged
// device I/O.

#ifndef WAVEKIT_INDEX_DIRECTORY_H_
#define WAVEKIT_INDEX_DIRECTORY_H_

#include <cstdint>
#include <memory_resource>
#include <unordered_map>

#include "index/codec.h"
#include "index/entry.h"
#include "index/record.h"
#include "storage/device.h"
#include "util/status.h"

namespace wavekit {

/// \brief Location and occupancy of one value's bucket on the device.
///
/// `capacity` is the number of entry slots the bucket holds; `count` is how
/// many are live. A packed bucket has count == capacity.
///
/// `codec` names the on-device layout (index/codec.h). For kRaw the extent
/// is capacity * kEntrySize bytes of verbatim entries, appendable in place.
/// For a compressed codec the bucket is immutable-on-device: count ==
/// capacity, and the extent is exactly the encoded byte string (strictly
/// smaller than the raw form — selection never keeps a non-winning codec).
/// Mutations of a compressed bucket decode and rewrite it as kRaw.
///
/// `crc` is the CRC-32C (util/crc32c.h) of the *stored* bytes — the first
/// stored_length() bytes of the extent (the live prefix for kRaw, the whole
/// encoded extent otherwise); kRaw slack beyond the live prefix is not
/// covered. Every mutation primitive keeps it current, the read paths verify
/// it, and the checkpoint persists it (the "sidecar map" lives in the
/// directory, so verification costs no extra I/O).
struct BucketInfo {
  Extent extent;
  uint32_t count = 0;
  uint32_t capacity = 0;
  uint32_t crc = 0;
  Codec codec = Codec::kRaw;

  /// Bytes the checksum covers and reads must transfer: the live prefix for
  /// kRaw, the whole (exactly-sized) extent for compressed codecs.
  uint64_t stored_length() const {
    return codec == Codec::kRaw ? uint64_t{count} * kEntrySize
                                : extent.length;
  }

  bool operator==(const BucketInfo& other) const = default;
};

/// \brief The in-memory value -> BucketInfo map of one constituent index: a
/// hash table with O(1) expected lookup and unordered iteration.
///
/// Its nodes come from the directory's own pool, so a directory filled in
/// layout order (every packed build) sits in contiguous memory in that
/// order, whatever the process's heap held before. From the shared heap, a
/// rebuilt directory's nodes would reuse the scattered chunks a destroyed
/// directory freed, and probes and scans slow down. The pool is
/// unsynchronized: one thread mutates a directory at a time, and const
/// lookups never allocate.
class Directory {
 public:
  /// Returns the bucket info for `value`, or nullptr if absent. The pointer
  /// stays valid until `value` is removed.
  BucketInfo* Find(const Value& value) {
    auto it = map_.find(value);
    return it == map_.end() ? nullptr : &it->second;
  }
  const BucketInfo* Find(const Value& value) const {
    auto it = map_.find(value);
    return it == map_.end() ? nullptr : &it->second;
  }

  /// Inserts a new mapping. Fails with AlreadyExists if present.
  Status Insert(const Value& value, const BucketInfo& info) {
    if (!map_.emplace(value, info).second) {
      return Status::AlreadyExists("directory already maps value '" + value +
                                   "'");
    }
    return Status::OK();
  }

  /// Removes a mapping. Fails with NotFound if absent.
  Status Remove(const Value& value) {
    if (map_.erase(value) == 0) {
      return Status::NotFound("directory has no value '" + value + "'");
    }
    return Status::OK();
  }

  /// Number of distinct values.
  size_t size() const { return map_.size(); }

  /// Removes every mapping and returns the directory's memory.
  void Clear() {
    std::pmr::unordered_map<Value, BucketInfo>(&pool_).swap(map_);
    pool_.release();
  }

  /// Visits every (value, bucket) pair, in an unspecified order that is
  /// stable between mutations.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [value, info] : map_) fn(value, info);
  }

 private:
  // Declared first: it outlives the map that allocates from it.
  std::pmr::unsynchronized_pool_resource pool_;
  std::pmr::unordered_map<Value, BucketInfo> map_{&pool_};
};

}  // namespace wavekit

#endif  // WAVEKIT_INDEX_DIRECTORY_H_
