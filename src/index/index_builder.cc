#include "index/index_builder.h"

#include <map>
#include <set>
#include <vector>

#include "index/codec.h"
#include "util/crash_point.h"
#include "util/crc32c.h"
#include "util/macros.h"

namespace wavekit {

namespace {

using GroupMap = std::map<Value, std::vector<Entry>>;

// Pass 1: entries grouped per value in sorted value order (the on-device
// layout order), each bucket's entries in batch order, then record order.
// In parallel, each chunk of batches is grouped into its own sorted map in
// `*groups` and each value-range partition then merges its buckets across
// the maps; chunk order is batch order, so the buckets equal the serial
// ones. The caller keeps `*groups` until the buckets are installed: freed
// first, the maps' nodes would be reused by the directory's nodes in map
// order, and every later scan of the index walks the directory in layout
// order (a packed-shadow update measured ~10% slower that way).
Result<PackedBuckets> GroupBatches(std::span<const DayBatch* const> batches,
                                   const ParallelContext& parallel,
                                   std::vector<GroupMap>* groups) {
  std::vector<GroupMap>& local = *groups;
  local.resize(parallel.Partitions(batches.size()));
  WAVEKIT_RETURN_NOT_OK(ForEachSlice(
      parallel, batches.size(),
      [&](size_t p, size_t begin, size_t end) -> Status {
        if (parallel.enabled()) {
          WAVEKIT_RETURN_NOT_OK(CrashPoints::Check("builder.parallel.group"));
        }
        auto& mine = local[p];
        for (size_t b = begin; b < end; ++b) {
          const DayBatch* batch = batches[b];
          for (const Record& record : batch->records) {
            for (size_t i = 0; i < record.values.size(); ++i) {
              mine[record.values[i]].push_back(
                  Entry{record.record_id, batch->day, record.AuxFor(i)});
            }
          }
        }
        return Status::OK();
      }));

  PackedBuckets buckets;
  if (local.size() == 1) {
    buckets.reserve(local[0].size());
    for (auto& [value, entries] : local[0]) {
      buckets.emplace_back(value, std::move(entries));
    }
    return buckets;
  }
  std::set<Value> distinct;
  for (const auto& m : local) {
    for (const auto& [value, entries] : m) distinct.insert(value);
  }
  buckets.reserve(distinct.size());
  for (const Value& value : distinct) {
    buckets.emplace_back(value, std::vector<Entry>{});
  }
  WAVEKIT_RETURN_NOT_OK(ForEachSlice(
      parallel, buckets.size(), [&](size_t, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          auto& [value, entries] = buckets[i];
          for (const auto& m : local) {
            auto it = m.find(value);
            if (it == m.end()) continue;
            entries.insert(entries.end(), it->second.begin(),
                           it->second.end());
          }
        }
        return Status::OK();
      }));
  return buckets;
}

}  // namespace

Status IndexBuilder::WritePacked(ConstituentIndex* index,
                                 const PackedBuckets& buckets,
                                 const ParallelContext& parallel,
                                 std::string_view crash_point) {
  Device* device = index->device();
  ExtentAllocator* allocator = index->allocator();
  const CodecMode mode = index->options().codec;
  const size_t n = buckets.size();

  // Encode every bucket. `infos[i].extent` is first the bucket's stored
  // size, then its place in the region. At kRaw encoding returns at once
  // and the stored bytes are the entries themselves.
  std::vector<EncodedBucket> encoded(n);
  std::vector<BucketInfo> infos(n);
  WAVEKIT_RETURN_NOT_OK(
      ForEachSlice(parallel, n, [&](size_t, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          const std::vector<Entry>& entries = buckets[i].second;
          encoded[i] = EncodeBucket(entries.data(), entries.size(), mode);
          const uint32_t count = static_cast<uint32_t>(entries.size());
          infos[i] = BucketInfo{Extent{0, encoded[i].stored_length(count)},
                                count, count, /*crc=*/0, encoded[i].codec};
        }
        return Status::OK();
      }));
  // Returns bucket i's stored bytes and sets its checksum over them. Called
  // as the bucket is written, while those bytes are in cache.
  auto checksummed_bytes = [&](size_t i) {
    const std::byte* bytes =
        encoded[i].codec == Codec::kRaw
            ? reinterpret_cast<const std::byte*>(buckets[i].second.data())
            : encoded[i].bytes.data();
    infos[i].crc = Crc32c(bytes, infos[i].extent.length);
    return std::span<const std::byte>(
        bytes, static_cast<size_t>(infos[i].extent.length));
  };

  // Layout: the buckets back to back, in order, in one region.
  uint64_t total_bytes = 0;
  for (BucketInfo& info : infos) {
    info.extent.offset = total_bytes;
    total_bytes += info.extent.length;
  }
  WAVEKIT_ASSIGN_OR_RETURN(Extent region, allocator->Allocate(total_bytes));
  for (BucketInfo& info : infos) info.extent.offset += region.offset;

  Status written;
  if (!parallel.enabled()) {
    for (size_t i = 0; i < n && written.ok(); ++i) {
      written = device->Write(infos[i].extent.offset, checksummed_bytes(i));
    }
  } else {
    // The partitions cover disjoint slices of the region, so their writes
    // never overlap.
    written = ForEachSlice(parallel, n, [&](size_t, size_t begin, size_t end) {
      Status status = CrashPoints::Check(crash_point);
      std::vector<Extent> extents;
      std::vector<std::byte> buffer;
      auto flush = [&]() -> Status {
        if (extents.empty()) return Status::OK();
        Status flushed = device->WriteBatch(extents, buffer);
        extents.clear();
        buffer.clear();
        return flushed;
      };
      for (size_t i = begin; i < end && status.ok(); ++i) {
        const std::span<const std::byte> bytes = checksummed_bytes(i);
        extents.push_back(infos[i].extent);
        buffer.insert(buffer.end(), bytes.begin(), bytes.end());
        if (buffer.size() >= kWriteChunkBytes) status = flush();
      }
      if (status.ok()) status = flush();
      return status;
    });
  }
  if (!written.ok()) {
    // Nothing is installed yet: the whole region goes back, and a retry
    // starts clean.
    (void)allocator->Free(region);
    return written;
  }

  for (size_t i = 0; i < n; ++i) {
    Status installed = index->InstallBucket(buckets[i].first, infos[i]);
    if (!installed.ok()) {
      // The installed prefix is the index's to free; the rest is ours.
      (void)allocator->Free(Extent{infos[i].extent.offset,
                                   region.end() - infos[i].extent.offset});
      return installed;
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<ConstituentIndex>> IndexBuilder::BuildPacked(
    Device* device, ExtentAllocator* allocator,
    ConstituentIndex::Options options,
    std::span<const DayBatch* const> batches, std::string name,
    const ParallelContext& parallel) {
  auto index = std::make_unique<ConstituentIndex>(device, allocator, options,
                                                  std::move(name));
  std::vector<GroupMap> groups;
  WAVEKIT_ASSIGN_OR_RETURN(PackedBuckets buckets,
                           GroupBatches(batches, parallel, &groups));
  WAVEKIT_RETURN_NOT_OK(WritePacked(index.get(), buckets, parallel,
                                    "builder.parallel.write"));
  for (const DayBatch* batch : batches) {
    index->mutable_time_set().insert(batch->day);
  }
  index->set_packed(true);
  return index;
}

Result<std::unique_ptr<ConstituentIndex>> IndexBuilder::BuildPacked(
    Device* device, ExtentAllocator* allocator,
    ConstituentIndex::Options options, const DayBatch& batch, std::string name,
    const ParallelContext& parallel) {
  const DayBatch* ptr = &batch;
  return BuildPacked(device, allocator, options,
                     std::span<const DayBatch* const>(&ptr, 1),
                     std::move(name), parallel);
}

}  // namespace wavekit
