#include "index/index_builder.h"

#include <algorithm>
#include <optional>
#include <string_view>
#include <vector>

#include "index/codec.h"
#include "util/crash_point.h"
#include "util/crc32c.h"
#include "util/macros.h"

namespace wavekit {

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
    std::span<const GroupedDay* const> days, std::string name,
    const ParallelContext& parallel) {
  // Step 1: a k-way merge of the days' sorted value lists. Bucket u holds
  // values[u] with sizes[u] entries; day d's value v goes to bucket
  // bucket_of[d][v], which ascends in v.
  std::vector<std::string_view> values;
  std::vector<size_t> sizes;
  std::vector<std::vector<size_t>> bucket_of(days.size());
  std::vector<size_t> next(days.size(), 0);
  for (size_t d = 0; d < days.size(); ++d) {
    bucket_of[d].resize(days[d]->value_count());
  }
  auto at_head = [&](size_t d) -> std::optional<std::string_view> {
    if (next[d] == days[d]->value_count()) return std::nullopt;
    return days[d]->value(next[d]);
  };
  for (;;) {
    std::optional<std::string_view> least;
    for (size_t d = 0; d < days.size(); ++d) {
      const std::optional<std::string_view> head = at_head(d);
      if (head && (!least || *head < *least)) least = head;
    }
    if (!least) break;
    size_t size = 0;
    for (size_t d = 0; d < days.size(); ++d) {
      if (at_head(d) != least) continue;
      bucket_of[d][next[d]] = values.size();
      size += days[d]->run(next[d]).size();
      ++next[d];
    }
    values.push_back(*least);
    sizes.push_back(size);
  }

  // Step 2: each bucket is its value's runs, concatenated in day order.
  PackedBuckets buckets(values.size());
  WAVEKIT_RETURN_NOT_OK(ForEachSlice(
      parallel, buckets.size(),
      [&](size_t, size_t begin, size_t end) -> Status {
        if (parallel.enabled()) {
          WAVEKIT_RETURN_NOT_OK(CrashPoints::Check("builder.parallel.group"));
        }
        for (size_t u = begin; u < end; ++u) {
          buckets[u].first = values[u];
          buckets[u].second.reserve(sizes[u]);
        }
        for (size_t d = 0; d < days.size(); ++d) {
          const GroupedDay& day = *days[d];
          const std::vector<size_t>& to = bucket_of[d];
          for (auto v = std::lower_bound(to.begin(), to.end(), begin);
               v != to.end() && *v < end; ++v) {
            std::vector<Entry>& bucket = buckets[*v].second;
            for (const GroupedDay::Posting& posting :
                 day.run(static_cast<size_t>(v - to.begin()))) {
              bucket.push_back(day.EntryOf(posting));
            }
          }
        }
        return Status::OK();
      }));

  auto index = std::make_unique<ConstituentIndex>(device, allocator, options,
                                                  std::move(name));
  WAVEKIT_RETURN_NOT_OK(WritePacked(index.get(), buckets, parallel,
                                    "builder.parallel.write"));
  for (const GroupedDay* day : days) {
    index->mutable_time_set().insert(day->day());
  }
  index->set_packed(true);
  return index;
}

Result<std::unique_ptr<ConstituentIndex>> IndexBuilder::BuildPacked(
    Device* device, ExtentAllocator* allocator,
    ConstituentIndex::Options options,
    std::span<const DayBatch* const> batches, std::string name,
    const ParallelContext& parallel) {
  return BuildPacked(device, allocator, options,
                     GroupedBatches(batches).days(), std::move(name),
                     parallel);
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
