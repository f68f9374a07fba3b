#include "index/constituent_index.h"

#include <algorithm>
#include <cstdint>
#include <map>

#include "index/index_builder.h"
#include "util/crash_point.h"
#include "util/crc32c.h"
#include "util/logging.h"
#include "util/macros.h"

namespace wavekit {
namespace {

// The largest read batch of a scan, in stored bytes.
constexpr uint64_t kScanBatchBytes = uint64_t{4} << 20;

// The extents of `run`, physically adjacent ones merged: each bucket's
// whole extent, or only its stored bytes. A single extent goes to `*one`, so
// a one-bucket read allocates nothing; more go to `*many`.
template <typename BucketRef>
std::span<const Extent> Coalesce(std::span<const BucketRef> run, bool whole,
                                 Extent* one, std::vector<Extent>* many) {
  for (const BucketRef& bucket : run) {
    const Extent extent{bucket.info.extent.offset,
                        whole ? bucket.info.extent.length
                              : bucket.info.stored_length()};
    if (run.size() == 1) {
      *one = extent;
      return std::span<const Extent>(one, 1);
    }
    if (!many->empty() && many->back().end() == extent.offset) {
      many->back().length += extent.length;  // adjacent: extend the run
    } else {
      many->push_back(extent);
    }
  }
  return *many;
}

}  // namespace

ConstituentIndex::ConstituentIndex(Device* device, ExtentAllocator* allocator,
                                   Options options, std::string name)
    : device_(device),
      allocator_(allocator),
      options_(options),
      name_(std::move(name)) {}

ConstituentIndex::~ConstituentIndex() {
  Status status = Destroy();
  if (!status.ok()) {
    WAVEKIT_LOG(Error) << "destroying index " << name_ << ": "
                       << status.ToString();
  }
}

void ConstituentIndex::Quarantine() const {
  const bool was_corrupt = corrupt_.exchange(true, std::memory_order_relaxed);
  healthy_.store(false, std::memory_order_relaxed);
  if (!was_corrupt && options_.integrity != nullptr) {
    options_.integrity->quarantines.fetch_add(1, std::memory_order_relaxed);
  }
}

Status ConstituentIndex::Corrupted(std::string message) const {
  if (options_.integrity != nullptr) {
    options_.integrity->corruptions_detected.fetch_add(
        1, std::memory_order_relaxed);
  }
  Quarantine();
  return Status::DataLoss(std::move(message));
}

Status ConstituentIndex::DecodeStoredBucket(const Value& value, Codec codec,
                                            const std::byte* bytes,
                                            uint64_t length, uint32_t count,
                                            Entry* out) const {
  Status status =
      DecodeBucket(codec, bytes, static_cast<size_t>(length), count, out);
  if (status.ok()) return status;
  // The checksum over the stored bytes passed (or was disabled), yet the
  // bytes do not decode: corruption the CRC could not see, or rot under a
  // verify_checksums=false configuration. Same treatment as a mismatch.
  return Corrupted("bucket '" + value + "' of index " + name_ +
                   " failed to decode: " + status.message());
}

template <typename Visit>
Status ConstituentIndex::ReadVerified(std::span<const BucketRef> run,
                                      bool whole_extents,
                                      std::span<std::byte> buffer,
                                      const Visit& visit) const {
  Extent one;
  std::vector<Extent> many;
  const std::span<const Extent> extents =
      Coalesce(run, whole_extents, &one, &many);
  // Verification happens at the trust boundary, the medium. A batch served
  // wholly from cache bytes that MarkVerified promoted (every byte
  // checksum-verified since it last crossed the medium) is handed on
  // without re-verification: re-hashing DRAM-resident bytes on every read
  // catches nothing the background scrubber (which reads the medium,
  // beneath the cache) does not already cover, and would cost more than
  // the read itself on dense windows.
  bool all_trusted = false;
  uint64_t fill_token = 0;
  if (options_.verify_checksums) {
    WAVEKIT_RETURN_NOT_OK(
        device_->ReadBatchTracked(extents, buffer, &all_trusted, &fill_token));
  } else {
    WAVEKIT_RETURN_NOT_OK(device_->ReadBatch(extents, buffer));
  }
  // One fused pass: check bucket k, issue bucket k+1's checksum chain, THEN
  // hand bucket k on. A bucket is never handed on before its own checksum
  // passes, and the next bucket's CRC (a serial dependency chain through a
  // 3-cycle-latency instruction) retires in the out-of-order shadow of the
  // caller's work on the current bucket instead of stalling a dedicated
  // verification pass. Buckets earlier in the run have already been handed
  // on when a later one turns out corrupt, the same exposure as a corrupt
  // bucket in a later run. The stats are charged once per run.
  const size_t total = run.size();
  const bool verify = options_.verify_checksums && !all_trusted;
  size_t handed = 0;  // buckets handed to `visit`
  size_t bad = total;  // the corrupt bucket, or total when clean
  uint64_t at = 0;     // offset of bucket k within the buffer
  const auto stored = [&](size_t k) { return run[k].info.stored_length(); };
  uint32_t actual = verify ? Crc32c(buffer.data(), stored(0)) : 0;
  for (size_t k = 0; k < total; ++k) {
    const uint64_t length =
        whole_extents ? run[k].info.extent.length : stored(k);
    if (verify) {
      if (actual != run[k].info.crc) {
        bad = k;
        break;
      }
      if (k + 1 < total) {
        actual = Crc32c(buffer.data() + at + length, stored(k + 1));
      }
    }
    ++handed;
    if (!visit(k, buffer.data() + at)) break;
    at += length;
  }
  if (options_.integrity != nullptr && options_.verify_checksums) {
    (verify ? options_.integrity->verified_buckets
            : options_.integrity->trusted_buckets)
        .fetch_add(bad == total ? handed : bad + 1, std::memory_order_relaxed);
  }
  if (bad != total) {
    return Corrupted("checksum mismatch in bucket '" + *run[bad].value +
                     "' of index " + name_);
  }
  if (verify && handed > 0) {
    // Every byte checked came out clean: mark those bytes of still-resident
    // cache blocks so the next read of them can skip. Slack and the buckets
    // after a stop were never checked and stay untrusted.
    many.clear();
    device_->MarkVerified(Coalesce(run.first(handed), /*whole=*/false, &one,
                                   &many),
                          fill_token);
  }
  return Status::OK();
}

template <typename Keep>
Status ConstituentIndex::CollectBucket(const Value& value,
                                       const BucketInfo& info,
                                       const Keep& keep,
                                       std::vector<Entry>* out) const {
  if (info.count == 0) return Status::OK();
  const size_t previous = out->size();
  out->resize(previous + info.count);
  Entry* entries = out->data() + previous;
  std::vector<std::byte> scratch;
  std::span<std::byte> buffer(reinterpret_cast<std::byte*>(entries),
                              info.count * kEntrySize);
  if (info.codec != Codec::kRaw) {
    scratch.resize(static_cast<size_t>(info.stored_length()));
    buffer = scratch;
  }
  const BucketRef bucket{&value, info};
  Status status =
      ReadVerified(std::span<const BucketRef>(&bucket, 1),
                   /*whole_extents=*/false, buffer,
                   [](size_t, const std::byte*) { return true; });
  if (status.ok() && info.codec != Codec::kRaw) {
    status = DecodeStoredBucket(value, info.codec, scratch.data(),
                                scratch.size(), info.count, entries);
  }
  // A failed read, checksum, or decode must not hand unverified entries to
  // the caller alongside the error.
  if (!status.ok()) {
    out->resize(previous);
    return status;
  }
  out->erase(std::remove_if(out->begin() + previous, out->end(),
                            [&](const Entry& e) { return !keep(e); }),
             out->end());
  return Status::OK();
}

Status ConstituentIndex::WriteEntriesAt(uint64_t offset,
                                        std::span<const Entry> entries) {
  if (entries.empty()) return Status::OK();
  auto* bytes = reinterpret_cast<const std::byte*>(entries.data());
  return device_->Write(
      offset, std::span<const std::byte>(bytes, entries.size() * kEntrySize));
}

Result<Extent> ConstituentIndex::WriteToNewExtent(
    uint64_t length, std::span<const Entry> entries) {
  WAVEKIT_ASSIGN_OR_RETURN(Extent extent, allocator_->Allocate(length));
  Status written = WriteEntriesAt(extent.offset, entries);
  if (!written.ok()) {
    (void)allocator_->Free(extent);
    return written;
  }
  return extent;
}

Status ConstituentIndex::Probe(const Value& value,
                               std::vector<Entry>* out) const {
  return TimedProbe(value, DayRange::All(), out);
}

Status ConstituentIndex::TimedProbe(const Value& value, const DayRange& range,
                                    std::vector<Entry>* out) const {
  const BucketInfo* info = directory_.Find(value);
  if (info == nullptr) return Status::OK();
  if (range.Covers(time_set_)) {
    // All entries qualify; no per-entry timestamp check needed.
    return CollectBucket(
        value, *info, [](const Entry&) { return true; }, out);
  }
  return CollectBucket(
      value, *info, [&](const Entry& e) { return range.Contains(e.day); },
      out);
}

Status ConstituentIndex::Scan(const EntryCallback& callback) const {
  return TimedScan(DayRange::All(), callback);
}

Status ConstituentIndex::TimedScan(const DayRange& range,
                                   const EntryCallback& callback,
                                   uint64_t limit) const {
  if (limit == 0) return Status::OK();
  const bool covered = range.Covers(time_set_);
  // Read the buckets in runs of `batch_bytes` stored bytes: one device
  // round-trip (and, in a serving stack, one metering round) per run
  // instead of per bucket. The first run is sized to the limit and each
  // later one doubles; any limit of kScanBatchBytes / kEntrySize or more
  // (kNoEntryLimit among them) reads kScanBatchBytes from the first.
  uint64_t batch_bytes =
      std::min(limit, kScanBatchBytes / kEntrySize) * kEntrySize;
  uint64_t remaining = limit;  // entries the scan may still deliver
  std::vector<BucketRef> run;
  uint64_t run_bytes = 0;
  std::vector<std::byte> buffer;
  std::vector<Entry> scratch;  // decode target off the in-place path
  Status decoded;
  // Delivers checked bucket k of the run; false once the limit is reached
  // or the bucket does not decode.
  auto deliver = [&](size_t k, const std::byte* stored) {
    const Value& value = *run[k].value;
    const BucketInfo& info = run[k].info;
    const Entry* bucket = reinterpret_cast<const Entry*>(stored);
    // An all-raw run keeps every bucket at an entry-aligned offset and
    // delivers in place; a compressed predecessor can leave a raw bucket
    // unaligned, and then it is copied out like a decode.
    if (info.codec != Codec::kRaw ||
        reinterpret_cast<uintptr_t>(stored) % alignof(Entry) != 0) {
      scratch.resize(info.count);
      decoded = DecodeStoredBucket(value, info.codec, stored,
                                   info.stored_length(), info.count,
                                   scratch.data());
      if (!decoded.ok()) return false;
      bucket = scratch.data();
    }
    for (uint32_t i = 0; i < info.count && remaining > 0; ++i) {
      const Entry& e = bucket[i];
      if (covered || range.Contains(e.day)) {
        callback(value, e);
        --remaining;
      }
    }
    return remaining > 0;
  };
  auto read_run = [&]() -> Status {
    buffer.resize(static_cast<size_t>(run_bytes));
    WAVEKIT_RETURN_NOT_OK(
        ReadVerified(run, /*whole_extents=*/false, buffer, deliver));
    run.clear();
    run_bytes = 0;
    return decoded;
  };

  for (const Value& value : layout_order_) {
    const BucketInfo* info = directory_.Find(value);
    if (info == nullptr) {
      return Status::Internal("layout order lists unknown value '" + value +
                              "' in index " + name_);
    }
    if (info->count == 0) continue;
    run.push_back(BucketRef{&value, *info});
    run_bytes += info->stored_length();
    if (run_bytes >= batch_bytes) {
      WAVEKIT_RETURN_NOT_OK(read_run());
      if (remaining == 0) return Status::OK();
      batch_bytes = std::min(2 * batch_bytes, kScanBatchBytes);
    }
  }
  return run.empty() ? Status::OK() : read_run();
}

Status ConstituentIndex::ForEachBucket(
    const std::function<void(const Value&, const BucketInfo&)>& fn) const {
  for (const Value& value : layout_order_) {
    const BucketInfo* info = directory_.Find(value);
    if (info == nullptr) {
      return Status::Internal("layout order lists unknown value '" + value +
                              "' in index " + name_);
    }
    fn(value, *info);
  }
  return Status::OK();
}

Status ConstituentIndex::AppendEntries(const Value& value,
                                       std::span<const Entry> entries) {
  if (entries.empty()) return Status::OK();
  const auto* entry_bytes = reinterpret_cast<const std::byte*>(entries.data());
  const size_t entry_byte_count = entries.size() * kEntrySize;
  BucketInfo* info = directory_.Find(value);
  if (info == nullptr) {
    const uint32_t capacity =
        options_.growth.InitialCapacity(static_cast<uint32_t>(entries.size()));
    WAVEKIT_ASSIGN_OR_RETURN(
        Extent extent, WriteToNewExtent(capacity * kEntrySize, entries));
    WAVEKIT_RETURN_NOT_OK(directory_.Insert(
        value, BucketInfo{extent, static_cast<uint32_t>(entries.size()),
                          capacity, Crc32c(entry_bytes, entry_byte_count)}));
    layout_order_.push_back(value);
    allocated_bytes_ += extent.length;
  } else if (info->count + entries.size() <= info->capacity) {
    // Room in place: append after the existing entries. The checksum extends
    // over the new suffix without rereading the prefix.
    WAVEKIT_RETURN_NOT_OK(WriteEntriesAt(
        info->extent.offset + info->count * kEntrySize, entries));
    info->count += static_cast<uint32_t>(entries.size());
    info->crc = Crc32cExtend(info->crc, entry_bytes, entry_byte_count);
  } else {
    // CONTIGUOUS overflow: relocate to a g-times-larger extent. A compressed
    // bucket (count == capacity, so never appendable in place) lands here
    // too: it is read decoded and the rewrite is kRaw —
    // rewrite-on-mutation keeps simple constituents appendable.
    const uint32_t needed =
        info->count + static_cast<uint32_t>(entries.size());
    const uint32_t new_capacity =
        options_.growth.GrownCapacity(info->capacity, needed);
    std::vector<Entry> existing;
    WAVEKIT_RETURN_NOT_OK(CollectBucket(
        value, *info, [](const Entry&) { return true; }, &existing));
    existing.insert(existing.end(), entries.begin(), entries.end());
    WAVEKIT_ASSIGN_OR_RETURN(
        Extent new_extent,
        WriteToNewExtent(new_capacity * kEntrySize, existing));
    WAVEKIT_RETURN_NOT_OK(allocator_->Free(info->extent));
    allocated_bytes_ += new_extent.length;
    allocated_bytes_ -= info->extent.length;
    info->extent = new_extent;
    info->count = needed;
    info->capacity = new_capacity;
    info->codec = Codec::kRaw;
    info->crc = Crc32c(existing.data(), existing.size() * kEntrySize);
  }
  entry_count_ += entries.size();
  packed_ = false;
  return Status::OK();
}

Status ConstituentIndex::AddBatch(const DayBatch& batch) {
  // Group the batch per value (sorted for determinism), then append.
  std::map<Value, std::vector<Entry>> grouped;
  for (const Record& record : batch.records) {
    for (size_t i = 0; i < record.values.size(); ++i) {
      grouped[record.values[i]].push_back(
          Entry{record.record_id, batch.day, record.AuxFor(i)});
    }
  }
  for (const auto& [value, entries] : grouped) {
    WAVEKIT_RETURN_NOT_OK(AppendEntries(value, entries));
  }
  time_set_.insert(batch.day);
  return Status::OK();
}

Status ConstituentIndex::DeleteDays(const TimeSet& days) {
  if (days.empty()) return Status::OK();
  // Iterate over a copy: emptied values are removed from layout_order_.
  const std::vector<Value> values = layout_order_;
  std::vector<Entry> kept;
  for (const Value& value : values) {
    BucketInfo* info = directory_.Find(value);
    if (info == nullptr) {
      return Status::Internal("layout order lists unknown value '" + value +
                              "' in index " + name_);
    }
    kept.clear();
    WAVEKIT_RETURN_NOT_OK(CollectBucket(
        value, *info, [&](const Entry& e) { return !days.contains(e.day); },
        &kept));
    if (kept.size() == info->count) continue;  // nothing expired here
    // entry_count_ drops only once the bucket's rewrite has succeeded, so a
    // failed write leaves the accounting consistent with the directory.
    const uint64_t expired = info->count - kept.size();
    if (kept.empty()) {
      WAVEKIT_RETURN_NOT_OK(RemoveValue(value));
      entry_count_ -= expired;
      continue;
    }
    const uint32_t live = static_cast<uint32_t>(kept.size());
    const uint32_t shrunk =
        options_.growth.ShrunkCapacity(info->capacity, live);
    if (shrunk != info->capacity || info->codec != Codec::kRaw) {
      // Worth relocating to a smaller extent (CONTIGUOUS shrink). A
      // compressed bucket always relocates: its extent is encoded bytes,
      // too small for the surviving raw entries, so rewrite-on-mutation
      // lands them in a fresh kRaw extent.
      WAVEKIT_ASSIGN_OR_RETURN(Extent new_extent,
                               WriteToNewExtent(shrunk * kEntrySize, kept));
      WAVEKIT_RETURN_NOT_OK(allocator_->Free(info->extent));
      allocated_bytes_ += new_extent.length;
      allocated_bytes_ -= info->extent.length;
      info->extent = new_extent;
      info->capacity = shrunk;
      info->codec = Codec::kRaw;
    } else {
      // Compact in place.
      WAVEKIT_RETURN_NOT_OK(WriteEntriesAt(info->extent.offset, kept));
    }
    info->count = live;
    info->crc = Crc32c(kept.data(), kept.size() * kEntrySize);
    entry_count_ -= expired;
  }
  for (Day d : days) time_set_.erase(d);
  packed_ = false;
  return Status::OK();
}

Status ConstituentIndex::RemoveValue(const Value& value) {
  BucketInfo* info = directory_.Find(value);
  if (info == nullptr) {
    return Status::NotFound("no value '" + value + "' in index " + name_);
  }
  WAVEKIT_RETURN_NOT_OK(allocator_->Free(info->extent));
  allocated_bytes_ -= info->extent.length;
  WAVEKIT_RETURN_NOT_OK(directory_.Remove(value));
  layout_order_.erase(
      std::find(layout_order_.begin(), layout_order_.end(), value));
  return Status::OK();
}

Status ConstituentIndex::InstallBucket(const Value& value,
                                       const BucketInfo& info) {
  if (info.count > info.capacity) {
    return Status::InvalidArgument("bucket count exceeds capacity");
  }
  if (info.codec == Codec::kRaw) {
    if (info.extent.length != info.capacity * kEntrySize) {
      return Status::InvalidArgument("bucket extent does not match capacity");
    }
  } else {
    // Compressed buckets are immutable on device: exactly filled, with an
    // extent that is exactly the encoded bytes and strictly beats raw
    // (selection keeps kRaw otherwise).
    if (info.count != info.capacity) {
      return Status::InvalidArgument(
          "compressed bucket must be exactly filled");
    }
    if (info.count == 0 || info.extent.length == 0) {
      return Status::InvalidArgument("compressed bucket must be non-empty");
    }
    if (info.extent.length >= uint64_t{info.count} * kEntrySize) {
      return Status::InvalidArgument(
          "compressed bucket is not smaller than raw");
    }
  }
  WAVEKIT_RETURN_NOT_OK(directory_.Insert(value, info));
  layout_order_.push_back(value);
  allocated_bytes_ += info.extent.length;
  entry_count_ += info.count;
  return Status::OK();
}

Result<std::unique_ptr<ConstituentIndex>> ConstituentIndex::Clone(
    std::string name, const ParallelContext& parallel) const {
  return CloneTo(device_, allocator_, std::move(name), parallel);
}

Result<std::unique_ptr<ConstituentIndex>> ConstituentIndex::CloneTo(
    Device* device, ExtentAllocator* allocator, std::string name,
    const ParallelContext& parallel) const {
  // Plan once: every bucket in layout order, copied whole (slack included,
  // preserving the S' footprint) to the same place in one fresh region, so
  // the copy is contiguous and its I/O sequential, like the paper's CP. A
  // compressed extent is exactly its stored bytes; the clone keeps the
  // codec (no decode/re-encode round trip on the copy path).
  std::vector<BucketRef> sources;
  std::vector<BucketInfo> copies;  // the clone's buckets, offsets in region
  sources.reserve(layout_order_.size());
  copies.reserve(layout_order_.size());
  uint64_t size = 0;
  for (const Value& value : layout_order_) {
    const BucketInfo* info = directory_.Find(value);
    if (info == nullptr) {
      return Status::Internal("layout order lists unknown value '" + value +
                              "' in index " + name_);
    }
    sources.push_back(BucketRef{&value, *info});
    copies.push_back(*info);
    copies.back().extent.offset = size;
    size += info->extent.length;
  }
  WAVEKIT_ASSIGN_OR_RETURN(Extent region, allocator->Allocate(size));
  for (BucketInfo& copy : copies) copy.extent.offset += region.offset;

  // Serially: one read and then one write per bucket. In parallel: each
  // slice in ~1 MiB batches; the slices cover disjoint parts of the region,
  // so their writes never overlap. Either way every bucket is checked
  // before its bytes land anywhere: a clone must not launder corrupt bytes
  // into a fresh extent with a recomputed checksum.
  const uint64_t batch_bytes =
      parallel.enabled() ? IndexBuilder::kWriteChunkBytes : 0;
  Status copied = ForEachSlice(
      parallel, sources.size(), [&](size_t, size_t begin, size_t end) {
        if (parallel.enabled()) {
          WAVEKIT_RETURN_NOT_OK(CrashPoints::Check("clone.parallel.copy"));
        }
        std::vector<std::byte> buffer;
        for (size_t first = begin; first < end;) {
          size_t last = first;
          uint64_t bytes = 0;
          do {
            bytes += sources[last++].info.extent.length;
          } while (last < end && bytes < batch_bytes);
          buffer.resize(static_cast<size_t>(bytes));
          WAVEKIT_RETURN_NOT_OK(ReadVerified(
              std::span<const BucketRef>(sources).subspan(first, last - first),
              /*whole_extents=*/true, buffer,
              [](size_t, const std::byte*) { return true; }));
          WAVEKIT_RETURN_NOT_OK(
              device->Write(copies[first].extent.offset, buffer));
          first = last;
        }
        return Status::OK();
      });
  if (!copied.ok()) {
    // Nothing is installed yet: the whole region goes back in one piece.
    (void)allocator->Free(region);
    return copied;
  }

  auto clone = std::make_unique<ConstituentIndex>(device, allocator, options_,
                                                  std::move(name));
  for (size_t i = 0; i < copies.size(); ++i) {
    Status installed = clone->InstallBucket(*sources[i].value, copies[i]);
    if (!installed.ok()) {
      // The installed prefix is the clone's to free; the rest is ours.
      (void)allocator->Free(Extent{copies[i].extent.offset,
                                   region.end() - copies[i].extent.offset});
      return installed;
    }
  }
  clone->time_set_ = time_set_;
  clone->packed_ = packed_;
  return clone;
}

Status ConstituentIndex::Destroy() {
  Status first_error;
  directory_.ForEach([&](const Value&, const BucketInfo& info) {
    Status s = allocator_->Free(info.extent);
    if (!s.ok() && first_error.ok()) first_error = s;
  });
  WAVEKIT_RETURN_NOT_OK(first_error);
  directory_ = Directory();  // releases the map's memory, unlike clear()
  layout_order_.clear();
  time_set_.clear();
  entry_count_ = 0;
  allocated_bytes_ = 0;
  packed_ = false;
  return Status::OK();
}

ConstituentIndex::CodecBreakdown ConstituentIndex::CodecStats() const {
  CodecBreakdown breakdown;
  directory_.ForEach([&](const Value&, const BucketInfo& info) {
    ++(info.codec == Codec::kRaw ? breakdown.raw_buckets
                                 : breakdown.bitpack_buckets);
    breakdown.stored_bytes += info.stored_length();
    breakdown.uncompressed_bytes += uint64_t{info.count} * kEntrySize;
  });
  return breakdown;
}

Status ConstituentIndex::CheckPacked() const {
  uint64_t expected_offset = 0;
  bool first = true;
  for (const Value& value : layout_order_) {
    const BucketInfo* info = directory_.Find(value);
    if (info == nullptr) return Status::Internal("layout/directory mismatch");
    if (info->count != info->capacity) {
      return Status::Internal("bucket for '" + value +
                              "' is not exactly filled");
    }
    if (!first && info->extent.offset != expected_offset) {
      return Status::Internal("bucket for '" + value +
                              "' is not contiguous with its predecessor");
    }
    expected_offset = info->extent.end();
    first = false;
  }
  return Status::OK();
}

Status ConstituentIndex::CheckConsistency() const {
  if (layout_order_.size() != directory_.size()) {
    return Status::Internal("layout order size != directory size");
  }
  uint64_t entries = 0;
  uint64_t bytes = 0;
  for (const Value& value : layout_order_) {
    const BucketInfo* info = directory_.Find(value);
    if (info == nullptr) return Status::Internal("layout/directory mismatch");
    if (info->count > info->capacity) {
      return Status::Internal("bucket count exceeds capacity");
    }
    if (info->count == 0) {
      return Status::Internal("empty bucket retained for '" + value + "'");
    }
    if (info->codec == Codec::kRaw) {
      if (info->extent.length != info->capacity * kEntrySize) {
        return Status::Internal("extent length does not match capacity");
      }
    } else {
      if (info->count != info->capacity) {
        return Status::Internal("compressed bucket not exactly filled");
      }
      if (info->extent.length == 0 ||
          info->extent.length >= uint64_t{info->count} * kEntrySize) {
        return Status::Internal("compressed extent not smaller than raw");
      }
    }
    entries += info->count;
    bytes += info->extent.length;
  }
  if (entries != entry_count_) return Status::Internal("entry count mismatch");
  if (bytes != allocated_bytes_) {
    return Status::Internal("allocated byte accounting mismatch");
  }
  if (packed_) WAVEKIT_RETURN_NOT_OK(CheckPacked());
  return Status::OK();
}

}  // namespace wavekit
