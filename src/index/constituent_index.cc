#include "index/constituent_index.h"

#include <algorithm>
#include <cstring>
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

// Cuts the runs of one read batch, in buffer order, down to the runs that
// cover its first `bytes` bytes.
void TrimExtents(std::vector<Extent>* extents, uint64_t bytes) {
  size_t keep = 0;
  while (keep < extents->size() && bytes > 0) {
    Extent& run = (*extents)[keep++];
    run.length = std::min(run.length, bytes);
    bytes -= run.length;
  }
  extents->resize(keep);
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

Status ConstituentIndex::VerifyBucketBytes(const Value& value, uint32_t crc,
                                           const std::byte* bytes,
                                           uint64_t length) const {
  if (!options_.verify_checksums) return Status::OK();
  if (options_.integrity != nullptr) {
    options_.integrity->verified_buckets.fetch_add(1,
                                                   std::memory_order_relaxed);
  }
  return CheckBucketBytes(value, crc, bytes, length);
}

Status ConstituentIndex::CheckBucketBytes(const Value& value, uint32_t crc,
                                          const std::byte* bytes,
                                          uint64_t length) const {
  if (!options_.verify_checksums) return Status::OK();
  const uint32_t actual = Crc32c(bytes, length);
  if (actual == crc) return Status::OK();
  if (options_.integrity != nullptr) {
    options_.integrity->corruptions_detected.fetch_add(
        1, std::memory_order_relaxed);
  }
  Quarantine();
  return Status::DataLoss("checksum mismatch in bucket '" + value +
                          "' of index " + name_);
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
  if (options_.integrity != nullptr) {
    options_.integrity->corruptions_detected.fetch_add(
        1, std::memory_order_relaxed);
  }
  Quarantine();
  return Status::DataLoss("bucket '" + value + "' of index " + name_ +
                          " failed to decode: " + status.message());
}

Status ConstituentIndex::ReadBucketEntries(const Value& value,
                                           const BucketInfo& info,
                                           std::vector<Entry>* out) const {
  const size_t previous = out->size();
  out->resize(previous + info.count);
  if (info.count == 0) return Status::OK();

  // Compressed buckets read the stored (encoded) bytes into scratch and
  // decode at this boundary; raw buckets read entries straight into `out`.
  std::vector<std::byte> scratch;
  const Extent stored{info.extent.offset, info.stored_length()};
  std::byte* bytes;
  if (info.codec == Codec::kRaw) {
    bytes = reinterpret_cast<std::byte*>(out->data() + previous);
  } else {
    scratch.resize(static_cast<size_t>(stored.length));
    bytes = scratch.data();
  }
  const std::span<std::byte> span(bytes, static_cast<size_t>(stored.length));
  Status status;
  if (options_.verify_checksums) {
    // Verify at the trust boundary (storage/device.h ReadBatchTracked): a
    // bucket served entirely from checksum-verified resident cache bytes
    // skips re-hashing; a verified medium read promotes those bytes so the
    // next probe of the same hot bucket can skip.
    const std::span<const Extent> extents(&stored, 1);
    bool trusted = false;
    uint64_t fill_token = 0;
    status = device_->ReadBatchTracked(extents, span, &trusted, &fill_token);
    if (status.ok()) {
      if (trusted) {
        if (options_.integrity != nullptr) {
          options_.integrity->trusted_buckets.fetch_add(
              1, std::memory_order_relaxed);
        }
      } else {
        status = VerifyBucketBytes(value, info.crc, bytes, stored.length);
        if (status.ok()) device_->MarkVerified(extents, fill_token);
      }
    }
  } else {
    status = device_->Read(stored.offset, span);
  }
  if (status.ok() && info.codec != Codec::kRaw) {
    status = DecodeStoredBucket(value, info.codec, bytes, stored.length,
                                info.count, out->data() + previous);
  }
  // A failed read, checksum, or decode must not hand unverified entries to
  // the caller alongside the error.
  if (!status.ok()) out->resize(previous);
  return status;
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
    return ReadBucketEntries(value, *info, out);
  }
  std::vector<Entry> bucket;
  WAVEKIT_RETURN_NOT_OK(ReadBucketEntries(value, *info, &bucket));
  for (const Entry& e : bucket) {
    if (range.Contains(e.day)) out->push_back(e);
  }
  return Status::OK();
}

Status ConstituentIndex::Scan(const EntryCallback& callback) const {
  return TimedScan(DayRange::All(), callback);
}

Status ConstituentIndex::TimedScan(const DayRange& range,
                                   const EntryCallback& callback,
                                   uint64_t limit) const {
  if (limit == 0) return Status::OK();
  const bool covered = range.Covers(time_set_);
  // Coalesce physically adjacent live regions into runs (a packed index is
  // one run) and issue one ReadBatch per `batch_bytes` of pending buckets —
  // one device round-trip (and, in a serving stack, one metering round) per
  // batch instead of per bucket. The first batch is sized to the limit and
  // each later one doubles; any limit of kScanBatchBytes / kEntrySize or
  // more (kNoEntryLimit among them) reads kScanBatchBytes from the first.
  uint64_t batch_bytes =
      std::min(limit, kScanBatchBytes / kEntrySize) * kEntrySize;
  uint64_t remaining = limit;  // entries the scan may still deliver
  // Pending buckets in structure-of-arrays form so the fused verify+deliver
  // loop below touches a few small dense arrays, not a vector of structs.
  std::vector<Extent> extents;
  std::vector<const Value*> pending_values;
  std::vector<uint32_t> pending_lengths;  // stored bytes per bucket
  std::vector<uint32_t> pending_counts;   // live entries per bucket
  std::vector<Codec> pending_codecs;
  std::vector<uint32_t> pending_crcs;
  std::vector<std::byte> buffer;
  std::vector<Entry> scratch;  // decode target for compressed buckets
  uint64_t pending_bytes = 0;

  auto flush = [&]() -> Status {
    if (pending_values.empty()) return Status::OK();
    buffer.resize(static_cast<size_t>(pending_bytes));
    const std::span<std::byte> out(buffer.data(),
                                   static_cast<size_t>(pending_bytes));
    // Verification happens at the trust boundary — the medium. A batch
    // served wholly from cache blocks that MarkVerified promoted (every byte
    // checksum-verified since it last crossed the medium) is delivered
    // without re-verification: re-hashing DRAM-resident bytes on every scan
    // catches nothing the background scrubber (which reads the medium,
    // bypassing the cache) does not already cover, and would cost more than
    // the scan itself on dense windows.
    bool all_trusted = false;
    uint64_t fill_token = 0;
    if (options_.verify_checksums) {
      WAVEKIT_RETURN_NOT_OK(
          device_->ReadBatchTracked(extents, out, &all_trusted, &fill_token));
    } else {
      WAVEKIT_RETURN_NOT_OK(device_->ReadBatch(extents, out));
    }
    // One fused pass: check bucket k, issue bucket k+1's checksum chain,
    // THEN deliver bucket k. A bucket's entries are never delivered before
    // its own checksum passes, and the next bucket's CRC — a serial
    // dependency chain through a 3-cycle-latency instruction — retires in
    // the out-of-order shadow of the current bucket's callback work instead
    // of stalling a dedicated verification pass. (Buckets earlier in the
    // batch have already been delivered when a later one turns out corrupt —
    // the same exposure as a corrupt bucket in a later flush.) The
    // verified-buckets stat is charged once per flush, not per bucket.
    const size_t total = pending_values.size();
    const bool verify = options_.verify_checksums && !all_trusted;
    size_t bad = total;        // first corrupt bucket, or total when clean
    size_t delivered = total;  // buckets delivered before the limit stopped
    size_t at = 0;             // byte offset of bucket k within the buffer
    uint32_t actual = verify ? Crc32c(buffer.data(), pending_lengths[0]) : 0;
    for (size_t k = 0; k < total; ++k) {
      const uint32_t length = pending_lengths[k];
      if (verify) {
        if (actual != pending_crcs[k]) {
          bad = k;
          break;
        }
        if (k + 1 < total) {
          actual = Crc32c(buffer.data() + at + length, pending_lengths[k + 1]);
        }
      }
      const Value& value = *pending_values[k];
      const uint32_t count = pending_counts[k];
      const std::byte* stored = buffer.data() + at;
      const Entry* bucket;
      if (pending_codecs[k] == Codec::kRaw) {
        // An all-raw batch keeps every bucket at an entry-aligned offset and
        // delivers in place; a compressed predecessor can leave this one
        // unaligned, in which case it is copied out first.
        if (reinterpret_cast<uintptr_t>(stored) % alignof(Entry) == 0) {
          bucket = reinterpret_cast<const Entry*>(stored);
        } else {
          scratch.resize(count);
          std::memcpy(scratch.data(), stored, length);
          bucket = scratch.data();
        }
      } else {
        scratch.resize(count);
        WAVEKIT_RETURN_NOT_OK(DecodeStoredBucket(
            value, pending_codecs[k], stored, length, count, scratch.data()));
        bucket = scratch.data();
      }
      for (uint32_t i = 0; i < count && remaining > 0; ++i) {
        const Entry& e = bucket[i];
        if (covered || range.Contains(e.day)) {
          callback(value, e);
          --remaining;
        }
      }
      at += length;
      if (remaining == 0) {
        delivered = k + 1;
        break;
      }
    }
    if (options_.integrity != nullptr && options_.verify_checksums) {
      if (verify) {
        options_.integrity->verified_buckets.fetch_add(
            bad == total ? delivered : bad + 1, std::memory_order_relaxed);
      } else {
        options_.integrity->trusted_buckets.fetch_add(
            delivered, std::memory_order_relaxed);
      }
    }
    if (bad != total) {
      // Recheck the failing bucket through the usual path for the corruption
      // accounting, the quarantine, and the error message. `at` is its
      // offset: the loop broke before advancing past bucket `bad`.
      WAVEKIT_RETURN_NOT_OK(CheckBucketBytes(*pending_values[bad],
                                             pending_crcs[bad],
                                             buffer.data() + at,
                                             pending_lengths[bad]));
    }
    if (verify && bad == total) {
      // Every byte the scan checksummed came out clean: mark those bytes of
      // still-resident cache blocks so the next scan over them can skip. A
      // batch the limit stopped in checked only its first `at` bytes; the
      // buckets after them stay untrusted.
      if (delivered < total) TrimExtents(&extents, at);
      device_->MarkVerified(extents, fill_token);
    }
    extents.clear();
    pending_values.clear();
    pending_lengths.clear();
    pending_counts.clear();
    pending_codecs.clear();
    pending_crcs.clear();
    pending_bytes = 0;
    return Status::OK();
  };

  for (const Value& value : layout_order_) {
    const BucketInfo* info = directory_.Find(value);
    if (info == nullptr) {
      return Status::Internal("layout order lists unknown value '" + value +
                              "' in index " + name_);
    }
    if (info->count == 0) continue;
    const Extent live{info->extent.offset, info->stored_length()};
    if (!extents.empty() && extents.back().end() == live.offset) {
      extents.back().length += live.length;  // adjacent: extend the run
    } else {
      extents.push_back(live);
    }
    pending_values.push_back(&value);
    pending_lengths.push_back(static_cast<uint32_t>(live.length));
    pending_counts.push_back(info->count);
    pending_codecs.push_back(info->codec);
    pending_crcs.push_back(info->crc);
    pending_bytes += live.length;
    if (pending_bytes >= batch_bytes) {
      WAVEKIT_RETURN_NOT_OK(flush());
      if (remaining == 0) return Status::OK();
      batch_bytes = std::min(2 * batch_bytes, kScanBatchBytes);
    }
  }
  return flush();
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
    // too: ReadBucketEntries decodes it and the rewrite is kRaw —
    // rewrite-on-mutation keeps simple constituents appendable.
    const uint32_t needed =
        info->count + static_cast<uint32_t>(entries.size());
    const uint32_t new_capacity =
        options_.growth.GrownCapacity(info->capacity, needed);
    std::vector<Entry> existing;
    WAVEKIT_RETURN_NOT_OK(ReadBucketEntries(value, *info, &existing));
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
  std::vector<Entry> bucket;
  std::vector<Entry> kept;
  for (const Value& value : values) {
    BucketInfo* info = directory_.Find(value);
    if (info == nullptr) {
      return Status::Internal("layout order lists unknown value '" + value +
                              "' in index " + name_);
    }
    bucket.clear();
    WAVEKIT_RETURN_NOT_OK(ReadBucketEntries(value, *info, &bucket));
    kept.clear();
    for (const Entry& e : bucket) {
      if (!days.contains(e.day)) kept.push_back(e);
    }
    if (kept.size() == bucket.size()) continue;  // nothing expired here
    // entry_count_ drops only once the bucket's rewrite has succeeded, so a
    // failed write leaves the accounting consistent with the directory.
    const uint64_t expired = bucket.size() - kept.size();
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
  if (parallel.enabled()) {
    return CloneToParallel(device, allocator, std::move(name), parallel);
  }
  auto clone = std::make_unique<ConstituentIndex>(device, allocator, options_,
                                                  std::move(name));
  // One region for all buckets keeps the copy contiguous (and the copy I/O
  // sequential), like the paper's CP: read everything, flush elsewhere.
  WAVEKIT_ASSIGN_OR_RETURN(Extent region,
                           allocator->Allocate(allocated_bytes_));
  uint64_t cursor = region.offset;
  std::vector<std::byte> buffer;
  for (const Value& value : layout_order_) {
    const BucketInfo* info = directory_.Find(value);
    Status status;
    if (info == nullptr) {
      status = Status::Internal("layout order lists unknown value '" + value +
                                "' in index " + name_);
    } else {
      // Copy the full capacity (slack included), preserving S' footprint. A
      // compressed extent is exactly its stored bytes; the clone keeps the
      // codec (no decode/re-encode round trip on the copy path).
      buffer.resize(info->extent.length);
      status = device_->Read(info->extent.offset, buffer);
      // Verify before propagating: a clone must not launder corrupt bytes
      // into a fresh extent with a recomputed checksum.
      if (status.ok()) {
        status = VerifyBucketBytes(value, info->crc, buffer.data(),
                                   info->stored_length());
      }
      if (status.ok()) status = device->Write(cursor, buffer);
      if (status.ok()) {
        status = clone->InstallBucket(
            value, BucketInfo{Extent{cursor, info->extent.length},
                              info->count, info->capacity, info->crc,
                              info->codec});
      }
    }
    if (!status.ok()) {
      // The clone's destructor frees the buckets it installed; the rest of
      // the region is freed here.
      (void)allocator->Free(Extent{cursor, region.end() - cursor});
      return status;
    }
    cursor += info->extent.length;
  }
  clone->time_set_ = time_set_;
  clone->packed_ = packed_;
  return clone;
}

Result<std::unique_ptr<ConstituentIndex>> ConstituentIndex::CloneToParallel(
    Device* device, ExtentAllocator* allocator, std::string name,
    const ParallelContext& parallel) const {
  auto clone = std::make_unique<ConstituentIndex>(device, allocator, options_,
                                                  std::move(name));
  // Snapshot the bucket list and destination layout serially (the directory
  // is not thread-safe); tasks then touch only their own slice.
  struct CopyPlan {
    const Value* value;
    Extent source;
    uint64_t target_offset;  // relative to the region start
    uint64_t stored;         // checksummed bytes at the extent's start
    uint32_t count;
    uint32_t capacity;
    uint32_t crc;
    Codec codec;
  };
  std::vector<CopyPlan> plan;
  plan.reserve(layout_order_.size());
  uint64_t running = 0;
  for (const Value& value : layout_order_) {
    const BucketInfo* info = directory_.Find(value);
    if (info == nullptr) {
      return Status::Internal("layout order lists unknown value '" + value +
                              "' in index " + name_);
    }
    plan.push_back(CopyPlan{&value, info->extent, running,
                            info->stored_length(), info->count,
                            info->capacity, info->crc, info->codec});
    running += info->extent.length;
  }
  WAVEKIT_ASSIGN_OR_RETURN(Extent region,
                           allocator->Allocate(allocated_bytes_));

  const size_t parts = parallel.Partitions(plan.size());
  std::vector<Status> copy_status(std::max<size_t>(parts, 1), Status::OK());
  {
    ThreadPool::WaitGroup group(parallel.pool);
    for (size_t p = 0; p < parts; ++p) {
      group.Submit([&, p]() {
        Status status = CrashPoints::Check("clone.parallel.copy");
        if (!status.ok()) {
          copy_status[p] = std::move(status);
          return;
        }
        const size_t begin = plan.size() * p / parts;
        const size_t end = plan.size() * (p + 1) / parts;
        std::vector<Extent> sources;
        std::vector<Extent> targets;
        std::vector<const CopyPlan*> batched;
        std::vector<std::byte> buffer;
        uint64_t pending = 0;
        auto flush = [&]() -> Status {
          if (sources.empty()) return Status::OK();
          buffer.resize(static_cast<size_t>(pending));
          WAVEKIT_RETURN_NOT_OK(device_->ReadBatch(sources, buffer));
          // Verify each bucket's stored bytes in the batch before the copy
          // lands anywhere (same rule as the serial clone).
          uint64_t at = 0;
          for (const CopyPlan* bucket : batched) {
            WAVEKIT_RETURN_NOT_OK(VerifyBucketBytes(
                *bucket->value, bucket->crc,
                buffer.data() + static_cast<size_t>(at), bucket->stored));
            at += bucket->source.length;
          }
          WAVEKIT_RETURN_NOT_OK(device->WriteBatch(targets, buffer));
          sources.clear();
          targets.clear();
          batched.clear();
          pending = 0;
          return Status::OK();
        };
        for (size_t i = begin; i < end; ++i) {
          const CopyPlan& bucket = plan[i];
          sources.push_back(bucket.source);
          targets.push_back(
              Extent{region.offset + bucket.target_offset,
                     bucket.source.length});
          batched.push_back(&bucket);
          pending += bucket.source.length;
          if (pending >= IndexBuilder::kWriteChunkBytes) {
            status = flush();
            if (!status.ok()) break;
          }
        }
        if (status.ok()) status = flush();
        copy_status[p] = std::move(status);
      });
    }
    group.Wait();
  }
  for (Status& status : copy_status) {
    if (!status.ok()) {
      // Nothing was installed: the whole region goes back in one piece.
      (void)allocator->Free(region);
      return std::move(status);
    }
  }
  for (const CopyPlan& bucket : plan) {
    WAVEKIT_RETURN_NOT_OK(clone->InstallBucket(
        *bucket.value,
        BucketInfo{
            Extent{region.offset + bucket.target_offset, bucket.source.length},
            bucket.count, bucket.capacity, bucket.crc, bucket.codec}));
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
