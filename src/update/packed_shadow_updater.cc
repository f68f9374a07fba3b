#include "update/packed_shadow_updater.h"

#include <unordered_map>
#include <vector>

#include "index/index_builder.h"
#include "update/in_place_updater.h"
#include "update/simple_shadow_updater.h"
#include "util/macros.h"

namespace wavekit {

Status PackedShadowUpdater::Apply(std::shared_ptr<ConstituentIndex>* index,
                                  std::span<const GroupedDay* const> adds,
                                  const TimeSet& deletes) {
  ConstituentIndex* old_index = index->get();
  Device* device = old_index->device();
  ExtentAllocator* allocator = old_index->allocator();
  const ConstituentIndex::Options& options = old_index->options();

  // Step 1: temporary packed index of the inserted records. (The smart copy
  // below merges from it, charging its build and scan I/O, as the paper's
  // SMCP accounting does.)
  std::shared_ptr<ConstituentIndex> temp;
  if (!adds.empty()) {
    WAVEKIT_ASSIGN_OR_RETURN(
        temp, IndexBuilder::BuildPacked(device, allocator, options, adds,
                                        old_index->name() + ".ins", parallel_));
  }

  // Read the temporary index's buckets up front so the merge below can
  // interleave them with the old index's buckets in one output pass.
  std::unordered_map<Value, std::vector<Entry>> insert_entries;
  if (temp != nullptr) {
    Status scan_status = temp->Scan([&](const Value& value, const Entry& e) {
      insert_entries[value].push_back(e);
    });
    WAVEKIT_RETURN_NOT_OK(scan_status);
  }

  // Step 2a: scan the old index once, dropping expired entries, and learn
  // the exact size of every surviving bucket.
  PackedBuckets merged;
  merged.reserve(old_index->layout_order().size() + insert_entries.size());
  {
    std::unordered_map<Value, size_t> slot_of;
    Status scan_status = old_index->Scan([&](const Value& value,
                                             const Entry& e) {
      if (deletes.contains(e.day)) return;
      auto [it, inserted] = slot_of.emplace(value, merged.size());
      if (inserted) merged.emplace_back(value, std::vector<Entry>{});
      merged[it->second].second.push_back(e);
    });
    WAVEKIT_RETURN_NOT_OK(scan_status);
    // Append the inserts for surviving values into their buckets.
    for (auto& [value, entries] : merged) {
      auto it = insert_entries.find(value);
      if (it == insert_entries.end()) continue;
      entries.insert(entries.end(), it->second.begin(), it->second.end());
      insert_entries.erase(it);
    }
  }
  // Step 3 (new values): buckets for values absent from the old index go
  // after the last old bucket, in the temporary index's layout order.
  if (temp != nullptr) {
    for (const Value& value : temp->layout_order()) {
      auto it = insert_entries.find(value);
      if (it == insert_entries.end()) continue;  // already merged above
      merged.emplace_back(value, std::move(it->second));
    }
  }

  // Step 2b/3b: write the packed result to one contiguous region.
  auto packed = std::make_shared<ConstituentIndex>(device, allocator, options,
                                                   old_index->name());
  WAVEKIT_RETURN_NOT_OK(IndexBuilder::WritePacked(
      packed.get(), merged, parallel_, "updater.packed.parallel_flush"));

  // Step 4: update the time-set and swap the new version in.
  TimeSet time_set = old_index->time_set();
  for (Day d : deletes) time_set.erase(d);
  for (const GroupedDay* day : adds) time_set.insert(day->day());
  packed->mutable_time_set() = time_set;
  packed->set_packed(true);
  if (temp != nullptr) WAVEKIT_RETURN_NOT_OK(temp->Destroy());
  *index = std::move(packed);
  return Status::OK();
}

std::unique_ptr<Updater> MakeUpdater(UpdateTechniqueKind kind) {
  switch (kind) {
    case UpdateTechniqueKind::kInPlace:
      return std::make_unique<InPlaceUpdater>();
    case UpdateTechniqueKind::kSimpleShadow:
      return std::make_unique<SimpleShadowUpdater>();
    case UpdateTechniqueKind::kPackedShadow:
      return std::make_unique<PackedShadowUpdater>();
  }
  return nullptr;
}

const char* UpdateTechniqueKindName(UpdateTechniqueKind kind) {
  switch (kind) {
    case UpdateTechniqueKind::kInPlace:
      return "in-place";
    case UpdateTechniqueKind::kSimpleShadow:
      return "simple-shadow";
    case UpdateTechniqueKind::kPackedShadow:
      return "packed-shadow";
  }
  return "?";
}

}  // namespace wavekit
