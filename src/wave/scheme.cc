#include "wave/scheme.h"

#include <algorithm>
#include <atomic>

#include "index/index_builder.h"
#include "update/in_place_updater.h"
#include "update/packed_shadow_updater.h"
#include "util/crash_point.h"
#include "util/histogram.h"
#include "util/macros.h"

namespace wavekit {

namespace internal {
namespace {
std::atomic<bool> g_window_invariant_mutation{false};
}  // namespace

void SetWindowInvariantMutationForTesting(bool enabled) {
  g_window_invariant_mutation.store(enabled, std::memory_order_relaxed);
}

bool WindowInvariantMutationForTesting() {
  return g_window_invariant_mutation.load(std::memory_order_relaxed);
}

}  // namespace internal

const char* SchemeKindName(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kDel:
      return "DEL";
    case SchemeKind::kReindex:
      return "REINDEX";
    case SchemeKind::kReindexPlus:
      return "REINDEX+";
    case SchemeKind::kReindexPlusPlus:
      return "REINDEX++";
    case SchemeKind::kWata:
      return "WATA*";
    case SchemeKind::kRata:
      return "RATA*";
    case SchemeKind::kKnownBoundWata:
      return "KB-WATA";
  }
  return "?";
}

Scheme::Scheme(SchemeEnv env, SchemeConfig config)
    : env_(env),
      config_(config),
      updater_(MakeUpdater(config.technique)) {
  if (updater_ != nullptr) updater_->set_parallel(env_.maintenance);
}

Status Scheme::ValidateConfig() const {
  if (config_.window < 1) {
    return Status::InvalidArgument("window must be >= 1");
  }
  if (config_.num_indexes < 1 || config_.num_indexes > config_.window) {
    return Status::InvalidArgument(
        "number of indexes must satisfy 1 <= n <= W (n=" +
        std::to_string(config_.num_indexes) +
        ", W=" + std::to_string(config_.window) + ")");
  }
  if (env_.device == nullptr || env_.allocator == nullptr ||
      env_.day_store == nullptr) {
    return Status::InvalidArgument("scheme environment is incomplete");
  }
  return Status::OK();
}

Status Scheme::Start(std::vector<DayBatch> first_window) {
  if (started_) {
    return Status::FailedPrecondition("scheme already started");
  }
  WAVEKIT_RETURN_NOT_OK(ValidateConfig());
  if (static_cast<int>(first_window.size()) != config_.window) {
    return Status::InvalidArgument(
        "Start expects exactly W=" + std::to_string(config_.window) +
        " batches, got " + std::to_string(first_window.size()));
  }
  for (int i = 0; i < config_.window; ++i) {
    if (first_window[static_cast<size_t>(i)].day != i + 1) {
      return Status::InvalidArgument("Start batches must cover days 1..W in order");
    }
  }
  for (DayBatch& batch : first_window) {
    WAVEKIT_RETURN_NOT_OK(env_.day_store->Put(std::move(batch)));
  }
  current_day_ = config_.window;
  {
    MultiPhaseScope scope(AllDevices(), Phase::kStart);
    WAVEKIT_RETURN_NOT_OK(DoStart());
  }
  started_ = true;
  env_.day_store->Prune(OldestDayNeeded());
  return Status::OK();
}

Status Scheme::Transition(DayBatch new_day) {
  if (!started_) {
    return Status::FailedPrecondition("scheme not started");
  }
  if (needs_recovery_) {
    return Status::FailedPrecondition(
        "a previous transition failed partway; reload the wave index from "
        "its last checkpoint and Adopt a fresh scheme (wave/recovery.h)");
  }
  if (new_day.day != current_day_ + 1) {
    return Status::InvalidArgument(
        "Transition expects day " + std::to_string(current_day_ + 1) +
        ", got " + std::to_string(new_day.day));
  }
  const Day day = new_day.day;
  WAVEKIT_RETURN_NOT_OK(env_.day_store->Put(std::move(new_day)));
  current_day_ = day;
  if (internal::WindowInvariantMutationForTesting() && day % 3 == 0) {
    // Deliberate bug (mutation testing only): claim the transition happened
    // without running it — the window neither gains the new day nor sheds
    // the expired one. The simulation harness must catch this.
    return Status::OK();
  }
  const Status status = DoTransition(day);
  if (!status.ok()) {
    // The transition may have completed some primitives: slot state is
    // suspect until recovery, and current_day_ reverts to the last day that
    // was fully incorporated. The wave keeps serving (shadow updates never
    // mutated registered constituents), but the slot that was due to shed
    // the expired day now serves a stale cluster — mark it so queries
    // surface the degradation as a partial result.
    needs_recovery_ = true;
    current_day_ = day - 1;
    if (status.IsIOError()) {
      const Result<size_t> stale = FindSlotContaining(day - config_.window);
      if (stale.ok() && wave_.Contains(slots_[stale.ValueOrDie()].get())) {
        MarkUnhealthy(slots_[stale.ValueOrDie()].get());
      }
    }
    return status;
  }
  env_.day_store->Prune(OldestDayNeeded());
  return Status::OK();
}

FaultStats Scheme::fault_stats() const {
  FaultStats out;
  out.transient_io_errors =
      transient_io_errors_.load(std::memory_order_relaxed);
  out.retries = retries_.load(std::memory_order_relaxed);
  out.retries_exhausted = retries_exhausted_.load(std::memory_order_relaxed);
  out.constituents_marked_unhealthy =
      marked_unhealthy_.load(std::memory_order_relaxed);
  return out;
}

Status Scheme::RetryTransient(std::string_view op,
                              const std::function<Status()>& body) {
  const int max_attempts = std::max(env_.retry.max_attempts, 1);
  uint64_t backoff_us = env_.retry.initial_backoff_us;
  Status status;
  for (int attempt = 1;; ++attempt) {
    status = body();
    // Only transient I/O errors are worth another attempt. Injected crashes
    // model the process dying — recovery, not retry, handles those.
    if (status.ok() || !status.IsIOError() || IsInjectedCrash(status)) {
      return status;
    }
    transient_io_errors_.fetch_add(1, std::memory_order_relaxed);
    if (attempt >= max_attempts) break;
    retries_.fetch_add(1, std::memory_order_relaxed);
    if (env_.events != nullptr) {
      env_.events->Append(obs::EventType::kRetry, current_day_ + 1,
                          status.message(),
                          {{"op", std::string(op)},
                           {"attempt", std::to_string(attempt)}});
    }
    if (backoff_us > 0) {
      const uint64_t sleep_us = backoff_us;
      backoff_us = std::min(env_.retry.max_backoff_us, backoff_us * 2);
      if (env_.retry_backoff_us != nullptr) {
        env_.retry_backoff_us->Record(sleep_us);
      }
      // Injected clock: real time in production, virtual (free) time under
      // the deterministic simulation harness.
      Clock* clock =
          env_.clock != nullptr ? env_.clock : RealClock::Instance();
      clock->SleepUs(sleep_us);
    }
  }
  retries_exhausted_.fetch_add(1, std::memory_order_relaxed);
  return status.WithContext(std::string(op) + " failed after " +
                            std::to_string(max_attempts) + " attempt(s)");
}

Result<Scheme::HealReport> Scheme::HealUnhealthy() {
  if (!started_) {
    return Status::FailedPrecondition("scheme not started");
  }
  if (needs_recovery_) {
    return Status::FailedPrecondition(
        "a previous transition failed partway; run checkpoint recovery "
        "(wave/recovery.h) before healing");
  }
  HealReport report;
  for (size_t j = 0; j < slots_.size(); ++j) {
    ConstituentIndex* const sick = slots_[j].get();
    if (sick == nullptr || sick->healthy()) continue;
    if (!wave_.Contains(sick)) continue;
    // The rebuild sources the slot's cluster from the day store. If any day
    // was already pruned (or never re-fed after the corruption), there is
    // nothing to rebuild from — leave the slot quarantined and report it.
    bool have_all_days = true;
    for (Day day : sick->time_set()) {
      if (!env_.day_store->Has(day)) {
        have_all_days = false;
        break;
      }
    }
    if (!have_all_days) {
      ++report.skipped;
      continue;
    }
    if (env_.events != nullptr) {
      env_.events->Append(obs::EventType::kHealStart, current_day_,
                          std::string(sick->name()),
                          {{"slot", std::to_string(j)},
                           {"days", std::to_string(sick->time_set().size())}});
    }
    // BuildIndex is the paper's primitive: a fresh packed index over the
    // cluster's segment data, placed slot-stably (constituent j stays on
    // disk j). The corrupt object keeps serving the healthy remainder of
    // the wave until the swap; it is destroyed when the last query snapshot
    // releases it.
    WAVEKIT_ASSIGN_OR_RETURN(
        std::shared_ptr<ConstituentIndex> rebuilt,
        BuildIndex(sick->time_set(), std::string(sick->name()), Phase::kOther,
                   static_cast<int>(j)));
    WAVEKIT_RETURN_NOT_OK(ReplaceSlot(j, rebuilt));
    ++report.healed;
    report.healed_names.push_back(std::string(rebuilt->name()));
    if (env_.events != nullptr) {
      env_.events->Append(obs::EventType::kHealComplete, current_day_,
                          std::string(rebuilt->name()),
                          {{"slot", std::to_string(j)},
                           {"entries", std::to_string(rebuilt->entry_count())}});
    }
  }
  return report;
}

void Scheme::MarkUnhealthy(ConstituentIndex* index) {
  if (index == nullptr || !index->healthy()) return;
  index->set_healthy(false);
  marked_unhealthy_.fetch_add(1, std::memory_order_relaxed);
}

Status Scheme::Adopt(WaveIndex wave, Day current_day) {
  if (started_) {
    return Status::FailedPrecondition("scheme already started");
  }
  WAVEKIT_RETURN_NOT_OK(ValidateConfig());
  if (wave.num_constituents() == 0) {
    return Status::InvalidArgument("cannot adopt an empty wave index");
  }
  const TimeSet covered = wave.CoveredDays();
  const Day oldest_window_day = current_day - config_.window + 1;
  for (Day d = oldest_window_day; d <= current_day; ++d) {
    if (!covered.contains(d)) {
      return Status::InvalidArgument(
          "adopted wave index does not cover day " + std::to_string(d) +
          " of the window ending at " + std::to_string(current_day));
    }
  }
  if (*covered.rbegin() > current_day) {
    return Status::InvalidArgument("adopted wave index contains future days");
  }
  if (hard_window() && *covered.begin() < oldest_window_day) {
    return Status::InvalidArgument(
        "hard-window scheme cannot adopt an index holding expired days");
  }
  for (const auto& constituent : wave.constituents()) {
    if (constituent->time_set().empty()) {
      return Status::InvalidArgument("adopted constituent covers no days");
    }
  }

  wave_ = std::move(wave);
  slots_ = wave_.constituents();
  // Slot order: oldest cluster first (the order Start would have produced,
  // and the order the WATA family's rotation logic expects).
  std::sort(slots_.begin(), slots_.end(),
            [](const std::shared_ptr<ConstituentIndex>& a,
               const std::shared_ptr<ConstituentIndex>& b) {
              return *a->time_set().begin() < *b->time_set().begin();
            });
  current_day_ = current_day;
  WAVEKIT_RETURN_NOT_OK(DoAdopt());
  started_ = true;
  env_.day_store->Prune(OldestDayNeeded());
  return Status::OK();
}

Status Scheme::DoAdopt() {
  if (static_cast<int>(slots_.size()) != config_.num_indexes) {
    return Status::InvalidArgument(
        "adopted wave index has " + std::to_string(slots_.size()) +
        " constituents; this scheme is configured for n=" +
        std::to_string(config_.num_indexes));
  }
  return Status::OK();
}

Day Scheme::OldestDayNeeded() const {
  // The hard window covers every re-index the scheme family may run
  // (REINDEX family, RATA; WATA needs only the incoming day, but keeping
  // the window is harmless). Self-healing adds a second consumer: a
  // quarantined constituent is rebuilt from the batches of EVERY day it
  // covers (HealUnhealthy), and soft-window constituents legitimately cover
  // expired days, so retention extends to the wave's oldest covered day.
  Day oldest = current_day_ - config_.window + 1;
  const TimeSet covered = wave_.CoveredDays();
  if (!covered.empty() && *covered.begin() < oldest) {
    oldest = *covered.begin();
  }
  return oldest;
}

uint64_t Scheme::TemporaryBytes() const {
  uint64_t bytes = 0;
  for (const ConstituentIndex* temp : TemporaryIndexes()) {
    bytes += temp->allocated_bytes();
  }
  return bytes;
}

obs::Span Scheme::TraceOp(std::string_view name) const {
  return env_.tracer != nullptr ? env_.tracer->StartSpan(name) : obs::Span();
}

Result<std::vector<const GroupedDay*>> Scheme::GetBatches(
    const TimeSet& days) const {
  std::vector<const GroupedDay*> batches;
  batches.reserve(days.size());
  for (Day day : days) {
    WAVEKIT_ASSIGN_OR_RETURN(const GroupedDay* batch, env_.day_store->Get(day));
    batches.push_back(batch);
  }
  return batches;
}

Result<std::shared_ptr<ConstituentIndex>> Scheme::BuildIndex(
    const TimeSet& days, std::string name, Phase phase, int placement_hint) {
  obs::Span span = TraceOp("BuildIndex");
  WAVEKIT_ASSIGN_OR_RETURN(std::vector<const GroupedDay*> batches,
                           GetBatches(days));
  uint64_t entries = 0;
  for (const GroupedDay* batch : batches) entries += batch->EntryCount();
  const SchemeEnv::Disk disk = NextDisk(placement_hint);
  MultiPhaseScope scope(AllDevices(), phase);
  // A failed packed build frees everything it allocated, so the attempt is
  // all-or-nothing and safe to retry on transient I/O errors.
  std::shared_ptr<ConstituentIndex> index;
  WAVEKIT_RETURN_NOT_OK(RetryTransient("BuildIndex", [&] {
    Result<std::unique_ptr<ConstituentIndex>> built =
        IndexBuilder::BuildPacked(IoDeviceFor(disk), disk.allocator,
                                  IndexOptions(), batches, name,
                                  env_.maintenance);
    if (!built.ok()) return built.status();
    index = std::move(built).ValueOrDie();
    return Status::OK();
  }));
  op_log_.Record(OpRecord{OpKind::kBuildIndex, phase, current_day_,
                          static_cast<int>(days.size()), 0, entries});
  return index;
}

Status Scheme::AddToIndex(const TimeSet& days,
                          std::shared_ptr<ConstituentIndex>* index,
                          Phase phase) {
  return UpdateIndex(days, TimeSet{}, index, phase);
}

Status Scheme::DeleteFromIndex(const TimeSet& days,
                               std::shared_ptr<ConstituentIndex>* index,
                               Phase phase) {
  return UpdateIndex(TimeSet{}, days, index, phase);
}

Status Scheme::UpdateIndex(const TimeSet& add_days, const TimeSet& delete_days,
                           std::shared_ptr<ConstituentIndex>* index,
                           Phase phase) {
  if (add_days.empty() && delete_days.empty()) return Status::OK();
  obs::Span span = TraceOp(delete_days.empty()   ? "AddToIndex"
                           : add_days.empty()    ? "DeleteFromIndex"
                                                 : "UpdateIndex");
  WAVEKIT_ASSIGN_OR_RETURN(std::vector<const GroupedDay*> batches,
                           GetBatches(add_days));
  uint64_t add_entries = 0;
  for (const GroupedDay* batch : batches) add_entries += batch->EntryCount();
  uint64_t delete_entries = 0;
  for (Day day : delete_days) {
    // Expired batches may already be pruned from the store; count what we can.
    if (env_.day_store->Has(day)) {
      delete_entries +=
          std::move(env_.day_store->Get(day)).ValueOrDie()->EntryCount();
    }
  }
  const int target_days = static_cast<int>((*index)->time_set().size());
  const uint64_t target_entries = (*index)->entry_count();
  ConstituentIndex* const before = index->get();
  // Registered constituents are updated with the configured technique (they
  // must stay queryable through the update); temporary indexes are never
  // queried, so they are always updated in place.
  const bool is_constituent = wave_.Contains(before);
  InPlaceUpdater in_place;
  Updater* updater = is_constituent ? updater_.get() : &in_place;
  // Shadow updates build a replacement and swap only on success, so they are
  // safe to retry; an in-place update mutates the target, so retrying could
  // double-apply entries.
  const bool retryable =
      updater->kind() != UpdateTechniqueKind::kInPlace;
  Status applied;
  {
    MultiPhaseScope scope(AllDevices(), phase);
    applied = retryable
                  ? RetryTransient("UpdateIndex",
                                   [&] {
                                     return updater->Apply(index, batches,
                                                           delete_days);
                                   })
                  : updater->Apply(index, batches, delete_days);
  }
  if (!applied.ok()) {
    // The constituent's bytes are intact (the shadow died before the swap),
    // but it now cannot follow the window — flag it for degraded serving.
    if (applied.IsIOError() && is_constituent) MarkUnhealthy(before);
    return applied;
  }
  // Shadow techniques replaced the object: keep the wave index in sync.
  if (index->get() != before && is_constituent) {
    WAVEKIT_RETURN_NOT_OK(wave_.ReplaceIndex(before, *index));
  }
  // Log what physically happened, decomposed so the analytic evaluator can
  // price each piece: shadow techniques first pay a (smart) copy of the
  // target, then the adds/deletes are priced per their apply mode.
  ApplyMode add_mode = ApplyMode::kIncremental;
  ApplyMode delete_mode = ApplyMode::kIncremental;
  switch (updater->kind()) {
    case UpdateTechniqueKind::kInPlace:
      break;
    case UpdateTechniqueKind::kSimpleShadow:
      op_log_.Record(OpRecord{OpKind::kCopyIndex, phase, current_day_,
                              target_days, 0, target_entries});
      break;
    case UpdateTechniqueKind::kPackedShadow:
      op_log_.Record(OpRecord{OpKind::kSmartCopyIndex, phase, current_day_,
                              target_days, 0, target_entries});
      add_mode = ApplyMode::kRebuild;   // inserts cost Build, not Add
      delete_mode = ApplyMode::kMerged;  // deletes folded into the smart copy
      break;
  }
  if (!add_days.empty()) {
    op_log_.Record(OpRecord{OpKind::kAddToIndex, phase, current_day_,
                            static_cast<int>(add_days.size()), target_days,
                            add_entries, add_mode});
  }
  if (!delete_days.empty()) {
    op_log_.Record(OpRecord{OpKind::kDeleteFromIndex, phase, current_day_,
                            static_cast<int>(delete_days.size()), target_days,
                            delete_entries, delete_mode});
  }
  return Status::OK();
}

Status Scheme::PackIndex(std::shared_ptr<ConstituentIndex>* index,
                         Phase phase) {
  obs::Span span = TraceOp("PackIndex");
  const int op_days = static_cast<int>((*index)->time_set().size());
  const uint64_t entries = (*index)->entry_count();
  ConstituentIndex* const before = index->get();
  PackedShadowUpdater packer;
  packer.set_parallel(env_.maintenance);
  Status packed;
  {
    MultiPhaseScope scope(AllDevices(), phase);
    packed = RetryTransient(
        "PackIndex", [&] { return packer.Apply(index, {}, TimeSet{}); });
  }
  if (!packed.ok()) {
    if (packed.IsIOError() && wave_.Contains(before)) MarkUnhealthy(before);
    return packed;
  }
  if (index->get() != before && wave_.Contains(before)) {
    WAVEKIT_RETURN_NOT_OK(wave_.ReplaceIndex(before, *index));
  }
  op_log_.Record(OpRecord{OpKind::kSmartCopyIndex, phase, current_day_,
                          op_days, 0, entries});
  return Status::OK();
}

Result<std::shared_ptr<ConstituentIndex>> Scheme::CopyIndex(
    const ConstituentIndex& source, std::string name, Phase phase) {
  obs::Span span = TraceOp("CopyIndex");
  MultiPhaseScope scope(AllDevices(), phase);
  // Clone frees its partial copy on failure: all-or-nothing, retryable.
  std::shared_ptr<ConstituentIndex> copy;
  WAVEKIT_RETURN_NOT_OK(RetryTransient("CopyIndex", [&] {
    Result<std::unique_ptr<ConstituentIndex>> cloned =
        source.Clone(name, env_.maintenance);
    if (!cloned.ok()) return cloned.status();
    copy = std::move(cloned).ValueOrDie();
    return Status::OK();
  }));
  op_log_.Record(OpRecord{OpKind::kCopyIndex, phase, current_day_,
                          static_cast<int>(source.time_set().size()), 0,
                          source.entry_count()});
  return copy;
}

Status Scheme::DropIndex(const std::shared_ptr<ConstituentIndex>& index) {
  obs::Span span = TraceOp("DropIndex");
  op_log_.Record(OpRecord{OpKind::kDropIndex, Phase::kTransition, current_day_,
                          static_cast<int>(index->time_set().size()), 0,
                          index->entry_count()});
  if (wave_.Contains(index.get())) {
    WAVEKIT_RETURN_NOT_OK(wave_.RemoveIndex(index.get()));
  }
  // Space is reclaimed by ~ConstituentIndex when the last reference drops:
  // immediately, in the usual single-threaded case, once the caller releases
  // its pointer; later, if a query snapshot (WaveService) still holds the
  // index. Destroying eagerly here would yank buckets out from under such
  // readers.
  return Status::OK();
}

void Scheme::LogRename(const ConstituentIndex& index) {
  op_log_.Record(OpRecord{OpKind::kRename, Phase::kTransition, current_day_,
                          static_cast<int>(index.time_set().size()), 0,
                          index.entry_count()});
}

Result<size_t> Scheme::FindSlotContaining(Day day) const {
  for (size_t j = 0; j < slots_.size(); ++j) {
    if (slots_[j]->time_set().contains(day)) return j;
  }
  return Status::NotFound("no constituent index covers day " +
                          std::to_string(day));
}

Status Scheme::ReplaceSlot(size_t j, std::shared_ptr<ConstituentIndex> with) {
  if (j >= slots_.size()) {
    return Status::InvalidArgument("slot out of range");
  }
  WAVEKIT_RETURN_NOT_OK(wave_.ReplaceIndex(slots_[j].get(), with));
  slots_[j] = std::move(with);
  return Status::OK();
}

void Scheme::RegisterSlots() {
  for (const auto& slot : slots_) wave_.AddIndex(slot);
}

std::vector<TimeSet> Scheme::SplitWindow(int window, int num_indexes) {
  std::vector<TimeSet> clusters(static_cast<size_t>(num_indexes));
  const int base = window / num_indexes;
  const int extra = window % num_indexes;  // first `extra` clusters get +1
  Day next = 1;
  for (int i = 0; i < num_indexes; ++i) {
    const int size = base + (i < extra ? 1 : 0);
    for (int k = 0; k < size; ++k) clusters[static_cast<size_t>(i)].insert(next++);
  }
  return clusters;
}

std::vector<TimeSet> Scheme::SplitWataWindow(int window, int num_indexes) {
  // Days 1..W-1 over clusters 1..n-1; day W alone in cluster n.
  std::vector<TimeSet> clusters = SplitWindow(window - 1, num_indexes - 1);
  clusters.emplace_back(TimeSet{static_cast<Day>(window)});
  return clusters;
}

ConstituentIndex::Options Scheme::IndexOptions() const {
  return ConstituentIndex::Options{config_.growth, config_.verify_checksums,
                                   env_.integrity, config_.codec};
}

SchemeEnv::Disk Scheme::NextDisk(int placement_hint) {
  if (env_.disks.empty()) {
    return SchemeEnv::Disk{env_.device, env_.allocator};
  }
  if (placement_hint >= 0) {
    return env_.disks[static_cast<size_t>(placement_hint) %
                      env_.disks.size()];
  }
  const SchemeEnv::Disk disk = env_.disks[next_disk_ % env_.disks.size()];
  ++next_disk_;
  return disk;
}

Device* Scheme::IoDeviceFor(const SchemeEnv::Disk& disk) const {
  if (env_.io_device != nullptr && disk.device == env_.device) {
    return env_.io_device;
  }
  return disk.device;
}

std::shared_ptr<ConstituentIndex> Scheme::NewEmptyIndex(std::string name) {
  const SchemeEnv::Disk disk = NextDisk();
  return std::make_shared<ConstituentIndex>(IoDeviceFor(disk), disk.allocator,
                                            IndexOptions(), std::move(name));
}

std::vector<MeteredDevice*> Scheme::AllDevices() const {
  std::vector<MeteredDevice*> devices = {env_.device};
  for (const SchemeEnv::Disk& disk : env_.disks) {
    if (std::find(devices.begin(), devices.end(), disk.device) ==
        devices.end()) {
      devices.push_back(disk.device);
    }
  }
  return devices;
}

}  // namespace wavekit
