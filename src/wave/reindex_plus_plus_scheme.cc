#include "wave/reindex_plus_plus_scheme.h"

#include <utility>

#include "index/index_builder.h"
#include "util/macros.h"

namespace wavekit {

Status ReindexPlusPlusScheme::BuildRungsParallel(std::vector<RungSpec> specs,
                                                 Phase phase) {
  obs::Span span = TraceOp("REINDEX++.parallel_ladder");
  const size_t rungs = specs.size();
  // Plan serially: DayStore lookups and entry counts happen on the
  // coordinator, so the pool tasks touch only thread-safe layers (device,
  // allocator, their own fresh index).
  std::vector<std::vector<const GroupedDay*>> batches(rungs);
  std::vector<uint64_t> entries(rungs, 0);
  for (size_t i = 0; i < rungs; ++i) {
    WAVEKIT_ASSIGN_OR_RETURN(batches[i], GetBatches(specs[i].days));
    for (const GroupedDay* day : batches[i]) entries[i] += day->EntryCount();
  }
  MultiPhaseScope scope(AllDevices(), phase);
  std::vector<std::shared_ptr<ConstituentIndex>> built(rungs);
  std::vector<Status> statuses(rungs, Status::OK());
  {
    ThreadPool::WaitGroup group(env_.maintenance.pool);
    for (size_t i = 0; i < rungs; ++i) {
      group.Submit([&, i]() {
        // Parallelism is ACROSS rungs here, so each build keeps the default
        // (serial) inner context instead of env_.maintenance.
        statuses[i] = RetryTransient("BuildIndex", [&] {
          Result<std::unique_ptr<ConstituentIndex>> rung =
              IndexBuilder::BuildPacked(IoDeviceFor(specs[i].disk),
                                        specs[i].disk.allocator, IndexOptions(),
                                        batches[i], specs[i].name);
          if (!rung.ok()) return rung.status();
          built[i] = std::move(rung).ValueOrDie();
          return Status::OK();
        });
      });
    }
    group.Wait();
  }
  for (Status& status : statuses) {
    // All-or-nothing: dropping `built` reclaims every rung that did complete
    // (~ConstituentIndex frees its extents), so retry/recovery starts clean.
    if (!status.ok()) return std::move(status);
  }
  // The op log and temps_ are not thread-safe; record in ladder order after
  // the join. Parallel mode prices each rung as an independent build (the
  // serial copy-chain costs belong to the paper's one-thread cost model).
  for (size_t i = 0; i < rungs; ++i) {
    op_log_.Record(OpRecord{OpKind::kBuildIndex, phase, current_day_,
                            static_cast<int>(specs[i].days.size()), 0,
                            entries[i]});
    temps_.push_back(std::move(built[i]));
  }
  return Status::OK();
}

Status ReindexPlusPlusScheme::InitializeLadder(const TimeSet& days,
                                               Phase phase) {
  // Discard any leftover temporaries from the previous cycle.
  for (auto& temp : temps_) {
    if (temp != nullptr) WAVEKIT_RETURN_NOT_OK(DropIndex(temp));
  }
  temps_.clear();
  days_to_add_.clear();

  // T_0 <- phi (created empty; never built, so no logged cost).
  temps_.push_back(NewEmptyIndex("T0"));
  temp_used_ = 0;
  if (days.empty()) return Status::OK();

  // T_1 = BuildIndex({d_k}); T_i = copy(T_{i-1}) + d_{k-i+1}: T_i holds the
  // i most recent days of `days`.
  std::vector<Day> descending(days.rbegin(), days.rend());
  if (env_.maintenance.enabled() && descending.size() > 1) {
    // Parallel ladder: every rung's contents are known up front (T_i = the i
    // most recent days), so instead of the serial copy chain each rung is an
    // independent packed build and they all run concurrently. One NextDisk
    // call, matching the serial path (T_1 is placed round-robin and the
    // copies inherit its disk).
    const SchemeEnv::Disk disk = NextDisk();
    std::vector<RungSpec> specs;
    specs.reserve(descending.size());
    TimeSet rung_days;
    for (size_t i = 0; i < descending.size(); ++i) {
      rung_days.insert(descending[i]);
      specs.push_back(RungSpec{"T" + std::to_string(i + 1), rung_days, disk});
    }
    WAVEKIT_RETURN_NOT_OK(BuildRungsParallel(std::move(specs), phase));
    temp_used_ = static_cast<int>(descending.size());
    return Status::OK();
  }
  WAVEKIT_ASSIGN_OR_RETURN(std::shared_ptr<ConstituentIndex> rung,
                           BuildIndex({descending[0]}, "T1", phase));
  temps_.push_back(rung);
  for (size_t i = 1; i < descending.size(); ++i) {
    WAVEKIT_ASSIGN_OR_RETURN(
        std::shared_ptr<ConstituentIndex> next,
        CopyIndex(*temps_.back(), "T" + std::to_string(i + 1), phase));
    WAVEKIT_RETURN_NOT_OK(AddToIndex({descending[i]}, &next, phase));
    temps_.push_back(std::move(next));
  }
  temp_used_ = static_cast<int>(descending.size());
  return Status::OK();
}

Status ReindexPlusPlusScheme::PromoteTemp(
    size_t j, std::shared_ptr<ConstituentIndex> temp) {
  temp->set_name(slots_[j]->name());
  LogRename(*temp);
  if (config_.technique == UpdateTechniqueKind::kPackedShadow) {
    WAVEKIT_RETURN_NOT_OK(PackIndex(&temp, Phase::kTransition));
  }
  return ReplaceSlot(j, std::move(temp));
}

Status ReindexPlusPlusScheme::DoStart() {
  const std::vector<TimeSet> clusters =
      SplitWindow(config_.window, config_.num_indexes);
  for (size_t j = 0; j < clusters.size(); ++j) {
    WAVEKIT_ASSIGN_OR_RETURN(
        std::shared_ptr<ConstituentIndex> index,
        BuildIndex(clusters[j], "I" + std::to_string(j + 1), Phase::kStart,
                   static_cast<int>(j)));
    slots_.push_back(std::move(index));
  }
  RegisterSlots();
  // Prepare the ladder for the first cluster (its first day, day 1, expires
  // first and is never re-added).
  TimeSet init_days = slots_[0]->time_set();
  init_days.erase(init_days.begin());
  return InitializeLadder(init_days, Phase::kStart);
}

Status ReindexPlusPlusScheme::DoTransition(Day new_day) {
  const Day expired = new_day - config_.window;
  WAVEKIT_ASSIGN_OR_RETURN(size_t j, FindSlotContaining(expired));

  if (temp_used_ == 0) {
    // Cluster rotation completes: T_0 (which accumulated DaysToAdd) gets the
    // new day and becomes I_j; then precompute the next cluster's ladder.
    obs::Span span = TraceOp("REINDEX++.finish_rotation");
    WAVEKIT_RETURN_NOT_OK(
        AddToIndex({new_day}, &temps_[0], Phase::kTransition));
    std::shared_ptr<ConstituentIndex> promoted = std::move(temps_[0]);
    temps_[0] = nullptr;
    WAVEKIT_RETURN_NOT_OK(PromoteTemp(j, std::move(promoted)));
    // The next cluster to rotate is the one holding tomorrow's expiring day.
    WAVEKIT_ASSIGN_OR_RETURN(size_t j_next, FindSlotContaining(expired + 1));
    TimeSet init_days = slots_[j_next]->time_set();
    init_days.erase(expired + 1);
    WAVEKIT_RETURN_NOT_OK(InitializeLadder(init_days, Phase::kPrecompute));
  } else {
    // Mid-rotation: the highest unused rung + the new day becomes I_j; the
    // next rung is topped up with all accumulated new days for later.
    obs::Span span = TraceOp("REINDEX++.mid_rotation");
    days_to_add_.insert(new_day);
    WAVEKIT_RETURN_NOT_OK(AddToIndex(
        {new_day}, &temps_[static_cast<size_t>(temp_used_)],
        Phase::kTransition));
    std::shared_ptr<ConstituentIndex> promoted =
        std::move(temps_[static_cast<size_t>(temp_used_)]);
    temps_[static_cast<size_t>(temp_used_)] = nullptr;
    WAVEKIT_RETURN_NOT_OK(PromoteTemp(j, std::move(promoted)));
    --temp_used_;
    WAVEKIT_RETURN_NOT_OK(AddToIndex(days_to_add_,
                                     &temps_[static_cast<size_t>(temp_used_)],
                                     Phase::kPrecompute));
  }
  return Status::OK();
}

Status ReindexPlusPlusScheme::DoAdopt() {
  WAVEKIT_RETURN_NOT_OK(Scheme::DoAdopt());
  // Reconstruct the mid-rotation ladder. Split the expiring cluster into OLD
  // days (d < min + |cluster|, expiring during this rotation) and RECENT
  // days (accumulated since the rotation began). The uninterrupted ladder at
  // this point holds: T_i = the i most recent remaining old days for
  // i < TempUsed; the top rung additionally carries every recent day; and
  // once TempUsed reaches 0, T_0 carries exactly the recent days.
  const Day oldest = current_day_ - config_.window + 1;
  WAVEKIT_ASSIGN_OR_RETURN(size_t j, FindSlotContaining(oldest));
  const TimeSet& cluster = slots_[j]->time_set();
  const Day old_limit = *cluster.begin() + static_cast<Day>(cluster.size());
  TimeSet recent;
  std::vector<Day> old_rest_descending;
  for (auto it = cluster.rbegin(); it != cluster.rend(); ++it) {
    if (*it >= old_limit) {
      recent.insert(*it);
    } else if (*it != oldest) {
      old_rest_descending.push_back(*it);
    }
  }

  for (auto& temp : temps_) {
    if (temp != nullptr) WAVEKIT_RETURN_NOT_OK(DropIndex(temp));
  }
  temps_.clear();
  days_to_add_ = recent;
  temp_used_ = static_cast<int>(old_rest_descending.size());

  // T_0: empty mid-rotation; the accumulated recent days once the ladder is
  // spent.
  if (temp_used_ == 0) {
    if (recent.empty()) {
      temps_.push_back(NewEmptyIndex("T0"));
    } else {
      WAVEKIT_ASSIGN_OR_RETURN(std::shared_ptr<ConstituentIndex> t0,
                               BuildIndex(recent, "T0", Phase::kPrecompute));
      temps_.push_back(std::move(t0));
    }
    return Status::OK();
  }
  temps_.push_back(NewEmptyIndex("T0"));
  if (env_.maintenance.enabled() && temp_used_ > 1) {
    // Same rebuild, with the rungs built concurrently. NextDisk is called
    // per rung in ladder order, mirroring the serial loop's placement.
    std::vector<RungSpec> specs;
    specs.reserve(static_cast<size_t>(temp_used_));
    TimeSet prefix;
    for (int i = 1; i <= temp_used_; ++i) {
      prefix.insert(old_rest_descending[static_cast<size_t>(i - 1)]);
      TimeSet contents = prefix;
      if (i == temp_used_) {
        contents.insert(recent.begin(), recent.end());  // the topped-up rung
      }
      specs.push_back(RungSpec{"T" + std::to_string(i), std::move(contents),
                               NextDisk()});
    }
    return BuildRungsParallel(std::move(specs), Phase::kPrecompute);
  }
  TimeSet rung_days;
  for (int i = 1; i <= temp_used_; ++i) {
    rung_days.insert(old_rest_descending[static_cast<size_t>(i - 1)]);
    TimeSet contents = rung_days;
    if (i == temp_used_) {
      contents.insert(recent.begin(), recent.end());  // the topped-up rung
    }
    WAVEKIT_ASSIGN_OR_RETURN(
        std::shared_ptr<ConstituentIndex> rung,
        BuildIndex(contents, "T" + std::to_string(i), Phase::kPrecompute));
    temps_.push_back(std::move(rung));
  }
  return Status::OK();
}

std::vector<const ConstituentIndex*> ReindexPlusPlusScheme::TemporaryIndexes()
    const {
  std::vector<const ConstituentIndex*> out;
  for (const auto& temp : temps_) {
    if (temp != nullptr) out.push_back(temp.get());
  }
  return out;
}

}  // namespace wavekit
