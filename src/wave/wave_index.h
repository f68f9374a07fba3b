// WaveIndex: a collection of constituent indexes jointly covering a window
// of days (paper Section 2), with the TimedIndexProbe / TimedSegmentScan
// access operations of Section 2.2.

#ifndef WAVEKIT_WAVE_WAVE_INDEX_H_
#define WAVEKIT_WAVE_WAVE_INDEX_H_

#include <memory>
#include <vector>

#include "index/constituent_index.h"

namespace wavekit {

/// \brief Per-query statistics (how much pruning the time-sets enabled, and
/// how degraded the answer is). A scan that reaches its entry limit stops
/// there: the constituents after the one it stopped in are not counted in
/// any field.
struct QueryStats {
  /// Constituents whose time-set intersected the query range (and were read).
  int indexes_accessed = 0;
  /// Constituents skipped because their time-set missed the range entirely.
  int indexes_skipped = 0;
  /// Constituents excluded because maintenance marked them unhealthy
  /// (degraded-mode serving; the query returned Status::PartialResult).
  int indexes_unhealthy = 0;
  /// Healthy constituents whose reads failed even through the scan fallback;
  /// their entries are missing from the answer (also PartialResult).
  int indexes_failed = 0;
  /// Probes answered via the TimedSegmentScan fallback after the directory
  /// probe hit an I/O error.
  int probe_fallbacks = 0;
  /// Entries delivered to the caller.
  uint64_t entries_returned = 0;
};

/// \brief The wave index Theta: an ordered set of constituent indexes.
///
/// Constituents are held by shared_ptr so shadow updates can swap a new
/// version in while older versions drain; maintenance schemes own the same
/// pointers in their slot arrays.
class WaveIndex {
 public:
  WaveIndex() = default;

  /// AddIndex (Section 2.2): registers `index` as a constituent.
  void AddIndex(std::shared_ptr<ConstituentIndex> index);

  /// Removes `index` from the constituent set WITHOUT reclaiming its space
  /// (used when renaming/promoting). Fails with NotFound if absent.
  Status RemoveIndex(const ConstituentIndex* index);

  /// DropIndex (Section 2.2): removes `index` and reclaims all its space.
  Status DropIndex(const ConstituentIndex* index);

  /// Atomically replaces `old_index` with `with` in the same position
  /// (shadow swap). The old version is destroyed when its last reference
  /// drops.
  Status ReplaceIndex(const ConstituentIndex* old_index,
                      std::shared_ptr<ConstituentIndex> with);

  bool Contains(const ConstituentIndex* index) const;

  const std::vector<std::shared_ptr<ConstituentIndex>>& constituents() const {
    return constituents_;
  }
  size_t num_constituents() const { return constituents_.size(); }

  // --- Access operations ----------------------------------------------------
  //
  // Degraded-mode serving contract: constituents marked unhealthy by
  // maintenance (ConstituentIndex::healthy() == false) are excluded from
  // every access operation. A healthy constituent whose directory probe
  // fails with an I/O error is retried as a value-filtered TimedSegmentScan
  // of that constituent (a sequential sweep can succeed where the
  // bucket-directed read failed); if that also fails, its entries are
  // dropped. Whenever anything was excluded or dropped, the operation
  // returns Status::PartialResult — the entries delivered are correct but
  // possibly incomplete — instead of failing. Non-I/O errors still propagate
  // as before, and a fully healthy wave behaves exactly as it always has.

  /// TimedIndexProbe(Theta, T1, T2, s): entries for `value` inserted within
  /// `range`, gathered from every constituent whose cluster intersects it.
  ///
  /// With a `limit`, at most `limit` entries are appended: the first `limit`
  /// of the unlimited probe, in the same order. Once they are collected, no
  /// further constituent is read or counted in `stats`. A caller that wants
  /// to know whether more than K entries exist passes K + 1.
  Status TimedIndexProbe(const DayRange& range, const Value& value,
                         std::vector<Entry>* out, QueryStats* stats = nullptr,
                         uint64_t limit = kNoEntryLimit) const;

  /// IndexProbe: TimedIndexProbe over (-inf, +inf).
  Status IndexProbe(const Value& value, std::vector<Entry>* out,
                    QueryStats* stats = nullptr) const;

  /// TimedSegmentScan(Theta, T1, T2): visits every entry inserted within
  /// `range`, scanning every constituent whose cluster intersects it.
  ///
  /// With a `limit`, at most `limit` entries are visited: the first `limit`
  /// of the unlimited scan, in the same order. Each constituent scan gets
  /// the budget the ones before it left (ConstituentIndex::TimedScan sizes
  /// its reads to it), and once the budget is spent no further constituent
  /// is read or counted in `stats`. A caller that wants to know whether
  /// more than K entries exist passes K + 1.
  Status TimedSegmentScan(const DayRange& range, const EntryCallback& callback,
                          QueryStats* stats = nullptr,
                          uint64_t limit = kNoEntryLimit) const;

  /// SegmentScan: TimedSegmentScan over (-inf, +inf).
  Status SegmentScan(const EntryCallback& callback,
                     QueryStats* stats = nullptr) const;

  // --- Accounting -----------------------------------------------------------

  /// Wave-index length: total days over all constituents (Appendix B).
  int TotalDays() const;

  /// Union of all constituent time-sets.
  TimeSet CoveredDays() const;

  /// Total device bytes reserved by constituents.
  uint64_t AllocatedBytes() const;

  /// Total live entries over constituents.
  uint64_t EntryCount() const;

 private:
  std::vector<std::shared_ptr<ConstituentIndex>> constituents_;
};

}  // namespace wavekit

#endif  // WAVEKIT_WAVE_WAVE_INDEX_H_
