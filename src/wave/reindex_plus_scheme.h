// REINDEX+ (paper Section 4.1, Figure 14): REINDEX with one temporary index
// that accumulates the recent days of the cluster being rotated, so each day
// only the not-yet-expired OLD days are re-added — about half the re-indexing
// work of REINDEX on average.

#ifndef WAVEKIT_WAVE_REINDEX_PLUS_SCHEME_H_
#define WAVEKIT_WAVE_REINDEX_PLUS_SCHEME_H_

#include "wave/scheme.h"

namespace wavekit {

/// \brief The REINDEX+ maintenance scheme. Hard windows; no deletion code;
/// extra space for the Temp index (at most ceil(W/n) - 1 days, about
/// (W/n)/2 on average).
class ReindexPlusScheme : public Scheme {
 public:
  ReindexPlusScheme(SchemeEnv env, SchemeConfig config) : Scheme(env, config) {}

  SchemeKind kind() const override { return SchemeKind::kReindexPlus; }
  std::string_view name() const override { return "REINDEX+"; }
  bool hard_window() const override { return true; }

  std::vector<const ConstituentIndex*> TemporaryIndexes() const override;

 protected:
  Status DoStart() override;
  Status DoTransition(Day new_day) override;
  Status DoAdopt() override;

 private:
  // Builds the replacement for slot `j` as a copy of Temp plus `extra_days`,
  // packs it when the configured technique demands packed results, and swaps
  // it in.
  Status PromoteCopyOfTemp(size_t j, const TimeSet& extra_days);

  std::shared_ptr<ConstituentIndex> temp_;  // null == "Temp = phi"
  TimeSet days_to_add_;
};

}  // namespace wavekit

#endif  // WAVEKIT_WAVE_REINDEX_PLUS_SCHEME_H_
