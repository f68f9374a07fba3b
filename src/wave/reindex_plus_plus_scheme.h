// REINDEX++ (paper Section 4.2, Figure 15): REINDEX+ with a ladder of
// temporary indexes T_0..T_{m-1} prepared ahead of time, so the transition
// critical path is a single AddToIndex of the new day — new data becomes
// queryable as fast as in DEL/WATA, with about the same total work as
// REINDEX+.

#ifndef WAVEKIT_WAVE_REINDEX_PLUS_PLUS_SCHEME_H_
#define WAVEKIT_WAVE_REINDEX_PLUS_PLUS_SCHEME_H_

#include "wave/scheme.h"

namespace wavekit {

/// \brief The REINDEX++ maintenance scheme. Hard windows; no deletion code;
/// the ladder stores up to m(m-1)/2 extra days (m = cluster size), traded
/// for minimal transition time.
class ReindexPlusPlusScheme : public Scheme {
 public:
  ReindexPlusPlusScheme(SchemeEnv env, SchemeConfig config)
      : Scheme(env, config) {}

  SchemeKind kind() const override { return SchemeKind::kReindexPlusPlus; }
  std::string_view name() const override { return "REINDEX++"; }
  bool hard_window() const override { return true; }

  std::vector<const ConstituentIndex*> TemporaryIndexes() const override;

 protected:
  Status DoStart() override;
  Status DoTransition(Day new_day) override;
  Status DoAdopt() override;

 private:
  /// Figure 15's Initialize: rebuilds the ladder for the next cluster whose
  /// days (minus the first, already-expiring one) are `days`. T_0 is empty;
  /// T_i holds the i most recent days of `days`.
  Status InitializeLadder(const TimeSet& days, Phase phase);

  /// One ladder rung to be built by BuildRungsParallel.
  struct RungSpec {
    std::string name;
    TimeSet days;
    SchemeEnv::Disk disk;
  };

  /// Builds every rung of `specs` as an independent packed build on the
  /// maintenance pool (each build runs its serial inner path — nesting would
  /// make a pool worker Wait on the pool). All-or-nothing: on success the
  /// rungs are appended to temps_ in order and logged; on failure nothing is
  /// appended and every partially built rung is reclaimed. Requires
  /// env_.maintenance.enabled().
  Status BuildRungsParallel(std::vector<RungSpec> specs, Phase phase);

  /// Promotes `*temp` (after adding the new day) into slot `j`.
  Status PromoteTemp(size_t j, std::shared_ptr<ConstituentIndex> temp);

  std::vector<std::shared_ptr<ConstituentIndex>> temps_;  // T_0..T_m
  int temp_used_ = 0;
  TimeSet days_to_add_;
};

}  // namespace wavekit

#endif  // WAVEKIT_WAVE_REINDEX_PLUS_PLUS_SCHEME_H_
