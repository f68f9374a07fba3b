// RATA* (paper Section 4.3, Figure 17): "reindex and throw away" — WATA*
// plus a precomputed ladder of temporary indexes holding the suffixes of the
// expiring cluster, so each day the expiring constituent can be replaced by
// the suffix without its oldest day. Hard windows with WATA's transition
// speed.

#ifndef WAVEKIT_WAVE_RATA_SCHEME_H_
#define WAVEKIT_WAVE_RATA_SCHEME_H_

#include "wave/scheme.h"

namespace wavekit {

/// \brief The RATA* maintenance scheme. Hard windows; no deletion code; the
/// transition critical path is one AddToIndex plus a free rename, like
/// WATA*; the ladder costs extra space (up to ceil((W-1)/(n-1)) - 1 rungs)
/// and precomputation work.
class RataScheme : public Scheme {
 public:
  RataScheme(SchemeEnv env, SchemeConfig config) : Scheme(env, config) {}

  SchemeKind kind() const override { return SchemeKind::kRata; }
  std::string_view name() const override { return "RATA*"; }
  bool hard_window() const override { return true; }

  Status ValidateConfig() const override;

  std::vector<const ConstituentIndex*> TemporaryIndexes() const override;

 protected:
  Status DoStart() override;
  Status DoTransition(Day new_day) override;
  Status DoAdopt() override;

 private:
  /// Figure 17's Initialize: ladder T_1..T_m over `days` (the next expiring
  /// cluster minus its first day); T_i holds the i most recent days.
  Status InitializeLadder(const TimeSet& days, Phase phase);

  std::vector<std::shared_ptr<ConstituentIndex>> temps_;  // T_1..T_m
  int temp_used_ = 0;
  size_t last_ = 0;
};

}  // namespace wavekit

#endif  // WAVEKIT_WAVE_RATA_SCHEME_H_
