// WATA* (paper Section 3.3, Figure 16): "wait and throw away". Lazy
// deletion: a constituent is discarded only when every day it holds has
// expired; meanwhile new days accumulate in the most recently created
// constituent. Soft windows.
//
// Theorem 2 (Appendix B): WATA*'s wave-index length never exceeds
// W + ceil((W-1)/(n-1)) - 1, which is optimal among all WATA-family
// algorithms. Theorem 3: WATA* is 2-competitive on index size against an
// offline optimum that knows all future data sizes.

#ifndef WAVEKIT_WAVE_WATA_SCHEME_H_
#define WAVEKIT_WAVE_WATA_SCHEME_H_

#include "wave/scheme.h"

namespace wavekit {

/// \brief The WATA* maintenance scheme. Soft windows (queries may see up to
/// ceil((W-1)/(n-1)) - 1 expired days); no deletion code at all; bulk
/// expiry by dropping whole indexes. Requires n >= 2 (with one index nothing
/// would ever fully expire).
class WataScheme : public Scheme {
 public:
  WataScheme(SchemeEnv env, SchemeConfig config) : Scheme(env, config) {}

  SchemeKind kind() const override { return SchemeKind::kWata; }
  std::string_view name() const override { return "WATA*"; }
  bool hard_window() const override { return false; }

  Status ValidateConfig() const override;

  /// The slot index new days are currently appended to.
  size_t last_slot() const { return last_; }

 protected:
  Status DoStart() override;
  Status DoTransition(Day new_day) override;
  Status DoAdopt() override;

  /// The slot new days are appended to (protected so WATA variants with
  /// different start splits — e.g. the paper's Table 4 example — can reuse
  /// the transition logic).
  size_t last_ = 0;
};

}  // namespace wavekit

#endif  // WAVEKIT_WAVE_WATA_SCHEME_H_
