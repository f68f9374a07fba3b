// KB-WATA: a WATA-family scheme in the spirit of Kleinberg et al. [KMRV97],
// who improved WATA*'s index-size competitive ratio from 2.0 to n/(n-1) by
// assuming the maximum window size B is known in advance.
//
// This is wavekit's implementation of the paper's related-work extension
// (Section 3.3 discussion): instead of rotating constituents by day counts,
// KB-WATA closes the filling constituent once it reaches B/(n-1) entries, so
// no constituent — and hence no residual expired data — can ever exceed
// that slice of the bound.

#ifndef WAVEKIT_WAVE_KNOWN_BOUND_WATA_SCHEME_H_
#define WAVEKIT_WAVE_KNOWN_BOUND_WATA_SCHEME_H_

#include "wave/scheme.h"

namespace wavekit {

/// \brief Size-bounded WATA. Soft windows; requires
/// SchemeConfig::size_bound_entries > 0 (the promised bound B on the entries
/// of any W consecutive days) and n >= 2.
///
/// Maintenance per day: (1) drop every constituent whose days have all
/// expired; (2) append the new day to the filling constituent, unless that
/// would push it past ceil(B/(n-1)) entries and a constituent slot is free,
/// in which case a fresh constituent is started. If the promised bound is
/// violated by the data, the scheme keeps working but its size guarantee
/// degrades gracefully (it appends past the slice rather than failing).
class KnownBoundWataScheme : public Scheme {
 public:
  KnownBoundWataScheme(SchemeEnv env, SchemeConfig config)
      : Scheme(env, config) {}

  SchemeKind kind() const override { return SchemeKind::kKnownBoundWata; }
  std::string_view name() const override { return "KB-WATA"; }
  bool hard_window() const override { return false; }

  Status ValidateConfig() const override;

 protected:
  Status DoStart() override;
  Status DoTransition(Day new_day) override;
  Status DoAdopt() override;

 private:
  uint64_t SliceBound() const;
  /// Drops every constituent whose newest day is older than the window.
  Status DropFullyExpired();

  int next_name_ = 0;
};

}  // namespace wavekit

#endif  // WAVEKIT_WAVE_KNOWN_BOUND_WATA_SCHEME_H_
