// DEL (paper Section 3.1, Figure 12): delete the expired day from the
// constituent that holds it, then insert the new day into the same
// constituent.

#ifndef WAVEKIT_WAVE_DEL_SCHEME_H_
#define WAVEKIT_WAVE_DEL_SCHEME_H_

#include "wave/scheme.h"

namespace wavekit {

/// \brief The DEL maintenance scheme. Hard windows; requires incremental
/// delete support; the resulting indexes are packed only under packed shadow
/// updating. With n = 1 this is the "obvious" single conventional index.
///
/// Daily cost attribution follows Table 10: under simple shadow updating the
/// shadow copy and the delete run as pre-computation (they do not need the
/// new day's data), so the transition critical path is a single AddToIndex.
class DelScheme : public Scheme {
 public:
  DelScheme(SchemeEnv env, SchemeConfig config)
      : Scheme(env, config) {}

  SchemeKind kind() const override { return SchemeKind::kDel; }
  std::string_view name() const override { return "DEL"; }
  bool hard_window() const override { return true; }

 protected:
  Status DoStart() override;
  Status DoTransition(Day new_day) override;
};

}  // namespace wavekit

#endif  // WAVEKIT_WAVE_DEL_SCHEME_H_
