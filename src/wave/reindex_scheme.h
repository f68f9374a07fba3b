// REINDEX (paper Section 3.2, Figure 13): rebuild the constituent that holds
// the expired day from scratch, swapping the expired day for the new one.

#ifndef WAVEKIT_WAVE_REINDEX_SCHEME_H_
#define WAVEKIT_WAVE_REINDEX_SCHEME_H_

#include "wave/scheme.h"

namespace wavekit {

/// \brief The REINDEX maintenance scheme. Hard windows; needs no deletion
/// code; every constituent is always packed (rebuilds are packed builds), so
/// queries scan minimal, contiguous indexes — at the price of re-indexing
/// W/n days of data every day.
class ReindexScheme : public Scheme {
 public:
  ReindexScheme(SchemeEnv env, SchemeConfig config) : Scheme(env, config) {}

  SchemeKind kind() const override { return SchemeKind::kReindex; }
  std::string_view name() const override { return "REINDEX"; }
  bool hard_window() const override { return true; }

 protected:
  Status DoStart() override;
  Status DoTransition(Day new_day) override;
};

}  // namespace wavekit

#endif  // WAVEKIT_WAVE_REINDEX_SCHEME_H_
