// Property tests swept over scheme x update technique x (W, n): after every
// transition, queries must equal a brute-force reference over exactly the
// window (or the soft window for WATA), all structural invariants must hold,
// and constituents stay packed where the technique promises it. REINDEX++'s
// one-add transition is checked in reindex_plus_plus_property_test.cc.

#include "wave/scheme_property_test.h"

namespace wavekit {
namespace testing {
namespace {

TEST_P(SchemePropertyTest, QueriesMatchBruteForceEveryDay) {
  StartScheme();
  CheckStructuralInvariants();
  const int days = 3 * window() + 2;
  for (int i = 0; i < days; ++i) {
    Advance();
    CheckStructuralInvariants();
    CheckQueriesMatchReference();
  }
}

TEST_P(SchemePropertyTest, SpaceIsBoundedAcrossCycles) {
  StartScheme();
  // Steady-state allocation must not creep upward cycle over cycle (no
  // leaks): compare allocation at the same cycle phase, two cycles apart.
  const int cycle = window();
  for (int i = 0; i < cycle; ++i) Advance();
  const uint64_t after_one_cycle = store_.allocator()->allocated_bytes();
  for (int i = 0; i < 2 * cycle; ++i) Advance();
  const uint64_t after_three_cycles = store_.allocator()->allocated_bytes();
  // Identical workload per day => identical footprint (tiny wiggle room for
  // day-number-dependent value strings).
  EXPECT_LE(after_three_cycles, after_one_cycle * 11 / 10 + 4096);
}

const std::vector<SchemeKind> kAllSchemes = {
    SchemeKind::kDel, SchemeKind::kReindex, SchemeKind::kReindexPlus,
    SchemeKind::kReindexPlusPlus, SchemeKind::kWata, SchemeKind::kRata};

INSTANTIATE_TEST_SUITE_P(
    Sweep, SchemePropertyTest,
    ::testing::ValuesIn(ValidParams(
        kAllSchemes,
        {UpdateTechniqueKind::kInPlace, UpdateTechniqueKind::kSimpleShadow,
         UpdateTechniqueKind::kPackedShadow},
        {6, 10},         // W
        {1, 2, 3, 5})),  // n
    ParamName);

// Larger windows with uneven splits (13/2, 13/5) and n == W.
INSTANTIATE_TEST_SUITE_P(
    LargerWindows, SchemePropertyTest,
    ::testing::ValuesIn(ValidParams(kAllSchemes,
                                    {UpdateTechniqueKind::kSimpleShadow},
                                    {13},          // W
                                    {2, 5, 13})),  // n
    ParamName);

// Uneven cluster sizes (W not divisible by n) and the degenerate W == n.
INSTANTIATE_TEST_SUITE_P(
    EdgeShapes, SchemePropertyTest,
    ::testing::ValuesIn(ValidParams(kAllSchemes,
                                    {UpdateTechniqueKind::kSimpleShadow},
                                    {7},          // W
                                    {2, 4, 7})),  // n: 7/2, 7/4 uneven; n == W
    ParamName);

}  // namespace
}  // namespace testing
}  // namespace wavekit
