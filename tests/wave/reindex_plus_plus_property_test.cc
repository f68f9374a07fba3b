// REINDEX++'s transition property, on the scheme property fixture: the
// critical path of every transition is exactly one day's AddToIndex, with no
// build or copy. It holds for in-place and simple-shadow updating only;
// under packed shadow updating, packing before promotion adds a smart copy.

#include "wave/scheme_property_test.h"

namespace wavekit {
namespace testing {
namespace {

TEST_P(SchemePropertyTest, ReindexPlusPlusTransitionIsOneAdd) {
  StartScheme();
  for (int i = 0; i < 2 * window(); ++i) {
    Advance();
    int transition_adds = 0;
    int transition_days = 0;
    for (const OpRecord& r :
         scheme_->op_log().RecordsAtDay(scheme_->current_day())) {
      if (r.phase != Phase::kPrecompute) {
        if (r.kind == OpKind::kAddToIndex) {
          ++transition_adds;
          transition_days += r.op_days;
        }
        ASSERT_NE(r.kind, OpKind::kBuildIndex)
            << "REINDEX++ must never build on the critical path";
        ASSERT_NE(r.kind, OpKind::kCopyIndex);
      }
    }
    ASSERT_EQ(transition_adds, 1);
    ASSERT_EQ(transition_days, 1)
        << "the transition critical path is exactly one day's AddToIndex";
  }
}

const std::vector<SchemeKind> kReindexPlusPlus = {
    SchemeKind::kReindexPlusPlus};

// The shapes of scheme_property_test.cc, on the techniques that promise the
// property.
INSTANTIATE_TEST_SUITE_P(
    Sweep, SchemePropertyTest,
    ::testing::ValuesIn(ValidParams(kReindexPlusPlus,
                                    {UpdateTechniqueKind::kInPlace,
                                     UpdateTechniqueKind::kSimpleShadow},
                                    {6, 10},         // W
                                    {1, 2, 3, 5})),  // n
    ParamName);

INSTANTIATE_TEST_SUITE_P(
    LargerWindows, SchemePropertyTest,
    ::testing::ValuesIn(ValidParams(kReindexPlusPlus,
                                    {UpdateTechniqueKind::kSimpleShadow},
                                    {13}, {2, 5, 13})),
    ParamName);

INSTANTIATE_TEST_SUITE_P(
    EdgeShapes, SchemePropertyTest,
    ::testing::ValuesIn(ValidParams(kReindexPlusPlus,
                                    {UpdateTechniqueKind::kSimpleShadow},
                                    {7}, {2, 4, 7})),
    ParamName);

}  // namespace
}  // namespace testing
}  // namespace wavekit
