// The scheme property-test fixture, shared by scheme_property_test.cc and
// reindex_plus_plus_property_test.cc. gtest runs every TEST_P of a fixture
// on every parameter list instantiated in its binary, so a property that
// holds for only some schemes lives in its own binary with its own lists.

#ifndef WAVEKIT_TESTS_WAVE_SCHEME_PROPERTY_TEST_H_
#define WAVEKIT_TESTS_WAVE_SCHEME_PROPERTY_TEST_H_

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "testing/test_env.h"
#include "wave/scheme_factory.h"

namespace wavekit {
namespace testing {

using PropertyParam = std::tuple<SchemeKind, UpdateTechniqueKind, int, int>;

class SchemePropertyTest : public ::testing::TestWithParam<PropertyParam> {
 protected:
  SchemePropertyTest() : store_(uint64_t{1} << 28) {}

  SchemeKind scheme_kind() const { return std::get<0>(GetParam()); }
  UpdateTechniqueKind technique() const { return std::get<1>(GetParam()); }
  int window() const { return std::get<2>(GetParam()); }
  int num_indexes() const { return std::get<3>(GetParam()); }

  void StartScheme() {
    SchemeConfig config;
    config.window = window();
    config.num_indexes = num_indexes();
    config.technique = technique();
    auto made = MakeScheme(scheme_kind(), Env(), config);
    ASSERT_TRUE(made.ok()) << made.status();
    scheme_ = std::move(made).ValueOrDie();
    std::vector<DayBatch> first;
    for (Day d = 1; d <= window(); ++d) {
      DayBatch batch = MakeMixedBatch(d);
      batches_by_day_[d] = batch;
      first.push_back(std::move(batch));
    }
    ASSERT_OK(scheme_->Start(std::move(first)));
  }

  void Advance() {
    const Day d = scheme_->current_day() + 1;
    DayBatch batch = MakeMixedBatch(d);
    batches_by_day_[d] = batch;
    ASSERT_OK(scheme_->Transition(std::move(batch)));
  }

  SchemeEnv Env() {
    return SchemeEnv{store_.device(), store_.allocator(), &day_store_};
  }

  // Brute-force reference over days [lo, hi].
  ReferenceIndex ReferenceOver(Day lo, Day hi) const {
    ReferenceIndex ref;
    for (const auto& [day, batch] : batches_by_day_) {
      if (lo <= day && day <= hi) ref.Add(batch);
    }
    return ref;
  }

  void CheckQueriesMatchReference() {
    const Day d = scheme_->current_day();
    const Day lo = d - window() + 1;
    ReferenceIndex ref = ReferenceOver(lo, d);
    const DayRange range = DayRange::Window(d, window());
    // Timed probes for shared values and one day-unique value.
    for (const Value& value :
         {Value("alpha"), Value("beta"), Value("gamma"),
          Value("day" + std::to_string(d)),
          Value("day" + std::to_string(lo)),
          Value("day" + std::to_string(lo - 1))}) {
      std::vector<Entry> got;
      ASSERT_OK(scheme_->wave().TimedIndexProbe(range, value, &got));
      ReferenceIndex::Sort(&got);
      ASSERT_EQ(got, ref.Probe(value, lo, d))
          << "value '" << value << "' at day " << d;
    }
    // Timed scan over the window.
    std::vector<Entry> scanned;
    ASSERT_OK(scheme_->wave().TimedSegmentScan(
        range, [&](const Value&, const Entry& e) { scanned.push_back(e); }));
    ReferenceIndex::Sort(&scanned);
    ASSERT_EQ(scanned, ref.ScanAll(lo, d)) << "scan at day " << d;
    // A narrower timed scan (half the window) must also filter correctly.
    const Day mid = lo + window() / 2;
    scanned.clear();
    ASSERT_OK(scheme_->wave().TimedSegmentScan(
        DayRange{mid, d},
        [&](const Value&, const Entry& e) { scanned.push_back(e); }));
    ReferenceIndex::Sort(&scanned);
    ASSERT_EQ(scanned, ref.ScanAll(mid, d));
  }

  void CheckStructuralInvariants() {
    for (const auto& c : scheme_->wave().constituents()) {
      ASSERT_OK(c->CheckConsistency()) << c->name();
    }
    for (const ConstituentIndex* t : scheme_->TemporaryIndexes()) {
      ASSERT_OK(t->CheckConsistency()) << t->name();
    }
    if (scheme_->hard_window()) {
      ASSERT_EQ(scheme_->WaveLength(), window());
    }
    // Packed guarantees: REINDEX is always packed; under packed shadow
    // updating, every constituent ends each day packed.
    if (scheme_kind() == SchemeKind::kReindex ||
        technique() == UpdateTechniqueKind::kPackedShadow) {
      for (const auto& c : scheme_->wave().constituents()) {
        ASSERT_OK(c->CheckPacked()) << c->name();
      }
    }
  }

  Store store_;
  DayStore day_store_;
  std::map<Day, DayBatch> batches_by_day_;
  std::unique_ptr<Scheme> scheme_;
};

inline std::string ParamName(
    const ::testing::TestParamInfo<PropertyParam>& info) {
  std::string name = SchemeKindName(std::get<0>(info.param));
  name += "_";
  name += UpdateTechniqueKindName(std::get<1>(info.param));
  name += "_W" + std::to_string(std::get<2>(info.param));
  name += "_n" + std::to_string(std::get<3>(info.param));
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

/// The scheme x technique x W x n cross product, less the shapes a scheme
/// rejects: n > W, and WATA/RATA with n < 2.
inline std::vector<PropertyParam> ValidParams(
    const std::vector<SchemeKind>& schemes,
    const std::vector<UpdateTechniqueKind>& techniques,
    const std::vector<int>& windows, const std::vector<int>& ns) {
  std::vector<PropertyParam> params;
  for (SchemeKind scheme : schemes) {
    const bool needs_two = scheme == SchemeKind::kWata ||
                           scheme == SchemeKind::kRata;
    for (UpdateTechniqueKind technique : techniques) {
      for (int w : windows) {
        for (int n : ns) {
          if (n > w || (needs_two && n < 2)) continue;
          params.emplace_back(scheme, technique, w, n);
        }
      }
    }
  }
  return params;
}

}  // namespace testing
}  // namespace wavekit

#endif  // WAVEKIT_TESTS_WAVE_SCHEME_PROPERTY_TEST_H_
