// Contract tests run against all three update techniques of Section 2.1.

#include "update/update_technique.h"

#include <gtest/gtest.h>

#include "index/index_builder.h"
#include "testing/test_env.h"

namespace wavekit {
namespace {

using testing::MakeMixedBatch;
using testing::ReferenceIndex;

class UpdaterTest : public ::testing::TestWithParam<UpdateTechniqueKind> {
 protected:
  UpdaterTest() : store_(uint64_t{1} << 28) {}

  // A packed starting index over days 1..3 plus the reference content.
  void BuildStartIndex() {
    for (Day d = 1; d <= 3; ++d) {
      batches_.push_back(MakeMixedBatch(d));
      reference_.Add(batches_.back());
    }
    std::vector<const DayBatch*> ptrs;
    for (const DayBatch& b : batches_) ptrs.push_back(&b);
    ConstituentIndex::Options options;
    auto built = IndexBuilder::BuildPacked(store_.device(), store_.allocator(),
                                           options, ptrs, "I1");
    ASSERT_TRUE(built.ok()) << built.status();
    index_ = std::move(built).ValueOrDie();
    updater_ = MakeUpdater(GetParam());
  }

  std::vector<Entry> WaveContent() {
    std::vector<Entry> out;
    Status s = index_->Scan(
        [&](const Value&, const Entry& e) { out.push_back(e); });
    EXPECT_TRUE(s.ok()) << s.ToString();
    ReferenceIndex::Sort(&out);
    return out;
  }

  Store store_;
  std::vector<DayBatch> batches_;  // stable addresses not guaranteed; copy!
  ReferenceIndex reference_;
  std::shared_ptr<ConstituentIndex> index_;
  std::unique_ptr<Updater> updater_;
};

TEST_P(UpdaterTest, AddDays) {
  BuildStartIndex();
  DayBatch day4 = MakeMixedBatch(4);
  reference_.Add(day4);
  const DayBatch* ptr = &day4;
  ASSERT_OK(updater_->AddDays(&index_, std::span<const DayBatch* const>(&ptr, 1)));
  EXPECT_EQ(WaveContent(), reference_.ScanAll(kDayNegInf, kDayPosInf));
  EXPECT_EQ(index_->time_set(), (TimeSet{1, 2, 3, 4}));
  ASSERT_OK(index_->CheckConsistency());
}

TEST_P(UpdaterTest, DeleteDays) {
  BuildStartIndex();
  ASSERT_OK(updater_->DeleteDays(&index_, TimeSet{1}));
  EXPECT_EQ(WaveContent(), reference_.ScanAll(2, kDayPosInf));
  EXPECT_EQ(index_->time_set(), (TimeSet{2, 3}));
  ASSERT_OK(index_->CheckConsistency());
}

TEST_P(UpdaterTest, CombinedAddAndDelete) {
  BuildStartIndex();
  DayBatch day4 = MakeMixedBatch(4);
  reference_.Add(day4);
  const DayBatch* ptr = &day4;
  ASSERT_OK(updater_->Apply(&index_, std::span<const DayBatch* const>(&ptr, 1),
                            TimeSet{1}));
  EXPECT_EQ(WaveContent(), reference_.ScanAll(2, kDayPosInf));
  EXPECT_EQ(index_->time_set(), (TimeSet{2, 3, 4}));
  ASSERT_OK(index_->CheckConsistency());
}

TEST_P(UpdaterTest, ShadowTechniquesReplaceTheObject) {
  BuildStartIndex();
  ConstituentIndex* before = index_.get();
  ASSERT_OK(updater_->DeleteDays(&index_, TimeSet{1}));
  if (GetParam() == UpdateTechniqueKind::kInPlace) {
    EXPECT_EQ(index_.get(), before);
  } else {
    EXPECT_NE(index_.get(), before);
  }
}

TEST_P(UpdaterTest, OldVersionServesQueriesUntilReleased) {
  BuildStartIndex();
  if (GetParam() == UpdateTechniqueKind::kInPlace) GTEST_SKIP();
  std::shared_ptr<ConstituentIndex> old_version = index_;
  ASSERT_OK(updater_->DeleteDays(&index_, TimeSet{1, 2, 3}));
  // The old version still answers with the full content (shadow semantics).
  std::vector<Entry> out;
  ASSERT_OK(old_version->Probe("alpha", &out));
  EXPECT_EQ(out.size(),
            reference_.Probe("alpha", kDayNegInf, kDayPosInf).size());
  EXPECT_EQ(index_->entry_count(), 0u);
}

TEST_P(UpdaterTest, PackednessAfterUpdate) {
  BuildStartIndex();
  DayBatch day4 = MakeMixedBatch(4);
  const DayBatch* ptr = &day4;
  ASSERT_OK(updater_->Apply(&index_, std::span<const DayBatch* const>(&ptr, 1),
                            TimeSet{1}));
  if (GetParam() == UpdateTechniqueKind::kPackedShadow) {
    EXPECT_TRUE(index_->packed());
    ASSERT_OK(index_->CheckPacked());
    EXPECT_EQ(index_->allocated_bytes(), index_->live_bytes());
  } else {
    EXPECT_FALSE(index_->packed());
  }
}

TEST_P(UpdaterTest, EmptyUpdateIsNoOp) {
  BuildStartIndex();
  const uint64_t entries = index_->entry_count();
  ASSERT_OK(updater_->Apply(&index_, std::span<const GroupedDay* const>(),
                            TimeSet{}));
  EXPECT_EQ(index_->entry_count(), entries);
}

TEST_P(UpdaterTest, SpaceIsReclaimedAfterShadowSwap) {
  BuildStartIndex();
  const uint64_t allocated_before = store_.allocator()->allocated_bytes();
  DayBatch day4 = MakeMixedBatch(4);
  const DayBatch* ptr = &day4;
  ASSERT_OK(updater_->Apply(&index_, std::span<const DayBatch* const>(&ptr, 1),
                            TimeSet{1}));
  // After the swap the old version (held only by us during the call) is
  // gone; allocation should be around one index worth, not two.
  EXPECT_LT(store_.allocator()->allocated_bytes(), 2 * allocated_before);
}

TEST_P(UpdaterTest, RepeatedDailyRotationStaysCorrect) {
  BuildStartIndex();
  for (Day d = 4; d <= 15; ++d) {
    DayBatch batch = MakeMixedBatch(d);
    reference_.Add(batch);
    const DayBatch* ptr = &batch;
    ASSERT_OK(updater_->Apply(
        &index_, std::span<const DayBatch* const>(&ptr, 1), TimeSet{d - 3}));
    ASSERT_OK(index_->CheckConsistency()) << "day " << d;
    EXPECT_EQ(WaveContent(), reference_.ScanAll(d - 2, kDayPosInf))
        << "day " << d;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTechniques, UpdaterTest,
    ::testing::Values(UpdateTechniqueKind::kInPlace,
                      UpdateTechniqueKind::kSimpleShadow,
                      UpdateTechniqueKind::kPackedShadow),
    [](const auto& info) {
      std::string name = UpdateTechniqueKindName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace wavekit
