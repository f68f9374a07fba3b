#include "wave/day_store.h"

#include <gtest/gtest.h>

#include <vector>

#include "testing/test_env.h"

namespace wavekit {
namespace {

using testing::MakeMixedBatch;

TEST(DayStoreTest, PutGet) {
  DayStore store;
  const DayBatch batch = MakeMixedBatch(3);
  ASSERT_OK(store.Put(batch));
  ASSERT_OK_AND_ASSIGN(const GroupedDay* day, store.Get(3));
  EXPECT_EQ(day->day(), 3);
  EXPECT_EQ(day->record_count(), batch.records.size());
  EXPECT_EQ(day->EntryCount(), batch.EntryCount());
  // Values in ascending order, each with its entries in record order.
  ASSERT_EQ(day->value_count(), 4u);
  EXPECT_EQ(day->value(0), "alpha");
  EXPECT_EQ(day->value(3), "gamma");
  std::vector<Entry> alpha;
  for (const GroupedDay::Posting& posting : day->run(0)) {
    alpha.push_back(day->EntryOf(posting));
  }
  EXPECT_EQ(alpha, (std::vector<Entry>{Entry{3000000, 3, 0},
                                       Entry{3000003, 3, 0}}));
  EXPECT_EQ(store.bytes(), day->bytes());
  EXPECT_TRUE(store.Has(3));
  EXPECT_FALSE(store.Has(4));
}

TEST(DayStoreTest, DuplicatePutFails) {
  DayStore store;
  ASSERT_OK(store.Put(MakeMixedBatch(1)));
  EXPECT_TRUE(store.Put(MakeMixedBatch(1)).IsAlreadyExists());
}

TEST(DayStoreTest, GetMissingFails) {
  DayStore store;
  EXPECT_TRUE(store.Get(9).status().IsNotFound());
}

TEST(DayStoreTest, PruneDropsOlderDays) {
  DayStore store;
  for (Day d = 1; d <= 10; ++d) ASSERT_OK(store.Put(MakeMixedBatch(d)));
  EXPECT_EQ(store.size(), 10u);
  const uint64_t bytes = store.bytes();
  store.Prune(/*oldest_needed=*/7);
  EXPECT_EQ(store.size(), 4u);
  EXPECT_LT(store.bytes(), bytes);
  EXPECT_FALSE(store.Has(6));
  EXPECT_TRUE(store.Has(7));
  // Re-inserting a pruned day is allowed (it is simply absent).
  ASSERT_OK(store.Put(MakeMixedBatch(2)));
}

}  // namespace
}  // namespace wavekit
