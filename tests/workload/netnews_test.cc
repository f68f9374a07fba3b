#include "workload/netnews.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>

namespace wavekit {
namespace workload {
namespace {

TEST(NetnewsTest, GeneratesConfiguredVolume) {
  NetnewsConfig config;
  config.articles_per_day = 100;
  NetnewsGenerator gen(config);
  DayBatch batch = gen.GenerateDay(1);
  EXPECT_EQ(batch.day, 1);
  EXPECT_EQ(batch.records.size(), 100u);
  EXPECT_GT(batch.EntryCount(), 100u * config.words_per_article / 3);
}

TEST(NetnewsTest, VolumeOverride) {
  NetnewsGenerator gen(NetnewsConfig{});
  EXPECT_EQ(gen.GenerateDay(1, 17).records.size(), 17u);
}

TEST(NetnewsTest, DeterministicPerDay) {
  NetnewsConfig config;
  config.articles_per_day = 20;
  NetnewsGenerator a(config), b(config);
  DayBatch da = a.GenerateDay(5);
  DayBatch db = b.GenerateDay(5);
  ASSERT_EQ(da.records.size(), db.records.size());
  for (size_t i = 0; i < da.records.size(); ++i) {
    EXPECT_EQ(da.records[i].values, db.records[i].values);
  }
  // Days differ from each other.
  DayBatch other = a.GenerateDay(6);
  EXPECT_NE(da.records[0].values, other.records[0].values);
}

TEST(NetnewsTest, WordForRankMatchesSnprintf) {
  NetnewsGenerator gen(NetnewsConfig{});
  for (const uint64_t rank :
       {uint64_t{0}, uint64_t{9}, uint64_t{10}, uint64_t{12345678},
        uint64_t{99999999}, uint64_t{100000000}, UINT64_MAX}) {
    char expected[32];
    std::snprintf(expected, sizeof(expected), "w%08llu",
                  static_cast<unsigned long long>(rank));
    EXPECT_EQ(gen.WordForRank(rank), expected) << "rank " << rank;
  }
}

TEST(NetnewsTest, RecordIdsAreUniqueAndIncreasing) {
  NetnewsConfig config;
  config.articles_per_day = 50;
  NetnewsGenerator gen(config);
  uint64_t last = 0;
  for (Day d = 1; d <= 3; ++d) {
    for (const Record& r : gen.GenerateDay(d).records) {
      EXPECT_GT(r.record_id, last);
      last = r.record_id;
      EXPECT_EQ(r.day, d);
    }
  }
}

TEST(NetnewsTest, WordFrequenciesAreZipfSkewed) {
  NetnewsConfig config;
  config.articles_per_day = 200;
  config.vocabulary_size = 5000;
  NetnewsGenerator gen(config);
  std::map<Value, int> counts;
  for (Day d = 1; d <= 5; ++d) {
    for (const Record& r : gen.GenerateDay(d).records) {
      for (const Value& v : r.values) ++counts[v];
    }
  }
  // The most frequent word should appear far more often than the median.
  int max_count = 0;
  long total = 0;
  for (const auto& [v, c] : counts) {
    max_count = std::max(max_count, c);
    total += c;
  }
  const double mean = static_cast<double>(total) / counts.size();
  EXPECT_GT(max_count, 10 * mean);
}

TEST(NetnewsTest, SampleWordPrefersPopularRanks) {
  NetnewsGenerator gen(NetnewsConfig{});
  Rng rng(1);
  int top = 0;
  for (int i = 0; i < 1000; ++i) {
    if (gen.SampleWord(rng) <= gen.WordForRank(9)) ++top;
  }
  // Under Zipf(theta=1) over 20k ranks, ranks 0..9 carry ~27% of the mass
  // (H(10)/H(20000)); uniform sampling would give them 0.05%.
  EXPECT_GT(top, 200);
  EXPECT_LT(top, 360);
}

TEST(NetnewsTest, WordForRankIsStable) {
  NetnewsGenerator gen(NetnewsConfig{});
  EXPECT_EQ(gen.WordForRank(0), "w00000000");
  EXPECT_EQ(gen.WordForRank(123), "w00000123");
}

}  // namespace
}  // namespace workload
}  // namespace wavekit
