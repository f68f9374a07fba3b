#include "workload/netnews.h"

#include <algorithm>

namespace wavekit {
namespace workload {

NetnewsGenerator::NetnewsGenerator(NetnewsConfig config)
    : config_(config),
      rng_(config.seed),
      zipf_(config.vocabulary_size, config.zipf_theta) {}

Value NetnewsGenerator::WordForRank(uint64_t rank) const {
  // "w%08llu", formatted by hand: this runs once per generated word.
  char digits[20];
  size_t n = 0;
  do {
    digits[n++] = static_cast<char>('0' + rank % 10);
    rank /= 10;
  } while (rank != 0);
  Value word(1 + std::max<size_t>(n, 8), '0');
  word[0] = 'w';
  for (size_t i = 0; i < n; ++i) word[word.size() - 1 - i] = digits[i];
  return word;
}

Value NetnewsGenerator::SampleWord(Rng& rng) const {
  return WordForRank(zipf_.Sample(rng));
}

DayBatch NetnewsGenerator::GenerateDay(Day day, uint64_t articles_override) {
  // Per-day fork keeps the stream deterministic regardless of whether other
  // days were generated in between.
  Rng day_rng = Rng(config_.seed).Fork(static_cast<uint64_t>(day));
  const uint64_t articles =
      articles_override != 0 ? articles_override : config_.articles_per_day;

  DayBatch batch;
  batch.day = day;
  batch.records.reserve(articles);
  for (uint64_t a = 0; a < articles; ++a) {
    Record record;
    record.record_id = next_record_id_++;
    record.day = day;
    // Article length: uniform in [mean/2, 3*mean/2] for a little variety.
    const uint32_t length = static_cast<uint32_t>(day_rng.UniformRange(
        config_.words_per_article / 2, (config_.words_per_article * 3) / 2));
    record.values.reserve(length);
    for (uint32_t w = 0; w < std::max<uint32_t>(length, 1); ++w) {
      record.values.push_back(WordForRank(zipf_.Sample(day_rng)));
    }
    batch.records.push_back(std::move(record));
  }
  return batch;
}

}  // namespace workload
}  // namespace wavekit
