// Micro-benchmarks of the index substrate: packed builds, CONTIGUOUS
// incremental adds/deletes under different growth factors, probes, scans,
// whole-index copies, and the in-memory directory. Real wall-clock
// throughput (google-benchmark).

#include <benchmark/benchmark.h>

#include "index/directory.h"
#include "index/index_builder.h"
#include "storage/store.h"
#include "util/random.h"
#include "workload/netnews.h"

namespace wavekit {
namespace {

workload::NetnewsConfig SmallNetnews() {
  workload::NetnewsConfig config;
  config.articles_per_day = 200;
  config.words_per_article = 20;
  config.vocabulary_size = 5000;
  return config;
}

void BM_PackedBuild(benchmark::State& state) {
  workload::NetnewsGenerator gen(SmallNetnews());
  std::vector<DayBatch> batches;
  for (Day d = 1; d <= state.range(0); ++d) batches.push_back(gen.GenerateDay(d));
  std::vector<const DayBatch*> ptrs;
  uint64_t entries = 0;
  for (const DayBatch& b : batches) {
    ptrs.push_back(&b);
    entries += b.EntryCount();
  }
  for (auto _ : state) {
    Store store;
    auto index = IndexBuilder::BuildPacked(store.device(), store.allocator(),
                                           {}, ptrs, "I");
    benchmark::DoNotOptimize(index);
  }
  state.SetItemsProcessed(static_cast<int64_t>(entries) * state.iterations());
}
BENCHMARK(BM_PackedBuild)->Arg(1)->Arg(4)->Arg(8);

void BM_ContiguousAdd(benchmark::State& state) {
  const double g = static_cast<double>(state.range(0)) / 100.0;
  workload::NetnewsGenerator gen(SmallNetnews());
  std::vector<DayBatch> batches;
  for (Day d = 1; d <= 8; ++d) batches.push_back(gen.GenerateDay(d));
  uint64_t entries = 0;
  for (const DayBatch& b : batches) entries += b.EntryCount();
  for (auto _ : state) {
    Store store;
    ConstituentIndex::Options options;
    options.growth.g = g;
    ConstituentIndex index(store.device(), store.allocator(), options, "I");
    for (const DayBatch& b : batches) {
      index.AddBatch(b).Abort("add");
    }
    benchmark::DoNotOptimize(index.entry_count());
  }
  state.SetItemsProcessed(static_cast<int64_t>(entries) * state.iterations());
}
BENCHMARK(BM_ContiguousAdd)->Arg(108)->Arg(150)->Arg(200)->Arg(400);

void BM_DeleteDay(benchmark::State& state) {
  workload::NetnewsGenerator gen(SmallNetnews());
  std::vector<DayBatch> batches;
  for (Day d = 1; d <= 8; ++d) batches.push_back(gen.GenerateDay(d));
  for (auto _ : state) {
    state.PauseTiming();
    Store store;
    ConstituentIndex index(store.device(), store.allocator(), {}, "I");
    for (const DayBatch& b : batches) index.AddBatch(b).Abort("add");
    state.ResumeTiming();
    index.DeleteDays({1}).Abort("delete");
    benchmark::DoNotOptimize(index.entry_count());
  }
}
BENCHMARK(BM_DeleteDay);

void BM_Probe(benchmark::State& state) {
  workload::NetnewsGenerator gen(SmallNetnews());
  Store store;
  DayBatch batch = gen.GenerateDay(1);
  auto built =
      IndexBuilder::BuildPacked(store.device(), store.allocator(), {}, batch,
                                "I");
  if (!built.ok()) built.status().Abort("build");
  std::unique_ptr<ConstituentIndex> index = std::move(built).ValueOrDie();
  Rng rng(1);
  std::vector<Entry> out;
  for (auto _ : state) {
    out.clear();
    index->Probe(gen.SampleWord(rng), &out).Abort("probe");
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Probe);

void BM_SegmentScan(benchmark::State& state) {
  const bool packed = state.range(0) != 0;
  workload::NetnewsGenerator gen(SmallNetnews());
  Store store;
  std::unique_ptr<ConstituentIndex> index;
  std::vector<DayBatch> batches;
  for (Day d = 1; d <= 4; ++d) batches.push_back(gen.GenerateDay(d));
  if (packed) {
    std::vector<const DayBatch*> ptrs;
    for (const DayBatch& b : batches) ptrs.push_back(&b);
    index = std::move(IndexBuilder::BuildPacked(store.device(),
                                                store.allocator(), {}, ptrs,
                                                "I"))
                .ValueOrDie();
  } else {
    index = std::make_unique<ConstituentIndex>(store.device(),
                                               store.allocator(),
                                               ConstituentIndex::Options{},
                                               "I");
    for (const DayBatch& b : batches) index->AddBatch(b).Abort("add");
  }
  for (auto _ : state) {
    uint64_t sum = 0;
    index->Scan([&sum](const Value&, const Entry& e) { sum += e.aux; })
        .Abort("scan");
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(index->entry_count()) *
                          state.iterations());
  state.SetLabel(packed ? "packed" : "unpacked");
}
BENCHMARK(BM_SegmentScan)->Arg(1)->Arg(0);

void BM_CloneIndex(benchmark::State& state) {
  workload::NetnewsGenerator gen(SmallNetnews());
  Store store;
  std::vector<DayBatch> batches;
  for (Day d = 1; d <= 4; ++d) batches.push_back(gen.GenerateDay(d));
  std::vector<const DayBatch*> ptrs;
  for (const DayBatch& b : batches) ptrs.push_back(&b);
  auto index = std::move(IndexBuilder::BuildPacked(
                             store.device(), store.allocator(), {}, ptrs, "I"))
                   .ValueOrDie();
  for (auto _ : state) {
    auto clone = index->Clone("copy");
    if (!clone.ok()) clone.status().Abort("clone");
    benchmark::DoNotOptimize(clone);
  }
  state.SetItemsProcessed(static_cast<int64_t>(index->entry_count()) *
                          state.iterations());
}
BENCHMARK(BM_CloneIndex);

std::vector<Value> DirectoryKeys(size_t count) {
  std::vector<Value> keys;
  keys.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    keys.push_back("key" + std::to_string(i * 2654435761u % 1000000007u));
  }
  return keys;
}

void BM_DirectoryInsert(benchmark::State& state) {
  const std::vector<Value> keys =
      DirectoryKeys(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    Directory dir;
    for (const Value& key : keys) {
      dir.Insert(key, BucketInfo{}).Abort("insert");
    }
    benchmark::DoNotOptimize(dir.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(keys.size()) *
                          state.iterations());
}
BENCHMARK(BM_DirectoryInsert)->Arg(1000)->Arg(50000);

void BM_DirectoryFind(benchmark::State& state) {
  const std::vector<Value> keys = DirectoryKeys(20000);
  Directory dir;
  for (const Value& key : keys) dir.Insert(key, BucketInfo{}).Abort("insert");
  Rng rng(3);
  for (auto _ : state) {
    const Value& key = keys[rng.Uniform(keys.size())];
    benchmark::DoNotOptimize(dir.Find(key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DirectoryFind);

void BM_DirectoryIterate(benchmark::State& state) {
  const std::vector<Value> keys = DirectoryKeys(20000);
  Directory dir;
  for (const Value& key : keys) dir.Insert(key, BucketInfo{}).Abort("insert");
  for (auto _ : state) {
    size_t visited = 0;
    dir.ForEach([&visited](const Value&, const BucketInfo&) { ++visited; });
    benchmark::DoNotOptimize(visited);
  }
  state.SetItemsProcessed(static_cast<int64_t>(keys.size()) *
                          state.iterations());
}
BENCHMARK(BM_DirectoryIterate);

}  // namespace
}  // namespace wavekit

BENCHMARK_MAIN();
