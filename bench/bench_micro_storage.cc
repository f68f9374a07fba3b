// Micro-benchmarks of the storage extensions: checkpoint serialize/load,
// a one-shard (plain LRU) block cache, the extent allocator, and the thread
// pool.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "index/index_builder.h"
#include "storage/sharded_cached_device.h"
#include "storage/store.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "wave/checkpoint.h"
#include "workload/netnews.h"

namespace wavekit {
namespace {

WaveIndex BuildWave(Store& store, int days) {
  workload::NetnewsConfig config;
  config.articles_per_day = 150;
  config.words_per_article = 20;
  workload::NetnewsGenerator gen(config);
  WaveIndex wave;
  for (Day d = 1; d <= days; ++d) {
    DayBatch batch = gen.GenerateDay(d);
    auto built = IndexBuilder::BuildPacked(store.device(), store.allocator(),
                                           {}, batch, "I" + std::to_string(d));
    if (!built.ok()) built.status().Abort("build");
    wave.AddIndex(std::move(built).ValueOrDie());
  }
  return wave;
}

void BM_CheckpointSerialize(benchmark::State& state) {
  Store store;
  WaveIndex wave = BuildWave(store, static_cast<int>(state.range(0)));
  uint64_t bytes = 0;
  for (auto _ : state) {
    auto serialized = SerializeCheckpoint(wave);
    if (!serialized.ok()) serialized.status().Abort("serialize");
    bytes = serialized.ValueOrDie().size();
    benchmark::DoNotOptimize(serialized);
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes) * state.iterations());
}
BENCHMARK(BM_CheckpointSerialize)->Arg(2)->Arg(7)->Arg(30);

void BM_CheckpointDeserialize(benchmark::State& state) {
  Store store;
  WaveIndex wave = BuildWave(store, static_cast<int>(state.range(0)));
  auto serialized = SerializeCheckpoint(wave);
  if (!serialized.ok()) serialized.status().Abort("serialize");
  for (auto _ : state) {
    ExtentAllocator fresh(uint64_t{16} << 30);
    auto loaded = DeserializeCheckpoint(serialized.ValueOrDie(),
                                        store.device(), &fresh, {});
    if (!loaded.ok()) loaded.status().Abort("deserialize");
    benchmark::DoNotOptimize(loaded);
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(serialized.ValueOrDie().size()) *
      state.iterations());
}
BENCHMARK(BM_CheckpointDeserialize)->Arg(2)->Arg(7)->Arg(30);

void BM_CachedDeviceRead(benchmark::State& state) {
  const bool hot = state.range(0) != 0;
  MemoryDevice memory(uint64_t{1} << 24);
  ShardedCachedDevice cached(&memory, /*capacity_blocks=*/256,
                             /*block_size=*/4096, /*num_shards=*/1);
  std::vector<std::byte> buf(4096, std::byte{1});
  for (uint64_t i = 0; i < 1024; ++i) {
    memory.Write(i * 4096, buf).Abort("fill");
  }
  Rng rng(7);
  for (auto _ : state) {
    // Hot: 64-block working set (fits); cold: 1024 blocks (thrashes).
    const uint64_t universe = hot ? 64 : 1024;
    const uint64_t block = rng.Uniform(universe);
    cached.Read(block * 4096, buf).Abort("read");
    benchmark::DoNotOptimize(buf);
  }
  state.SetBytesProcessed(4096 * state.iterations());
  state.SetLabel(hot ? "hot(cached)" : "cold(thrashing)");
}
BENCHMARK(BM_CachedDeviceRead)->Arg(1)->Arg(0);

void BM_AllocatorChurn(benchmark::State& state) {
  ExtentAllocator allocator(uint64_t{1} << 26);
  Rng rng(3);
  std::vector<Extent> live;
  for (auto _ : state) {
    if (live.size() < 512 && (live.empty() || rng.Bernoulli(0.55))) {
      auto extent = allocator.Allocate(64 + rng.Uniform(8192));
      if (extent.ok()) live.push_back(extent.ValueOrDie());
    } else {
      const size_t pick = rng.Uniform(live.size());
      allocator.Free(live[pick]).Abort("free");
      live[pick] = live.back();
      live.pop_back();
    }
  }
  for (const Extent& e : live) allocator.Free(e).Abort("cleanup");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AllocatorChurn);

void BM_AllocatorFragmented(benchmark::State& state) {
  // Allocation cost versus free-list fragmentation: carve out 2N small
  // extents and free every other one, leaving N isolated 64-byte holes that
  // can never coalesce. A 4 KiB request fits none of them — a linear
  // first-fit walk would touch all N holes per call, while the
  // size-bucketed free list goes straight to a class that fits, so
  // time/iteration stays flat as N grows.
  const uint64_t fragments = static_cast<uint64_t>(state.range(0));
  ExtentAllocator allocator(uint64_t{1} << 30);
  std::vector<Extent> carved;
  carved.reserve(2 * fragments);
  for (uint64_t i = 0; i < 2 * fragments; ++i) {
    auto extent = allocator.Allocate(64);
    if (!extent.ok()) extent.status().Abort("carve");
    carved.push_back(extent.ValueOrDie());
  }
  for (uint64_t i = 0; i < carved.size(); i += 2) {
    allocator.Free(carved[i]).Abort("hole");
  }
  for (auto _ : state) {
    auto extent = allocator.Allocate(4096);
    if (!extent.ok()) extent.status().Abort("alloc");
    allocator.Free(extent.ValueOrDie()).Abort("free");
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(fragments) + " holes");
}
BENCHMARK(BM_AllocatorFragmented)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 16);

void BM_ThreadPoolDispatch(benchmark::State& state) {
  ThreadPool pool(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      pool.Submit([]() { benchmark::DoNotOptimize(1 + 1); });
    }
    pool.Wait();
  }
  state.SetItemsProcessed(64 * state.iterations());
}
BENCHMARK(BM_ThreadPoolDispatch)->Arg(1)->Arg(4);

}  // namespace
}  // namespace wavekit

BENCHMARK_MAIN();
