// Concurrent serving: the paper's core operational argument for shadow
// updating — "queries can be serviced using the old index, while the new
// index is being updated. Hence no concurrency control is required."
//
// A writer thread feeds one new day per tick into a WATA* wave index while
// four reader threads run keyword probes non-stop. Readers never block and
// never see a torn index: each query runs against an immutable snapshot.

#include <atomic>
#include <iostream>
#include <thread>

#include "util/format.h"
#include "wave/wave_service.h"
#include "workload/netnews.h"

using namespace wavekit;

int main() {
  WaveService::Options options;
  options.scheme = SchemeKind::kWata;
  options.config.window = 7;
  options.config.num_indexes = 3;
  options.config.technique = UpdateTechniqueKind::kSimpleShadow;
  auto created = WaveService::Create(options);
  if (!created.ok()) {
    std::cerr << created.status() << "\n";
    return 1;
  }
  std::unique_ptr<WaveService> service = std::move(created).ValueOrDie();

  workload::NetnewsConfig netnews_config;
  netnews_config.articles_per_day = 200;
  netnews_config.words_per_article = 20;
  workload::NetnewsGenerator netnews(netnews_config);

  std::vector<DayBatch> first_week;
  for (Day d = 1; d <= 7; ++d) first_week.push_back(netnews.GenerateDay(d));
  service->Start(std::move(first_week)).Abort("Start");
  std::cout << "serving a 7-day window; spawning 4 readers + 1 writer...\n";

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> queries{0};
  std::atomic<uint64_t> results{0};

  auto reader = [&](uint64_t seed) {
    Rng rng(seed);
    std::vector<Entry> out;
    while (!stop.load()) {
      out.clear();
      Status s = service->IndexProbe(netnews.SampleWord(rng), &out);
      s.Abort("probe");
      ++queries;
      results += out.size();
    }
  };
  std::vector<std::thread> readers;
  for (uint64_t i = 0; i < 4; ++i) readers.emplace_back(reader, i + 1);

  // Writer: 21 "days", one every few milliseconds.
  for (Day d = 8; d <= 28; ++d) {
    service->AdvanceDay(netnews.GenerateDay(d)).Abort("AdvanceDay");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (d % 7 == 0) {
      std::cout << "  day " << d << ": " << FormatCount(queries.load())
                << " queries answered so far, window now ["
                << d - 6 << ", " << d << "]\n";
    }
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();

  const WaveService::Instruments& metrics = service->instruments();
  const Histogram probe_latency = metrics.probe_latency_us->Snapshot();
  std::cout << "\nprobe latency: p50 = " << probe_latency.Percentile(0.5)
            << " us, p99 = " << probe_latency.Percentile(0.99) << " us over "
            << FormatCount(metrics.probes->value()) << " probes\n";
  std::cout << "total: " << FormatCount(queries.load())
            << " probes answered concurrently with 21 day transitions ("
            << FormatCount(results.load()) << " entries returned)\n"
            << "final footprint: "
            << FormatBytes(service->Snapshot()->AllocatedBytes())
            << " across " << service->Snapshot()->num_constituents()
            << " constituents — no locks on the query path, as the paper "
               "promised.\n";
  return 0;
}
