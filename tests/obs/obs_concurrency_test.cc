// TSan-targeted concurrency tests: readers hammer MetricsRegistry snapshots
// and Tracer rings while the instrumented components run at full tilt.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "testing/test_env.h"
#include "wave/wave_service.h"

namespace wavekit {
namespace {

using testing::MakeMixedBatch;

TEST(ObsConcurrencyTest, RegistryInstrumentsAndSnapshotsRace) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.AddCounter("ops_total", "Ops.");
  obs::Gauge* gauge = registry.AddGauge("depth", "Depth.");
  ConcurrentHistogram* histogram = registry.AddHistogram("lat_us", "Latency.");
  std::atomic<uint64_t> callback_source{0};
  registry.AddCounterCallback("cb_total", "Callback.", {}, [&callback_source] {
    return callback_source.load(std::memory_order_relaxed);
  });

  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 5000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&] {
      for (int i = 0; i < kOpsPerWriter; ++i) {
        counter->Increment();
        gauge->Add(1.0);
        histogram->Record(static_cast<uint64_t>(i % 1000));
        callback_source.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Snapshot readers racing registration of late metrics.
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&registry, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        const obs::RegistrySnapshot snapshot = registry.Snapshot();
        ASSERT_GE(snapshot.metrics.size(), 4u);
        (void)snapshot.RenderPrometheus();
        (void)snapshot.RenderJson();
      }
    });
  }
  int late = 0;
  registry.AddGauge("late", "Registered mid-flight.", {}, &late);
  for (std::thread& t : threads) t.join();
  stop.store(true);
  for (std::thread& t : readers) t.join();
  registry.Unregister(&late);

  const obs::RegistrySnapshot final_snapshot = registry.Snapshot();
  constexpr uint64_t kTotal = uint64_t{kWriters} * kOpsPerWriter;
  ASSERT_EQ(final_snapshot.metrics.size(), 4u);
  for (const obs::MetricSnapshot& metric : final_snapshot.metrics) {
    if (metric.name == "depth") {
      EXPECT_DOUBLE_EQ(metric.value, static_cast<double>(kTotal));
    }
    if (metric.name == "ops_total" || metric.name == "cb_total") {
      EXPECT_DOUBLE_EQ(metric.value, static_cast<double>(kTotal));
    }
    if (metric.name == "lat_us") {
      EXPECT_EQ(metric.histogram.count(), kTotal);
    }
  }
}

TEST(ObsConcurrencyTest, ServiceObservabilityUnderConcurrentAdvance) {
  obs::MetricsRegistry registry;
  WaveService::Options options;
  options.scheme = SchemeKind::kWata;
  options.config.window = 6;
  options.config.num_indexes = 3;
  options.config.technique = UpdateTechniqueKind::kSimpleShadow;
  options.cache_blocks = 64;
  options.metrics_registry = &registry;
  options.trace_sample_rate = 1.0;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<WaveService> service,
                       WaveService::Create(options));

  std::vector<DayBatch> first_window;
  for (Day d = 1; d <= 6; ++d) first_window.push_back(MakeMixedBatch(d, 40));
  ASSERT_OK(service->Start(std::move(first_window)));

  // 8 reader threads: probes + registry snapshots + tracer ring reads, all
  // while the writer advances the window.
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 8; ++r) {
    readers.emplace_back([&, r] {
      const Value value = r % 2 == 0 ? "alpha" : "beta";
      while (!stop.load(std::memory_order_relaxed)) {
        std::vector<Entry> out;
        Status s = service->IndexProbe(value, &out);
        ASSERT_OK(s);
        const obs::RegistrySnapshot snapshot = registry.Snapshot();
        ASSERT_GT(snapshot.metrics.size(), 0u);
        (void)snapshot.RenderPrometheus();
        (void)service->tracer()->CompletedSpans();
      }
    });
  }

  constexpr Day kLastDay = 26;
  for (Day d = 7; d <= kLastDay; ++d) {
    ASSERT_OK(service->AdvanceDay(MakeMixedBatch(d, 40)));
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();

  // Every transition was traced, and the trace tree is well formed: each
  // non-root span's trace leads back to an AdvanceDay root.
  EXPECT_EQ(service->tracer()->roots_sampled(), service->tracer()->roots_started());
  const std::vector<obs::SpanRecord> spans =
      service->tracer()->CompletedSpans();
  ASSERT_FALSE(spans.empty());
  uint64_t advance_roots = 0;
  for (const obs::SpanRecord& span : spans) {
    if (span.parent_span_id == 0 && span.name == "AdvanceDay") ++advance_roots;
  }
  EXPECT_EQ(advance_roots, static_cast<uint64_t>(kLastDay - 6));

  // The registry view agrees with the service's own accounting.
  const ServiceMetrics metrics = service->Metrics();
  EXPECT_EQ(metrics.days_advanced, static_cast<uint64_t>(kLastDay - 6));
  bool saw_days_advanced = false;
  bool saw_device_phase = false;
  bool saw_cache = false;
  for (const obs::MetricSnapshot& metric : registry.Snapshot().metrics) {
    if (metric.name == "wavekit_service_days_advanced_total") {
      saw_days_advanced = true;
      EXPECT_DOUBLE_EQ(metric.value,
                       static_cast<double>(metrics.days_advanced));
    }
    if (metric.name == "wavekit_device_seeks_total") saw_device_phase = true;
    if (metric.name == "wavekit_cache_hits_total") saw_cache = true;
  }
  EXPECT_TRUE(saw_days_advanced);
  EXPECT_TRUE(saw_device_phase);
  EXPECT_TRUE(saw_cache);

  // Destroying the service must unregister everything it attached.
  service.reset();
  EXPECT_EQ(registry.size(), 0u);
}

TEST(ObsConcurrencyTest, TracerSamplingFromManyThreads) {
  obs::Tracer::Options options;
  options.sample_rate = 0.5;
  options.ring_capacity = 128;
  obs::Tracer tracer(options);
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        obs::Span span = tracer.StartSpan("op");
        if (span.active()) {
          obs::Span child = tracer.StartSpan("child");
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  constexpr uint64_t kRoots = uint64_t{kThreads} * kSpansPerThread;
  EXPECT_EQ(tracer.roots_started(), kRoots);
  EXPECT_EQ(tracer.roots_sampled(), kRoots / 2);
  EXPECT_EQ(tracer.spans_recorded(), kRoots);  // root + child per sample
  EXPECT_EQ(tracer.CompletedSpans().size(), 128u);
}

}  // namespace
}  // namespace wavekit
