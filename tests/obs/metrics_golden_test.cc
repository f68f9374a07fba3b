// Golden test of the /metrics surface: one WaveService on a SimClock runs a
// fixed workload (probes, a scan, a scrub that quarantines and heals, a
// failed advance with retries) with the block cache, event journal, tracer,
// latency decorator and time-series collector on. Its Prometheus text and
// JSON must match the committed files byte for byte, so any change to a
// series name, help text, label, type or value shows up here.
//
// To re-capture after an intended change, run the test with
// WAVEKIT_GOLDEN_OUT=<dir>; it writes the actual renders there.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "storage/fault_injecting_device.h"
#include "testing/test_env.h"
#include "util/clock.h"
#include "wave/wave_service.h"

namespace wavekit {
namespace {

using testing::MakeMixedBatch;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void MaybeWrite(const std::string& name, const std::string& text) {
  const char* dir = std::getenv("WAVEKIT_GOLDEN_OUT");
  if (dir == nullptr) return;
  std::ofstream(std::string(dir) + "/" + name, std::ios::binary) << text;
}

TEST(MetricsGoldenTest, ServiceRendersMatchGoldenFiles) {
  SimClock clock(1'000'000);
  obs::MetricsRegistry registry;
  FaultInjectingDevice* faulty = nullptr;

  WaveService::Options options;
  options.scheme = SchemeKind::kWata;
  options.config.window = 6;
  options.config.num_indexes = 3;
  options.device_capacity = uint64_t{1} << 24;
  options.cache_blocks = 64;
  options.clock = &clock;
  options.metrics_registry = &registry;
  options.event_ring_capacity = 64;
  options.trace_sample_rate = 1.0;
  options.track_device_latency = true;
  options.collector_interval_us = 1;
  options.auto_heal = true;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff_us = 5;
  options.device_interposer = [&faulty](Device* inner) {
    auto device = std::make_unique<FaultInjectingDevice>(inner);
    faulty = device.get();
    return device;
  };
  auto made = WaveService::Create(options);
  ASSERT_TRUE(made.ok()) << made.status();
  WaveService& service = *made.ValueOrDie();
  ASSERT_NE(faulty, nullptr);

  std::vector<DayBatch> first;
  for (Day d = 1; d <= 6; ++d) first.push_back(MakeMixedBatch(d));
  ASSERT_OK(service.Start(std::move(first)));
  for (Day d = 7; d <= 8; ++d) {
    clock.Advance(100);
    ASSERT_OK(service.AdvanceDay(MakeMixedBatch(d)));
  }

  std::vector<Entry> out;
  for (const char* value : {"alpha", "beta", "gamma", "day8", "missing"}) {
    clock.Advance(7);
    ASSERT_OK(service.IndexProbe(value, &out));
  }
  ASSERT_OK(service.TimedIndexProbe(DayRange::Window(8, 2), "alpha", &out));
  uint64_t scanned = 0;
  ASSERT_OK(service.TimedSegmentScan(
      DayRange::Window(8, 6), [&scanned](const Value&, const Entry&) {
        ++scanned;
      }));
  EXPECT_GT(scanned, 0u);

  // Rot one bucket: the scrub quarantines its constituent, auto-heal
  // rebuilds it.
  const std::shared_ptr<const WaveIndex> snapshot = service.Snapshot();
  Extent target;
  ASSERT_OK(snapshot->constituents().front()->ForEachBucket(
      [&target](const Value&, const BucketInfo& info) {
        if (target.length == 0) target = info.extent;
      }));
  ASSERT_OK(faulty->CorruptRange(target, /*salt=*/3));
  clock.Advance(50);
  ASSERT_OK(service.Scrub().status());

  // A failed advance: every write fails, the scheme retries and gives up.
  faulty->set_write_error_rate(1.0);
  clock.Advance(100);
  EXPECT_FALSE(service.AdvanceDay(MakeMixedBatch(9)).ok());
  faulty->set_write_error_rate(0.0);
  clock.Advance(7);
  const Status degraded = service.IndexProbe("alpha", &out);
  EXPECT_TRUE(degraded.ok() || degraded.IsPartialResult()) << degraded;

  const std::string prometheus = registry.RenderPrometheus();
  const std::string json = registry.RenderJson();
  MaybeWrite("service_metrics.prom", prometheus);
  MaybeWrite("service_metrics.json", json);
  const std::string dir = std::string(WAVEKIT_GOLDEN_DIR) + "/";
  EXPECT_EQ(prometheus, ReadFile(dir + "service_metrics.prom"));
  EXPECT_EQ(json, ReadFile(dir + "service_metrics.json"));
}

}  // namespace
}  // namespace wavekit
