// waved: the multi-tenant wave-index network daemon.
//
//   waved [--port=8787] [--bind=127.0.0.1] [--metrics-port=0]
//         [--tenants=4] [--scheme=wata] [--window=7] [--indexes=3]
//         [--technique=simple-shadow] [--codec=raw] [--records=200]
//         [--cache-blocks=1024]
//         [--rate-limit=0] [--burst=0] [--max-sessions=0]
//         [--idle-timeout-ms=30000] [--seed=42]
//
// Boots `--tenants` independent wave indexes (each bootstrapped with a
// synthetic Netnews first window seeded per tenant, so probes answer real
// data immediately) and serves the binary protocol (serve/protocol.h) on
// --port from one epoll thread; every request runs inline on it. An ADVANCE
// publishes its day before it is answered, so a client that holds the reply
// can query the day. SIGTERM/SIGINT trigger a graceful drain: stop
// accepting, answer and flush everything in flight, exit 0. The drain waits
// for every reply to flush, so a client that never reads its replies holds
// it open; SIGKILL is the hard stop.
//
// With --metrics-port > 0 the obs registry — per-tenant WaveService metrics
// plus the wavekit_server_* serving counters — is re-exported over HTTP on
// that port (/metrics, /metrics.json, /healthz; obs/http_exporter.h).
// --metrics-port=0 picks an ephemeral port; --no-metrics disables the
// exporter entirely. An unknown flag, a malformed value or one out of its
// range (a port past 65535, --tenants outside 1..65535, a negative count, a
// --codec other than raw|auto) exits with status 2.
//
// Prints one line when ready:
//   waved ready port=<p> metrics_port=<mp> tenants=<n> pid=<pid>
// (perfbench and the CI smoke test parse it.)

#include <climits>
#include <csignal>
#include <iostream>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "index/codec.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "serve/server_core.h"
#include "serve/server_loop.h"
#include "util/args.h"
#include "util/macros.h"
#include "wave/scheme_factory.h"
#include "wave/wave_service.h"
#include "workload/netnews.h"

namespace wavekit {
namespace {

volatile std::sig_atomic_t g_shutdown_requested = 0;

void HandleShutdownSignal(int) { g_shutdown_requested = 1; }

/// Builds one tenant's WaveService, bootstrapped with a per-tenant Netnews
/// first window so the daemon serves data from request 1.
Result<std::unique_ptr<WaveService>> MakeTenant(
    const Args& args, CodecMode codec, uint16_t tenant_id,
    obs::MetricsRegistry* registry) {
  WaveService::Options options;
  WAVEKIT_ASSIGN_OR_RETURN(options.scheme,
                           SchemeKindFromName(args.Get("scheme", "wata")));
  WAVEKIT_ASSIGN_OR_RETURN(
      options.config.technique,
      UpdateTechniqueFromName(args.Get("technique", "simple-shadow")));
  options.config.codec = codec;
  options.config.window = args.GetInt("window", 7);
  options.config.num_indexes = args.GetInt("indexes", 3);
  const uint64_t records =
      static_cast<uint64_t>(args.GetInt("records", 200, 0, INT_MAX));
  if (options.scheme == SchemeKind::kKnownBoundWata) {
    options.config.size_bound_entries =
        records * 60 * static_cast<uint64_t>(options.config.window);
  }
  options.cache_blocks =
      static_cast<size_t>(args.GetInt("cache-blocks", 1024, 0, INT_MAX));
  options.metrics_registry = registry;
  options.event_ring_capacity = 256;
  WAVEKIT_ASSIGN_OR_RETURN(std::unique_ptr<WaveService> service,
                           WaveService::Create(options));

  workload::NetnewsConfig netnews_config;
  netnews_config.articles_per_day = records;
  netnews_config.seed =
      static_cast<uint64_t>(args.GetInt("seed", 42)) + tenant_id * 1000003u;
  workload::NetnewsGenerator netnews(netnews_config);
  std::vector<DayBatch> first_window;
  for (Day d = 1; d <= options.config.window; ++d) {
    first_window.push_back(netnews.GenerateDay(d));
  }
  WAVEKIT_RETURN_NOT_OK(service->Start(std::move(first_window)));
  return service;
}

int Serve(const Args& args) {
  const std::vector<std::string> allowed = {
      "port",         "bind",          "metrics-port",   "no-metrics",
      "tenants",      "scheme",        "window",         "indexes",
      "technique",    "codec",         "records",        "cache-blocks",
      "rate-limit",   "burst",         "max-sessions",   "idle-timeout-ms",
      "seed"};
  const std::vector<std::string> unknown = args.Unknown(allowed);
  if (!unknown.empty()) {
    std::cerr << "waved: unknown arguments:";
    for (const std::string& u : unknown) std::cerr << " " << u;
    std::cerr << "\n";
    return 2;
  }

  // Tenant ids are uint16, so at most 65535 tenants.
  const int tenants = args.GetInt("tenants", 4, 1, 65535);

  // Read every flag of the loop and the exporter before the tenants are
  // built, so a malformed one fails fast.
  serve::ServerLoop::Options loop_options;
  loop_options.bind_address = args.Get("bind", "127.0.0.1");
  loop_options.port =
      static_cast<uint16_t>(args.GetInt("port", 8787, 0, 65535));
  loop_options.idle_timeout_ms = args.GetInt("idle-timeout-ms", 30'000);
  const bool export_metrics = !args.GetBool("no-metrics");
  const Result<CodecMode> codec = CodecModeFromName(args.Get("codec", "raw"));
  if (!codec.ok()) {
    std::cerr << "waved: " << codec.status() << "\n";
    return 2;
  }
  const auto exporter_port =
      static_cast<uint16_t>(args.GetInt("metrics-port", 0, 0, 65535));

  obs::MetricsRegistry registry;

  serve::ServerCore::Options core_options;
  core_options.tenant_rate_limit_rps = args.GetDouble("rate-limit", 0);
  core_options.tenant_rate_limit_burst = args.GetDouble("burst", 0);
  core_options.max_sessions =
      static_cast<size_t>(args.GetInt("max-sessions", 0, 0, INT_MAX));
  core_options.metrics_registry = &registry;
  serve::ServerCore core(core_options);

  for (int t = 0; t < tenants; ++t) {
    auto service =
        MakeTenant(args, *codec, static_cast<uint16_t>(t), &registry);
    if (!service.ok()) {
      std::cerr << "waved: tenant " << t << ": " << service.status() << "\n";
      return 1;
    }
    const Status added =
        core.AddTenant(static_cast<uint16_t>(t), std::move(*service));
    if (!added.ok()) {
      std::cerr << "waved: " << added << "\n";
      return 1;
    }
  }

  serve::ServerLoop loop(loop_options, &core);
  const Status started = loop.Start();
  if (!started.ok()) {
    std::cerr << "waved: " << started << "\n";
    return 1;
  }

  // Re-export the unified registry over HTTP unless --no-metrics.
  std::unique_ptr<obs::HttpExporter> exporter;
  uint16_t metrics_port = 0;
  if (export_metrics) {
    obs::HttpExporter::Options http;
    http.bind_address = loop_options.bind_address;
    http.port = exporter_port;
    http.registry = &registry;
    http.health = [&core](std::string* detail) {
      for (size_t t = 0; t < core.tenant_count(); ++t) {
        WaveService* service = core.tenant(static_cast<uint16_t>(t));
        if (service != nullptr && service->degraded()) {
          *detail = "tenant " + std::to_string(t) + ": " +
                    service->degraded_detail();
          return false;
        }
      }
      return true;
    };
    exporter = std::make_unique<obs::HttpExporter>(http);
    const Status metrics_started = exporter->Start();
    if (!metrics_started.ok()) {
      std::cerr << "waved: metrics exporter: " << metrics_started << "\n";
      return 1;
    }
    metrics_port = exporter->port();
  }

  std::signal(SIGTERM, HandleShutdownSignal);
  std::signal(SIGINT, HandleShutdownSignal);

  std::cout << "waved ready port=" << loop.port()
            << " metrics_port=" << metrics_port << " tenants=" << tenants
            << " pid=" << ::getpid() << std::endl;

  while (!g_shutdown_requested) {
    ::usleep(50 * 1000);
  }

  std::cout << "waved draining..." << std::endl;
  loop.Drain();
  if (exporter) exporter->Stop();
  std::cout << "waved drained: served " << core.requests_served()
            << " requests on " << loop.connections_accepted()
            << " connections" << std::endl;
  return 0;
}

}  // namespace
}  // namespace wavekit

int main(int argc, char** argv) {
  wavekit::Args args(argc, argv);
  return wavekit::Serve(args);
}
