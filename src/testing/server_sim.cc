#include "testing/server_sim.h"

#include <deque>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "serve/protocol.h"
#include "serve/server_core.h"
#include "testing/oracle.h"
#include "testing/sim_executor.h"
#include "util/clock.h"
#include "util/crc32.h"
#include "util/macros.h"
#include "util/random.h"
#include "wave/scheme.h"
#include "wave/wave_service.h"
#include "workload/netnews.h"

namespace wavekit {
namespace testing {
namespace {

// splitmix64 finalizer: decorrelates (seed, episode) pairs so neighbouring
// episodes do not share workload prefixes.
uint64_t MixSeed(uint64_t seed, uint64_t episode) {
  uint64_t z = seed + episode * 0x9E3779B97F4A7C15ull + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t RoleSeed(uint64_t base, int tenant, const std::string& role) {
  uint64_t h = base + static_cast<uint64_t>(tenant) * 7919u;
  for (char c : role) h = h * 131 + static_cast<unsigned char>(c);
  return MixSeed(h, 0);
}

/// One tenant as the simulation sees it: the server-side service (owned by
/// the core), its single-stepped advance executor, the loopback session,
/// and the client-side truth (oracle + queued-but-unpublished batches).
struct SimTenant {
  SimExecutor* advance_exec = nullptr;  // owned by the tenant's WaveService
  std::unique_ptr<workload::NetnewsGenerator> netnews;
  OracleDB oracle;
  std::deque<DayBatch> queued;  // acknowledged but not yet published
  serve::ServerCore::Session* session = nullptr;
  Day next_day = 1;
};

/// Mutable episode state threaded through every request.
struct Episode {
  const ServerSimConfig* config = nullptr;
  serve::ServerCore* core = nullptr;
  Rng rng;
  uint32_t next_request_id = 1;
  std::string trace;
  std::string transcript;  // every reply byte the core produced
  uint64_t requests = 0;

  Episode() : rng(0) {}

  void Trace(const std::string& line) {
    trace.append(line);
    trace.push_back('\n');
  }
};

/// Ingests one encoded request and returns the single decoded reply frame.
Status Roundtrip(Episode* ep, SimTenant* tenant, const std::string& request,
                 serve::Frame* reply) {
  std::string out;
  WAVEKIT_RETURN_NOT_OK(
      ep->core->Ingest(tenant->session, request.data(), request.size(), &out));
  ep->transcript.append(out);
  ++ep->requests;
  serve::FrameReader reader;
  WAVEKIT_RETURN_NOT_OK(reader.Feed(out.data(), out.size()));
  if (!reader.Next(reply)) {
    return Status::Internal("request produced no complete reply frame");
  }
  if (reader.buffered_bytes() != 0) {
    return Status::Internal("request produced trailing reply bytes");
  }
  return Status::OK();
}

std::string DescribeEntries(const std::vector<Entry>& entries) {
  std::ostringstream os;
  os << entries.size() << " entries";
  return os.str();
}

/// PROBE over the live window, cross-checked entry-for-entry.
Status CheckProbe(Episode* ep, int tenant_id, SimTenant* tenant) {
  WaveService* service = ep->core->tenant(static_cast<uint16_t>(tenant_id));
  const DayRange range =
      DayRange::Window(service->current_day(), ep->config->window);
  const Value value = tenant->netnews->SampleWord(ep->rng);
  serve::ProbeRequest request{range, value};
  serve::Frame reply;
  WAVEKIT_RETURN_NOT_OK(Roundtrip(
      ep, tenant,
      serve::EncodeProbeRequest(static_cast<uint16_t>(tenant_id),
                                ep->next_request_id++, request),
      &reply));
  if (reply.header.type != static_cast<uint8_t>(serve::FrameType::kProbeReply)) {
    return Status::Internal("probe answered with frame type " +
                            std::to_string(reply.header.type));
  }
  serve::QueryReply decoded;
  WAVEKIT_RETURN_NOT_OK(serve::DecodeQueryReply(reply.payload, &decoded));
  if (!decoded.result.has_body()) {
    return Status::Internal("probe failed on the wire: " +
                            decoded.result.detail);
  }
  std::vector<Entry> got = decoded.entries;
  OracleDB::Sort(&got);
  const std::vector<Entry> want = tenant->oracle.Probe(value, range);
  if (got != want) {
    return Status::Internal(
        "probe mismatch for '" + value + "' at day " +
        std::to_string(service->current_day()) + ": server returned " +
        DescribeEntries(got) + ", oracle has " + DescribeEntries(want));
  }
  ep->Trace("t" + std::to_string(tenant_id) + " probe '" + value + "' day " +
            std::to_string(service->current_day()) + " -> " +
            std::to_string(got.size()));
  return Status::OK();
}

/// Full-window SCAN, cross-checked against the oracle's live window.
Status CheckScan(Episode* ep, int tenant_id, SimTenant* tenant) {
  WaveService* service = ep->core->tenant(static_cast<uint16_t>(tenant_id));
  const DayRange range =
      DayRange::Window(service->current_day(), ep->config->window);
  serve::ScanRequest request;
  request.range = range;
  request.max_entries = 0;
  serve::Frame reply;
  WAVEKIT_RETURN_NOT_OK(Roundtrip(
      ep, tenant,
      serve::EncodeScanRequest(static_cast<uint16_t>(tenant_id),
                               ep->next_request_id++, request),
      &reply));
  if (reply.header.type != static_cast<uint8_t>(serve::FrameType::kScanReply)) {
    return Status::Internal("scan answered with frame type " +
                            std::to_string(reply.header.type));
  }
  serve::QueryReply decoded;
  WAVEKIT_RETURN_NOT_OK(serve::DecodeQueryReply(reply.payload, &decoded));
  if (!decoded.result.has_body()) {
    return Status::Internal("scan failed on the wire: " +
                            decoded.result.detail);
  }
  std::vector<Entry> got = decoded.entries;
  OracleDB::Sort(&got);
  const std::vector<Entry> want = tenant->oracle.ScanAll(range);
  if (got != want) {
    return Status::Internal("scan mismatch at day " +
                            std::to_string(service->current_day()) +
                            ": server returned " + DescribeEntries(got) +
                            ", oracle has " + DescribeEntries(want));
  }
  ep->Trace("t" + std::to_string(tenant_id) + " scan day " +
            std::to_string(service->current_day()) + " -> " +
            std::to_string(got.size()));
  return Status::OK();
}

/// STATS must report the published day and the queued (pending) advances.
Status CheckStats(Episode* ep, int tenant_id, SimTenant* tenant) {
  serve::Frame reply;
  WAVEKIT_RETURN_NOT_OK(
      Roundtrip(ep, tenant,
                serve::EncodeStatsRequest(static_cast<uint16_t>(tenant_id),
                                          ep->next_request_id++),
                &reply));
  serve::StatsReply decoded;
  WAVEKIT_RETURN_NOT_OK(serve::DecodeStatsReply(reply.payload, &decoded));
  if (!decoded.result.ok()) {
    return Status::Internal("stats failed: " + decoded.result.detail);
  }
  if (decoded.current_day != tenant->oracle.current_day()) {
    return Status::Internal(
        "stats day " + std::to_string(decoded.current_day) +
        " != oracle day " + std::to_string(tenant->oracle.current_day()));
  }
  if (decoded.pending_advances != tenant->queued.size()) {
    return Status::Internal(
        "stats pending " + std::to_string(decoded.pending_advances) +
        " != queued " + std::to_string(tenant->queued.size()));
  }
  return Status::OK();
}

/// ADVANCE queues asynchronously; the ack must carry the still-current day.
Status QueueAdvance(Episode* ep, int tenant_id, SimTenant* tenant) {
  WaveService* service = ep->core->tenant(static_cast<uint16_t>(tenant_id));
  const Day before = service->current_day();
  DayBatch batch = tenant->netnews->GenerateDay(tenant->next_day);
  serve::AdvanceRequest request;
  request.batch = batch;
  serve::Frame reply;
  WAVEKIT_RETURN_NOT_OK(Roundtrip(
      ep, tenant,
      serve::EncodeAdvanceRequest(static_cast<uint16_t>(tenant_id),
                                  ep->next_request_id++, request),
      &reply));
  serve::AdvanceReply decoded;
  WAVEKIT_RETURN_NOT_OK(serve::DecodeAdvanceReply(reply.payload, &decoded));
  if (!decoded.result.ok()) {
    return Status::Internal("advance refused: " + decoded.result.detail);
  }
  if (decoded.current_day != before) {
    return Status::Internal("async advance ack day " +
                            std::to_string(decoded.current_day) +
                            " != pre-advance day " + std::to_string(before));
  }
  tenant->queued.push_back(std::move(batch));
  ep->Trace("t" + std::to_string(tenant_id) + " advance day " +
            std::to_string(tenant->next_day) + " queued (current " +
            std::to_string(before) + ")");
  ++tenant->next_day;
  return Status::OK();
}

/// Runs exactly one queued transition and syncs the oracle to the publish.
Status StepAdvance(Episode* ep, int tenant_id, SimTenant* tenant) {
  if (tenant->advance_exec == nullptr || tenant->queued.empty()) {
    return Status::OK();
  }
  if (!tenant->advance_exec->RunOne()) {
    return Status::Internal("queued advance had no task to run");
  }
  WaveService* service = ep->core->tenant(static_cast<uint16_t>(tenant_id));
  tenant->oracle.AdvanceDay(tenant->queued.front(), ep->config->window);
  tenant->queued.pop_front();
  if (service->current_day() != tenant->oracle.current_day()) {
    return Status::Internal(
        "publish day " + std::to_string(service->current_day()) +
        " != oracle day " + std::to_string(tenant->oracle.current_day()));
  }
  ep->Trace("t" + std::to_string(tenant_id) + " published day " +
            std::to_string(service->current_day()));
  return Status::OK();
}

Status RunEpisodeImpl(const ServerSimConfig& config, uint64_t episode,
                      Episode* ep) {
  const uint64_t eseed = MixSeed(config.seed, episode);
  ep->config = &config;
  ep->rng = Rng(eseed);

  constexpr size_t kSchemes =
      sizeof(kAllSchemeKinds) / sizeof(kAllSchemeKinds[0]);
  const SchemeKind kind = kAllSchemeKinds[episode % kSchemes];
  ep->Trace("episode " + std::to_string(episode) + " scheme " +
            std::string(SchemeKindName(kind)) + " tenants " +
            std::to_string(config.tenants));

  SimClock clock;
  serve::ServerCore::Options core_options;
  core_options.async_advance = true;
  core_options.clock = &clock;
  serve::ServerCore core(core_options);
  ep->core = &core;

  std::vector<std::unique_ptr<SimTenant>> tenants;
  for (int t = 0; t < config.tenants; ++t) {
    auto tenant = std::make_unique<SimTenant>();
    SimTenant* raw = tenant.get();

    WaveService::Options options;
    options.scheme = kind;
    options.config.window = config.window;
    options.config.num_indexes = 2;
    options.config.technique = UpdateTechniqueKind::kSimpleShadow;
    options.clock = &clock;
    options.pool_factory = [raw, eseed, t](int /*threads*/,
                                           const std::string& role) {
      // The advance runner must stay strict FIFO (width 1) — async publish
      // order is part of the service contract.
      auto exec = std::make_unique<SimExecutor>(RoleSeed(eseed, t, role),
                                                /*width=*/1);
      if (role == "advance") raw->advance_exec = exec.get();
      return exec;
    };
    WAVEKIT_ASSIGN_OR_RETURN(std::unique_ptr<WaveService> service,
                             WaveService::Create(std::move(options)));

    workload::NetnewsConfig netnews_config;
    netnews_config.articles_per_day = config.articles_per_day;
    netnews_config.seed = eseed + static_cast<uint64_t>(t) * 1000003u;
    tenant->netnews =
        std::make_unique<workload::NetnewsGenerator>(netnews_config);

    std::vector<DayBatch> first_window;
    for (Day d = 1; d <= config.window; ++d) {
      DayBatch batch = tenant->netnews->GenerateDay(d);
      tenant->oracle.AdvanceDay(batch, config.window);
      first_window.push_back(std::move(batch));
    }
    tenant->next_day = config.window + 1;
    WAVEKIT_RETURN_NOT_OK(service->Start(std::move(first_window)));
    WAVEKIT_RETURN_NOT_OK(
        core.AddTenant(static_cast<uint16_t>(t), std::move(service)));

    WAVEKIT_ASSIGN_OR_RETURN(tenant->session, core.OpenSession());
    tenants.push_back(std::move(tenant));
  }

  // The daily grind: queue advances, probe the old snapshot, publish one
  // day at a time, probe between publishes, scan + stats after each day.
  for (int day_step = 0; day_step < config.days; ++day_step) {
    for (int t = 0; t < config.tenants; ++t) {
      WAVEKIT_RETURN_NOT_OK(QueueAdvance(ep, t, tenants[t].get()));
    }
    // Probes against the acknowledged-but-unpublished snapshot.
    for (int t = 0; t < config.tenants; ++t) {
      for (int p = 0; p < config.probes_per_step; ++p) {
        WAVEKIT_RETURN_NOT_OK(CheckProbe(ep, t, tenants[t].get()));
      }
      WAVEKIT_RETURN_NOT_OK(CheckStats(ep, t, tenants[t].get()));
    }
    // Publish in a seeded tenant order, probing right after each publish —
    // tenant A's new day must never leak into tenant B's answers.
    std::vector<int> order(config.tenants);
    for (int t = 0; t < config.tenants; ++t) order[t] = t;
    for (int i = config.tenants - 1; i > 0; --i) {
      std::swap(order[i],
                order[ep->rng.Uniform(static_cast<uint64_t>(i) + 1)]);
    }
    for (int t : order) {
      WAVEKIT_RETURN_NOT_OK(StepAdvance(ep, t, tenants[t].get()));
      for (int p = 0; p < config.probes_per_step; ++p) {
        const int probe_tenant =
            static_cast<int>(ep->rng.Uniform(config.tenants));
        WAVEKIT_RETURN_NOT_OK(
            CheckProbe(ep, probe_tenant, tenants[probe_tenant].get()));
      }
    }
    for (int t = 0; t < config.tenants; ++t) {
      WAVEKIT_RETURN_NOT_OK(CheckScan(ep, t, tenants[t].get()));
      WAVEKIT_RETURN_NOT_OK(CheckStats(ep, t, tenants[t].get()));
    }
    clock.Advance(1'000'000);  // one simulated second per day
  }

  // Drain rehearsal: queue one more advance on every tenant, then BeginDrain.
  // New sessions must be refused while the open sessions keep answering and
  // the queued advances land.
  for (int t = 0; t < config.tenants; ++t) {
    WAVEKIT_RETURN_NOT_OK(QueueAdvance(ep, t, tenants[t].get()));
  }
  core.BeginDrain();
  Result<serve::ServerCore::Session*> refused = core.OpenSession();
  if (refused.ok()) {
    return Status::Internal("drain admitted a new session");
  }
  if (refused.status().code() != StatusCode::kFailedPrecondition) {
    return Status::Internal("drain refusal surfaced as " +
                            refused.status().ToString());
  }
  ep->Trace("drain: new session refused, flushing in-flight work");
  for (int t = 0; t < config.tenants; ++t) {
    SimTenant* tenant = tenants[t].get();
    // Buffered requests on open sessions are still answered mid-drain.
    WAVEKIT_RETURN_NOT_OK(CheckProbe(ep, t, tenant));
    while (!tenant->queued.empty()) {
      WAVEKIT_RETURN_NOT_OK(StepAdvance(ep, t, tenant));
    }
  }
  WAVEKIT_RETURN_NOT_OK(core.WaitForMaintenance());
  for (int t = 0; t < config.tenants; ++t) {
    WAVEKIT_RETURN_NOT_OK(CheckScan(ep, t, tenants[t].get()));
    WAVEKIT_RETURN_NOT_OK(CheckStats(ep, t, tenants[t].get()));
    core.CloseSession(tenants[t]->session);
    tenants[t]->session = nullptr;
  }
  ep->Trace("drained: " + std::to_string(core.requests_served()) +
            " requests served");
  return Status::OK();
}

}  // namespace

ServerEpisodeResult ServerSimulator::RunEpisode(uint64_t episode) const {
  ServerEpisodeResult result;
  result.episode = episode;
  Episode ep;
  result.status = RunEpisodeImpl(config_, episode, &ep);
  result.trace = std::move(ep.trace);
  result.requests = ep.requests;
  std::string fold = ep.transcript;
  fold.append(result.trace);
  result.digest = Crc32(fold);
  if (!result.status.ok()) {
    result.repro = ServerReproCommand(config_.seed, episode);
  }
  return result;
}

ServerEpisodeResult ServerSimulator::RunMany() const {
  ServerEpisodeResult last;
  for (uint64_t e = 0; e < config_.episodes; ++e) {
    ServerEpisodeResult first = RunEpisode(e);
    if (!first.status.ok()) return first;
    ServerEpisodeResult second = RunEpisode(e);
    if (!second.status.ok()) return second;
    if (first.digest != second.digest || first.trace != second.trace) {
      first.status = Status::Internal(
          "episode " + std::to_string(e) +
          " is not byte-identical across replays (digest " +
          std::to_string(first.digest) + " vs " +
          std::to_string(second.digest) + ")");
      first.repro = ServerReproCommand(config_.seed, e);
      return first;
    }
    last = std::move(first);
  }
  return last;
}

std::string ServerReproCommand(uint64_t seed, uint64_t episode) {
  return "sim_torture --serve --seed=" + std::to_string(seed) +
         " --episode=" + std::to_string(episode);
}

}  // namespace testing
}  // namespace wavekit
