#include "testing/server_sim.h"

#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "index/codec.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "serve/server_core.h"
#include "testing/oracle.h"
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

/// One tenant as the simulation sees it: the loopback session and the
/// client-side truth (its workload and oracle). The service itself is owned
/// by the core.
struct SimTenant {
  std::unique_ptr<workload::NetnewsGenerator> netnews;
  OracleDB oracle;
  serve::ServerCore::Session* session = nullptr;
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

/// STATS must report the published day and no pending advance: every
/// ADVANCE publishes before it is answered.
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
  if (decoded.pending_advances != 0) {
    return Status::Internal("stats reports " +
                            std::to_string(decoded.pending_advances) +
                            " pending advances");
  }
  return Status::OK();
}

/// Sends one ADVANCE carrying `batch` and decodes its reply.
Status SendAdvance(Episode* ep, int tenant_id, SimTenant* tenant,
                   DayBatch batch, serve::AdvanceReply* decoded) {
  serve::AdvanceRequest request;
  request.batch = std::move(batch);
  serve::Frame reply;
  WAVEKIT_RETURN_NOT_OK(Roundtrip(
      ep, tenant,
      serve::EncodeAdvanceRequest(static_cast<uint16_t>(tenant_id),
                                  ep->next_request_id++, request),
      &reply));
  return serve::DecodeAdvanceReply(reply.payload, decoded);
}

/// ADVANCE publishes before it is answered: the reply must be OK and carry
/// the new day. The oracle advances when that reply arrives.
Status Advance(Episode* ep, int tenant_id, SimTenant* tenant) {
  const Day day = tenant->oracle.current_day() + 1;
  DayBatch batch = tenant->netnews->GenerateDay(day);
  serve::AdvanceReply decoded;
  WAVEKIT_RETURN_NOT_OK(SendAdvance(ep, tenant_id, tenant, batch, &decoded));
  if (!decoded.result.ok()) {
    return Status::Internal("advance to day " + std::to_string(day) +
                            " refused: " + decoded.result.detail);
  }
  if (decoded.current_day != day) {
    return Status::Internal("advance to day " + std::to_string(day) +
                            " answered with day " +
                            std::to_string(decoded.current_day));
  }
  tenant->oracle.AdvanceDay(batch, ep->config->window);
  ep->Trace("t" + std::to_string(tenant_id) + " advance day " +
            std::to_string(day) + " published");
  return Status::OK();
}

/// An ADVANCE for a day the tenant cannot take next (the published day, or
/// one past the next) must be refused with kInvalidArgument and leave the
/// tenant where it was (STATS) and healthy (HEALTH).
Status RefuseWrongDay(Episode* ep, int tenant_id, SimTenant* tenant) {
  const Day current = tenant->oracle.current_day();
  const Day wrong =
      ep->rng.Bernoulli(0.5)
          ? current
          : current + 2 + static_cast<Day>(ep->rng.Uniform(ep->config->window));
  serve::AdvanceReply decoded;
  WAVEKIT_RETURN_NOT_OK(SendAdvance(ep, tenant_id, tenant,
                                    tenant->netnews->GenerateDay(wrong),
                                    &decoded));
  if (decoded.result.code != StatusCode::kInvalidArgument) {
    return Status::Internal(
        "advance to wrong day " + std::to_string(wrong) + " answered " +
        StatusCodeToString(decoded.result.code) + ": " + decoded.result.detail);
  }
  WAVEKIT_RETURN_NOT_OK(CheckStats(ep, tenant_id, tenant));
  serve::Frame reply;
  WAVEKIT_RETURN_NOT_OK(
      Roundtrip(ep, tenant,
                serve::EncodeHealthRequest(static_cast<uint16_t>(tenant_id),
                                           ep->next_request_id++),
                &reply));
  serve::HealthReply health;
  WAVEKIT_RETURN_NOT_OK(serve::DecodeHealthReply(reply.payload, &health));
  if (!health.result.ok() || health.degraded) {
    return Status::Internal("refused advance to day " + std::to_string(wrong) +
                            " left the tenant degraded: " + health.detail);
  }
  ep->Trace("t" + std::to_string(tenant_id) + " advance day " +
            std::to_string(wrong) + " refused, healthy at day " +
            std::to_string(current));
  return Status::OK();
}

/// The value of the counter `name` in `registry`.
Result<uint64_t> CounterValue(const obs::MetricsRegistry& registry,
                              const std::string& name) {
  for (const obs::MetricSnapshot& metric : registry.Snapshot().metrics) {
    if (metric.name == name) return static_cast<uint64_t>(metric.value);
  }
  return Status::NotFound("no counter " + name);
}

Status RunEpisodeImpl(const ServerSimConfig& config, uint64_t episode,
                      Episode* ep) {
  const uint64_t eseed = MixSeed(config.seed, episode);
  ep->config = &config;
  ep->rng = Rng(eseed);

  constexpr size_t kSchemes =
      sizeof(kAllSchemeKinds) / sizeof(kAllSchemeKinds[0]);
  const SchemeKind kind = kAllSchemeKinds[episode % kSchemes];
  const UpdateTechniqueKind technique =
      ep->rng.Bernoulli(0.5) ? UpdateTechniqueKind::kPackedShadow
                             : UpdateTechniqueKind::kSimpleShadow;
  const CodecMode codec =
      ep->rng.Bernoulli(0.5) ? CodecMode::kAuto : CodecMode::kRaw;
  // One wrong-day ADVANCE per episode; step `days` is the drain rehearsal.
  const int wrong_step = static_cast<int>(ep->rng.Uniform(config.days + 1));
  const int wrong_tenant = static_cast<int>(ep->rng.Uniform(config.tenants));
  ep->Trace("episode " + std::to_string(episode) + " scheme " +
            std::string(SchemeKindName(kind)) + " technique " +
            UpdateTechniqueKindName(technique) + " codec " +
            CodecModeName(codec) + " tenants " +
            std::to_string(config.tenants));

  // Built as waved builds its tenants: one registry shared by the core and
  // every tenant, and each tenant with waved's block cache and event ring.
  obs::MetricsRegistry registry;
  SimClock clock;
  serve::ServerCore::Options core_options;
  core_options.clock = &clock;
  core_options.metrics_registry = &registry;
  serve::ServerCore core(core_options);
  ep->core = &core;

  std::vector<std::unique_ptr<SimTenant>> tenants;
  for (int t = 0; t < config.tenants; ++t) {
    auto tenant = std::make_unique<SimTenant>();

    WaveService::Options options;
    options.scheme = kind;
    options.config.window = config.window;
    options.config.num_indexes = 2;
    options.config.technique = technique;
    options.config.codec = codec;
    options.cache_blocks = 1024;
    options.metrics_registry = &registry;
    options.event_ring_capacity = 256;
    options.clock = &clock;
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
    WAVEKIT_RETURN_NOT_OK(service->Start(std::move(first_window)));
    WAVEKIT_RETURN_NOT_OK(
        core.AddTenant(static_cast<uint16_t>(t), std::move(service)));

    WAVEKIT_ASSIGN_OR_RETURN(tenant->session, core.OpenSession());
    tenants.push_back(std::move(tenant));
  }

  // The daily grind: tenants advance over the wire in a seeded order, and
  // probes of random tenants follow each ADVANCE, so tenant A's new day
  // must never leak into tenant B's answers. Scan + stats after each day.
  for (int day_step = 0; day_step < config.days; ++day_step) {
    std::vector<int> order(config.tenants);
    for (int t = 0; t < config.tenants; ++t) order[t] = t;
    for (int i = config.tenants - 1; i > 0; --i) {
      std::swap(order[i],
                order[ep->rng.Uniform(static_cast<uint64_t>(i) + 1)]);
    }
    for (int t : order) {
      if (day_step == wrong_step && t == wrong_tenant) {
        WAVEKIT_RETURN_NOT_OK(RefuseWrongDay(ep, t, tenants[t].get()));
      }
      WAVEKIT_RETURN_NOT_OK(Advance(ep, t, tenants[t].get()));
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

  // Drain rehearsal: new sessions must be refused, while an ADVANCE on
  // every open session is still answered with its new day.
  core.BeginDrain();
  Result<serve::ServerCore::Session*> refused = core.OpenSession();
  if (refused.ok()) {
    return Status::Internal("drain admitted a new session");
  }
  if (refused.status().code() != StatusCode::kFailedPrecondition) {
    return Status::Internal("drain refusal surfaced as " +
                            refused.status().ToString());
  }
  ep->Trace("drain: new session refused, open sessions still answered");
  for (int t = 0; t < config.tenants; ++t) {
    SimTenant* tenant = tenants[t].get();
    if (wrong_step == config.days && t == wrong_tenant) {
      WAVEKIT_RETURN_NOT_OK(RefuseWrongDay(ep, t, tenant));
    }
    WAVEKIT_RETURN_NOT_OK(Advance(ep, t, tenant));
    WAVEKIT_RETURN_NOT_OK(CheckProbe(ep, t, tenant));
    WAVEKIT_RETURN_NOT_OK(CheckScan(ep, t, tenant));
    WAVEKIT_RETURN_NOT_OK(CheckStats(ep, t, tenant));
    core.CloseSession(tenant->session);
    tenant->session = nullptr;
  }
  // The registry counts every request the episode sent, once.
  WAVEKIT_ASSIGN_OR_RETURN(
      const uint64_t served,
      CounterValue(registry, "wavekit_server_requests_total"));
  if (served != ep->requests) {
    return Status::Internal("wavekit_server_requests_total " +
                            std::to_string(served) + " != " +
                            std::to_string(ep->requests) + " requests sent");
  }
  ep->Trace("drained: " + std::to_string(served) + " requests served");
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
