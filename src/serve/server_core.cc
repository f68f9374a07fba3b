#include "serve/server_core.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace wavekit {
namespace serve {

WireResult ToWireResult(const Status& status) {
  WireResult result;
  result.code = status.code();
  result.detail = status.message();
  return result;
}

ServerCore::ServerCore(Options options)
    : options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock
                                       : RealClock::Instance()) {
  if (options_.tenant_rate_limit_rps > 0 &&
      options_.tenant_rate_limit_burst <= 0) {
    options_.tenant_rate_limit_burst = options_.tenant_rate_limit_rps;
  }
  if (options_.metrics_registry != nullptr) {
    obs::MetricsRegistry* reg = options_.metrics_registry;
    reg->AddCounterCallback(
        "wavekit_server_requests_total", "Frames served by waved.", {},
        [this] { return requests_served(); }, this);
    reg->AddCounterCallback(
        "wavekit_server_errors_total", "Error replies sent by waved.", {},
        [this] { return errors_returned(); }, this);
    reg->AddCounterCallback(
        "wavekit_server_rate_limited_total",
        "Requests refused by per-tenant rate limiting.", {},
        [this] { return rate_limited(); }, this);
    reg->AddGaugeCallback(
        "wavekit_server_sessions", "Open client sessions.", {},
        [this] { return static_cast<double>(open_sessions()); }, this);
    reg->AddGaugeCallback(
        "wavekit_server_tenants", "Registered tenants.", {},
        [this] { return static_cast<double>(tenant_count()); }, this);
    reg->AddGaugeCallback(
        "wavekit_server_draining", "1 while the server is draining.", {},
        [this] { return draining() ? 1.0 : 0.0; }, this);
  }
}

ServerCore::~ServerCore() {
  if (options_.metrics_registry != nullptr) {
    options_.metrics_registry->Unregister(this);
  }
}

Status ServerCore::AddTenant(uint16_t tenant_id,
                             std::unique_ptr<WaveService> service) {
  if (service == nullptr) {
    return Status::InvalidArgument("tenant service must not be null");
  }
  std::lock_guard<std::mutex> lock(tenants_mutex_);
  auto [it, inserted] = tenants_.emplace(tenant_id, nullptr);
  if (!inserted) {
    return Status::AlreadyExists("tenant " + std::to_string(tenant_id) +
                                 " already registered");
  }
  it->second = std::make_unique<Tenant>();
  it->second->service = std::move(service);
  it->second->tokens = options_.tenant_rate_limit_burst;
  it->second->last_refill_us = clock_->NowMicros();
  return Status::OK();
}

WaveService* ServerCore::tenant(uint16_t tenant_id) const {
  std::lock_guard<std::mutex> lock(tenants_mutex_);
  auto it = tenants_.find(tenant_id);
  return it == tenants_.end() ? nullptr : it->second->service.get();
}

size_t ServerCore::tenant_count() const {
  std::lock_guard<std::mutex> lock(tenants_mutex_);
  return tenants_.size();
}

Result<ServerCore::Session*> ServerCore::OpenSession() {
  if (draining()) {
    return Status::FailedPrecondition("server is draining");
  }
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  if (options_.max_sessions > 0 && sessions_.size() >= options_.max_sessions) {
    return Status::ResourceExhausted(
        "session limit " + std::to_string(options_.max_sessions) + " reached");
  }
  const uint64_t id = next_session_id_++;
  auto session = std::unique_ptr<Session>(new Session(id));
  Session* raw = session.get();
  sessions_.emplace(id, std::move(session));
  return raw;
}

void ServerCore::CloseSession(Session* session) {
  if (session == nullptr) return;
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  sessions_.erase(session->id());
}

size_t ServerCore::open_sessions() const {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  return sessions_.size();
}

Status ServerCore::Ingest(Session* session, const void* data, size_t size,
                          std::string* out) {
  const Status fed = session->reader_.Feed(data, size);
  Frame frame;
  while (session->reader_.Next(&frame)) {
    ServeFrame(session, frame, out);
  }
  // Check the reader again, not just Feed's return: the poisoned header may
  // have become visible only after Next() consumed the frames before it.
  const Status& broken = session->reader_.error();
  if (!broken.ok()) {
    AppendError(session->reader_.error_header(), FrameType::kErrorReply,
                StatusCode::kInvalidArgument, broken.message(), out);
    return broken;
  }
  return fed;
}

void ServerCore::ServeFrame(Session* session, const Frame& frame,
                            std::string* out) {
  session->requests_++;
  requests_served_.fetch_add(1, std::memory_order_relaxed);

  if (!IsRequestType(frame.header.type)) {
    AppendError(frame.header, FrameType::kErrorReply,
                StatusCode::kInvalidArgument,
                "unknown request type " + std::to_string(frame.header.type),
                out);
    return;
  }
  const FrameType type = static_cast<FrameType>(frame.header.type);
  const FrameType reply_type =
      static_cast<FrameType>(frame.header.type | 0x80);

  Tenant* tenant = nullptr;
  {
    std::lock_guard<std::mutex> lock(tenants_mutex_);
    auto it = tenants_.find(frame.header.tenant_id);
    if (it != tenants_.end()) tenant = it->second.get();
  }
  if (tenant == nullptr) {
    AppendError(frame.header, reply_type, StatusCode::kNotFound,
                "unknown tenant " + std::to_string(frame.header.tenant_id),
                out);
    return;
  }

  // HEALTH and STATS are monitoring traffic; only the data path is
  // rate-limited, so an operator can always see *why* a tenant is throttled.
  if (type != FrameType::kHealth && type != FrameType::kStats &&
      !AdmitRequest(tenant)) {
    rate_limited_.fetch_add(1, std::memory_order_relaxed);
    AppendError(frame.header, reply_type, StatusCode::kResourceExhausted,
                "tenant rate limit exceeded", out);
    return;
  }

  switch (type) {
    case FrameType::kProbe:
      ServeProbe(tenant, frame, out);
      return;
    case FrameType::kScan:
      ServeScan(tenant, frame, out);
      return;
    case FrameType::kAdvance:
      ServeAdvance(tenant, frame, out);
      return;
    case FrameType::kStats:
      ServeStats(tenant, frame, out);
      return;
    case FrameType::kHealth:
      ServeHealth(tenant, frame, out);
      return;
    default:
      AppendError(frame.header, FrameType::kErrorReply, StatusCode::kInternal,
                  "unhandled request type", out);
      return;
  }
}

void ServerCore::ServeProbe(Tenant* tenant, const Frame& frame,
                            std::string* out) {
  ProbeRequest request;
  Status status = DecodeProbeRequest(frame.payload, &request);
  if (!status.ok()) {
    AppendError(frame.header, FrameType::kProbeReply, status.code(),
                status.message(), out);
    return;
  }
  // The reply must fit one frame, however many entries the value has.
  // Probing for one entry past the cap tells whether the reply is complete,
  // and the probe reads no constituent after the one that reaches it.
  QueryReply reply;
  status = tenant->service->TimedIndexProbe(request.range, request.value,
                                            &reply.entries, &reply.stats,
                                            uint64_t{kMaxReplyEntries} + 1);
  if (reply.entries.size() > kMaxReplyEntries) {
    reply.entries.resize(kMaxReplyEntries);
    if (status.ok()) {
      status = Status::PartialResult("probe truncated at " +
                                     std::to_string(kMaxReplyEntries) +
                                     " entries");
    }
  }
  reply.stats.entries_returned = reply.entries.size();
  // kPartialResult still carries the entries degraded serving could
  // assemble; anything else carries no body.
  reply.result = ToWireResult(status);
  if (!reply.result.has_body()) {
    errors_returned_.fetch_add(1, std::memory_order_relaxed);
  }
  out->append(EncodeQueryReply(frame.header, reply));
}

void ServerCore::ServeScan(Tenant* tenant, const Frame& frame,
                           std::string* out) {
  ScanRequest request;
  Status status = DecodeScanRequest(frame.payload, &request);
  if (!status.ok()) {
    AppendError(frame.header, FrameType::kScanReply, status.code(),
                status.message(), out);
    return;
  }
  // The reply must fit one frame, whatever the request asks for.
  const uint32_t cap = request.max_entries == 0
                           ? kMaxReplyEntries
                           : std::min(request.max_entries, kMaxReplyEntries);
  // Scanning one entry past the cap tells whether the reply is complete,
  // and the scan reads no more than that one entry needs.
  QueryReply reply;
  status = tenant->service->TimedSegmentScan(
      request.range,
      [&](const Value&, const Entry& entry) { reply.entries.push_back(entry); },
      &reply.stats, uint64_t{cap} + 1);
  if (reply.entries.size() > cap) {
    reply.entries.resize(cap);
    if (status.ok()) {
      status = Status::PartialResult("scan truncated at " +
                                     std::to_string(cap) + " entries");
    }
  }
  reply.stats.entries_returned = reply.entries.size();
  reply.result = ToWireResult(status);
  if (!reply.result.has_body()) {
    errors_returned_.fetch_add(1, std::memory_order_relaxed);
  }
  out->append(EncodeQueryReply(frame.header, reply));
}

void ServerCore::ServeAdvance(Tenant* tenant, const Frame& frame,
                              std::string* out) {
  AdvanceRequest request;
  Status status = DecodeAdvanceRequest(frame.payload, &request);
  if (!status.ok()) {
    AppendError(frame.header, FrameType::kAdvanceReply, status.code(),
                status.message(), out);
    return;
  }
  AdvanceReply reply;
  if (options_.async_advance) {
    // Queue and acknowledge: the reply's current_day is the day queries see
    // *now*; STATS reports pending_advances until the transition publishes.
    tenant->service->AdvanceDayAsync(std::move(request.batch));
    status = Status::OK();
  } else {
    status = tenant->service->AdvanceDay(std::move(request.batch));
  }
  reply.result = ToWireResult(status);
  reply.current_day = tenant->service->current_day();
  if (!reply.result.has_body()) {
    errors_returned_.fetch_add(1, std::memory_order_relaxed);
  }
  out->append(EncodeAdvanceReply(frame.header, reply));
}

void ServerCore::ServeStats(Tenant* tenant, const Frame& frame,
                            std::string* out) {
  const WaveService::Instruments& metrics = tenant->service->instruments();
  StatsReply reply;
  reply.probes = metrics.probes->value();
  reply.scans = metrics.scans->value();
  reply.days_advanced = metrics.days_advanced->value();
  reply.async_advances = metrics.async_advances->value();
  reply.pending_advances =
      static_cast<uint64_t>(tenant->service->pending_advances());
  reply.degraded_advances = metrics.degraded_advances->value();
  reply.partial_results = metrics.partial_results->value();
  reply.current_day = tenant->service->current_day();
  reply.degraded = tenant->service->degraded();
  out->append(EncodeStatsReply(frame.header, reply));
}

void ServerCore::ServeHealth(Tenant* tenant, const Frame& frame,
                             std::string* out) {
  HealthReply reply;
  reply.degraded = tenant->service->degraded();
  reply.detail = tenant->service->degraded_detail();
  out->append(EncodeHealthReply(frame.header, reply));
}

bool ServerCore::AdmitRequest(Tenant* tenant) {
  if (options_.tenant_rate_limit_rps <= 0) return true;
  std::lock_guard<std::mutex> lock(tenant->mutex);
  const uint64_t now = clock_->NowMicros();
  if (now > tenant->last_refill_us) {
    const double elapsed_s =
        static_cast<double>(now - tenant->last_refill_us) / 1e6;
    tenant->tokens += elapsed_s * options_.tenant_rate_limit_rps;
    if (tenant->tokens > options_.tenant_rate_limit_burst) {
      tenant->tokens = options_.tenant_rate_limit_burst;
    }
    tenant->last_refill_us = now;
  }
  if (tenant->tokens < 1.0) return false;
  tenant->tokens -= 1.0;
  return true;
}

void ServerCore::AppendError(const FrameHeader& request, FrameType type,
                             StatusCode code, const std::string& detail,
                             std::string* out) {
  errors_returned_.fetch_add(1, std::memory_order_relaxed);
  out->append(EncodeErrorReply(request, type, code, detail));
}

void ServerCore::BeginDrain() {
  draining_.store(true, std::memory_order_release);
}

Status ServerCore::WaitForMaintenance() {
  // Collect services first: WaitForMaintenance blocks, and holding
  // tenants_mutex_ across it would stall the request path.
  std::vector<WaveService*> services;
  {
    std::lock_guard<std::mutex> lock(tenants_mutex_);
    services.reserve(tenants_.size());
    for (auto& [id, tenant] : tenants_) services.push_back(tenant->service.get());
  }
  Status first;
  for (WaveService* service : services) {
    const Status status = service->WaitForMaintenance();
    if (!status.ok() && first.ok()) first = status;
  }
  return first;
}

}  // namespace serve
}  // namespace wavekit
