#include "serve/server.hpp"

#include <cstdio>
#include <stdexcept>

#include "common/json_util.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/frame.hpp"
#include "service/layout_io.hpp"
#include "service/manifest.hpp"
#include "verify/invariants.hpp"

namespace ofl::serve {

namespace {

// Handler poll granularity: how often a job-waiting handler checks the
// socket for a disconnect, and an idle handler checks for drain.
constexpr double kPollSliceSeconds = 0.1;

// Spans kept per recording thread. The daemon traces every request; an
// unbounded buffer grew by about 5 KB per request served on serve_mixed's
// suite-s/b mix. 16 Ki events (1.5 MiB) hold the last jobs of each worker.
constexpr std::size_t kTraceEventsPerThread = 16384;

void bumpCounter(const char* name) {
  obs::MetricsRegistry::instance().counter(name).add();
}

// serve.clients: clients with at least one job in flight.
void publishActiveClients(std::size_t n) {
  obs::MetricsRegistry::instance().gauge("serve.clients").set(
      static_cast<double>(n));
}

}  // namespace

Server::Server(ServeConfig config) : config_(std::move(config)) {}

Server::~Server() { drain(); }

double Server::frameTimeout() const {
  std::lock_guard<std::mutex> lock(configMutex_);
  return config_.frameTimeoutSeconds;
}
double Server::writeTimeout() const {
  std::lock_guard<std::mutex> lock(configMutex_);
  return config_.writeTimeoutSeconds;
}
double Server::idleTimeout() const {
  std::lock_guard<std::mutex> lock(configMutex_);
  return config_.idleTimeoutSeconds;
}
std::size_t Server::maxFrame() const {
  std::lock_guard<std::mutex> lock(configMutex_);
  return config_.maxFrameBytes;
}
int Server::maxInflightPerClient() const {
  std::lock_guard<std::mutex> lock(configMutex_);
  return config_.maxInflightPerClient;
}
double Server::defaultJobTimeout() const {
  std::lock_guard<std::mutex> lock(configMutex_);
  return config_.defaultTimeoutSeconds;
}

bool Server::start(std::string* error) {
  if (running_.load()) {
    *error = "server already started";
    return false;
  }
  if (!config_.cacheDir.empty()) {
    persist_ = std::make_unique<PersistentCache>(config_.cacheDir,
                                                 config_.persistentCacheBytes);
    if (!persist_->ok()) {
      *error = "persistent cache: " + persist_->error();
      return false;
    }
  }
  service::ServiceOptions sopts;
  sopts.maxConcurrentJobs = config_.jobs;
  sopts.threadsPerJob = config_.threadsPerJob;
  sopts.cacheBytes = config_.cacheBytes;
  sopts.defaultTimeoutSeconds = 0.0;  // deadlines applied per job spec
  sopts.queueCapacity = config_.queueCapacity;
  sopts.resultStore = persist_.get();
  service_ = std::make_unique<service::FillService>(sopts);

  listenFd_ = listenOn(config_.host, config_.port, &port_, error);
  if (!listenFd_.valid()) return false;

  // The daemon always collects metrics and spans: stats/metrics/trace
  // requests must work without a restart.
  obs::MetricsRegistry::instance().setEnabled(true);
  obs::registerCoreSeries();
  auto& reg = obs::MetricsRegistry::instance();
  reg.counter("serve.connections_accepted");
  reg.counter("serve.connections_rejected");
  reg.counter("serve.requests");
  reg.counter("serve.bad_frames");
  reg.counter("serve.jobs_submitted");
  reg.counter("serve.jobs_rejected");
  reg.counter("serve.jobs_cancelled_by_disconnect");
  reg.gauge("serve.active_connections");
  reg.gauge("serve.clients");
  reg.gauge("serve.cache.persistent_hit_ratio");
  reg.histogram("serve.queue_seconds");
  obs::Tracer::instance().setPerThreadCapacity(kTraceEventsPerThread);
  obs::Tracer::instance().setEnabled(true);

  running_.store(true);
  acceptThread_ = std::thread([this] { acceptLoop(); });
  return true;
}

void Server::acceptLoop() {
  while (!draining_.load(std::memory_order_acquire)) {
    const int ready = waitReadable(listenFd_.get(), kPollSliceSeconds);
    if (ready < 0) break;
    if (ready == 0) {
      std::lock_guard<std::mutex> lock(mutex_);
      reapFinishedLocked();
      continue;
    }
    Fd client = acceptOn(listenFd_.get());
    if (!client.valid()) continue;
    std::lock_guard<std::mutex> lock(mutex_);
    reapFinishedLocked();
    if (draining_.load(std::memory_order_acquire) ||
        connections_.size() >= static_cast<std::size_t>(config_.maxConnections)) {
      ++counters_.connectionsRejected;
      bumpCounter("serve.connections_rejected");
      const std::string err = errorResponse(
          draining_.load() ? "server is draining" : "too many connections",
          /*rejected=*/true, /*draining=*/draining_.load());
      std::string detail;
      writeFrame(client.get(), err, writeTimeout(), &detail);
      continue;  // client Fd closes on scope exit
    }
    ++counters_.connectionsAccepted;
    bumpCounter("serve.connections_accepted");
    auto conn = std::make_unique<Conn>();
    conn->fd = std::move(client);
    Conn* raw = conn.get();
    connections_.push_back(std::move(conn));
    obs::MetricsRegistry::instance().gauge("serve.active_connections")
        .set(static_cast<double>(connections_.size()));
    raw->thread = std::thread([this, raw] { handleConnection(raw); });
  }
}

void Server::reapFinishedLocked() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
  obs::MetricsRegistry::instance().gauge("serve.active_connections")
      .set(static_cast<double>(connections_.size()));
}

void Server::handleConnection(Conn* conn) {
  const int fd = conn->fd.get();
  double idleFor = 0.0;
  while (true) {
    if (draining_.load(std::memory_order_acquire)) break;
    const int ready = waitReadable(fd, kPollSliceSeconds);
    if (ready < 0) break;  // hangup/error with nothing to read
    if (ready == 0) {
      idleFor += kPollSliceSeconds;
      const double limit = idleTimeout();
      if (limit > 0 && idleFor >= limit) break;
      continue;
    }
    idleFor = 0.0;
    std::string payload;
    std::string detail;
    const FrameStatus st =
        readFrame(fd, &payload, frameTimeout(), maxFrame(), &detail);
    if (st == FrameStatus::kEof) break;
    if (st != FrameStatus::kOk) {
      // Malformed/oversized/stalled frame: best-effort error frame, then
      // close — resynchronizing a byte stream after a bad length prefix
      // is not possible.
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++counters_.badFrames;
      }
      bumpCounter("serve.bad_frames");
      std::string msg = std::string("bad frame: ") + toString(st);
      if (!detail.empty()) msg += " (" + detail + ")";
      writeFrame(fd, errorResponse(msg), writeTimeout(), nullptr);
      break;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++counters_.requests;
    }
    bumpCounter("serve.requests");

    std::string response;
    std::string parseError;
    const auto req = Request::parse(payload, &parseError);
    if (!req.has_value()) {
      response = errorResponse(parseError);
    } else {
      response = dispatch(*req, fd);
    }
    if (response.empty()) break;  // client vanished mid-job; just close
    if (!writeFrame(fd, response, writeTimeout(), &detail)) break;
  }
  shutdownWrite(fd);
  conn->done.store(true, std::memory_order_release);
}

std::string Server::dispatch(const Request& req, int fd) {
  switch (req.type) {
    case Request::Type::kPing:
      return okResponse();
    case Request::Type::kFill:
    case Request::Type::kEco:
      return runJobRequest(req, fd);
    case Request::Type::kCheck:
      return runCheckRequest(req);
    case Request::Type::kStats:
      return wrapRawJson("stats", statsJson());
    case Request::Type::kMetrics: {
      service::exportToMetrics(service_->stats());
      obs::updateProcessGauges();
      return wrapText("metrics",
                      obs::MetricsRegistry::instance().snapshot().prometheus());
    }
    case Request::Type::kMetricsJson: {
      service::exportToMetrics(service_->stats());
      obs::updateProcessGauges();
      return wrapRawJson("metrics",
                         obs::MetricsRegistry::instance().snapshot().json());
    }
    case Request::Type::kTrace:
      return wrapRawJson("spans", traceJson(req.jobId));
    case Request::Type::kReload:
      return wrapText("reload", reload());
    case Request::Type::kShutdown:
      shutdownRequested_.store(true, std::memory_order_release);
      return okResponse();
  }
  return errorResponse("unhandled request type");
}

std::string Server::runJobRequest(const Request& req, int fd) {
  if (draining_.load(std::memory_order_acquire)) {
    return errorResponse("server is draining", /*rejected=*/true,
                         /*draining=*/true);
  }
  const service::ManifestParse parsed = service::parseManifestText(req.spec);
  if (!parsed.ok() || parsed.jobs.size() != 1) {
    std::string msg = "bad job spec";
    if (!parsed.errors.empty()) msg += ": " + parsed.errors.front().message;
    return errorResponse(msg);
  }
  service::JobSpec spec = parsed.jobs.front();
  if (req.type == Request::Type::kEco) {
    spec.kind = service::JobKind::kEco;
    spec.ecoChanged = req.changed;
  }
  if (req.timeoutSeconds > 0) {
    spec.timeoutSeconds = req.timeoutSeconds;
  } else if (spec.timeoutSeconds <= 0) {
    spec.timeoutSeconds = defaultJobTimeout();
  }

  // Client names come from the peer, so per-client state lives only while
  // the client has a job in flight and never reaches a metric name.
  const std::string client = req.client.empty() ? "anon" : req.client;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = inflightByClient_.find(client);
    const int inflight = it == inflightByClient_.end() ? 0 : it->second;
    if (inflight >= maxInflightPerClient()) {
      ++counters_.jobsRejected;
      bumpCounter("serve.jobs_rejected");
      return errorResponse("client \"" + client +
                               "\" is at its in-flight job limit",
                           /*rejected=*/true);
    }
    ++inflightByClient_[client];
    ++counters_.jobsSubmitted;
    publishActiveClients(inflightByClient_.size());
  }
  bumpCounter("serve.jobs_submitted");

  const std::uint64_t id = service_->submit(std::move(spec));

  // Poll the job AND the socket: a disconnected client cancels its job.
  // Not during drain — drain shuts the read side of every connection
  // down (which looks like EOF to peerClosed) but expects the in-flight
  // job's cancelled response to still be delivered.
  bool clientGone = false;
  while (!service_->waitFor(id, kPollSliceSeconds)) {
    if (!clientGone && !draining_.load(std::memory_order_acquire) &&
        peerClosed(fd)) {
      clientGone = true;
      if (service_->cancel(id)) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++counters_.jobsCancelledByDisconnect;
        bumpCounter("serve.jobs_cancelled_by_disconnect");
      }
    }
  }
  const service::JobResult r = service_->wait(id);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = inflightByClient_.find(client);
    if (--it->second == 0) inflightByClient_.erase(it);
    publishActiveClients(inflightByClient_.size());
  }
  obs::MetricsRegistry::instance()
      .histogram("serve.queue_seconds")
      .observe(r.queueSeconds);
  // The result is copied out, so the service can free the job now: a
  // daemon holds only the jobs in flight.
  service_->release(id);
  const service::ResultCache::Counters cache = service_->cacheCounters();
  const std::uint64_t pProbes = cache.persistentHits + cache.persistentMisses;
  obs::MetricsRegistry::instance()
      .gauge("serve.cache.persistent_hit_ratio")
      .set(pProbes > 0 ? static_cast<double>(cache.persistentHits) /
                             static_cast<double>(pProbes)
                       : 0.0);
  if (clientGone) return "";  // nobody to answer; caller closes

  JobResponse resp;
  resp.jobId = id;
  resp.status = r.status;
  resp.error = r.error;
  resp.fills = r.fillCount;
  resp.cacheHit = r.cacheHit;
  resp.spliced = r.spliced;
  resp.cacheKey = r.cacheKey;
  resp.queueSeconds = r.queueSeconds;
  resp.runSeconds = r.runSeconds;
  resp.loadSeconds = r.loadSeconds;
  resp.writeSeconds = r.writeSeconds;
  resp.outputBytes = r.outputBytes;
  resp.ecoWindowsSkipped = r.report.ecoWindowsSkipped;
  return toJson(resp);
}

std::string Server::runCheckRequest(const Request& req) {
  const service::ManifestParse parsed = service::parseManifestText(req.spec);
  if (!parsed.ok() || parsed.jobs.size() != 1) {
    std::string msg = "bad check spec";
    if (!parsed.errors.empty()) msg += ": " + parsed.errors.front().message;
    return errorResponse(msg);
  }
  const service::JobSpec& spec = parsed.jobs.front();
  layout::Layout chip;
  std::string error;
  if (!service::loadFlatLayout(spec.inputPath, spec.die, &chip, &error)) {
    return errorResponse("check: " + error);
  }
  verify::InvariantChecker::Options vopts;
  vopts.engine = spec.engine;
  vopts.suite = req.suite;
  vopts.checkDeterminism = req.determinism;
  verify::VerifyReport report;
  try {
    report = verify::InvariantChecker(vopts).check(chip);
  } catch (const std::invalid_argument& e) {  // e.g. an unknown suite
    return errorResponse(std::string("check: ") + e.what());
  }
  std::string out = "{\"ok\":";
  out += report.ok() ? "true" : "false";
  out += ",\"report\":";
  out += verify::toJson(report);
  out += '}';
  return out;
}

std::string Server::statsJson() {
  const Counters c = counters();
  std::string out = "{\"service\":";
  out += service::toJson(service_->stats());
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      ",\"serve\":{\"connectionsAccepted\":%llu,\"connectionsRejected\":%llu,"
      "\"requests\":%llu,\"badFrames\":%llu,\"jobsSubmitted\":%llu,"
      "\"jobsRejected\":%llu,\"jobsCancelledByDisconnect\":%llu,"
      "\"activeConnections\":%zu,\"activeClients\":%zu,\"draining\":%s}",
      static_cast<unsigned long long>(c.connectionsAccepted),
      static_cast<unsigned long long>(c.connectionsRejected),
      static_cast<unsigned long long>(c.requests),
      static_cast<unsigned long long>(c.badFrames),
      static_cast<unsigned long long>(c.jobsSubmitted),
      static_cast<unsigned long long>(c.jobsRejected),
      static_cast<unsigned long long>(c.jobsCancelledByDisconnect),
      c.activeConnections, c.activeClients, draining() ? "true" : "false");
  out += buf;
  if (persist_ != nullptr) {
    const PersistentCache::Counters p = persist_->counters();
    std::snprintf(
        buf, sizeof(buf),
        ",\"persistent\":{\"loads\":%llu,\"loadHits\":%llu,\"stores\":%llu,"
        "\"evictions\":%llu,\"quarantined\":%llu,\"entries\":%zu,"
        "\"bytesUsed\":%zu,\"byteBudget\":%zu}",
        static_cast<unsigned long long>(p.loads),
        static_cast<unsigned long long>(p.loadHits),
        static_cast<unsigned long long>(p.stores),
        static_cast<unsigned long long>(p.evictions),
        static_cast<unsigned long long>(p.quarantined), p.entries, p.bytesUsed,
        p.byteBudget);
    out += buf;
  }
  out += '}';
  return out;
}

std::string Server::traceJson(std::int64_t jobId) const {
  // Spans recorded for one job: every event whose "job" arg matches.
  const auto events = obs::Tracer::instance().collect();
  std::string out = "[";
  bool first = true;
  char buf[160];
  for (const auto& ce : events) {
    const obs::TraceEvent& e = ce.event;
    bool match = false;
    for (int i = 0; i < e.argCount; ++i) {
      if (std::string(e.argKeys[i]) == "job" &&
          e.argValues[i] == static_cast<double>(jobId)) {
        match = true;
        break;
      }
    }
    if (!match) continue;
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    json::appendEscaped(out, e.name);
    out += "\",\"cat\":\"";
    json::appendEscaped(out, e.cat);
    std::snprintf(buf, sizeof(buf),
                  "\",\"ph\":\"%c\",\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f",
                  e.phase, ce.tid, static_cast<double>(e.startNs) / 1e3,
                  static_cast<double>(e.durNs) / 1e3);
    out += buf;
    if (e.argCount > 0) {
      out += ",\"args\":{";
      for (int i = 0; i < e.argCount; ++i) {
        if (i > 0) out += ',';
        out += '"';
        json::appendEscaped(out, e.argKeys[i]);
        out += "\":";
        json::appendNumber(out, e.argValues[i]);
      }
      out += '}';
    }
    out += '}';
  }
  out += ']';
  return out;
}

std::string Server::reload() {
  std::string path;
  {
    std::lock_guard<std::mutex> lock(configMutex_);
    path = config_.configPath;
  }
  if (path.empty()) return "no config file to reload";
  ServeConfig fresh;
  std::vector<std::string> errors;
  if (!ServeConfig::loadFile(path, &fresh, &errors)) {
    return errors.empty() ? "reload failed" : errors.front();
  }
  std::string summary;
  {
    std::lock_guard<std::mutex> lock(configMutex_);
    summary = config_.applyHotReload(fresh);
  }
  for (const std::string& e : errors) summary += "; warning: " + e;
  return summary;
}

void Server::drain() {
  if (!running_.exchange(false)) return;
  draining_.store(true, std::memory_order_release);
  // Cancel queued + running jobs so handlers unblock quickly; their
  // clients see status "cancelled".
  if (service_ != nullptr) service_->cancelAll();
  // Nudge handlers blocked waiting for a request.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& conn : connections_) shutdownRead(conn->fd.get());
  }
  if (acceptThread_.joinable()) acceptThread_.join();
  listenFd_.reset();
  // Handlers observe draining_ / read EOF and finish; join them all.
  while (true) {
    std::unique_ptr<Conn> victim;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (connections_.empty()) break;
      victim = std::move(connections_.front());
      connections_.pop_front();
    }
    if (victim->thread.joinable()) victim->thread.join();
  }
  // The persistent cache is write-through: every result already sits on
  // disk, so "flush" is a no-op by construction.
}

Server::Counters Server::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Counters c = counters_;
  c.activeConnections = connections_.size();
  c.activeClients = inflightByClient_.size();
  return c;
}

}  // namespace ofl::serve
