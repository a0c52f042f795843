#include "service/fill_service.hpp"

#include <algorithm>
#include <cstdio>

#include "common/logging.hpp"
#include "common/memory_usage.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "fill/sharded_engine.hpp"
#include "gds/layout_scan.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/fingerprint.hpp"
#include "service/layout_io.hpp"
#include "service/splice.hpp"

namespace ofl::service {

namespace {
using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
}  // namespace

FillService::FillService(ServiceOptions options)
    : options_(options), cache_(options.cacheBytes, options.resultStore) {
  const int jobs = std::max(1, options_.maxConcurrentJobs);
  threadsPerJob_ =
      options_.threadsPerJob > 0
          ? ThreadPool::cappedThreads(options_.threadsPerJob, 0)
          : ThreadPool::cappedThreads(
                0, std::max(1, ThreadPool::hardwareThreads() / jobs));
  scheduler_ = std::make_unique<Scheduler>(jobs, options_.queueCapacity);
}

FillService::~FillService() {
  // Members are destroyed in reverse declaration order: the scheduler goes
  // first and drains every admitted job while jobs_ and cache_ are alive.
}

std::uint64_t FillService::submit(JobSpec spec) {
  auto job = std::make_unique<Job>();
  job->spec = std::move(spec);
  if (job->spec.name.empty()) job->spec.name = job->spec.inputPath;
  const double timeout = job->spec.timeoutSeconds > 0
                             ? job->spec.timeoutSeconds
                             : options_.defaultTimeoutSeconds;
  job->submitTime = Clock::now();
  job->token.armDeadline(timeout);

  Job* raw = job.get();
  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (nextId_ == 0) firstSubmit_ = job->submitTime;
    id = nextId_++;
    job->id = id;
    jobs_.emplace(id, std::move(job));
    ++totals_.submitted;
  }
  if (obs::metricsEnabled()) {
    obs::MetricsRegistry::instance().counter("service.jobs_submitted").add();
  }
  // May block on admission; outside the service mutex so running jobs can
  // publish results meanwhile.
  scheduler_->submit([this, raw] { execute(*raw); });
  return id;
}

FillService::Job* FillService::findLocked(std::uint64_t id) const {
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second.get();
}

JobResult FillService::wait(std::uint64_t id) {
  std::unique_lock<std::mutex> lock(mutex_);
  done_.wait(lock, [&] {
    const Job* job = findLocked(id);
    return job != nullptr && job->done;
  });
  return findLocked(id)->result;
}

bool FillService::waitFor(std::uint64_t id, double seconds) {
  std::unique_lock<std::mutex> lock(mutex_);
  return done_.wait_for(
      lock, std::chrono::duration<double>(seconds > 0 ? seconds : 0.0), [&] {
        const Job* job = findLocked(id);
        return job != nullptr && job->done;
      });
}

bool FillService::cancel(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  Job* job = findLocked(id);
  if (job == nullptr || job->done) return false;
  job->token.cancel();
  return true;
}

std::size_t FillService::cancelAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& [id, job] : jobs_) {
    if (!job->done) {
      job->token.cancel();
      ++n;
    }
  }
  return n;
}

std::vector<JobResult> FillService::waitAll() {
  std::vector<std::uint64_t> ids;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ids.reserve(jobs_.size());
    for (const auto& [id, job] : jobs_) ids.push_back(id);
  }
  std::vector<JobResult> results;
  results.reserve(ids.size());
  for (const std::uint64_t id : ids) results.push_back(wait(id));
  return results;
}

bool FillService::release(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  // A running job's worker still writes into it; only finished jobs go.
  if (it == jobs_.end() || !it->second->done) return false;
  jobs_.erase(it);
  return true;
}

void FillService::execute(Job& job) {
  const Clock::time_point picked = Clock::now();
  const double jid = static_cast<double>(job.id);
  // Queue wait measured service-side (submission -> worker pickup); the
  // scheduler's sched.queue_wait covers admission -> pickup only.
  if (obs::Tracer::enabled()) {
    obs::Tracer& tracer = obs::Tracer::instance();
    const std::uint64_t submitNs = tracer.toEpochNs(job.submitTime);
    const std::uint64_t pickedNs = tracer.toEpochNs(picked);
    obs::completeSpan("job.queue_wait", "job", submitNs,
                      pickedNs > submitNs ? pickedNs - submitNs : 0,
                      {{"job", jid}});
  }
  ScopedLogContext logCtx("job", static_cast<long long>(job.id));
  Timer runTimer;
  JobResult r;
  {
    obs::ScopedSpan span("job.run", "job", {{"job", jid}});
    try {
      job.token.throwIfExpired();  // queued past the deadline / pre-cancelled
      r = runJob(job);
    } catch (const CancelledError&) {
      r = JobResult{};
      if (job.token.cancelled.load(std::memory_order_relaxed)) {
        r.status = JobStatus::kCancelled;
        r.error = "cancelled";
      } else {
        r.status = JobStatus::kTimedOut;
        r.error = "deadline exceeded";
      }
    } catch (const std::exception& e) {
      r = JobResult{};
      r.status = JobStatus::kFailed;
      r.error = e.what();
    }
  }
  r.queueSeconds = secondsBetween(job.submitTime, picked);
  r.runSeconds = runTimer.elapsedSeconds();
  r.peakRssMiB = peakMemoryMiB();
  if (obs::metricsEnabled()) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
    reg.counter("service.jobs_completed").add();
    if (r.status != JobStatus::kSucceeded) {
      reg.counter("service.jobs_failed").add();
    }
    if (r.spliced) reg.counter("service.spliced_hits").add();
    reg.histogram("job.queue_seconds").observe(r.queueSeconds);
    reg.histogram("job.run_seconds").observe(r.runSeconds);
    if (r.status == JobStatus::kSucceeded) {
      reg.histogram("job.load_seconds").observe(r.loadSeconds);
      if (r.outputBytes >= 0) {
        reg.histogram("job.write_seconds").observe(r.writeSeconds);
      }
    }
    reg.gauge("process.peak_rss_mib").set(r.peakRssMiB);
  }
  logFields(LogLevel::kDebug, "job.done",
            {{"status", toString(r.status)},
             {"fills", std::to_string(r.fillCount)},
             {"cache_hit", r.cacheHit ? "1" : "0"}});
  {
    std::lock_guard<std::mutex> lock(mutex_);
    accumulateLocked(r);
    job.result = std::move(r);
    job.done = true;
    lastFinish_ = Clock::now();
  }
  done_.notify_all();
}

JobResult FillService::runJob(Job& job) const {
  const JobSpec& spec = job.spec;
  JobResult r;
  auto fail = [&r](const std::string& message) {
    r.status = JobStatus::kFailed;
    r.error = message;
    return r;
  };

  if (spec.stream) {
    if (spec.kind == JobKind::kEco) {
      return fail("ECO (runIncremental) is not supported with --stream");
    }
    if (spec.compact) return fail("--compact is not supported with --stream");
    if (spec.format == OutputFormat::kOasis) {
      return fail("--format oasis is not supported with --stream");
    }
    if (spec.layout != nullptr || spec.keepLayout) {
      return fail("streamed jobs take file input and output only");
    }
    if (spec.inputPath.empty() || spec.outputPath.empty()) {
      return fail("streamed job requires input and output paths");
    }
    fill::ShardedOptions sharded;
    sharded.engine = spec.engine;
    sharded.engine.numThreads = threadsPerJob_;
    sharded.engine.cancel = &job.token;
    sharded.engine.jobId = static_cast<std::int64_t>(job.id);
    sharded.memBudgetMiB = spec.memBudgetMiB;
    fill::ShardedReport shardedReport;
    std::string error;
    if (!fill::ShardedEngine(sharded).runFile(spec.inputPath, spec.outputPath,
                                              spec.die, &shardedReport,
                                              &error)) {
      return fail(error);
    }
    r.report = shardedReport.fill;
    r.fillCount = shardedReport.fill.fillCount;
    r.outputBytes = shardedReport.outputBytes;
    r.loadSeconds = shardedReport.ingestSeconds;
    r.writeSeconds = shardedReport.outputSeconds;
    r.status = JobStatus::kSucceeded;
    return r;
  }

  const bool eco = spec.kind == JobKind::kEco;
  if (eco && spec.ecoChanged.empty()) {
    return fail("eco job without a changed region");
  }
  fill::FillEngineOptions engine = spec.engine;
  engine.numThreads = threadsPerJob_;
  engine.cancel = &job.token;
  engine.jobId = static_cast<std::int64_t>(job.id);  // telemetry only

  // A file job that writes flat GDSII reads its input once and probes the
  // cache by the raw bytes first: an aliased entry is written by splicing
  // the input's own wire runs (service/splice.hpp), with no parse. Jobs
  // that need the parsed layout, OASIS inputs and a disabled cache load
  // as before.
  const bool splicable = spec.layout == nullptr && !spec.keepLayout &&
                         !spec.outputPath.empty() &&
                         spec.format == OutputFormat::kGds && !spec.compact &&
                         cache_.enabled();
  Timer stage;
  layout::Layout chip({}, 0);
  std::vector<std::uint8_t> input;
  std::optional<std::uint64_t> rawKey;
  std::string error;
  if (spec.layout != nullptr) {
    chip = *spec.layout;
  } else if (splicable && !gds::isOasisFile(spec.inputPath) &&
             readFileBytes(spec.inputPath, &input)) {
    rawKey = rawInputKey(input, engine, spec.die, spec.kind, spec.ecoChanged);
    job.token.throwIfExpired();
    if (const auto hit = cache_.findAlias(*rawKey, input)) {
      r.loadSeconds = stage.elapsedSeconds();
      r.cacheKey = hit->key;
      r.report = hit->entry->report;
      r.cacheHit = true;
      r.spliced = true;
      for (const auto& layer : hit->entry->layers) r.fillCount += layer.count;
      stage.reset();
      r.outputBytes =
          writeSpliced(input, *hit->splice, *hit->entry, spec.outputPath);
      r.writeSeconds = stage.elapsedSeconds();
      if (r.outputBytes < 0) return fail("cannot write " + spec.outputPath);
      r.status = JobStatus::kSucceeded;
      return r;
    }
    if (!loadFlatGds(input, spec.inputPath, spec.die, &chip, &error)) {
      return fail(error);
    }
  } else if (!loadFlatLayout(spec.inputPath, spec.die, &chip, &error)) {
    return fail(error);
  }
  r.loadSeconds = stage.elapsedSeconds();
  // Where the wires just parsed sit in the input, for the alias. The
  // input bytes are not needed past this point: free them before the
  // engine runs.
  std::optional<WireSplice> splice;
  if (rawKey.has_value()) splice = findWireSpans(input, chip);
  std::vector<std::uint8_t>().swap(input);

  // ECO keys cover the input fills and the changed rect on top of the
  // wires+options fingerprint: an incremental result depends on all three.
  r.cacheKey = eco ? ecoCacheKey(chip, engine, spec.ecoChanged)
                   : cacheKey(chip, engine);  // key ignores numThreads/cancel
  job.token.throwIfExpired();

  const auto entry = cache_.find(r.cacheKey);
  if (entry != nullptr && entry->layers.size() ==
                              static_cast<std::size_t>(chip.numLayers())) {
    entry->applyTo(chip);
    r.report = entry->report;
    r.cacheHit = true;
  } else if (eco) {
    r.report = fill::FillEngine(engine).runIncremental(chip, spec.ecoChanged);
    cache_.insert(r.cacheKey, CachedFill::capture(chip, r.report));
  } else {
    r.report = fill::FillEngine(engine).run(chip);  // may throw CancelledError
    cache_.insert(r.cacheKey, CachedFill::capture(chip, r.report));
  }
  if (splice.has_value()) {
    cache_.addAlias(*rawKey, r.cacheKey, std::move(*splice));
  }
  r.fillCount = chip.fillCount();

  if (!spec.outputPath.empty()) {
    stage.reset();
    r.outputBytes =
        writeLayout(chip, spec.outputPath, spec.format, spec.compact);
    r.writeSeconds = stage.elapsedSeconds();
    if (r.outputBytes < 0) return fail("cannot write " + spec.outputPath);
  }
  if (spec.keepLayout) {
    r.layout = std::make_shared<layout::Layout>(std::move(chip));
  }
  r.status = JobStatus::kSucceeded;
  return r;
}

void FillService::accumulateLocked(const JobResult& r) {
  ServiceStats& t = totals_;
  ++t.completed;
  switch (r.status) {
    case JobStatus::kSucceeded: ++t.succeeded; break;
    case JobStatus::kFailed: ++t.failed; break;
    case JobStatus::kTimedOut: ++t.timedOut; break;
    case JobStatus::kCancelled: ++t.cancelled; break;
  }
  t.queueSecondsTotal += r.queueSeconds;
  t.queueSecondsMax = std::max(t.queueSecondsMax, r.queueSeconds);
  t.peakRssMiB = std::max(t.peakRssMiB, r.peakRssMiB);
  if (r.status != JobStatus::kSucceeded) return;
  if (r.cacheHit) {
    ++t.jobCacheHits;
    if (r.spliced) ++t.splicedHits;
  } else {
    t.planningSeconds += r.report.planningSeconds;
    t.candidateSeconds += r.report.candidateSeconds;
    t.sizingSeconds += r.report.sizingSeconds;
    t.engineSeconds += r.report.totalSeconds;
  }
}

ServiceStats FillService::stats() const {
  ServiceStats s;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    s = totals_;
    if (s.completed > 0) {
      s.wallSeconds = secondsBetween(firstSubmit_, lastFinish_);
    }
  }
  s.profile = prof::Registry::instance().snapshot();
  s.cache = cache_.counters();
  const std::uint64_t probes = s.cache.hits + s.cache.misses;
  s.cacheHitRate =
      probes > 0 ? static_cast<double>(s.cache.hits) / static_cast<double>(probes)
                 : 0.0;
  if (s.completed > 0) {
    s.queueSecondsMean =
        s.queueSecondsTotal / static_cast<double>(s.completed);
    if (s.wallSeconds > 0) {
      s.jobsPerSecond = static_cast<double>(s.completed) / s.wallSeconds;
    }
  }
  return s;
}

std::string toJson(const ServiceStats& s) {
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "{\n"
      "  \"jobs\": {\"submitted\": %llu, \"completed\": %llu, "
      "\"succeeded\": %llu, \"failed\": %llu, \"timed_out\": %llu, "
      "\"cancelled\": %llu},\n"
      "  \"throughput\": {\"wall_seconds\": %.4f, \"jobs_per_second\": %.3f},\n"
      "  \"peak_rss_mib\": %.1f,\n"
      "  \"queue_seconds\": {\"total\": %.4f, \"mean\": %.4f, \"max\": %.4f},\n"
      "  \"engine_seconds\": {\"planning\": %.4f, \"candidates\": %.4f, "
      "\"sizing\": %.4f, \"total\": %.4f},\n"
      "  \"cache\": {\"job_hits\": %llu, \"spliced_hits\": %llu, "
      "\"hits\": %llu, \"misses\": %llu, "
      "\"hit_rate\": %.4f, \"insertions\": %llu, \"evictions\": %llu, "
      "\"oversized\": %llu, \"persistent_hits\": %llu, "
      "\"persistent_misses\": %llu, \"entries\": %zu, \"aliases\": %zu, "
      "\"bytes_used\": %zu, \"byte_budget\": %zu}\n"
      "}",
      static_cast<unsigned long long>(s.submitted),
      static_cast<unsigned long long>(s.completed),
      static_cast<unsigned long long>(s.succeeded),
      static_cast<unsigned long long>(s.failed),
      static_cast<unsigned long long>(s.timedOut),
      static_cast<unsigned long long>(s.cancelled), s.wallSeconds,
      s.jobsPerSecond, s.peakRssMiB, s.queueSecondsTotal, s.queueSecondsMean,
      s.queueSecondsMax, s.planningSeconds, s.candidateSeconds,
      s.sizingSeconds, s.engineSeconds,
      static_cast<unsigned long long>(s.jobCacheHits),
      static_cast<unsigned long long>(s.splicedHits),
      static_cast<unsigned long long>(s.cache.hits),
      static_cast<unsigned long long>(s.cache.misses), s.cacheHitRate,
      static_cast<unsigned long long>(s.cache.insertions),
      static_cast<unsigned long long>(s.cache.evictions),
      static_cast<unsigned long long>(s.cache.oversized),
      static_cast<unsigned long long>(s.cache.persistentHits),
      static_cast<unsigned long long>(s.cache.persistentMisses),
      s.cache.entries, s.cache.aliases, s.cache.bytesUsed,
      s.cache.byteBudget);
  std::string out(buf);
  if (!s.profile.empty()) {
    // Splice before the closing brace: ...\n} -> ...,\n  "profile": {...}\n}
    out.insert(out.size() - 2, ",\n  \"profile\": " + s.profile.json());
  }
  return out;
}

void exportToMetrics(const ServiceStats& s) {
  if (!obs::metricsEnabled()) return;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  reg.gauge("service.submitted").set(static_cast<double>(s.submitted));
  reg.gauge("service.completed").set(static_cast<double>(s.completed));
  reg.gauge("service.succeeded").set(static_cast<double>(s.succeeded));
  reg.gauge("service.failed").set(static_cast<double>(s.failed));
  reg.gauge("service.timed_out").set(static_cast<double>(s.timedOut));
  reg.gauge("service.cancelled").set(static_cast<double>(s.cancelled));
  reg.gauge("service.wall_seconds").set(s.wallSeconds);
  reg.gauge("service.jobs_per_second").set(s.jobsPerSecond);
  reg.gauge("service.queue_seconds_mean").set(s.queueSecondsMean);
  reg.gauge("service.queue_seconds_max").set(s.queueSecondsMax);
  reg.gauge("service.engine_seconds").set(s.engineSeconds);
  reg.gauge("service.peak_rss_mib").set(s.peakRssMiB);
  reg.gauge("service.job_cache_hits")
      .set(static_cast<double>(s.jobCacheHits));
  reg.gauge("service.cache_hit_rate").set(s.cacheHitRate);
  // The cache counters below also accumulate live (service/result_cache);
  // the gauges give the authoritative end-of-batch view even when metrics
  // were toggled mid-run.
  reg.gauge("cache.bytes_used").set(static_cast<double>(s.cache.bytesUsed));
  reg.gauge("cache.entries").set(static_cast<double>(s.cache.entries));
}

}  // namespace ofl::service
