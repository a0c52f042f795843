// FillService: the batch fill facade.
//
// submit() admits jobs through the bounded scheduler queue; each job loads
// its layout, probes the result cache by content hash, runs the FillEngine
// on a miss (capped at threads-per-job workers, cancellable on deadline),
// writes its output file, and publishes a JobResult. A file job with flat
// GDSII output first probes by the hash of its raw input bytes: a hit
// there is written by splicing the input's wire records
// (service/splice.hpp) and skips the parse. wait()/waitAll()
// surface results in deterministic submission order regardless of
// completion order; release() frees a finished job once its caller is
// done with it, so a long-lived daemon holds only the jobs in flight.
// stats() reports running totals of throughput, queue latency, per-stage
// engine seconds and cache behavior, which release() does not reset.
//
// Output determinism: a job's bytes depend only on its own spec — never on
// the concurrency settings. Engine runs are thread-count-invariant (PR-1
// contract) and a cache hit replays fills captured from an identical-key
// run, so `batch --jobs N --threads-per-job M` equals N sequential
// `openfill fill` runs byte for byte.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "common/prof.hpp"
#include "service/job.hpp"
#include "service/result_cache.hpp"
#include "service/scheduler.hpp"

namespace ofl::service {

struct ServiceOptions {
  /// Concurrent jobs (`openfill batch --jobs`).
  int maxConcurrentJobs = 1;
  /// Engine threads per job (`--threads-per-job`); 0 splits the hardware
  /// cores evenly across concurrent jobs (floor 1).
  int threadsPerJob = 0;
  /// Result-cache byte budget (`--cache-mb`, here in bytes); 0 disables.
  std::size_t cacheBytes = 64ull << 20;
  /// Default per-job deadline in seconds; 0 = none.
  double defaultTimeoutSeconds = 0.0;
  /// Admitted-but-not-started jobs before submit() blocks.
  std::size_t queueCapacity = 64;
  /// Optional persistent second-level result store (caller-owned, must
  /// outlive the service); see ResultCache. The daemon plugs the on-disk
  /// cache (serve/persistent_cache) in here so results survive restarts.
  ResultStore* resultStore = nullptr;
};

struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  std::uint64_t timedOut = 0;
  std::uint64_t cancelled = 0;

  double wallSeconds = 0.0;     // first submit -> last completion
  double jobsPerSecond = 0.0;   // completed / wallSeconds
  double queueSecondsTotal = 0.0;
  double queueSecondsMax = 0.0;
  double queueSecondsMean = 0.0;

  // Per-stage engine seconds summed over non-cached successful runs.
  double planningSeconds = 0.0;
  double candidateSeconds = 0.0;
  double sizingSeconds = 0.0;
  double engineSeconds = 0.0;  // sum of FillReport::totalSeconds

  std::uint64_t jobCacheHits = 0;  // successful jobs served from cache
  std::uint64_t splicedHits = 0;   // ... of which spliced, with no parse
  ResultCache::Counters cache;
  double cacheHitRate = 0.0;  // cache.hits / (hits + misses)

  /// Highest process peak RSS (MiB) observed at any job completion; covers
  /// the whole batch since jobs share one address space.
  double peakRssMiB = 0.0;

  /// Hot-path profile over every engine run the process executed since the
  /// caller's last prof::Registry::reset() (the registry is global, so
  /// concurrent jobs aggregate into one table). Empty unless collection
  /// was enabled (`openfill batch --profile`).
  prof::Snapshot profile;
};

/// Renders stats as a JSON object (used by `openfill batch --json` and
/// bench_throughput).
std::string toJson(const ServiceStats& stats);

/// Mirrors the stats into the unified metrics registry as service.* gauges
/// (no-op when collection is off). Called by the CLI before a metrics
/// snapshot is written so `--metrics-out` carries the batch summary.
void exportToMetrics(const ServiceStats& stats);

class FillService {
 public:
  explicit FillService(ServiceOptions options);
  /// Drains: outstanding jobs finish before destruction returns.
  ~FillService();

  FillService(const FillService&) = delete;
  FillService& operator=(const FillService&) = delete;

  /// Admits a job; blocks while the admission queue is full. Returns the
  /// job id (dense, counting from 0 in submission order).
  std::uint64_t submit(JobSpec spec);

  /// Blocks until job `id` finishes and returns its result.
  JobResult wait(std::uint64_t id);

  /// Waits up to `seconds` for job `id` to finish. Returns true when done
  /// (wait(id) then returns immediately); the daemon uses this to poll a
  /// job while also watching the client socket for disconnects.
  bool waitFor(std::uint64_t id, double seconds);

  /// Requests cooperative cancellation. Returns true if the job had not
  /// finished (it will surface as kCancelled once a checkpoint notices);
  /// false when already done.
  bool cancel(std::uint64_t id);

  /// Cancels every job that has not finished (graceful drain: queued jobs
  /// surface as kCancelled immediately on pickup, running jobs unwind at
  /// their next checkpoint). Returns the number of jobs cancelled.
  std::size_t cancelAll();

  /// Waits for every job not yet released; results in job id order, i.e.
  /// in submission order (indexed by job id when none was released).
  std::vector<JobResult> waitAll();

  /// Frees finished job `id` (spec, result, token): later wait/waitFor/
  /// cancel calls must not name it. Returns false, and keeps the job, when
  /// it is unknown or not finished. Its stats() totals stay counted.
  bool release(std::uint64_t id);

  ServiceStats stats() const;
  /// The result cache's counters alone: unlike stats(), no profile
  /// snapshot and no service mutex.
  ResultCache::Counters cacheCounters() const { return cache_.counters(); }

  const ServiceOptions& options() const { return options_; }
  /// Resolved engine threads each job runs with.
  int threadsPerJob() const { return threadsPerJob_; }

 private:
  struct Job {
    std::uint64_t id = 0;
    JobSpec spec;
    CancelToken token;
    std::chrono::steady_clock::time_point submitTime;
    JobResult result;
    bool done = false;
  };

  void execute(Job& job);
  JobResult runJob(Job& job) const;
  /// Adds finished result `r` to totals_; mutex_ must be held.
  void accumulateLocked(const JobResult& r);
  /// The held job with this id, or null (unknown or released); mutex_
  /// must be held.
  Job* findLocked(std::uint64_t id) const;

  ServiceOptions options_;
  int threadsPerJob_ = 1;
  mutable ResultCache cache_;

  mutable std::mutex mutex_;
  std::condition_variable done_;
  std::map<std::uint64_t, std::unique_ptr<Job>> jobs_;  // not yet released
  std::uint64_t nextId_ = 0;
  /// Running totals, updated as each job finishes: every ServiceStats field
  /// but the derived means and rates, the cache counters and the profile.
  ServiceStats totals_;
  std::chrono::steady_clock::time_point firstSubmit_;
  std::chrono::steady_clock::time_point lastFinish_;

  // Last member: its destructor drains workers while the rest of the
  // service (jobs_, cache_) is still alive for them to write into.
  std::unique_ptr<Scheduler> scheduler_;
};

}  // namespace ofl::service
