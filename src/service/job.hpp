// Batch fill service: job description and result types.
//
// A JobSpec names one fill run — an input layout (file path or in-memory),
// the engine options that shape the solution, an optional per-job deadline
// and an optional output file. The service executes jobs with bounded
// concurrency (service/scheduler.hpp) and consults a content-addressed
// result cache (service/result_cache.hpp) before running the engine.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "fill/fill_engine.hpp"
#include "layout/layout.hpp"

namespace ofl::service {

/// Output serialization of a job (mirrors `openfill fill --format/--compact`).
enum class OutputFormat { kGds, kOasis };

/// What the service runs for this job. kFill replaces any existing fills
/// with a fresh solution; kEco expects the input layout to already carry a
/// fill solution whose wires changed only inside `ecoChanged` and repairs
/// just the affected windows (FillEngine::runIncremental).
enum class JobKind { kFill, kEco };

struct JobSpec {
  /// Label used in reports; defaults to the input path when empty.
  std::string name;

  JobKind kind = JobKind::kFill;
  /// ECO jobs only: the region the wires changed in. The cache key of an
  /// ECO job covers the input fills and this rect on top of the usual
  /// wires+options fingerprint, since the result depends on both.
  geom::Rect ecoChanged;

  /// Input: either a layout file (GDS or OFL-OASIS, auto-detected) ...
  std::string inputPath;
  /// ... or an in-memory layout (takes precedence when set). Shared so a
  /// manifest of repeated inputs does not copy until the job runs.
  std::shared_ptr<const layout::Layout> layout;
  /// Die override for file inputs; default is the shape bounding box.
  std::optional<geom::Rect> die;

  /// Engine options. numThreads and cancel are overwritten by the service
  /// (per-job thread cap, per-job cancellation token).
  fill::FillEngineOptions engine;

  /// Per-job deadline in seconds from submission; <= 0 uses the service
  /// default (ServiceOptions::defaultTimeoutSeconds, 0 = none).
  double timeoutSeconds = 0.0;

  /// When non-empty the filled layout is written here.
  std::string outputPath;
  OutputFormat format = OutputFormat::kGds;
  bool compact = false;  // AREF-compacted GDS (layout::toCompactGds)

  /// Run through the bounded-memory sharded pipeline (fill::ShardedEngine,
  /// `openfill fill --stream`): file in, file out, byte-identical to the
  /// in-memory path. Requires inputPath and outputPath; incompatible with
  /// kEco, compact, OASIS output, in-memory layout input, keepLayout and
  /// the result cache (streamed jobs always run).
  bool stream = false;
  /// Peak-memory target for streamed jobs (`--mem-budget-mb`).
  std::size_t memBudgetMiB = 512;

  /// Keep the filled layout in JobResult::layout (for in-process callers
  /// that want the geometry, e.g. bench_throughput).
  bool keepLayout = false;
};

enum class JobStatus {
  kSucceeded,
  kFailed,     // load/engine/write error; see JobResult::error
  kTimedOut,   // deadline expired (queued too long or cancelled mid-run)
  kCancelled,  // FillService::cancel
};

struct JobResult {
  JobStatus status = JobStatus::kFailed;
  std::string error;

  fill::FillReport report;  // the producing run's report (cached on a hit)
  std::size_t fillCount = 0;
  bool cacheHit = false;
  /// A cache hit written by splicing the input's own wire records
  /// (service/splice.hpp) without parsing it; implies cacheHit.
  bool spliced = false;
  std::uint64_t cacheKey = 0;

  long long outputBytes = -1;  // bytes written, -1 when no output requested
  double queueSeconds = 0.0;   // submission -> job picked by a worker
  double runSeconds = 0.0;     // load + cache lookup + engine + write
  /// The load and write stages inside runSeconds: input parse (or the
  /// copy of an in-memory layout; the streamed ingest for --stream jobs;
  /// on spliced hits the raw read, hash and alias probe) and output
  /// encode + write (on spliced hits the splice write; 0 when no output
  /// was requested).
  double loadSeconds = 0.0;
  double writeSeconds = 0.0;
  /// Process peak RSS (MiB) sampled when the job finished. Jobs share one
  /// address space, so this is a high-water mark "as of job completion",
  /// not a per-job allocation figure.
  double peakRssMiB = 0.0;

  /// Filled layout when JobSpec::keepLayout was set and the job succeeded.
  std::shared_ptr<const layout::Layout> layout;
};

inline const char* toString(JobStatus s) {
  switch (s) {
    case JobStatus::kSucceeded: return "ok";
    case JobStatus::kFailed: return "failed";
    case JobStatus::kTimedOut: return "timeout";
    case JobStatus::kCancelled: return "cancelled";
  }
  return "?";
}

}  // namespace ofl::service
