// Shared helpers of the openfill benchmark program: clocks, process
// counters, order statistics, file digests and the result record every
// workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "fill/fill_engine.hpp"
#include "layout/layout.hpp"

namespace ofb {

/// Wall clock for spans the benchmark records around library calls.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Process user + system CPU seconds so far (all threads).
double cpuSeconds();
/// Resets the kernel's peak-RSS mark to the current RSS, so a later
/// peakRssMiB() covers only what ran in between.
void resetPeakRss();
/// Peak RSS since the last reset (or process start), MiB.
double peakRssMiB();

/// Nearest-rank quantile (q in [0,1]) of unsorted samples; 0 when empty.
double quantile(std::vector<double> samples, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

std::string readFile(const std::string& path);
/// FNV-1a digest of a file's bytes, read in chunks.
std::uint64_t digestFile(const std::string& path);
long long fileBytes(const std::string& path);
/// Writes every dirty page back to disk, so a timed phase does not pay
/// for write-back of files written before it.
void flushDirtyPages();
/// Removes `dir` and everything in it, then creates it empty.
void freshDir(const std::string& dir);
std::string joinPath(const std::string& dir, const std::string& name);

/// Independent 64-bit stream derived from the workload seed: inputs of
/// one seed never depend on how many of another kind were drawn.
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream,
                         std::uint64_t index);

/// Threads the benchmark loads the machine with (one per core).
int nproc();

/// Engine options every workload fills with: the CLI/daemon defaults
/// (suite rules, 1200-DBU windows) at `threads` workers.
ofl::fill::FillEngineOptions engineOptions(int threads);

/// Generates the wires of `suite` with generator seed `genSeed` and
/// writes them as GDSII; returns the wire count (0 on a write failure).
std::size_t writeSuiteLayout(const std::string& suite, std::uint64_t genSeed,
                             const std::string& path);
/// Serialized GDSII bytes of a layout, as `openfill fill` writes them.
std::string gdsBytes(const ofl::layout::Layout& layout);

/// Testcase Quality (ICCAD'14 Eqns. 3-4 without the runtime and memory
/// terms) and DRC violation count of a filled layout under `suite`'s
/// score table.
struct QualityCheck {
  double quality = 0.0;
  std::size_t drcViolations = 0;
};
QualityCheck evaluateQuality(const ofl::layout::Layout& layout,
                             const std::string& suite);
/// The same for a filled GDSII file; false when it cannot be loaded.
bool evaluateFile(const std::string& path, const std::string& suite,
                  QualityCheck* out);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark invocation reports: the last stdout line.
struct Result {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records a failed correctness check (logged to stderr).
  void fail(const std::string& why);
  std::string toJson() const;
};

/// Logs to stderr (stdout carries only the result line).
void note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace ofb
