#include "bench_util.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/hash.hpp"
#include "common/memory_usage.hpp"
#include "common/thread_pool.hpp"
#include "contest/benchmark_generator.hpp"
#include "contest/evaluator.hpp"
#include "gds/gds_writer.hpp"
#include "service/layout_io.hpp"
#include "service/manifest.hpp"

namespace ofb {

namespace fs = std::filesystem;

double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

void resetPeakRss() {
  // "5" resets VmHWM to the current RSS (Linux >= 4.0).
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

double peakRssMiB() { return ofl::peakMemoryMiB(); }

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const auto idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::uint64_t digestFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> buf(1 << 20);
  ofl::Fnv1a64 h;
  while (in) {
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    h.bytes(buf.data(), static_cast<std::size_t>(in.gcount()));
  }
  return h.digest();
}

long long fileBytes(const std::string& path) {
  std::error_code ec;
  const auto n = fs::file_size(path, ec);
  return ec ? -1 : static_cast<long long>(n);
}

void flushDirtyPages() { ::sync(); }

void freshDir(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

std::string joinPath(const std::string& dir, const std::string& name) {
  return (fs::path(dir) / name).string();
}

std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream,
                         std::uint64_t index) {
  // splitmix64 finalizer over a combination of the three inputs.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xD1B54A32D192ED03ull +
                    index + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

int nproc() { return ofl::ThreadPool::hardwareThreads(); }

ofl::fill::FillEngineOptions engineOptions(int threads) {
  ofl::fill::FillEngineOptions o = ofl::service::defaultEngineOptions();
  o.numThreads = threads;
  return o;
}

std::size_t writeSuiteLayout(const std::string& suite, std::uint64_t genSeed,
                             const std::string& path) {
  ofl::contest::BenchmarkSpec spec = ofl::contest::BenchmarkGenerator::spec(suite);
  spec.seed = genSeed;
  const ofl::layout::Layout chip = ofl::contest::BenchmarkGenerator::generate(spec);
  if (ofl::gds::Writer::writeFile(chip.toGds(), path) < 0) return 0;
  return chip.wireCount();
}

std::string gdsBytes(const ofl::layout::Layout& layout) {
  const std::vector<std::uint8_t> bytes =
      ofl::gds::Writer::serialize(layout.toGds());
  return std::string(bytes.begin(), bytes.end());
}

QualityCheck evaluateQuality(const ofl::layout::Layout& layout,
                             const std::string& suite) {
  const ofl::fill::FillEngineOptions o = engineOptions(1);
  const ofl::contest::Evaluator evaluator(
      o.windowSize, ofl::contest::scoreTableFor(suite), o.rules);
  const ofl::contest::RawMetrics raw = evaluator.measure(layout);
  // Runtime and memory do not enter Testcase Quality; pass zeros.
  const ofl::contest::ScoreBreakdown s = evaluator.score(raw, 0.0, 0.0);
  return {s.quality, raw.drcViolations};
}

bool evaluateFile(const std::string& path, const std::string& suite,
                  QualityCheck* out) {
  ofl::layout::Layout chip;
  std::string error;
  if (!ofl::service::loadFlatLayout(path, std::nullopt, &chip, &error)) {
    return false;
  }
  *out = evaluateQuality(chip, suite);
  return true;
}

void Result::fail(const std::string& why) {
  correct = false;
  note("CHECK FAILED: %s", why.c_str());
}

std::string Result::toJson() const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    out << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << v
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

void note(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::vfprintf(stderr, fmt, ap);
  va_end(ap);
  std::fputc('\n', stderr);
}

}  // namespace ofb
