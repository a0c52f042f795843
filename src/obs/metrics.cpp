#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/json_util.hpp"
#include "common/memory_usage.hpp"
#include "common/prof.hpp"

namespace ofl::obs {

namespace {

// Relaxed CAS add/min/max for atomic<double> (no fetch_add for doubles).
void atomicAdd(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + v,
                                       std::memory_order_relaxed)) {
  }
}
void atomicMin(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (v < cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}
void atomicMax(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (v > cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto bucket =
      static_cast<std::size_t>(std::distance(bounds_.begin(), it));
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomicAdd(sum_, v);
  atomicMin(min_, v);
  atomicMax(max_, v);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.bounds = bounds_;
  s.counts.reserve(counts_.size());
  for (const auto& c : counts_) {
    s.counts.push_back(c.load(std::memory_order_relaxed));
  }
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  if (s.count > 0) {
    s.min = min_.load(std::memory_order_relaxed);
    s.max = max_.load(std::memory_order_relaxed);
  }
  return s;
}

void Histogram::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

double Histogram::Snapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::uint64_t inBucket = counts[i];
    if (inBucket == 0) continue;
    if (static_cast<double>(cumulative + inBucket) >= rank) {
      // Interpolate inside bucket i. Bucket range: (lo, hi] where lo is
      // the previous bound (or the observed min for the first used
      // bucket) and hi the bound (or observed max for the +Inf bucket).
      const double lo = i == 0 ? min : bounds[i - 1];
      const double hi = i < bounds.size() ? std::min(bounds[i], max) : max;
      const double within =
          (rank - static_cast<double>(cumulative)) /
          static_cast<double>(inBucket);
      return lo + (std::max(hi, lo) - lo) * std::clamp(within, 0.0, 1.0);
    }
    cumulative += inBucket;
  }
  return max;
}

std::vector<double> Histogram::latencyBounds() {
  return {1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2,
          5e-2, 0.1,    0.25, 0.5,  1.0,    2.5,  5.0,  10.0,
          30.0, 60.0,   120.0, 300.0};
}

std::vector<double> Histogram::unitBounds() {
  std::vector<double> bounds;
  bounds.reserve(20);
  for (int i = 1; i <= 20; ++i) bounds.push_back(0.05 * i);
  return bounds;
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot s;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, c] : counters_) s.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) s.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramData d;
    d.data = h->snapshot();
    d.p50 = d.data.quantile(0.50);
    d.p95 = d.data.quantile(0.95);
    d.p99 = d.data.quantile(0.99);
    s.histograms[name] = std::move(d);
  }
  return s;
}

bool MetricsSnapshot::has(const std::string& name) const {
  return counters.count(name) != 0 || gauges.count(name) != 0 ||
         histograms.count(name) != 0;
}

std::string MetricsSnapshot::json() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters) {
    out += first ? "\n    \"" : ",\n    \"";
    first = false;
    json::appendEscaped(out, name);
    out += "\": ";
    json::appendNumber(out, v);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : gauges) {
    out += first ? "\n    \"" : ",\n    \"";
    first = false;
    json::appendEscaped(out, name);
    out += "\": ";
    json::appendNumber(out, v);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    out += first ? "\n    \"" : ",\n    \"";
    first = false;
    json::appendEscaped(out, name);
    out += "\": {\"count\": ";
    json::appendNumber(out, h.data.count);
    out += ", \"sum\": ";
    json::appendNumber(out, h.data.sum);
    out += ", \"min\": ";
    json::appendNumber(out, h.data.min);
    out += ", \"max\": ";
    json::appendNumber(out, h.data.max);
    out += ", \"p50\": ";
    json::appendNumber(out, h.p50);
    out += ", \"p95\": ";
    json::appendNumber(out, h.p95);
    out += ", \"p99\": ";
    json::appendNumber(out, h.p99);
    out += ",\n      \"bounds\": [";
    for (std::size_t i = 0; i < h.data.bounds.size(); ++i) {
      if (i > 0) out += ", ";
      json::appendNumber(out, h.data.bounds[i]);
    }
    out += "], \"counts\": [";
    for (std::size_t i = 0; i < h.data.counts.size(); ++i) {
      if (i > 0) out += ", ";
      json::appendNumber(out, h.data.counts[i]);
    }
    out += "]}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

namespace {

// Prometheus metric name: [a-zA-Z0-9_] only, "openfill_" prefix.
std::string promName(const std::string& name) {
  std::string out = "openfill_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9');
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

std::string MetricsSnapshot::prometheus() const {
  std::string out;
  for (const auto& [name, v] : counters) {
    const std::string p = promName(name) + "_total";
    out += "# TYPE " + p + " counter\n" + p + " ";
    json::appendNumber(out, v);
    out += "\n";
  }
  for (const auto& [name, v] : gauges) {
    const std::string p = promName(name);
    out += "# TYPE " + p + " gauge\n" + p + " ";
    json::appendNumber(out, v);
    out += "\n";
  }
  for (const auto& [name, h] : histograms) {
    const std::string p = promName(name);
    out += "# TYPE " + p + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.data.counts.size(); ++i) {
      cumulative += h.data.counts[i];
      out += p + "_bucket{le=\"";
      if (i < h.data.bounds.size()) {
        json::appendNumber(out, h.data.bounds[i]);
      } else {
        out += "+Inf";
      }
      out += "\"} ";
      json::appendNumber(out, cumulative);
      out += "\n";
    }
    out += p + "_sum ";
    json::appendNumber(out, h.data.sum);
    out += "\n" + p + "_count ";
    json::appendNumber(out, h.data.count);
    out += "\n";
  }
  return out;
}

std::string MetricsSnapshot::human() const {
  std::string out;
  char line[192];
  if (!counters.empty()) {
    out += "counters:\n";
    for (const auto& [name, v] : counters) {
      std::snprintf(line, sizeof(line), "  %-36s %14llu\n", name.c_str(),
                    static_cast<unsigned long long>(v));
      out += line;
    }
  }
  if (!gauges.empty()) {
    out += "gauges:\n";
    for (const auto& [name, v] : gauges) {
      std::snprintf(line, sizeof(line), "  %-36s %14.6g\n", name.c_str(), v);
      out += line;
    }
  }
  if (!histograms.empty()) {
    std::snprintf(line, sizeof(line), "%-38s %10s %12s %12s %12s %12s\n",
                  "histogram", "count", "mean", "p50", "p95", "p99");
    out += line;
    for (const auto& [name, h] : histograms) {
      std::snprintf(line, sizeof(line),
                    "  %-36s %10llu %12.6g %12.6g %12.6g %12.6g\n",
                    name.c_str(),
                    static_cast<unsigned long long>(h.data.count),
                    h.data.mean(), h.p50, h.p95, h.p99);
      out += line;
    }
  }
  return out;
}

void absorbProf(const prof::Snapshot& snapshot) {
  MetricsRegistry& reg = MetricsRegistry::instance();
  for (int i = 0; i < static_cast<int>(prof::Stage::kCount); ++i) {
    const auto stage = static_cast<prof::Stage>(i);
    const prof::StageStats& s = snapshot.stage(stage);
    if (s.calls == 0) continue;
    // Stage names indent nested kernels with spaces; strip for the key.
    std::string key;
    for (const char* p = prof::stageName(stage); *p != '\0'; ++p) {
      if (*p != ' ') key.push_back(*p);
    }
    reg.gauge("prof." + key + ".seconds").set(s.seconds());
    reg.gauge("prof." + key + ".calls").set(static_cast<double>(s.calls));
  }
  for (int i = 0; i < static_cast<int>(prof::Counter::kCount); ++i) {
    const auto counter = static_cast<prof::Counter>(i);
    const std::uint64_t v = snapshot.counter(counter);
    if (v == 0) continue;
    reg.gauge(std::string("prof.") + prof::counterName(counter))
        .set(static_cast<double>(v));
  }
}

void updateProcessGauges() {
  MetricsRegistry& reg = MetricsRegistry::instance();
  reg.gauge("process.peak_rss_mib").set(peakMemoryMiB());
  reg.gauge("process.rss_mib").set(currentMemoryMiB());
}

void registerCoreSeries() {
  MetricsRegistry& reg = MetricsRegistry::instance();
  for (const char* name :
       {"engine.runs", "engine.windows", "engine.candidates", "engine.fills",
        "engine.sizer_closed_form_solves",
        "engine.eco_windows_skipped",
        "scale.runs", "scale.spill_bytes", "scale.spill_events",
        "cache.hits", "cache.misses", "cache.evictions",
        "sched.tasks_submitted", "sched.tasks_completed",
        "service.jobs_submitted", "service.jobs_completed",
        "service.jobs_failed", "quality.windows", "quality.gap_windows"}) {
    reg.counter(name);
  }
  for (const char* name :
       {"cache.bytes_used", "cache.entries", "sched.queue_depth",
        "process.peak_rss_mib", "process.rss_mib", "scale.rows",
        "scale.mem_budget_mib", "fill.peak_rss_mib", "fill.seconds",
        "fill.output_bytes"}) {
    reg.gauge(name);
  }
  for (const char* name : {"engine.run_seconds", "job.queue_seconds",
                           "job.run_seconds", "job.load_seconds",
                           "job.write_seconds", "sched.queue_wait_seconds",
                           "scale.ingest_seconds", "scale.output_seconds"}) {
    reg.histogram(name);
  }
  reg.histogram("quality.density_gap", Histogram::unitBounds());
}

}  // namespace ofl::obs
