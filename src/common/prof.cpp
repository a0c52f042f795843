#include "common/prof.hpp"

#include <cstdio>

#include "common/json_util.hpp"

namespace ofl::prof {
namespace {

// Indented names mark kernels nested inside the preceding engine stage.
constexpr const char* kStageNames[] = {
    "region-prep",
    "density-compute",
    "planning",
    "candidates",
    "  shared-region",
    "  slice",
    "  overlay-score",
    "  refine",
    "sizing",
    "  overlay-marginals",
    "  mcf-solve",
    "output",
};
static_assert(sizeof(kStageNames) / sizeof(kStageNames[0]) ==
              static_cast<std::size_t>(Stage::kCount));

constexpr const char* kCounterNames[] = {
    "windows",       "candidates",        "index-builds",      "index-queries",
    "mcf-solves",    "sizer-closed-form", "eco-windows-skipped",
};
static_assert(sizeof(kCounterNames) / sizeof(kCounterNames[0]) ==
              static_cast<std::size_t>(Counter::kCount));

// JSON keys: the stage names without indentation, dashes kept.
std::string jsonKey(const char* name) {
  std::string key;
  for (const char* p = name; *p != '\0'; ++p) {
    if (*p != ' ') key.push_back(*p);
  }
  return key;
}

}  // namespace

const char* stageName(Stage stage) {
  return kStageNames[static_cast<std::size_t>(stage)];
}

const char* counterName(Counter counter) {
  return kCounterNames[static_cast<std::size_t>(counter)];
}

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

void Registry::reset() {
  for (auto& s : stages_) {
    s.calls.store(0, std::memory_order_relaxed);
    s.nanos.store(0, std::memory_order_relaxed);
  }
  for (auto& c : counters_) c.store(0, std::memory_order_relaxed);
}

Snapshot Registry::snapshot() const {
  Snapshot out;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    out.stages[i].calls = stages_[i].calls.load(std::memory_order_relaxed);
    out.stages[i].nanos = stages_[i].nanos.load(std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    out.counters[i] = counters_[i].load(std::memory_order_relaxed);
  }
  return out;
}

bool Snapshot::empty() const {
  for (const StageStats& s : stages) {
    if (s.calls != 0) return false;
  }
  for (const std::uint64_t c : counters) {
    if (c != 0) return false;
  }
  return true;
}

std::string Snapshot::human() const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-22s %12s %12s %14s\n", "stage",
                "seconds", "calls", "ns/call");
  out += line;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const StageStats& s = stages[i];
    if (s.calls == 0) continue;
    std::snprintf(line, sizeof(line), "%-22s %12.4f %12llu %14.0f\n",
                  kStageNames[i], s.seconds(),
                  static_cast<unsigned long long>(s.calls),
                  static_cast<double>(s.nanos) /
                      static_cast<double>(s.calls));
    out += line;
  }
  bool anyCounter = false;
  for (const std::uint64_t c : counters) anyCounter = anyCounter || c != 0;
  if (anyCounter) {
    out += "counters:\n";
    for (std::size_t i = 0; i < counters.size(); ++i) {
      if (counters[i] == 0) continue;
      std::snprintf(line, sizeof(line), "  %-20s %12llu\n", kCounterNames[i],
                    static_cast<unsigned long long>(counters[i]));
      out += line;
    }
  }
  return out;
}

std::string Snapshot::json() const {
  // Emitted via common/json_util: stage names are escaped (future stages
  // may carry arbitrary labels) and numbers are formatted with
  // std::to_chars, so the output is byte-stable under any C locale.
  // Round-trip coverage: ProfTest.JsonRoundTripsThroughParser.
  std::string out = "{\"stages\": {";
  bool first = true;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const StageStats& s = stages[i];
    out += first ? "\"" : ", \"";
    first = false;
    json::appendEscaped(out, jsonKey(kStageNames[i]));
    out += "\": {\"seconds\": ";
    json::appendNumber(out, s.seconds());
    out += ", \"calls\": ";
    json::appendNumber(out, s.calls);
    out += "}";
  }
  out += "}, \"counters\": {";
  first = true;
  for (std::size_t i = 0; i < counters.size(); ++i) {
    out += first ? "\"" : ", \"";
    first = false;
    json::appendEscaped(out, kCounterNames[i]);
    out += "\": ";
    json::appendNumber(out, counters[i]);
  }
  out += "}}";
  return out;
}

}  // namespace ofl::prof
