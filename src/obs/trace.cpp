#include "obs/trace.hpp"

#include <cstdio>

#include "common/json_util.hpp"

namespace ofl::obs {

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::nowNs() const {
  return toEpochNs(std::chrono::steady_clock::now());
}

std::uint64_t Tracer::toEpochNs(
    std::chrono::steady_clock::time_point t) const {
  if (t <= epoch_) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
          .count());
}

Tracer::ThreadBuffer& Tracer::localBuffer() {
  // One buffer per thread per process lifetime. The shared_ptr keeps the
  // buffer alive in the registry after the thread exits (pool threads die
  // with their pool; their events must survive until the trace is
  // written).
  thread_local std::shared_ptr<ThreadBuffer> local = [this] {
    auto buffer = std::make_shared<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(registryMutex_);
    buffer->tid = static_cast<int>(buffers_.size()) + 1;
    buffers_.push_back(buffer);
    return buffer;
  }();
  return *local;
}

void Tracer::record(const TraceEvent& event) {
  ThreadBuffer& buffer = localBuffer();
  const std::size_t capacity = capacity_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(buffer.mutex);
  if (capacity == 0 || buffer.events.size() < capacity) {
    buffer.events.push_back(event);
    return;
  }
  buffer.events[buffer.oldest] = event;
  buffer.oldest = (buffer.oldest + 1) % buffer.events.size();
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(registryMutex_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> bufferLock(buffer->mutex);
    buffer->events.clear();
    buffer->oldest = 0;
  }
}

std::size_t Tracer::eventCount() const {
  std::lock_guard<std::mutex> lock(registryMutex_);
  std::size_t n = 0;
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> bufferLock(buffer->mutex);
    n += buffer->events.size();
  }
  return n;
}

std::vector<Tracer::CollectedEvent> Tracer::collect() const {
  std::vector<CollectedEvent> out;
  std::lock_guard<std::mutex> lock(registryMutex_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> bufferLock(buffer->mutex);
    const std::size_t n = buffer->events.size();
    out.reserve(out.size() + n);
    for (std::size_t i = 0; i < n; ++i) {  // oldest first
      out.push_back(
          CollectedEvent{buffer->events[(buffer->oldest + i) % n], buffer->tid});
    }
  }
  return out;
}

namespace {

// Chrome trace timestamps are microseconds; keep nanosecond precision as
// a fractional part.
void appendMicros(std::string& out, std::uint64_t ns) {
  json::appendNumber(out, ns / 1000);
  out.push_back('.');
  const std::uint64_t frac = ns % 1000;
  out.push_back(static_cast<char>('0' + frac / 100));
  out.push_back(static_cast<char>('0' + frac / 10 % 10));
  out.push_back(static_cast<char>('0' + frac % 10));
}

}  // namespace

std::string Tracer::chromeJson() const {
  const std::vector<CollectedEvent> events = collect();
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const CollectedEvent& ce : events) {
    const TraceEvent& e = ce.event;
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"";
    json::appendEscaped(out, e.name != nullptr ? e.name : "?");
    out += "\",\"cat\":\"";
    json::appendEscaped(out, e.cat);
    out += "\",\"ph\":\"";
    out.push_back(e.phase);
    out += "\",\"pid\":1,\"tid\":";
    json::appendNumber(out, static_cast<std::int64_t>(ce.tid));
    out += ",\"ts\":";
    appendMicros(out, e.startNs);
    if (e.phase == 'X') {
      out += ",\"dur\":";
      appendMicros(out, e.durNs);
    }
    if (e.phase == 'i') out += ",\"s\":\"t\"";  // instant scope: thread
    if (e.argCount > 0) {
      out += ",\"args\":{";
      for (int i = 0; i < e.argCount; ++i) {
        if (i > 0) out += ",";
        out += "\"";
        json::appendEscaped(out, e.argKeys[i]);
        out += "\":";
        json::appendNumber(out, e.argValues[i]);
      }
      out += "}";
    }
    out += "}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

bool Tracer::writeChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string body = chromeJson();
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  return ok;
}

void completeSpan(const char* name, const char* cat, std::uint64_t startNs,
                  std::uint64_t durNs, std::initializer_list<SpanArg> args) {
  if (!Tracer::enabled()) return;
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.startNs = startNs;
  e.durNs = durNs;
  for (const SpanArg& a : args) {
    if (e.argCount >= TraceEvent::kMaxArgs) break;
    e.argKeys[e.argCount] = a.first;
    e.argValues[e.argCount] = a.second;
    ++e.argCount;
  }
  Tracer::instance().record(e);
}

void instant(const char* name, const char* cat,
             std::initializer_list<SpanArg> args) {
  if (!Tracer::enabled()) return;
  TraceEvent e;
  e.phase = 'i';
  e.name = name;
  e.cat = cat;
  e.startNs = Tracer::instance().nowNs();
  for (const SpanArg& a : args) {
    if (e.argCount >= TraceEvent::kMaxArgs) break;
    e.argKeys[e.argCount] = a.first;
    e.argValues[e.argCount] = a.second;
    ++e.argCount;
  }
  Tracer::instance().record(e);
}

}  // namespace ofl::obs
