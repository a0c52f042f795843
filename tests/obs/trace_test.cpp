// Tracer unit tests: gating, span/instant recording, arg capture, and a
// concurrency test (N threads x M spans -> every event collected, the
// Chrome JSON parses) that doubles as the TSan smoke workload
// (tsan_smoke_obs). The tracer is process-global, so every test restores
// the disabled state and clears the buffers it filled.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/json_util.hpp"

namespace ofl::obs {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::instance().clear();
    Tracer::instance().setEnabled(true);
  }
  void TearDown() override {
    Tracer::instance().setEnabled(false);
    Tracer::instance().clear();
  }
};

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  Tracer::instance().setEnabled(false);
  {
    ScopedSpan span("unit.disabled", "test");
  }
  instant("unit.disabled_instant", "test", {});
  completeSpan("unit.disabled_complete", "test", 0, 10, {});
  EXPECT_EQ(Tracer::instance().eventCount(), 0u);
}

TEST_F(TraceTest, ScopedSpanRecordsNameCategoryAndArgs) {
  {
    ScopedSpan span("unit.work", "test", {{"job", 7}, {"w", 3}});
  }
  const auto events = Tracer::instance().collect();
  ASSERT_EQ(events.size(), 1u);
  const TraceEvent& e = events[0].event;
  EXPECT_STREQ(e.name, "unit.work");
  EXPECT_STREQ(e.cat, "test");
  EXPECT_EQ(e.phase, 'X');
  ASSERT_EQ(e.argCount, 2);
  EXPECT_STREQ(e.argKeys[0], "job");
  EXPECT_EQ(e.argValues[0], 7.0);
  EXPECT_STREQ(e.argKeys[1], "w");
  EXPECT_EQ(e.argValues[1], 3.0);
}

TEST_F(TraceTest, StageFeedsSpanProfTimerAndSecondsFromOneInterval) {
  prof::Registry& reg = prof::Registry::instance();
  reg.reset();
  reg.setEnabled(true);
  double seconds = 0.25;  // the probe adds to what is there
  {
    Stage probe("unit.stage", "test", {{"job", 5}}, prof::Stage::kOutput,
                &seconds);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const prof::Snapshot snap = reg.snapshot();
  reg.setEnabled(false);
  reg.reset();
  const auto events = Tracer::instance().collect();
  ASSERT_EQ(events.size(), 1u);
  const TraceEvent& e = events[0].event;
  EXPECT_STREQ(e.name, "unit.stage");
  ASSERT_EQ(e.argCount, 1);
  EXPECT_EQ(e.argValues[0], 5.0);
  // Span, prof stage and accumulator measure the same interval.
  EXPECT_GE(e.durNs, 2'000'000u);
  EXPECT_EQ(snap.stage(prof::Stage::kOutput).calls, 1u);
  EXPECT_EQ(snap.stage(prof::Stage::kOutput).nanos, e.durNs);
  EXPECT_DOUBLE_EQ(seconds, 0.25 + static_cast<double>(e.durNs) * 1e-9);
}

TEST_F(TraceTest, StageArmsEachPartOnItsOwn) {
  Tracer::instance().setEnabled(false);
  prof::Registry& reg = prof::Registry::instance();
  reg.reset();
  double seconds = 0.0;
  {
    // Tracing and prof off: only the accumulator runs.
    Stage probe("unit.quiet", "test", {}, prof::Stage::kOutput, &seconds);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(seconds, 0.001);
  EXPECT_EQ(Tracer::instance().eventCount(), 0u);
  EXPECT_EQ(reg.snapshot().stage(prof::Stage::kOutput).calls, 0u);
  {
    // No prof stage: the registry stays empty while collecting.
    Tracer::instance().setEnabled(true);
    reg.setEnabled(true);
    Stage span("unit.span", "test", {{"job", 1}}, &seconds);
  }
  reg.setEnabled(false);
  EXPECT_EQ(Tracer::instance().eventCount(), 1u);
  EXPECT_TRUE(reg.snapshot().empty());
  reg.reset();
}

TEST_F(TraceTest, ExtraArgsBeyondCapAreDropped) {
  {
    ScopedSpan span("unit.args", "test", {{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4}});
  }
  const auto events = Tracer::instance().collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].event.argCount, TraceEvent::kMaxArgs);
}

TEST_F(TraceTest, InstantAndCompleteEventsRecord) {
  instant("unit.tick", "test", {{"n", 1}});
  completeSpan("unit.window", "test", 100, 50, {{"w", 2}});
  const auto events = Tracer::instance().collect();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].event.phase, 'i');
  EXPECT_EQ(events[1].event.phase, 'X');
  EXPECT_EQ(events[1].event.startNs, 100u);
  EXPECT_EQ(events[1].event.durNs, 50u);
}

TEST_F(TraceTest, SpanArmedStateLatchedAtConstruction) {
  // A span opened while tracing is on must close (and record) even if
  // tracing is switched off mid-flight, and vice versa.
  Tracer::instance().setEnabled(false);
  {
    ScopedSpan off("unit.off", "test");
    Tracer::instance().setEnabled(true);
  }
  EXPECT_EQ(Tracer::instance().eventCount(), 0u);
  {
    ScopedSpan on("unit.on", "test");
    Tracer::instance().setEnabled(false);
  }
  EXPECT_EQ(Tracer::instance().eventCount(), 1u);
}

TEST_F(TraceTest, ChromeJsonIsValidAndCarriesEvents) {
  {
    ScopedSpan span("unit.render \"quoted\"", "test", {{"job", 11}});
  }
  instant("unit.mark", "test", {});
  const std::string jsonText = Tracer::instance().chromeJson();
  const auto doc = json::Value::parse(jsonText);
  ASSERT_TRUE(doc.has_value()) << jsonText;
  const json::Value* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->isArray());
  ASSERT_EQ(events->array.size(), 2u);
  const json::Value& span = events->array[0];
  EXPECT_EQ(span.find("name")->str, "unit.render \"quoted\"");
  EXPECT_EQ(span.find("ph")->str, "X");
  EXPECT_EQ(span.findPath("args.job")->number, 11.0);
  EXPECT_EQ(events->array[1].find("ph")->str, "i");
}

TEST_F(TraceTest, ConcurrentSpansAllCollectedAndJsonParses) {
  // N threads x M spans each: per-thread buffers mean no event may be
  // lost or torn, every thread gets a distinct tid, and the resulting
  // Chrome JSON still parses. Run under -DOFL_SANITIZE=thread as the
  // tsan_smoke_obs ctest entry.
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 250;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        ScopedSpan span("unit.worker", "test",
                        {{"job", static_cast<double>(t)},
                         {"i", static_cast<double>(i)}});
        if (i % 16 == 0) instant("unit.beat", "test", {{"job", static_cast<double>(t)}});
      }
    });
  }
  for (auto& w : workers) w.join();

  const auto events = Tracer::instance().collect();
  std::size_t spans = 0;
  std::set<int> tids;
  for (const auto& ce : events) {
    tids.insert(ce.tid);
    if (ce.event.phase == 'X') {
      ++spans;
      EXPECT_STREQ(ce.event.name, "unit.worker");
      ASSERT_EQ(ce.event.argCount, 2);
      EXPECT_GE(ce.event.argValues[0], 0.0);
      EXPECT_LT(ce.event.argValues[0], kThreads);
    }
  }
  EXPECT_EQ(spans, static_cast<std::size_t>(kThreads) * kSpansPerThread);
  EXPECT_GE(tids.size(), static_cast<std::size_t>(kThreads));

  const auto doc = json::Value::parse(Tracer::instance().chromeJson());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("traceEvents")->array.size(), events.size());
}

TEST_F(TraceTest, PerThreadCapacityKeepsTheNewestEvents) {
  Tracer::instance().setPerThreadCapacity(4);
  for (int i = 0; i < 10; ++i) instant("unit.ring", "test", {{"i", i}});
  const auto events = Tracer::instance().collect();
  Tracer::instance().setPerThreadCapacity(0);
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t k = 0; k < events.size(); ++k) {
    EXPECT_EQ(events[k].event.argValues[0], 6.0 + static_cast<double>(k));
  }
  // Cleared, the ring refills from its start.
  Tracer::instance().clear();
  instant("unit.ring", "test", {{"i", 10}});
  ASSERT_EQ(Tracer::instance().collect().size(), 1u);
}

TEST_F(TraceTest, ClearDropsEventsButKeepsRecording) {
  {
    ScopedSpan span("unit.before", "test");
  }
  Tracer::instance().clear();
  EXPECT_EQ(Tracer::instance().eventCount(), 0u);
  {
    ScopedSpan span("unit.after", "test");
  }
  EXPECT_EQ(Tracer::instance().eventCount(), 1u);
}

}  // namespace
}  // namespace ofl::obs
