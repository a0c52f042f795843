// Unit tests for the hot-path profiling registry. The registry is
// process-global, so every test restores the disabled/empty state it
// found.
#include "common/prof.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/json_util.hpp"

namespace ofl::prof {
namespace {

class ProfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Registry::instance().setEnabled(true);
    Registry::instance().reset();
  }
  void TearDown() override {
    Registry::instance().setEnabled(false);
    Registry::instance().reset();
  }
};

TEST_F(ProfTest, DisabledProbesRecordNothing) {
  Registry::instance().setEnabled(false);
  {
    ScopedTimer timer(Stage::kCandidates);
  }
  count(Counter::kWindows, 3);
  EXPECT_TRUE(Registry::instance().snapshot().empty());
}

TEST_F(ProfTest, TimerAndCounterAccumulate) {
  {
    ScopedTimer timer(Stage::kSizing);
  }
  {
    ScopedTimer timer(Stage::kSizing);
  }
  count(Counter::kMcfSolves, 5);
  count(Counter::kMcfSolves);
  const Snapshot snap = Registry::instance().snapshot();
  EXPECT_FALSE(snap.empty());
  EXPECT_EQ(snap.stage(Stage::kSizing).calls, 2u);
  EXPECT_EQ(snap.counter(Counter::kMcfSolves), 6u);
  EXPECT_EQ(snap.stage(Stage::kCandidates).calls, 0u);
}

TEST_F(ProfTest, ResetClears) {
  count(Counter::kWindows, 7);
  Registry::instance().reset();
  EXPECT_TRUE(Registry::instance().snapshot().empty());
}

TEST_F(ProfTest, ConcurrentProbesSumExactly) {
  // Thread-seconds semantics: every worker's probes land in one table.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        ScopedTimer timer(Stage::kCandidates);
        count(Counter::kCandidates, 2);
      }
    });
  }
  for (auto& w : workers) w.join();
  const Snapshot snap = Registry::instance().snapshot();
  EXPECT_EQ(snap.stage(Stage::kCandidates).calls,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.counter(Counter::kCandidates),
            static_cast<std::uint64_t>(kThreads) * kPerThread * 2);
}

TEST_F(ProfTest, RendersStageNamesInBothFormats) {
  {
    ScopedTimer timer(Stage::kMcfSolve);
  }
  count(Counter::kOverlapPairs, 4);
  const Snapshot snap = Registry::instance().snapshot();
  const std::string human = snap.human();
  EXPECT_NE(human.find("mcf-solve"), std::string::npos);
  EXPECT_NE(human.find("overlap-pairs"), std::string::npos);
  const std::string json = snap.json();
  EXPECT_NE(json.find("\"mcf-solve\""), std::string::npos);
  EXPECT_NE(json.find("\"overlap-pairs\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"stages\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
}

TEST_F(ProfTest, JsonRoundTripsThroughParser) {
  // The snapshot JSON must parse back with exact values: stage names are
  // escaped and every number goes through std::to_chars, so the output is
  // identical under any C locale (no "0,05" decimal commas).
  {
    ScopedTimer timer(Stage::kSizing);
  }
  {
    ScopedTimer timer(Stage::kMcfSolve);  // indented name "  mcf-solve"
  }
  count(Counter::kOverlapPairs, 12345);
  const Snapshot snap = Registry::instance().snapshot();
  const std::string text = snap.json();
  const auto doc = json::Value::parse(text);
  ASSERT_TRUE(doc.has_value()) << text;

  const json::Value* stages = doc->find("stages");
  ASSERT_NE(stages, nullptr);
  const json::Value* sizing = stages->find("sizing");
  ASSERT_NE(sizing, nullptr);
  EXPECT_EQ(sizing->find("calls")->number, 1.0);
  EXPECT_DOUBLE_EQ(sizing->find("seconds")->number,
                   snap.stage(Stage::kSizing).seconds());
  // Nested-kernel names carry no indentation in the JSON keys.
  EXPECT_NE(stages->find("mcf-solve"), nullptr);
  EXPECT_EQ(stages->find("  mcf-solve"), nullptr);

  const json::Value* counters = doc->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->find("overlap-pairs")->number, 12345.0);

  // Byte-stable: re-rendering the same snapshot yields identical text.
  EXPECT_EQ(text, snap.json());
}

}  // namespace
}  // namespace ofl::prof
