#include <gtest/gtest.h>

#include <thread>

#include "common/cancel.hpp"
#include "common/logging.hpp"
#include "common/memory_usage.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"

namespace ofl {
namespace {

TEST(RngTest, DeterministicPerSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniformInt(0, 1000000), b.uniformInt(0, 1000000));
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.uniformInt(0, 1 << 30) == b.uniformInt(0, 1 << 30)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformIntRespectsBoundsIncludingDegenerate) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const auto v = rng.uniformInt(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
  }
  EXPECT_EQ(rng.uniformInt(9, 9), 9);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngTest, WeightedIndexRespectsZeroWeights) {
  Rng rng(9);
  const std::vector<double> weights{0.0, 1.0, 0.0};
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(rng.weightedIndex(weights), 1u);
  }
}

TEST(TimerTest, ElapsedIsMonotone) {
  Timer t;
  const double a = t.elapsedSeconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const double b = t.elapsedSeconds();
  EXPECT_GE(b, a);
  EXPECT_GE(b, 0.001);
  t.reset();
  EXPECT_LT(t.elapsedSeconds(), b);
}

TEST(MemoryUsageTest, ProbesReturnPlausibleValues) {
  const double peak = peakMemoryMiB();
  const double current = currentMemoryMiB();
  EXPECT_GT(peak, 1.0);      // a running gtest binary uses > 1 MiB
  EXPECT_GT(current, 1.0);
  EXPECT_GE(peak + 1.0, current);  // peak >= current (1 MiB slack)
}

TEST(LoggingTest, LevelGating) {
  const LogLevel saved = logLevel();
  setLogLevel(LogLevel::kError);
  EXPECT_EQ(logLevel(), LogLevel::kError);
  {
    ScopedLogLevel scope(LogLevel::kSilent);
    EXPECT_EQ(logLevel(), LogLevel::kSilent);
    logError("suppressed at silent level");
  }
  EXPECT_EQ(logLevel(), LogLevel::kError);
  setLogLevel(saved);
}

TEST(CancelTokenTest, ZeroAndNegativeDeadlinesNeverArm) {
  // armDeadline documents <= 0 as "no deadline": the token must not
  // expire, now or later — a zero --timeout-s means unlimited, not
  // instant timeout.
  CancelToken zero;
  zero.armDeadline(0.0);
  EXPECT_FALSE(zero.hasDeadline);
  EXPECT_FALSE(zero.expired());
  EXPECT_NO_THROW(zero.throwIfExpired());

  CancelToken negative;
  negative.armDeadline(-3.0);
  EXPECT_FALSE(negative.hasDeadline);
  EXPECT_FALSE(negative.expired());

  // Repeated non-positive arms on an already-armed token do not disturb
  // the existing deadline either.
  CancelToken armed;
  armed.armDeadline(3600.0);
  EXPECT_TRUE(armed.hasDeadline);
  armed.armDeadline(0.0);
  armed.armDeadline(-1.0);
  EXPECT_TRUE(armed.hasDeadline);
  EXPECT_FALSE(armed.expired());
}

TEST(CancelTokenTest, ExplicitCancelBeatsMissingDeadline) {
  CancelToken token;
  token.armDeadline(-1.0);
  EXPECT_FALSE(token.expired());
  token.cancel();
  EXPECT_TRUE(token.expired());
  EXPECT_THROW(token.throwIfExpired(), CancelledError);
}

TEST(CancelTokenTest, PastDeadlineExpires) {
  CancelToken token;
  token.armDeadline(1e-9);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_TRUE(token.expired());
}

}  // namespace
}  // namespace ofl
