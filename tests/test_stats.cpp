#include "sim/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "sim/rng.hpp"

namespace bansim::sim {
namespace {

using namespace bansim::sim::literals;

TimePoint at(std::int64_t ms) { return TimePoint::zero() + Duration::milliseconds(ms); }

TEST(Summary, EmptyIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Summary, BasicMoments) {
  Summary s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
  // Sample variance of the classic data set is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Summary, SingleSampleHasZeroVariance) {
  Summary s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
}

TEST(Summary, WelfordMatchesNaiveOnRandomData) {
  Rng rng{314};
  Summary s;
  double sum = 0.0, sum2 = 0.0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.uniform(-100.0, 100.0);
    s.add(v);
    sum += v;
    sum2 += v * v;
  }
  const double naive_mean = sum / n;
  const double naive_var = (sum2 - n * naive_mean * naive_mean) / (n - 1);
  EXPECT_NEAR(s.mean(), naive_mean, 1e-9);
  EXPECT_NEAR(s.variance(), naive_var, 1e-6);
}

TEST(Summary, ResetClears) {
  Summary s;
  s.add(1.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
}

TEST(StateResidency, AccumulatesPerState) {
  StateResidency r{3, 0, at(0)};
  r.transition(1, at(10));
  r.transition(2, at(30));
  r.transition(0, at(60));
  EXPECT_EQ(r.time_in(0, at(100)), Duration::milliseconds(10 + 40));
  EXPECT_EQ(r.time_in(1, at(100)), Duration::milliseconds(20));
  EXPECT_EQ(r.time_in(2, at(100)), Duration::milliseconds(30));
}

TEST(StateResidency, CountsEntries) {
  StateResidency r{2, 0, at(0)};
  r.transition(1, at(1));
  r.transition(0, at(2));
  r.transition(1, at(3));
  EXPECT_EQ(r.entries(0), 2u);
  EXPECT_EQ(r.entries(1), 2u);
}

TEST(StateResidency, InProgressStretchCountsUpToNow) {
  StateResidency r{2, 1, at(0)};
  EXPECT_EQ(r.time_in(1, at(25)), Duration::milliseconds(25));
  EXPECT_EQ(r.time_in(0, at(25)), Duration::zero());
}

TEST(StateResidency, TotalTimeIsConserved) {
  // Property: sum over states of time_in == elapsed, for any transition mix.
  Rng rng{7};
  StateResidency r{4, 0, at(0)};
  TimePoint t = at(0);
  for (int i = 0; i < 200; ++i) {
    t += Duration::microseconds(rng.uniform_int(1, 5000));
    r.transition(static_cast<int>(rng.uniform_int(0, 3)), t);
  }
  const TimePoint end = t + 7_ms;
  Duration total = Duration::zero();
  for (int s = 0; s < 4; ++s) total += r.time_in(s, end);
  EXPECT_EQ(total, end - at(0));
}

}  // namespace
}  // namespace bansim::sim
