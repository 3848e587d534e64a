// The clock layer against its oracle.  clk::RateSchedule rebuilds a walk's
// engine from (seed, draws used) per chunk of segments; the oracle in
// tests/oracle/reference_clock.hpp carries the engine and draws step by
// step.  Every value_at / time_when / rate_at answer must agree bit for
// bit, whatever order the queries come in, because the chunk boundaries
// depend on that order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "clk/clock.hpp"
#include "oracle/reference_clock.hpp"

namespace {

using gcs::clk::HardwareClock;
using gcs::clk::RateSchedule;
using gcs::oracle::ReferenceClock;
using gcs::oracle::ReferenceSchedule;

std::uint64_t bits(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

struct WalkShape {
  double rho;
  double step_dt;
  double sigma;
  std::uint64_t seed;
  double start_rate;
};

std::string describe(const WalkShape& w) {
  return "rho=" + std::to_string(w.rho) + " step_dt=" +
         std::to_string(w.step_dt) + " sigma=" + std::to_string(w.sigma) +
         " seed=" + std::to_string(w.seed) +
         " start=" + std::to_string(w.start_rate);
}

// rho includes 0 (a walk pinned at rate 1, every step clamped);
// sigma includes values many times rho, where most steps clamp, and 0.
// The oracle hands sigma 0 to std::normal_distribution, whose sigma > 0
// precondition libstdc++'s assertion mode enforces, so sigma 0 is
// compared only where that mode is off.
std::vector<WalkShape> shapes() {
  std::vector<WalkShape> out;
  const double rhos[] = {0.0, 1e-4, 0.1, 0.5};
  const double steps[] = {1.0, 0.37, 0.01};
  const std::uint64_t seeds[] = {1, 7919 * 31 + 5, 0xDEADBEEFCAFEULL};
  for (const double rho : rhos) {
    const double sigmas[] = {0.0, rho / 4.0, rho * 10.0 + 0.05};
    for (const double step : steps) {
      for (const double sigma : sigmas) {
#ifdef _GLIBCXX_ASSERTIONS
        if (sigma == 0.0) continue;
#endif
        for (const std::uint64_t seed : seeds) {
          out.push_back(WalkShape{rho, step, sigma, seed, 1.0});
        }
      }
    }
  }
  // A start rate outside the bounds is clamped on both sides.
  out.push_back(WalkShape{0.2, 0.5, 0.05, 3, 1.7});
  out.push_back(WalkShape{0.2, 0.5, 0.05, 3, 0.1});
  return out;
}

struct Pair {
  HardwareClock prod;
  ReferenceClock oracle;
};

Pair make_clocks(const WalkShape& w) {
  return Pair{HardwareClock(RateSchedule::random_walk(
                  w.rho, w.step_dt, w.sigma, w.seed, w.start_rate)),
              ReferenceClock(ReferenceSchedule::random_walk(
                  w.rho, w.step_dt, w.sigma, w.seed, w.start_rate))};
}

// Real times over `steps` walk steps, off the segment grid and on it.
std::vector<double> grid(const WalkShape& w, int steps) {
  std::vector<double> ts;
  for (int k = 0; k <= steps; ++k) {
    ts.push_back(k * w.step_dt);
    ts.push_back((k + 0.3) * w.step_dt);
  }
  return ts;
}

// Runs all three queries at each t (time_when at the clock value t reads
// on a rate-1 clock, so it probes the value axis at the same depth).
void expect_same(Pair& p, const std::vector<double>& ts, const WalkShape& w,
                 const char* order) {
  for (const double t : ts) {
    SCOPED_TRACE(describe(w) + " order=" + order + " t=" + std::to_string(t));
    ASSERT_EQ(bits(p.prod.value_at(t)), bits(p.oracle.value_at(t)));
    ASSERT_EQ(bits(p.prod.rate_at(t)), bits(p.oracle.rate_at(t)));
    ASSERT_EQ(bits(p.prod.time_when(t)), bits(p.oracle.time_when(t)));
  }
}

constexpr int kSteps = 150;  // crosses the 8-, 16-, 32-, 64-segment chunks

TEST(Clock, MonotoneQueriesMatchOracle) {
  for (const WalkShape& w : shapes()) {
    Pair p = make_clocks(w);
    expect_same(p, grid(w, kSteps), w, "monotone");
  }
}

TEST(Clock, ShuffledQueriesMatchOracle) {
  std::mt19937 shuffler(12345);
  for (const WalkShape& w : shapes()) {
    std::vector<double> ts = grid(w, kSteps);
    std::shuffle(ts.begin(), ts.end(), shuffler);
    Pair p = make_clocks(w);
    expect_same(p, ts, w, "shuffled");
  }
}

TEST(Clock, BackwardQueriesMatchOracle) {
  for (const WalkShape& w : shapes()) {
    std::vector<double> ts = grid(w, kSteps);
    std::reverse(ts.begin(), ts.end());
    Pair p = make_clocks(w);
    expect_same(p, ts, w, "backwards");
  }
}

TEST(Clock, TimeWhenBeforeAnyValueAtMatchesOracle) {
  for (const WalkShape& w : shapes()) {
    Pair p = make_clocks(w);
    for (const double v : grid(w, kSteps)) {
      SCOPED_TRACE(describe(w) + " v=" + std::to_string(v));
      ASSERT_EQ(bits(p.prod.time_when(v)), bits(p.oracle.time_when(v)));
    }
    expect_same(p, grid(w, kSteps), w, "after time_when");
  }
}

TEST(Clock, FarJumpAcrossSeveralChunksMatchesOracle) {
  for (const WalkShape& w : shapes()) {
    Pair p = make_clocks(w);
    const double far = 1000.5 * w.step_dt;
    ASSERT_EQ(bits(p.prod.value_at(far)), bits(p.oracle.value_at(far)))
        << describe(w);
    std::vector<double> ts = grid(w, 1100);
    std::reverse(ts.begin(), ts.end());
    expect_same(p, ts, w, "far jump");
    const double farther = 5000.7 * w.step_dt;
    ASSERT_EQ(bits(p.prod.time_when(farther)),
              bits(p.oracle.time_when(farther)))
        << describe(w);
    ASSERT_EQ(bits(p.prod.value_at(farther)),
              bits(p.oracle.value_at(farther)))
        << describe(w);
  }
}

TEST(Clock, CopiedScheduleResumesTheSameStream) {
  const WalkShape w{0.1, 0.25, 0.03, 99, 1.0};
  RateSchedule s =
      RateSchedule::random_walk(w.rho, w.step_dt, w.sigma, w.seed);
  EXPECT_GT(s.rate_at(20.0 * w.step_dt), 0.0);  // part-way through a chunk
  const HardwareClock copy(s);
  const HardwareClock original(std::move(s));
  const ReferenceClock oracle(
      ReferenceSchedule::random_walk(w.rho, w.step_dt, w.sigma, w.seed));
  for (const double t : grid(w, kSteps)) {
    const double want = oracle.value_at(t);
    EXPECT_EQ(bits(copy.value_at(t)), bits(want)) << t;
    EXPECT_EQ(bits(original.value_at(t)), bits(want)) << t;
  }
}

TEST(Clock, ConstantScheduleMatchesOracle) {
  for (const double rate : {0.5, 1.0, 1.0 + 1e-6, 2.0}) {
    const HardwareClock prod{RateSchedule(rate)};
    const ReferenceClock oracle{ReferenceSchedule(rate)};
    EXPECT_TRUE(RateSchedule(rate).is_constant());
    for (const double t : {0.0, 0.1, 3.0, 1e6}) {
      EXPECT_EQ(bits(prod.value_at(t)), bits(oracle.value_at(t)));
      EXPECT_EQ(bits(prod.time_when(t)), bits(oracle.time_when(t)));
      EXPECT_EQ(bits(prod.rate_at(t)), bits(oracle.rate_at(t)));
    }
  }
}

TEST(Clock, ValueAndTimeAreInverseAndMonotone) {
  for (const WalkShape& w : shapes()) {
    const HardwareClock c(RateSchedule::random_walk(w.rho, w.step_dt, w.sigma,
                                                    w.seed, w.start_rate));
    double prev = -1.0;
    for (const double t : grid(w, kSteps)) {
      const double v = c.value_at(t);
      ASSERT_GT(v, prev) << describe(w) << " t=" << t;
      prev = v;
      ASSERT_NEAR(c.time_when(v), t, 1e-9 * (1.0 + t)) << describe(w);
      ASSERT_NEAR(c.value_at(c.time_when(t)), t, 1e-9 * (1.0 + t))
          << describe(w);
      const double r = c.rate_at(t);
      ASSERT_GE(r, 1.0 - w.rho);
      ASSERT_LE(r, 1.0 + w.rho);
    }
  }
}

TEST(Clock, RejectsBadParameters) {
  EXPECT_THROW(RateSchedule(0.0), std::invalid_argument);
  EXPECT_THROW(RateSchedule(-1.0), std::invalid_argument);
  EXPECT_THROW(RateSchedule::random_walk(-0.1, 1.0, 0.1, 1),
               std::invalid_argument);
  EXPECT_THROW(RateSchedule::random_walk(1.0, 1.0, 0.1, 1),
               std::invalid_argument);
  EXPECT_THROW(RateSchedule::random_walk(0.1, 0.0, 0.1, 1),
               std::invalid_argument);
  EXPECT_THROW(RateSchedule::random_walk(0.1, 1.0, -0.1, 1),
               std::invalid_argument);
  EXPECT_THROW(RateSchedule::random_walk(
                   0.1, 1.0, std::numeric_limits<double>::quiet_NaN(), 1),
               std::invalid_argument);
}

TEST(Clock, ZeroSigmaWalkHoldsItsClampedStartRate) {
  const HardwareClock c(RateSchedule::random_walk(0.1, 0.5, 0.0, 7, 1.3));
  for (const double t : {0.0, 0.2, 3.0, 40.0}) {
    EXPECT_DOUBLE_EQ(c.rate_at(t), 1.1) << t;
  }
  EXPECT_DOUBLE_EQ(c.value_at(2.0), 2.2);
  EXPECT_NEAR(c.time_when(c.value_at(40.0)), 40.0, 1e-12);
}

// A schedule is a segment vector plus a few scalars.  An engine member
// (std::mt19937_64 alone is 2.5 KB) would multiply every node's clock
// footprint; this keeps one from creeping back.
TEST(Clock, ScheduleCarriesNoEngine) {
  EXPECT_LE(sizeof(RateSchedule), 96u);
  EXPECT_LE(sizeof(HardwareClock), 96u);
}

}  // namespace
