#include "clk/clock.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <random>
#include <stdexcept>
#include <utility>

namespace gcs::clk {

namespace {

// Segments generated per engine rebuild: at least kMinChunk, and at least
// as many as the schedule already holds, so the rebuilds' discard() work
// stays linear in the draws of the longest query.
constexpr std::size_t kMinChunk = 8;

// std::mt19937_64's output stream from (seed, outputs already used),
// counting the outputs the normal distribution takes.  The library engine
// seeds all 312 state words and twists all of them before its first
// output; paid on every extension, that costs several times the few steps
// a chunk draws.  This one seeds and twists each word only when the
// stream reaches it.  Word k's twist reads words k, k+1 and
// k+156 (mod 312), in the order the library's whole-state twist visits
// them, so every output is the library's.  min()/max() are the library
// engine's too, so generate_canonical draws exactly as it would from it.
class WalkEngine {
 public:
  using result_type = std::uint64_t;
  WalkEngine(std::uint64_t seed, std::uint64_t draws) : draws_(draws) {
    x_[0] = seed;
    for (std::uint64_t i = 0; i < draws; ++i) next_word();
  }
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() {
    ++draws_;
    result_type z = next_word();
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }
  std::uint64_t draws() const { return draws_; }

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;

  // Twists the next state word in place and returns it (untempered).
  result_type next_word() {
    const std::size_t k = pos_;
    for (const std::size_t need = std::min(k + kM, kN - 1); seeded_ <= need;
         ++seeded_) {
      const result_type prev = x_[seeded_ - 1];
      x_[seeded_] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + seeded_;
    }
    const result_type y = (x_[k] & (~result_type{0} << 31)) |
                          (x_[k + 1 == kN ? 0 : k + 1] & 0x7fffffffULL);
    x_[k] = x_[(k + kM) % kN] ^ (y >> 1) ^
            ((y & 1) != 0 ? 0xb5026f5aa96619e9ULL : 0);
    pos_ = k + 1 == kN ? 0 : k + 1;
    return x_[k];
  }

  result_type x_[kN] = {};
  std::size_t seeded_ = 1;  // state words [0, seeded_) hold their seed
  std::size_t pos_ = 0;     // next word to twist
  std::uint64_t draws_;
};
static_assert(WalkEngine::min() == std::mt19937_64::min() &&
              WalkEngine::max() == std::mt19937_64::max());

}  // namespace

RateSchedule::RateSchedule(double rate) {
  if (rate <= 0.0) throw std::invalid_argument("clock rate must be positive");
  segments_.push_back(Segment{0.0, 0.0, rate});
}

RateSchedule RateSchedule::random_walk(double rho, double step_dt, double sigma,
                                       std::uint64_t seed, double start_rate) {
  if (rho < 0.0 || rho >= 1.0) {
    throw std::invalid_argument("random_walk: rho must be in [0, 1)");
  }
  if (step_dt <= 0.0) {
    throw std::invalid_argument("random_walk: step_dt must be positive");
  }
  if (!(sigma >= 0.0 && std::isfinite(sigma))) {
    throw std::invalid_argument("random_walk: sigma must be finite and >= 0");
  }
  RateSchedule s(std::clamp(start_rate, 1.0 - rho, 1.0 + rho));
  s.walk_ = true;
  s.lo_ = 1.0 - rho;
  s.hi_ = 1.0 + rho;
  s.step_dt_ = step_dt;
  s.sigma_ = sigma;
  s.seed_ = seed;
  return s;
}

template <class Covered>
void RateSchedule::extend(Covered covered) const {
  WalkEngine gen(seed_, draws_);
  const std::size_t target =
      segments_.size() + std::max(kMinChunk, segments_.size());
  segments_.reserve(target);
  do {
    const Segment last = segments_.back();
    // A fresh distribution per step: no cached second polar value is
    // carried from one step to the next.  The distribution requires
    // sigma > 0; at sigma 0 its step would be +0.0, which leaves the rate
    // as it is, so nothing is drawn.
    double step = 0.0;
    if (sigma_ > 0.0) {
      step = std::normal_distribution<double>(0.0, sigma_)(gen);
    }
    const double next_rate = std::clamp(last.rate + step, lo_, hi_);
    segments_.push_back(Segment{last.t0 + step_dt_,
                                last.hw0 + last.rate * step_dt_, next_rate});
  } while (segments_.size() < target || !covered(segments_.back()));
  draws_ = gen.draws();
}

// Segments past the one covering t (or v) start strictly later, so the
// lookups below answer the same whatever the chunk boundaries were.
void RateSchedule::extend_to_time(double t) const {
  const auto covered = [&](const Segment& s) {
    return !(s.t0 + step_dt_ <= t);
  };
  if (walk_ && !covered(segments_.back())) extend(covered);
}

void RateSchedule::extend_to_value(double v) const {
  const auto covered = [&](const Segment& s) {
    return !(s.hw0 + s.rate * step_dt_ <= v);
  };
  if (walk_ && !covered(segments_.back())) extend(covered);
}

double RateSchedule::rate_at(double t) const {
  extend_to_time(t);
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), t,
      [](double x, const Segment& s) { return x < s.t0; });
  assert(it != segments_.begin());
  return std::prev(it)->rate;
}

HardwareClock::HardwareClock(RateSchedule schedule)
    : schedule_(std::move(schedule)) {}

double HardwareClock::value_at(double t) const {
  schedule_.extend_to_time(t);
  const auto& segs = schedule_.segments_;
  auto it = std::upper_bound(
      segs.begin(), segs.end(), t,
      [](double x, const RateSchedule::Segment& s) { return x < s.t0; });
  assert(it != segs.begin());
  const auto& s = *std::prev(it);
  return s.hw0 + s.rate * (t - s.t0);
}

double HardwareClock::time_when(double value) const {
  schedule_.extend_to_value(value);
  const auto& segs = schedule_.segments_;
  auto it = std::upper_bound(
      segs.begin(), segs.end(), value,
      [](double v, const RateSchedule::Segment& s) { return v < s.hw0; });
  assert(it != segs.begin());
  const auto& s = *std::prev(it);
  return s.t0 + (value - s.hw0) / s.rate;
}

}  // namespace gcs::clk
