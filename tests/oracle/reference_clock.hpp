// gcs::oracle -- the engine-carrying hardware clock that clk::RateSchedule
// replaced.
//
// Each random-walk schedule owns a std::mt19937_64 and draws one Gaussian
// step per segment from it as the simulation queries further ahead.  This
// is the straightforward form of the drift model; clk::RateSchedule keeps
// only (seed, draws used) and rebuilds the engine per chunk of segments.
// Tests and benches compare the two bit for bit.
#ifndef GCS_ORACLE_REFERENCE_CLOCK_HPP
#define GCS_ORACLE_REFERENCE_CLOCK_HPP

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <iterator>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

namespace gcs::oracle {

class ReferenceSchedule {
 public:
  ReferenceSchedule(double rate = 1.0) {  // NOLINT(runtime/explicit)
    if (rate <= 0.0) {
      throw std::invalid_argument("clock rate must be positive");
    }
    segments_.push_back(Segment{0.0, 0.0, rate});
  }

  static ReferenceSchedule random_walk(double rho, double step_dt,
                                       double sigma, std::uint64_t seed,
                                       double start_rate = 1.0) {
    if (rho < 0.0 || rho >= 1.0) {
      throw std::invalid_argument("random_walk: rho must be in [0, 1)");
    }
    if (step_dt <= 0.0) {
      throw std::invalid_argument("random_walk: step_dt must be positive");
    }
    ReferenceSchedule s(std::clamp(start_rate, 1.0 - rho, 1.0 + rho));
    s.walk_ = true;
    s.lo_ = 1.0 - rho;
    s.hi_ = 1.0 + rho;
    s.step_dt_ = step_dt;
    s.sigma_ = sigma;
    s.gen_.seed(seed);
    return s;
  }

  double rate_at(double t) const {
    extend_to_time(t);
    auto it = std::upper_bound(
        segments_.begin(), segments_.end(), t,
        [](double x, const Segment& s) { return x < s.t0; });
    assert(it != segments_.begin());
    return std::prev(it)->rate;
  }

 private:
  friend class ReferenceClock;

  struct Segment {
    double t0;
    double hw0;
    double rate;
  };

  void extend_to_time(double t) const {
    if (!walk_) return;
    while (segments_.back().t0 + step_dt_ <= t) push_next_segment();
  }

  void extend_to_value(double v) const {
    if (!walk_) return;
    while (segments_.back().hw0 + segments_.back().rate * step_dt_ <= v) {
      push_next_segment();
    }
  }

  void push_next_segment() const {
    const Segment& last = segments_.back();
    std::normal_distribution<double> step(0.0, sigma_);
    const double next_rate = std::clamp(last.rate + step(gen_), lo_, hi_);
    segments_.push_back(Segment{last.t0 + step_dt_,
                                last.hw0 + last.rate * step_dt_, next_rate});
  }

  mutable std::vector<Segment> segments_;
  bool walk_ = false;
  double lo_ = 1.0;
  double hi_ = 1.0;
  double step_dt_ = 1.0;
  double sigma_ = 0.0;
  mutable std::mt19937_64 gen_{0};
};

class ReferenceClock {
 public:
  explicit ReferenceClock(ReferenceSchedule schedule)
      : schedule_(std::move(schedule)) {}

  double value_at(double t) const {
    schedule_.extend_to_time(t);
    const auto& segs = schedule_.segments_;
    auto it = std::upper_bound(
        segs.begin(), segs.end(), t,
        [](double x, const ReferenceSchedule::Segment& s) { return x < s.t0; });
    assert(it != segs.begin());
    const auto& s = *std::prev(it);
    return s.hw0 + s.rate * (t - s.t0);
  }

  double time_when(double value) const {
    schedule_.extend_to_value(value);
    const auto& segs = schedule_.segments_;
    auto it = std::upper_bound(
        segs.begin(), segs.end(), value,
        [](double v, const ReferenceSchedule::Segment& s) {
          return v < s.hw0;
        });
    assert(it != segs.begin());
    const auto& s = *std::prev(it);
    return s.t0 + (value - s.hw0) / s.rate;
  }

  double rate_at(double t) const { return schedule_.rate_at(t); }

 private:
  ReferenceSchedule schedule_;
};

}  // namespace gcs::oracle

#endif  // GCS_ORACLE_REFERENCE_CLOCK_HPP
