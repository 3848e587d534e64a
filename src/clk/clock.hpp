// gcs::clk -- hardware clocks with bounded drift.
//
// The paper's model (Sec. 3): every node has a hardware clock whose rate
// stays within [1 - rho, 1 + rho] of real time.  Nodes never see real
// time; every timeout and edge age in the algorithm layer is measured on
// these clocks.  A RateSchedule is a piecewise-constant rate trajectory,
// either a single constant rate or a seeded, lazily extended random walk
// clamped to the drift bounds.  HardwareClock integrates a schedule and
// answers both directions: value_at(real time) and time_when(clock value)
// (the latter is what the simulator uses to schedule "every delta_h of
// hardware time" broadcasts as real-time events).
//
// A walk schedule holds no random engine.  It keeps its seed and the
// number of std::mt19937_64 outputs its segments have consumed; each
// extension rebuilds that stream on the stack, skips the used outputs and
// appends a chunk of segments, so the segments are exactly those one
// engine drawn step by step would give, at 80 bytes per clock (plus its
// segments) instead of the engine's 2.5 KB.
#ifndef GCS_CLK_CLOCK_HPP
#define GCS_CLK_CLOCK_HPP

#include <cstdint>
#include <vector>

namespace gcs::clk {

class RateSchedule {
 public:
  // Constant-rate clock (rate must be positive; the drift model expects it
  // in [1 - rho, 1 + rho] but this is not enforced here so tests can build
  // degenerate clocks).
  RateSchedule(double rate = 1.0);  // NOLINT(runtime/explicit) -- benches
                                    // emplace_back(double) into vectors.

  // Random-walk drift: the rate starts at `start_rate`, and every
  // `step_dt` seconds of real time takes a Gaussian step with deviation
  // `sigma`, clamped to [1 - rho, 1 + rho].  Deterministic per seed;
  // segments are generated lazily as the simulation queries further into
  // the future.
  static RateSchedule random_walk(double rho, double step_dt, double sigma,
                                  std::uint64_t seed, double start_rate = 1.0);

  double rate_at(double t) const;

  bool is_constant() const { return !walk_; }

 private:
  friend class HardwareClock;

  struct Segment {
    double t0;    // real-time start of the segment
    double hw0;   // accumulated clock value at t0
    double rate;  // clock rate during [t0, next.t0)
  };

  // Ensures segments cover real time `t` / clock value `v`.
  void extend_to_time(double t) const;
  void extend_to_value(double v) const;
  // Appends at least one chunk of segments, and then more until
  // `covered(segments_.back())` holds.
  template <class Covered>
  void extend(Covered covered) const;

  mutable std::vector<Segment> segments_;
  double lo_ = 1.0;
  double hi_ = 1.0;
  double step_dt_ = 1.0;
  double sigma_ = 0.0;
  std::uint64_t seed_ = 0;
  mutable std::uint64_t draws_ = 0;  // engine outputs the segments consumed
  bool walk_ = false;
};

// A hardware clock starting at value 0 at real time 0, advancing at the
// schedule's rate.  Rates are strictly positive, so the value is strictly
// increasing and invertible.
class HardwareClock {
 public:
  explicit HardwareClock(RateSchedule schedule);

  // Clock reading at real time t (t >= 0).
  double value_at(double t) const;
  // Inverse: the real time at which the clock reads `value` (value >= 0).
  double time_when(double value) const;
  double rate_at(double t) const { return schedule_.rate_at(t); }

 private:
  RateSchedule schedule_;
};

}  // namespace gcs::clk

#endif  // GCS_CLK_CLOCK_HPP
