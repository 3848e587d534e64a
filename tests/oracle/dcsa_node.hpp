// gcs::oracle -- Algorithm 2 of Kuhn-Locher-Oshman (SPAA'09): the dynamic
// clock synchronization automaton (DCSA), one object per node.
//
// This is the readable reference form of the rules core::DcsaColumns
// implements in flat arenas; tests and benches run it through
// AutomatonStore in lockstep with the columns, bit for bit.
//
// Each node keeps a logical clock L that advances at its hardware rate
// (slow mode) and may additionally JUMP forward (the discrete realization
// of fast mode) when it learns of larger clocks.  The two rules:
//
//   * Catch-up: the node tracks, per neighbour, a conservative lower
//     bound on the neighbour's current logical clock (last received value
//     aged at rate (1-rho)/(1+rho) of its own hardware clock, so the
//     estimate can never overshoot the truth).  The unconstrained jump
//     target is the max over these estimates.
//
//   * Blocking: the node must not leave any neighbour behind by more than
//     the edge's tolerance B(age), where age is the edge's age on the
//     node's hardware clock.  The jump is capped at
//         min over neighbours w of  est_low(w) + B(age_w),
//     and because est_low is a lower bound, the realized skew toward w
//     never exceeds B.  A neighbour whose cap binds strictly below the
//     unconstrained target BLOCKS the node (is_blocked_by); a node whose
//     cap sits below its own clock cannot jump at all and free-runs at
//     its hardware rate.  Because B(0) > G(n), a brand-new edge can never
//     block (Lemma 6.10) -- the crippled variants in bench_ablation break
//     exactly this property.
//
// Clocks never run backwards: the jump delta is always >= 0.
#ifndef GCS_ORACLE_DCSA_NODE_HPP
#define GCS_ORACLE_DCSA_NODE_HPP

#include <map>

#include "core/bfunc.hpp"
#include "core/params.hpp"
#include "oracle/node_automaton.hpp"

namespace gcs::oracle {

using core::BFunction;
using core::SyncParams;

class DcsaNode : public NodeAutomaton {
 public:
  explicit DcsaNode(const SyncParams& params)
      : DcsaNode(params, BFunction(params)) {}

  DcsaNode(const SyncParams& params, BFunction tolerance_fn)
      : params_(params),
        bfunc_(tolerance_fn),
        kappa_((1.0 - params.rho) / (1.0 + params.rho)) {}

  void start(const NodeContext& ctx) override {
    self_ = ctx.self;
    offset_ = -ctx.hw_now;  // logical clock starts at 0, tracking hardware rate
  }

  void on_edge_up(const NodeContext& ctx, NodeId peer) override {
    peers_[peer] = PeerState{ctx.hw_now, false, 0.0, 0.0};
  }

  void on_edge_down(const NodeContext& /*ctx*/, NodeId peer) override {
    peers_.erase(peer);
  }

  void on_message(const NodeContext& ctx, NodeId from,
                  double logical_value) override {
    const double hw_now = ctx.hw_now;
    auto it = peers_.find(from);
    if (it == peers_.end()) return;  // edge vanished mid-flight; stale input
    PeerState& p = it->second;
    // Keep the strongest lower bound: with variable delays a message can
    // arrive out of order, so only adopt it if it beats the aged estimate.
    if (p.has_estimate && estimate_low(p, hw_now) >= logical_value) return;
    p.value = logical_value;
    p.hw_recv = hw_now;
    p.has_estimate = true;
  }

  double step(const NodeContext& ctx) override {
    const double hw_now = ctx.hw_now;
    const double logical = logical_clock(hw_now);
    const double target = unconstrained_target(hw_now, logical);
    fast_ = target > logical;
    double cap = target;
    for (const auto& [peer, state] : peers_) {
      if (!state.has_estimate) continue;  // covered by B(0) > G(n)
      const double allowed =
          estimate_low(state, hw_now) + tolerance(peer, hw_now - state.hw_up);
      cap = cap < allowed ? cap : allowed;
    }
    if (cap > logical) {
      offset_ += cap - logical;
      return cap - logical;
    }
    return 0.0;
  }

  double logical_clock(double hw_now) const override {
    return hw_now + offset_;
  }

  bool fast_mode() const override { return fast_; }

  // True iff `peer`'s tolerance cap currently binds strictly below this
  // node's unconstrained jump target: the peer is holding the node back.
  bool is_blocked_by(NodeId peer, double hw_now) const {
    auto it = peers_.find(peer);
    if (it == peers_.end() || !it->second.has_estimate) return false;
    const double target =
        unconstrained_target(hw_now, logical_clock(hw_now));
    return estimate_low(it->second, hw_now) +
               tolerance(peer, hw_now - it->second.hw_up) <
           target;
  }

  const BFunction& tolerance_fn() const { return bfunc_; }

 protected:
  struct PeerState {
    double hw_up = 0.0;    // our hardware clock when the edge appeared
    bool has_estimate = false;
    double value = 0.0;    // last received logical clock value
    double hw_recv = 0.0;  // our hardware clock at reception
  };

  // Edge tolerance toward `peer` at hardware age `age`; WeightedDcsaNode
  // overrides this to scale the steady floor by link quality.
  virtual double tolerance(NodeId peer, double age) const {
    (void)peer;
    return bfunc_(age);
  }

  // Lower bound on the peer's current logical clock.  Real time elapsed
  // since reception is at least (hw_now - hw_recv)/(1+rho), and the
  // peer's clock advances at rate >= 1-rho and never jumps backwards.
  double estimate_low(const PeerState& p, double hw_now) const {
    return p.value + kappa_ * (hw_now - p.hw_recv);
  }

  double unconstrained_target(double hw_now, double logical) const {
    double target = logical;
    for (const auto& [peer, state] : peers_) {
      (void)peer;
      if (!state.has_estimate) continue;
      const double est = estimate_low(state, hw_now);
      target = target > est ? target : est;
    }
    return target;
  }

  SyncParams params_;
  BFunction bfunc_;
  double kappa_;
  NodeId self_ = 0;
  double offset_ = 0.0;
  bool fast_ = false;
  std::map<NodeId, PeerState> peers_;  // ordered: deterministic iteration
};

}  // namespace gcs::oracle

#endif  // GCS_ORACLE_DCSA_NODE_HPP
