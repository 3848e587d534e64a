// gcs::oracle -- the ablation variants of Algorithm 2: DcsaNode with one of
// its two rules surgically removed, so the skew-vs-message-cost frontier
// can attribute what each rule buys.
//
//   * NoBlockDcsaNode drops the BLOCKING rule: the node always jumps to
//     its unconstrained catch-up target, ignoring every neighbour's
//     B(age) cap.  Global skew collapses fastest, but nothing protects a
//     lagging neighbour from being left outside its envelope during a
//     reconnection wave -- exactly the gradient property the cap exists
//     for.  (On the quasi-static frontier grids the envelope never binds,
//     so the variant runs clean; its point is the measured frontier
//     position, not a violation demo.)
//
//   * NoJumpDcsaNode drops the CATCH-UP rule: the logical clock free-runs
//     at the hardware rate forever.  Zero adjustment cost, and the
//     observed skew is the raw drift envelope 2*rho*t -- the frontier's
//     "do nothing" anchor.
//
// Both variants still track peer estimates (messages are received and
// aged normally), so their message cost is identical to plain DCSA --
// the broadcast schedule is delta_h-driven, not rule-driven.  The
// weighted tolerance extension lives in weighted_dcsa_node.hpp; together
// the three are the per-node oracles for core::DcsaRule's block, jump
// and weight switches (the "variant" axis of
// campaigns/ablation_frontier.json).
#ifndef GCS_ORACLE_ABLATION_VARIANTS_HPP
#define GCS_ORACLE_ABLATION_VARIANTS_HPP

#include "oracle/dcsa_node.hpp"

namespace gcs::oracle {

class NoBlockDcsaNode : public DcsaNode {
 public:
  using DcsaNode::DcsaNode;

  double step(const NodeContext& ctx) override {
    const double hw_now = ctx.hw_now;
    const double logical = logical_clock(hw_now);
    const double target = unconstrained_target(hw_now, logical);
    fast_ = target > logical;
    if (target > logical) {
      offset_ += target - logical;
      return target - logical;
    }
    return 0.0;
  }
};

class NoJumpDcsaNode : public DcsaNode {
 public:
  using DcsaNode::DcsaNode;

  double step(const NodeContext& ctx) override {
    (void)ctx;
    fast_ = false;
    return 0.0;
  }
};

}  // namespace gcs::oracle

#endif  // GCS_ORACLE_ABLATION_VARIANTS_HPP
