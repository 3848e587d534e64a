// gcs::oracle -- the weighted-tolerance extension from the paper's
// conclusion: on a weighted graph, links with better delay bounds can be
// held to proportionally tighter skew tolerances.
//
// Only the STEADY floor of the tolerance is scaled by the link weight;
// the decaying B(0) = b0 + G headroom of a young edge is left untouched,
// so Lemma 6.10 (a new edge never blocks) survives the extension.  A
// matured edge of weight w thus tolerates w * b0 instead of b0 -- during
// a post-reconnection adjustment wave a node may overshoot a neighbour by
// at most its edge tolerance (Lemma 6.6), so precision links stay tighter
// through transients, which is exactly what bench_ablation measures.
#ifndef GCS_ORACLE_WEIGHTED_DCSA_NODE_HPP
#define GCS_ORACLE_WEIGHTED_DCSA_NODE_HPP

#include <algorithm>
#include <functional>
#include <utility>

#include "oracle/dcsa_node.hpp"

namespace gcs::oracle {

class WeightedDcsaNode : public DcsaNode {
 public:
  using WeightFn = std::function<double(NodeId, NodeId)>;

  // `weight(self, peer)` returns the edge's tolerance weight in (0, 1]
  // (see net::LinkQualityMap::weight).  Weights are clamped below at
  // `min_weight` so a mislabeled link can't freeze the jump rule.
  WeightedDcsaNode(const SyncParams& params, WeightFn weight,
                   double min_weight = 0.25)
      : DcsaNode(params), weight_(std::move(weight)), min_weight_(min_weight) {}

  WeightedDcsaNode(const SyncParams& params, BFunction tolerance_fn,
                   WeightFn weight, double min_weight = 0.25)
      : DcsaNode(params, tolerance_fn),
        weight_(std::move(weight)),
        min_weight_(min_weight) {}

 protected:
  double tolerance(NodeId peer, double age) const override {
    const double w =
        std::clamp(weight_(self_, peer), min_weight_, 1.0);
    const double base = bfunc_(age);
    const double floor = bfunc_.floor();
    return w * floor + (base - floor);
  }

 private:
  WeightFn weight_;
  double min_weight_;
};

}  // namespace gcs::oracle

#endif  // GCS_ORACLE_WEIGHTED_DCSA_NODE_HPP
