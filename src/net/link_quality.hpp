// gcs::net -- per-link quality annotations.
//
// The conclusion of the paper sketches a weighted-graph extension: links
// with tighter delay bounds can sustain proportionally tighter skew
// tolerances.  LinkQualityMap records per-edge delay bounds against a
// default (the global T) and exposes them as weights in (0, 1] that a
// weighted core::DcsaRule plugs into its tolerance policy.
#ifndef GCS_NET_LINK_QUALITY_HPP
#define GCS_NET_LINK_QUALITY_HPP

#include <algorithm>
#include <map>
#include <stdexcept>

#include "net/topology.hpp"
#include "sim/engine.hpp"

namespace gcs::net {

class LinkQualityMap {
 public:
  LinkQualityMap(sim::Duration default_bound,
                 std::map<Edge, sim::Duration> bounds)
      : default_bound_(default_bound), bounds_(std::move(bounds)) {
    if (default_bound_ <= 0.0) {
      throw std::invalid_argument("LinkQualityMap: default bound must be > 0");
    }
    for (const auto& [edge, bound] : bounds_) {
      (void)edge;
      if (bound <= 0.0 || bound > default_bound_) {
        throw std::invalid_argument(
            "LinkQualityMap: per-edge bound must be in (0, default]");
      }
    }
  }

  // Delay bound for the edge; the default for unannotated edges.
  sim::Duration bound(const Edge& e) const {
    auto it = bounds_.find(e);
    return it == bounds_.end() ? default_bound_ : it->second;
  }

  // Tolerance weight in (0, 1]: 1 for a default-quality link, smaller for
  // tighter (better) links.
  double weight(const Edge& e) const { return bound(e) / default_bound_; }

 private:
  sim::Duration default_bound_;
  std::map<Edge, sim::Duration> bounds_;
};

}  // namespace gcs::net

#endif  // GCS_NET_LINK_QUALITY_HPP
