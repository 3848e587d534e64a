// gcs::net -- scenarios: named dynamic-network workloads.
//
// A Scenario is a portable description of one adversary (initial edges +
// topology events) that the harness and benches hand to the simulator.
// The generators here produce the three qualitatively different dynamics
// the experiments exercise:
//
//  * churn       -- a stable ring backbone (so (T+D)-interval connectivity
//                   holds trivially) plus a pool of volatile shortcut
//                   edges that are born and die with a configurable
//                   lifetime;
//  * switching star -- the whole graph is a star whose hub rotates; the
//                   new star is brought up `overlap` seconds before the
//                   old one is torn down so the network never partitions;
//  * mobility    -- random-waypoint motion in the unit square with a
//                   radius-based connectivity graph, optionally unioned
//                   with a static ring backbone to keep it connected;
//  * gauss-markov -- temporally correlated motion (Gauss-Markov): each
//                   node's speed and heading are AR(1) processes with a
//                   tunable memory parameter alpha, speed clamped to
//                   [0, 2*mean_speed], headings reflected at the unit
//                   square's walls;
//  * group       -- reference-point group mobility: virtual group
//                   reference points do random-waypoint, members jitter
//                   inside a disc around their group's point, and nodes
//                   occasionally migrate between groups, so groups
//                   effectively merge and split over time;
//  * trace       -- replay of an externally supplied contact trace
//                   (see net/trace.hpp for the CSV/JSON formats).
//
// None of the mobility-style generators needs a static backbone to
// satisfy the paper's connectivity assumption: pass the scenario through
// enforce_interval_connectivity() to patch in rotating per-window
// connector edges instead (below).
//
// Horizon rule (all generators): every emitted TopologyEvent satisfies
// t < horizon, and post-horizon dynamics are dropped rather than clamped
// onto the horizon.  Whatever is live when the last event fires stays
// live through the end of the run: a churn edge whose death would land at
// or past the horizon stays up, and a rotating star whose teardown would
// land past the horizon keeps its spokes.  This keeps scenario event
// lists exactly coextensive with what a run_until(horizon) simulation can
// execute -- no phantom events linger in the engine queue, and replaying
// a scenario beyond its generation horizon is a caller error by contract.
// test_properties.cpp (ScenarioHorizon) enforces the rule per generator.
#ifndef GCS_NET_SCENARIO_HPP
#define GCS_NET_SCENARIO_HPP

#include <cstddef>
#include <string>
#include <vector>

#include "net/dynamic_graph.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"

namespace gcs::net {

struct Scenario {
  std::string name;
  std::size_t n = 0;
  std::vector<Edge> initial_edges;
  // In no particular order; DynamicGraph stably sorts by time on
  // construction, so generators and callers need not pre-sort.
  std::vector<TopologyEvent> events;

  DynamicGraph to_dynamic_graph() const {
    return DynamicGraph(n, initial_edges, events);
  }
};

// The topology as-is, with no dynamics.
Scenario make_static_scenario(const Topology& topology);

// Ring backbone + `volatile_edges` churning shortcut slots.  Each slot
// holds a random non-backbone edge that lives ~`lifetime` seconds (+-25%
// jitter) before being replaced by a fresh random edge.  Slot births are
// staggered across the first lifetime.
Scenario make_churn_scenario(std::size_t n, std::size_t volatile_edges,
                             double lifetime, double horizon, util::Rng& rng);

// Star whose hub rotates to the next node every `period` seconds.  The
// incoming hub's star is added `overlap` seconds before the outgoing
// hub's spokes are removed (requires 0 < overlap < period).
Scenario make_switching_star_scenario(std::size_t n, double period,
                                      double overlap, double horizon);

// Random-waypoint mobility in the unit square: nodes move at speeds in
// [speed_min, speed_max] toward uniformly re-drawn waypoints; every
// `update_dt` seconds the connectivity graph (edges between nodes within
// `radius`) is recomputed and diffed into topology events.  With
// `backbone` set, a static ring is kept up throughout so the graph never
// partitions.
Scenario make_mobility_scenario(std::size_t n, double radius, double speed_min,
                                double speed_max, double update_dt,
                                double horizon, bool backbone, util::Rng& rng);

// Gauss-Markov mobility in the unit square.  Per node, speed and heading
// evolve as AR(1) processes with memory parameter `alpha` in [0, 1):
//
//   s'  =  alpha * s + (1 - alpha) * mean_speed + sqrt(1 - alpha^2) * N(0, speed_sigma)
//   d'  =  alpha * d + (1 - alpha) * mean_dir_u + sqrt(1 - alpha^2) * N(0, dir_sigma)
//
// where mean_dir_u is a per-node preferred heading drawn at start.
// alpha -> 1 is smooth, ballistic motion; alpha -> 0 is memoryless
// (near-Brownian) jitter.  Speeds are clamped to [0, 2 * mean_speed]
// (velocity clamping, so one large Gaussian draw cannot teleport a node)
// and headings reflect off the square's walls.  Connectivity is the
// radius graph, recomputed every `update_dt`, optionally unioned with a
// static ring backbone.
Scenario make_gauss_markov_scenario(std::size_t n, double radius,
                                    double mean_speed, double alpha,
                                    double speed_sigma, double dir_sigma,
                                    double update_dt, double horizon,
                                    bool backbone, util::Rng& rng);

// Reference-point group mobility: `groups` virtual reference points move
// by random-waypoint at speeds in [speed_min, speed_max]; each node sits
// at its group's reference point plus a jitter offset random-walking
// inside a disc of radius `group_radius`.  Every update each node
// migrates to a uniformly random group with probability `switch_prob`,
// so groups merge and split over time instead of being a fixed
// partition.  Connectivity is the radius graph (optionally + ring
// backbone), so co-located groups naturally bridge.
Scenario make_group_scenario(std::size_t n, std::size_t groups, double radius,
                             double group_radius, double speed_min,
                             double speed_max, double update_dt,
                             double switch_prob, double horizon, bool backbone,
                             util::Rng& rng);

// Post-processes `scenario` so that every full (T+D)-style window
// [k*window, (k+1)*window) with (k+1)*window <= horizon has a connected
// snapshot union, WITHOUT a static backbone: for each window whose union
// of live edges is disconnected, a minimal chain of connector edges is
// added between the union's components, up at the window start and torn
// down at the window end (dropped, not clamped, when the teardown would
// land at or past the horizon -- the generators' horizon rule).  The
// connector endpoints rotate with the window index, so no edge is pinned
// up forever.  A connector always spans two components of its window's
// union, so it can never duplicate an edge that is live inside the
// window; the one possible collision -- a base bring-up of the same edge
// at exactly the connector's teardown instant, which the teardown would
// cancel -- is avoided when candidates are chosen.  If every pair between
// two components collides, the first pair is added without a teardown,
// so the base bring-up is a redundant add and the edge stays up with no
// gap.  Returns the number of windows patched.
//
// audit_interval_connectivity() (net/dynamic_graph.hpp) checks the same
// window/union definition, so an enforced scenario always audits clean.
std::size_t enforce_interval_connectivity(Scenario& scenario, double window,
                                          double horizon);

}  // namespace gcs::net

#endif  // GCS_NET_SCENARIO_HPP
