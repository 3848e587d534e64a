#include "oracle/dcsa_node.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/dcsa_columns.hpp"
#include "core/network_sim.hpp"
#include "net/delay.hpp"
#include "net/scenario.hpp"
#include "oracle/ablation_variants.hpp"
#include "oracle/automaton_store.hpp"
#include "oracle/weighted_dcsa_node.hpp"

namespace {

gcs::core::SyncParams small_params(std::size_t n) {
  gcs::core::SyncParams p;
  p.n = n;
  p.rho = 0.05;
  p.T = 1.0;
  p.D = 2.0;
  p.delta_h = 0.5;
  return p;
}

// Direct-call context for node-level tests: hw_now carries the clock, and
// `now` (diagnostic only) just mirrors it.
gcs::core::NodeContext at(gcs::core::NodeId self, double hw_now) {
  return gcs::core::NodeContext{self, hw_now, hw_now};
}

TEST(DcsaNode, JumpsTowardLargerEstimateButNeverBackwards) {
  const auto p = small_params(2);
  gcs::oracle::DcsaNode node(p);
  node.start(at(0, 0.0));
  node.on_edge_up(at(0, 0.0), 1);
  EXPECT_DOUBLE_EQ(node.logical_clock(5.0), 5.0);

  node.on_message(at(0, 5.0), 1, 20.0);
  const double jump = node.step(at(0, 5.0));
  EXPECT_GT(jump, 0.0);
  EXPECT_DOUBLE_EQ(node.logical_clock(5.0), 20.0);
  EXPECT_TRUE(node.fast_mode());

  // A smaller (stale) estimate must not pull the clock down.
  node.on_message(at(0, 6.0), 1, 1.0);
  EXPECT_DOUBLE_EQ(node.step(at(0, 6.0)), 0.0);
  EXPECT_DOUBLE_EQ(node.logical_clock(6.0), 21.0);
}

TEST(DcsaNode, CrippledToleranceBlocksJump) {
  auto p = small_params(3);
  // A tolerance with no G headroom: B(age) == b0 everywhere.
  const gcs::core::BFunction crippled(p.effective_b0(), 0.0, p.tau(), p.rho);
  gcs::oracle::DcsaNode node(p, crippled);
  node.start(at(0, 0.0));
  node.on_edge_up(at(0, 0.0), 1);  // the neighbour far ahead
  node.on_edge_up(at(0, 0.0), 2);  // the laggard holding us back
  const double b0 = p.effective_b0();

  node.on_message(at(0, 1.0), 1, 100.0);         // way ahead
  node.on_message(at(0, 1.0), 2, -(b0 + 50.0));  // way behind
  EXPECT_TRUE(node.is_blocked_by(2, 1.0));
  EXPECT_FALSE(node.is_blocked_by(1, 1.0));
  // The cap (laggard's estimate + b0) sits below the current clock, so no
  // jump happens at all and the node free-runs at its hardware rate.
  EXPECT_DOUBLE_EQ(node.step(at(0, 1.0)), 0.0);
  EXPECT_DOUBLE_EQ(node.logical_clock(1.0), 1.0);
}

TEST(DcsaNode, ProperToleranceDoesNotBlockFreshSkew) {
  auto p = small_params(3);
  gcs::oracle::DcsaNode node(p);  // proper B: B(0) = b0 + G(n) > G(n)
  node.start(at(0, 0.0));
  node.on_edge_up(at(0, 0.0), 1);
  node.on_edge_up(at(0, 0.0), 2);
  // The laggard is behind by nearly the whole global bound -- legal for a
  // fresh edge, and by Lemma 6.10 it must not block.
  node.on_message(at(0, 1.0), 1, 10.0);
  node.on_message(at(0, 1.0), 2, -(p.global_skew_bound() - 10.0));
  EXPECT_FALSE(node.is_blocked_by(2, 1.0));
  node.step(at(0, 1.0));
  EXPECT_DOUBLE_EQ(node.logical_clock(1.0), 10.0);
}

TEST(WeightedDcsaNode, TightLinkTightensOnlyTheFloor) {
  auto p = small_params(3);
  auto weight = [](gcs::core::NodeId, gcs::core::NodeId peer) {
    return peer == 2 ? 0.5 : 1.0;
  };
  gcs::oracle::WeightedDcsaNode node(p, weight, 0.5);
  node.start(at(0, 0.0));
  node.on_edge_up(at(0, 0.0), 1);
  node.on_edge_up(at(0, 0.0), 2);
  const double b0 = p.effective_b0();

  // Matured edges (age far past decay): the cap toward the tight peer 2
  // is half the cap toward the default peer 1.
  const double age = node.tolerance_fn().decay_age() + 100.0;
  const double before = node.logical_clock(age);
  node.on_message(at(0, age), 1, before + 1000.0);  // strong pull upward
  node.on_message(at(0, age), 2, before);  // tight peer level with us
  node.step(at(0, age));
  // Overshoot over the tight peer is capped by the weighted floor w * b0.
  EXPECT_NEAR(node.logical_clock(age) - before, 0.5 * b0, 1e-9);
  EXPECT_TRUE(node.is_blocked_by(2, age));
}

// End-to-end: a two-camp network on a ring must keep the global skew
// under G(n) and live-edge skews under the envelope, with zero
// conformance failures from the simulator's own checker.
TEST(NetworkSimulation, TwoCampRingStaysInsideBounds) {
  const auto p = small_params(8);
  std::vector<gcs::clk::RateSchedule> schedules;
  for (std::size_t i = 0; i < p.n; ++i) {
    schedules.emplace_back(i % 2 == 0 ? 1.0 + p.rho : 1.0 - p.rho);
  }
  gcs::core::NetworkSimulation sim(
      p,
      gcs::net::DynamicGraph(p.n, gcs::net::make_ring(p.n).edges(), {}),
      gcs::net::make_constant_delay(p.T, p.T / 2.0), std::move(schedules));
  sim.run_until(60.0);
  EXPECT_GT(sim.stats().messages_delivered, 0u);
  EXPECT_GT(sim.stats().jumps, 0u);
  EXPECT_EQ(sim.stats().conformance_envelope_failures, 0u);
  EXPECT_EQ(sim.stats().conformance_monotonicity_failures, 0u);
  double lo = sim.logical_clock(0), hi = lo;
  for (gcs::core::NodeId i = 1; i < p.n; ++i) {
    lo = std::min(lo, sim.logical_clock(i));
    hi = std::max(hi, sim.logical_clock(i));
  }
  EXPECT_LE(hi - lo, p.global_skew_bound());
  EXPECT_GT(hi, 50.0);  // clocks actually advanced through the horizon
}

// Sink that records the jumps reported through after(), for driving a
// store directly.
struct JumpSink : gcs::core::DeliverySink {
  std::vector<double> jumps;
  void before(const gcs::core::StoreDelivery&) override {}
  void after(const gcs::core::StoreDelivery&, double jump) override {
    jumps.push_back(jump);
  }
};

// One DcsaColumns rule next to the per-node oracle automaton that
// defines it.  Every rule runs on the proper B and on a crippled B with
// no G headroom (the cap binds constantly, bench_ablation's regime).
struct RuleCase {
  std::string name;
  gcs::core::DcsaRule rule;
  std::function<std::unique_ptr<gcs::oracle::DcsaNode>()> oracle;
};

// A tight link to peer 2, default quality everywhere else.  0.3 is not
// a power of two, so w * floor rounds and any reassociation of the
// weighted tolerance shows up in the low bits.
double link_weight(gcs::core::NodeId, gcs::core::NodeId peer) {
  return peer == 2 ? 0.3 : 1.0;
}

std::vector<RuleCase> rule_cases(const gcs::core::SyncParams& p) {
  using gcs::core::BFunction;
  namespace oracle = gcs::oracle;
  std::vector<RuleCase> cases;
  const BFunction proper(p);
  const BFunction crippled(p.effective_b0(), 0.0, p.tau(), p.rho);
  for (const BFunction& b : {proper, crippled}) {
    const std::string tag =
        b.initial() == proper.initial() ? "" : "/crippled";
    gcs::core::DcsaRule rule(p);
    rule.tolerance = b;
    cases.push_back({"dcsa" + tag, rule, [p, b] {
                       return std::make_unique<oracle::DcsaNode>(p, b);
                     }});
    gcs::core::DcsaRule weighted = rule;
    weighted.weight = link_weight;
    cases.push_back({"weighted" + tag, weighted, [p, b] {
                       return std::make_unique<oracle::WeightedDcsaNode>(
                           p, b, link_weight);
                     }});
    gcs::core::DcsaRule noblock = rule;
    noblock.block = false;
    cases.push_back({"noblock" + tag, noblock, [p, b] {
                       return std::make_unique<oracle::NoBlockDcsaNode>(p, b);
                     }});
    gcs::core::DcsaRule nojump = rule;
    nojump.jump = false;
    cases.push_back({"nojump" + tag, nojump, [p, b] {
                       return std::make_unique<oracle::NoJumpDcsaNode>(p, b);
                     }});
  }
  return cases;
}

// The struct-of-arrays store must reproduce the oracle's arithmetic bit
// for bit under every rule: same deliveries, same jumps, same logical
// clocks, same fast flag, same blocking verdicts -- including across
// edge churn that exercises slot reuse.
TEST(DcsaColumns, MirrorsDcsaNodeBitForBit) {
  const auto p = small_params(4);
  for (const RuleCase& rc : rule_cases(p)) {
    SCOPED_TRACE(rc.name);
    auto node = rc.oracle();
    gcs::core::DcsaColumns cols(p, 4, rc.rule);

    const gcs::core::NodeContext zero = at(0, 0.0);
    node->start(zero);
    for (gcs::core::NodeId u = 0; u < 4; ++u) cols.start(at(u, 0.0));
    for (gcs::core::NodeId peer : {1u, 2u, 3u}) {
      node->on_edge_up(zero, peer);
      cols.edge_up(zero, peer);
    }

    JumpSink sink;
    std::vector<double> node_jumps;
    const double values[] = {7.5, -3.25, 12.0, 11.875, 0.5, 40.0};
    double hw = 0.5;
    for (std::size_t k = 0; k < 6; ++k, hw += 0.625) {
      const gcs::core::NodeId from = 1 + (k % 3);
      gcs::core::StoreDelivery d;
      d.from = from;
      d.to = 0;
      d.value = values[k];
      d.hw_now = hw;
      d.now = hw;
      node->on_message(at(0, hw), from, values[k]);
      node_jumps.push_back(node->step(at(0, hw)));
      cols.on_deliveries(&d, 1, sink);
      ASSERT_EQ(sink.jumps.size(), k + 1);
      EXPECT_EQ(sink.jumps[k], node_jumps[k]) << "record " << k;
      EXPECT_EQ(cols.logical_clock(0, hw), node->logical_clock(hw));
      EXPECT_EQ(cols.fast_mode(0), node->fast_mode());
      // Peer 4 is not a neighbour: never blocking, on either side.
      for (gcs::core::NodeId peer : {1u, 2u, 3u, 4u}) {
        EXPECT_EQ(cols.is_blocked_by(0, peer, hw),
                  node->is_blocked_by(peer, hw))
            << "record " << k << " peer " << peer;
      }

      if (k == 2) {  // churn an edge mid-stream: both must forget peer 2
        node->on_edge_down(at(0, hw), 2);
        cols.edge_down(at(0, hw), 2);
        node->on_edge_up(at(0, hw), 2);
        cols.edge_up(at(0, hw), 2);
      }
    }
  }
}

// Slot-arena mechanics: segments grow past the initial capacity by
// relocation, edge_down swap-removes, and the books (live_slots,
// arena_bytes) stay consistent.
TEST(DcsaColumns, SlotArenaGrowsAndShrinks) {
  const auto p = small_params(64);
  gcs::core::DcsaColumns cols(p, 64);
  for (gcs::core::NodeId u = 0; u < 64; ++u) cols.start(at(u, 0.0));

  // Degree 12 on node 0 forces two relocations (cap 4 -> 8 -> 16).
  for (gcs::core::NodeId peer = 1; peer <= 12; ++peer) {
    cols.edge_up(at(0, 0.0), peer);
  }
  EXPECT_EQ(cols.live_slots(), 12u);
  EXPECT_GT(cols.arena_bytes(), 0u);

  for (gcs::core::NodeId peer = 1; peer <= 12; ++peer) {
    cols.edge_down(at(0, 1.0), peer);
  }
  EXPECT_EQ(cols.live_slots(), 0u);

  // Re-adding after a full teardown reuses the segment cleanly.
  cols.edge_up(at(0, 2.0), 5);
  EXPECT_EQ(cols.live_slots(), 1u);
  gcs::core::StoreDelivery d;
  d.from = 5;
  d.to = 0;
  d.value = 100.0;
  d.hw_now = 2.0;
  d.now = 2.0;
  JumpSink sink;
  cols.on_deliveries(&d, 1, sink);
  EXPECT_GT(sink.jumps.at(0), 0.0);
  EXPECT_EQ(cols.logical_clock(0, 2.0), 100.0);
}

// Adversarial grow/shrink churn on one segment: estimates set before a
// cap-doubling relocation must ride along to the new region bit-exact,
// swap-removes at the head/middle/tail of the segment must not corrupt
// survivors, and reclaimed slots must come back clean -- all mirrored
// delivery-for-delivery against the oracle automaton, under every rule.
TEST(DcsaColumns, AdversarialChurnKeepsRelocatedSegmentsBitExact) {
  const auto p = small_params(64);
  for (const RuleCase& rc : rule_cases(p)) {
    SCOPED_TRACE(rc.name);
    auto node = rc.oracle();
    gcs::core::DcsaColumns cols(p, 64, rc.rule);
    node->start(at(0, 0.0));
    for (gcs::core::NodeId u = 0; u < 64; ++u) cols.start(at(u, 0.0));

    JumpSink sink;
    double hw = 0.25;
    auto deliver = [&](gcs::core::NodeId from, double value) {
      gcs::core::StoreDelivery d;
      d.from = from;
      d.to = 0;
      d.value = value;
      d.hw_now = hw;
      d.now = hw;
      node->on_message(at(0, hw), from, value);
      const double want = node->step(at(0, hw));
      sink.jumps.clear();
      cols.on_deliveries(&d, 1, sink);
      ASSERT_EQ(sink.jumps.size(), 1u);
      EXPECT_EQ(sink.jumps[0], want) << "from " << from << " at hw " << hw;
      EXPECT_EQ(cols.logical_clock(0, hw), node->logical_clock(hw));
      EXPECT_EQ(cols.fast_mode(0), node->fast_mode());
      EXPECT_EQ(cols.is_blocked_by(0, from, hw), node->is_blocked_by(from, hw))
          << "from " << from << " at hw " << hw;
      hw += 0.375;
    };
    auto up = [&](gcs::core::NodeId peer) {
      node->on_edge_up(at(0, hw), peer);
      cols.edge_up(at(0, hw), peer);
    };
    auto down = [&](gcs::core::NodeId peer) {
      node->on_edge_down(at(0, hw), peer);
      cols.edge_down(at(0, hw), peer);
    };

    // Grow through three relocations (cap 4 -> 8 -> 16 -> 32), delivering
    // after every edge so each relocation carries live estimates.
    for (gcs::core::NodeId peer = 1; peer <= 20; ++peer) {
      up(peer);
      deliver(peer, 3.0 * peer + 0.125);
    }
    EXPECT_EQ(cols.live_slots(), 20u);

    // Swap-remove the segment's first, middle, and last slot, then hear
    // from every survivor (a stale or mis-copied slot diverges instantly).
    down(1);
    down(10);
    down(20);
    EXPECT_EQ(cols.live_slots(), 17u);
    for (gcs::core::NodeId peer = 2; peer <= 19; ++peer) {
      if (peer == 10) continue;
      deliver(peer, 100.0 + peer);
    }
    // A message from a removed peer updates nothing (but still steps).
    deliver(1, 1e6);

    // Reclaim the freed slots and push through one more relocation.
    for (gcs::core::NodeId peer : {1u, 10u, 20u}) {
      up(peer);
      deliver(peer, 200.0 + peer);
    }
    for (gcs::core::NodeId peer = 21; peer <= 40; ++peer) {
      up(peer);
      deliver(peer, 50.0 + peer);
    }
    EXPECT_EQ(cols.live_slots(), 40u);
  }
}

// The hole-threshold compaction must actually fire under churn -- the
// seed's "half the arena" threshold was unreachable (doubling growth
// leaves c-4 holes against 2c-4 allocated slots per segment, strictly
// under one half forever) -- and a fired compaction must preserve every
// segment: estimates recorded before the rebuild still drive jumps
// bit-identical to the oracle automatons after it.  The weighted case
// gives every slot its own non-power-of-two weight on a crippled B, so
// the cap binds and a weight column dropped or shifted by the rebuild
// changes the jumps.
TEST(DcsaColumns, HoleCompactionFiresAndPreservesSegments) {
  namespace oracle = gcs::oracle;
  const std::size_t n = 600;
  const auto p = small_params(n);
  const gcs::core::BFunction crippled(p.effective_b0(), 0.0, p.tau(), p.rho);
  const auto slot_weight = [n](gcs::core::NodeId self,
                               gcs::core::NodeId peer) {
    return 0.3 + 0.07 * static_cast<double>((peer + n - self) % n);
  };
  gcs::core::DcsaRule weighted(p);
  weighted.tolerance = crippled;
  weighted.weight = slot_weight;
  for (const bool weigh : {false, true}) {
    SCOPED_TRACE(weigh ? "weighted/crippled" : "dcsa");
    gcs::core::DcsaColumns cols(p, n,
                                weigh ? weighted : gcs::core::DcsaRule(p));
    std::vector<std::unique_ptr<oracle::DcsaNode>> nodes;
    for (gcs::core::NodeId u = 0; u < n; ++u) {
      if (weigh) {
        nodes.push_back(std::make_unique<oracle::WeightedDcsaNode>(
            p, crippled, slot_weight));
      } else {
        nodes.push_back(std::make_unique<oracle::DcsaNode>(p));
      }
      nodes[u]->start(at(u, 0.0));
      cols.start(at(u, 0.0));
    }

    // Degree 9 everywhere: two relocations per node (cap 4 -> 8 -> 16),
    // 12 holes a node, so holes cross the 4096 absolute floor and a
    // quarter of the arena a bit past node 340.  arena_bytes() shrinking
    // across an edge_up is the compaction firing.
    JumpSink sink;
    std::size_t compactions = 0;
    std::size_t prev_bytes = cols.arena_bytes();
    for (gcs::core::NodeId u = 0; u < n; ++u) {
      for (gcs::core::NodeId k = 1; k <= 9; ++k) {
        const gcs::core::NodeId peer = (u + k) % n;
        nodes[u]->on_edge_up(at(u, 0.0), peer);
        cols.edge_up(at(u, 0.0), peer);
        if (cols.arena_bytes() < prev_bytes) ++compactions;
        prev_bytes = cols.arena_bytes();
        if (k == 5) {  // a mid-growth estimate the rebuild must carry
          gcs::core::StoreDelivery d;
          d.from = peer;
          d.to = u;
          d.value = 0.5 + 0.001 * u;
          d.hw_now = 0.5;
          d.now = 0.5;
          nodes[u]->on_message(at(u, 0.5), peer, d.value);
          const double want = nodes[u]->step(at(u, 0.5));
          sink.jumps.clear();
          cols.on_deliveries(&d, 1, sink);
          ASSERT_EQ(sink.jumps.at(0), want) << "node " << u;
        }
      }
    }
    EXPECT_GE(compactions, 1u);
    EXPECT_EQ(cols.live_slots(), n * 9u);

    // Segments on both sides of the compaction point still mirror the
    // oracle automatons exactly, pre-rebuild estimates included.
    double hw = 1.0;
    for (gcs::core::NodeId u : {0u, 200u, 341u, 342u, 599u}) {
      gcs::core::StoreDelivery d;
      d.from = (u + 3) % n;
      d.to = u;
      d.value = 500.0 + u;
      d.hw_now = hw;
      d.now = hw;
      nodes[u]->on_message(at(u, hw), d.from, d.value);
      const double want = nodes[u]->step(at(u, hw));
      sink.jumps.clear();
      cols.on_deliveries(&d, 1, sink);
      ASSERT_EQ(sink.jumps.at(0), want) << "node " << u;
      EXPECT_EQ(cols.logical_clock(u, hw), nodes[u]->logical_clock(hw));
      for (gcs::core::NodeId k = 1; k <= 9; ++k) {
        const gcs::core::NodeId peer = (u + k) % n;
        EXPECT_EQ(cols.is_blocked_by(u, peer, hw),
                  nodes[u]->is_blocked_by(peer, hw))
            << "node " << u << " peer " << peer;
      }
      hw += 0.5;
    }

    // edge_down still finds every relocated-and-rebuilt slot.
    for (gcs::core::NodeId u = 0; u < n; ++u) {
      cols.edge_down(at(u, 2.0), (u + 1) % n);
    }
    EXPECT_EQ(cols.live_slots(), n * 8u);
  }
}

// End-to-end store equivalence at the simulation layer: the columns
// store and the per-node oracle store (injected through the simulator's
// NodeStore constructor) must produce bit-identical clocks and identical
// statistics on the same dynamic run.
TEST(NetworkSimulation, ColumnsMatchesAdapterTrajectory) {
  const auto p = small_params(8);
  auto make_schedules = [&] {
    std::vector<gcs::clk::RateSchedule> schedules;
    for (std::size_t i = 0; i < p.n; ++i) {
      schedules.emplace_back(i % 2 == 0 ? 1.0 + p.rho : 1.0 - p.rho);
    }
    return schedules;
  };
  auto make_graph = [&] {
    // Ring plus churn: one edge flaps every 3 time units.
    std::vector<gcs::net::TopologyEvent> events;
    for (int k = 0; k < 10; ++k) {
      events.push_back({3.0 * k + 1.0, gcs::net::Edge(0, 4), k % 2 == 0});
    }
    return gcs::net::DynamicGraph(p.n, gcs::net::make_ring(p.n).edges(),
                                  events);
  };

  gcs::core::NetworkSimulation columns(
      p, make_graph(), gcs::net::make_constant_delay(p.T, p.T / 2.0),
      make_schedules());
  gcs::core::NetworkSimulation per_node(
      p, make_graph(), gcs::net::make_constant_delay(p.T, p.T / 2.0),
      make_schedules(),
      gcs::oracle::automaton_store(p.n, [&p](gcs::core::NodeId) {
        return std::make_unique<gcs::oracle::DcsaNode>(p);
      }));
  columns.run_until(40.0);
  per_node.run_until(40.0);

  for (gcs::core::NodeId u = 0; u < p.n; ++u) {
    EXPECT_EQ(columns.logical_clock(u), per_node.logical_clock(u))
        << "node " << u;
  }
  EXPECT_EQ(columns.stats().messages_delivered,
            per_node.stats().messages_delivered);
  EXPECT_EQ(columns.stats().jumps, per_node.stats().jumps);
  EXPECT_EQ(columns.stats().total_jump, per_node.stats().total_jump);
  EXPECT_GT(columns.stats().jumps, 0u);
  // The columns store reports its arena; the oracle hides state behind
  // heap objects and reports 0.
  EXPECT_GT(columns.stats().arena_bytes, 0u);
  EXPECT_EQ(per_node.stats().arena_bytes, 0u);
}

}  // namespace
