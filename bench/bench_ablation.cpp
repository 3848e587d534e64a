// EXP-ABL — ablations of the design choices DESIGN.md calls out.
//
// (a) Initial tolerance B(0) > G(n) (Lemma 6.10: "a new edge can never
//     block"). We run Algorithm 2 with the proper B next to crippled
//     variants whose G(n) term is scaled down. Workload: after all old
//     edges matured, a shortcut appears between the slow camp's
//     most-ahead node (u = n/2) and its most-behind node (n-1), whose
//     accumulated skew exceeds the crippled B(0). The crippled tolerance
//     immediately binds below the existing skew and *blocks* u: it can
//     no longer jump after Lmax and free-runs at 1-rho, bleeding skew
//     onto its local edges until the far endpoint catches up. Reported:
//     peak global skew and peak local skew around u after the shortcut —
//     both grow as the B(0) scaling shrinks; the proper algorithm is
//     unaffected by construction.
//
// (b) Weighted tolerances (the conclusion's weighted-graph extension):
//     when the post-shortcut adjustment wave passes, a node may overshoot
//     its neighbour by its edge tolerance (Lemma 6.6). With weighted
//     tolerances a tight link (w = 1/2) caps the overshoot at ~B0/2
//     while plain Algorithm 2 allows ~B0 — precision links stay tighter
//     through transients. Reported: peak post-shortcut skew on a tight
//     vs a loose link, weighted vs unweighted.
//
// The tolerance knobs ablated here (B0, delta_h) also sweep through the
// campaign/report path: `gcs_run --campaign campaigns/ablation.json
// --check --series` followed by `gcs_report <tree> --frontier` prints the
// skew-vs-message-cost frontier for the same (delta_h, B0) grid, with the
// per-sample envelope utilization from the telemetry series (see
// docs/observability.md).
#include <benchmark/benchmark.h>

#include <cmath>
#include <map>
#include <memory>

#include "core/bfunc.hpp"
#include "core/dcsa_columns.hpp"
#include "core/network_sim.hpp"
#include "net/link_quality.hpp"
#include "net/scenario.hpp"
#include "net/topology.hpp"

namespace {

void BM_Ablation_InitialTolerance(benchmark::State& state) {
  const std::size_t n = 80;
  const double g_factor = static_cast<double>(state.range(0)) / 100.0;
  gcs::core::SyncParams p;
  p.n = n;
  p.rho = 0.25;
  p.T = 1.0;
  p.D = 1.2;
  p.delta_h = 0.25;

  const gcs::core::BFunction proper(p);
  const gcs::core::BFunction ablated(p.effective_b0(),
                                     g_factor * p.global_skew_bound(), p.tau(),
                                     p.rho);
  const double add_time = proper.decay_age() / (1.0 - p.rho) + 40.0;
  const auto u = static_cast<gcs::net::NodeId>(n / 2);
  const auto far_node = static_cast<gcs::net::NodeId>(n - 1);

  gcs::net::Scenario scenario =
      gcs::net::make_static_scenario(gcs::net::make_path(n));
  scenario.events.push_back(
      gcs::net::TopologyEvent{add_time, gcs::net::Edge(u, far_node), true});

  double skew_at_add = 0.0;
  double blocked_seconds = 0.0;  // Lemma 6.10 violation time (u blocked by
                                 // its brand-new neighbour)
  double peak_local_at_u = 0.0;  // skew bled onto u's old edges meanwhile
  for (auto _ : state) {
    std::vector<gcs::clk::RateSchedule> schedules;
    for (std::size_t i = 0; i < n; ++i) {
      schedules.emplace_back(i < n / 2 ? 1.0 + p.rho : 1.0 - p.rho);
    }
    gcs::core::DcsaRule rule(p);
    rule.tolerance = ablated;
    auto store = std::make_unique<gcs::core::DcsaColumns>(p, n, rule);
    const gcs::core::DcsaColumns& columns = *store;
    gcs::core::NetworkSimulation sim(
        p, scenario.to_dynamic_graph(),
        gcs::net::make_constant_delay(p.T, p.T), std::move(schedules),
        std::move(store));
    sim.run_until(add_time);
    skew_at_add = std::abs(sim.skew(u, far_node));
    double blocked = 0.0;
    double local_peak = 0.0;
    const double sample_dt = 0.05;
    sim.schedule_periodic(add_time + sample_dt, sample_dt, [&](gcs::sim::Time) {
      if (columns.is_blocked_by(u, far_node, sim.hardware_clock(u))) {
        blocked += sample_dt;
      }
      local_peak = std::max(local_peak,
                            std::max(std::abs(sim.skew(u - 1, u)),
                                     std::abs(sim.skew(u, u + 1))));
    });
    sim.run_until(add_time + 60.0);
    blocked_seconds = blocked;
    peak_local_at_u = local_peak;
  }
  state.counters["g_factor"] = g_factor;
  state.counters["B_at_0"] = ablated(0.0);
  state.counters["skew_on_new_edge"] = skew_at_add;
  state.counters["blocked_seconds"] = blocked_seconds;
  state.counters["peak_local_at_u"] = peak_local_at_u;
  state.counters["bound_Gn"] = p.global_skew_bound();
}

void BM_Ablation_WeightedTolerance(benchmark::State& state) {
  const std::size_t n = 96;
  const bool weighted = state.range(0) != 0;
  gcs::core::SyncParams p;
  p.n = n;
  p.rho = 0.25;
  p.T = 0.5;
  p.D = 0.6;
  p.delta_h = 0.25;
  p.B0 = p.min_b0() * 2.0;  // so B0 * 0.5 still exceeds 2(1+rho)tau

  // The tight edge gets weight 1/2 in the tolerance policy only; the
  // realized delays are identical on every link so that the two runs
  // differ in nothing but the weighted tolerance.
  std::map<gcs::net::Edge, gcs::sim::Duration> bounds;
  const gcs::net::Edge tight_edge(93, 94);
  const gcs::net::Edge loose_edge(91, 92);
  bounds[tight_edge] = p.T / 2.0;
  const gcs::net::LinkQualityMap qualities(p.T, bounds);

  const double add_time =
      gcs::core::BFunction(p).decay_age() / (1.0 - p.rho) + 40.0;
  gcs::net::Scenario scenario =
      gcs::net::make_static_scenario(gcs::net::make_path(n));
  scenario.events.push_back(gcs::net::TopologyEvent{
      add_time, gcs::net::Edge(0, static_cast<gcs::net::NodeId>(n - 1)), true});

  double tight_peak = 0.0;
  double loose_peak = 0.0;
  for (auto _ : state) {
    std::vector<gcs::clk::RateSchedule> schedules;
    for (std::size_t i = 0; i < n; ++i) {
      schedules.emplace_back(i < n / 2 ? 1.0 + p.rho : 1.0 - p.rho);
    }
    gcs::core::DcsaRule rule(p);
    if (weighted) {
      rule.weight = [&qualities](gcs::core::NodeId a, gcs::core::NodeId b) {
        return qualities.weight(gcs::net::Edge(a, b));
      };
    }
    gcs::core::NetworkSimulation sim(
        p, scenario.to_dynamic_graph(),
        gcs::net::make_uniform_delay(p.T, 0.0, p.T), std::move(schedules),
        std::make_unique<gcs::core::DcsaColumns>(p, n, rule));
    double tight = 0.0;
    double loose = 0.0;
    sim.schedule_periodic(add_time + 0.25, 0.25, [&](gcs::sim::Time) {
      tight = std::max(tight, std::abs(sim.skew(tight_edge.u, tight_edge.v)));
      loose = std::max(loose, std::abs(sim.skew(loose_edge.u, loose_edge.v)));
    });
    sim.run_until(add_time + 30.0);
    tight_peak = tight;
    loose_peak = loose;
  }
  state.counters["tight_link_peak"] = tight_peak;
  state.counters["loose_link_peak"] = loose_peak;
  state.counters["B0"] = p.effective_b0();
  state.counters["weighted"] = weighted ? 1.0 : 0.0;
}

}  // namespace

// Arg = percentage of G(n) kept in B(0): 100 = the paper's algorithm,
// smaller = ablated (Lemma 6.10 progressively violated).
BENCHMARK(BM_Ablation_InitialTolerance)->Arg(100)->Arg(10)->Arg(0)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
// Arg: 0 = plain DCSA, 1 = weighted DCSA (both on heterogeneous links).
BENCHMARK(BM_Ablation_WeightedTolerance)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
