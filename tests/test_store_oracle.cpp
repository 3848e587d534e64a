// The lockstep matrix: core::DcsaColumns, running each ablation rule the
// harness builds from a `variant` spec, against the per-node oracle
// automatons of tests/oracle/ injected through NetworkSimulation's
// NodeStore constructor.  Both sides run the same dynamic cell, and the
// full structured trace stream, every RunStats field except arena_bytes
// (the oracle keeps no flat arena) and every per-sample logical clock
// must agree bit for bit.
//
// Grid: {churn, switching-star, gauss-markov} x {calendar, heap} x
// {shards 0, 1, 4} x seeds 1..2 x {dcsa, weighted:0.5, noblock, nojump};
// one test per (scenario, variant), looping over the execution layouts.
// A second test reruns the scenarios with a crippled tolerance, where
// the blocking rules actually bind.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "cli/campaign.hpp"
#include "clk/clock.hpp"
#include "core/dcsa_columns.hpp"
#include "core/network_sim.hpp"
#include "harness/experiment.hpp"
#include "net/delay.hpp"
#include "obs/recorder.hpp"
#include "oracle/ablation_variants.hpp"
#include "oracle/automaton_store.hpp"
#include "oracle/weighted_dcsa_node.hpp"

namespace {

using gcs::core::NodeId;
using gcs::core::SyncParams;

constexpr std::size_t kN = 12;
constexpr double kHorizon = 30.0;

struct Layout {
  gcs::sim::EnginePolicy engine;
  std::size_t shards;
  std::uint64_t seed;
};

struct TraceCapture : gcs::obs::Recorder {
  std::vector<gcs::obs::TraceEvent> events;
  bool wants_trace() const override { return true; }
  void on_trace(const gcs::obs::TraceEvent& ev) override {
    events.push_back(ev);
  }
};

struct RunRecord {
  std::vector<gcs::obs::TraceEvent> trace;
  std::vector<double> clocks;  // sample_clocks() at t = 1, 2, ..., horizon
  gcs::core::RunStats stats;
  std::uint64_t events = 0;
};

SyncParams cell_params() {
  SyncParams p;
  p.n = kN;
  return p;
}

// The oracle twin of harness::variant_rule.
std::unique_ptr<gcs::core::NodeStore> oracle_store(const std::string& variant,
                                                   const SyncParams& p) {
  namespace oracle = gcs::oracle;
  return oracle::automaton_store(
      p.n, [&](NodeId) -> std::unique_ptr<oracle::NodeAutomaton> {
        if (variant == "weighted:0.5") {
          return std::make_unique<oracle::WeightedDcsaNode>(
              p, [](NodeId, NodeId) { return 0.5; }, /*min_weight=*/0.5);
        }
        if (variant == "noblock") {
          return std::make_unique<oracle::NoBlockDcsaNode>(p);
        }
        if (variant == "nojump") {
          return std::make_unique<oracle::NoJumpDcsaNode>(p);
        }
        return std::make_unique<oracle::DcsaNode>(p);
      });
}

RunRecord run(const std::string& scenario_flag, const Layout& layout,
              std::unique_ptr<gcs::core::NodeStore> store) {
  const SyncParams p = cell_params();
  const gcs::net::Scenario scenario =
      gcs::cli::ScenarioSpec::from_flag(scenario_flag)
          .build(kN, kHorizon, layout.seed);
  std::vector<gcs::clk::RateSchedule> schedules;
  for (std::size_t i = 0; i < kN; ++i) {
    schedules.push_back(gcs::clk::RateSchedule::random_walk(
        p.rho, 1.0, p.rho / 4.0, layout.seed * 7919 + i));
  }
  TraceCapture capture;
  gcs::core::SimOptions options;
  options.seed = layout.seed;
  options.engine_policy = layout.engine;
  options.shards = layout.shards;
  options.recorder = &capture;
  gcs::core::NetworkSimulation sim(
      p, scenario.to_dynamic_graph(), gcs::net::make_constant_delay(p.T, 0.5),
      std::move(schedules), std::move(store), options);
  RunRecord record;
  std::vector<double> hw;
  std::vector<double> logical;
  sim.schedule_periodic(1.0, 1.0, [&](gcs::sim::Time) {
    sim.sample_clocks(hw, logical);
    record.clocks.insert(record.clocks.end(), logical.begin(), logical.end());
  });
  sim.run_until(kHorizon);
  record.trace = std::move(capture.events);
  record.stats = sim.stats();
  record.events = sim.events_executed();
  return record;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_same_stats(const gcs::core::RunStats& a,
                       const gcs::core::RunStats& b) {
#define GCS_SAME(field) EXPECT_EQ(a.field, b.field) << #field
#define GCS_SAME_BITS(field)                                     \
  EXPECT_TRUE(same_bits(a.field, b.field))                       \
      << #field << ' ' << a.field << " vs " << b.field
  GCS_SAME(messages_sent);
  GCS_SAME(messages_delivered);
  GCS_SAME(messages_dropped);
  GCS_SAME(delivery_events);
  GCS_SAME(jumps);
  GCS_SAME_BITS(total_jump);
  GCS_SAME(topology_events_applied);
  GCS_SAME(conformance_checks);
  GCS_SAME(conformance_envelope_failures);
  GCS_SAME(conformance_monotonicity_failures);
  GCS_SAME_BITS(first_clamped_time);
  GCS_SAME(first_clamped_seq);
  GCS_SAME(connectivity_windows_checked);
  GCS_SAME(connectivity_windows_disconnected);
  GCS_SAME(peak_rss_kb);
  GCS_SAME(traffic_packets);
  GCS_SAME(traffic_dropped);
  GCS_SAME(ecn_marks);
  GCS_SAME(peak_queue_bytes);
  GCS_SAME_BITS(sync_delay_sum);
  GCS_SAME_BITS(sync_delay_max);
#undef GCS_SAME
#undef GCS_SAME_BITS
}

// The whole comparison: event count, RunStats but arena_bytes, every
// sampled clock and every trace record, all bit for bit.
void expect_same_run(const RunRecord& columns, const RunRecord& oracle) {
  ASSERT_GT(oracle.stats.messages_delivered, 0u);
  EXPECT_EQ(columns.events, oracle.events);
  expect_same_stats(columns.stats, oracle.stats);
  EXPECT_GT(columns.stats.arena_bytes, 0u);
  EXPECT_EQ(oracle.stats.arena_bytes, 0u);

  ASSERT_EQ(columns.clocks.size(), oracle.clocks.size());
  ASSERT_EQ(columns.clocks.size(), kN * static_cast<std::size_t>(kHorizon));
  for (std::size_t i = 0; i < columns.clocks.size(); ++i) {
    ASSERT_TRUE(same_bits(columns.clocks[i], oracle.clocks[i]))
        << "sample " << i / kN << " node " << i % kN << ": "
        << columns.clocks[i] << " vs " << oracle.clocks[i];
  }

  ASSERT_EQ(columns.trace.size(), oracle.trace.size());
  ASSERT_FALSE(columns.trace.empty());
  for (std::size_t i = 0; i < columns.trace.size(); ++i) {
    const gcs::obs::TraceEvent& a = columns.trace[i];
    const gcs::obs::TraceEvent& b = oracle.trace[i];
    ASSERT_TRUE(a.kind == b.kind && same_bits(a.t, b.t) && a.a == b.a &&
                a.b == b.b && same_bits(a.v1, b.v1) &&
                same_bits(a.v2, b.v2) && a.flag == b.flag)
        << "trace record " << i << " (" << gcs::obs::kind_name(a.kind)
        << " vs " << gcs::obs::kind_name(b.kind) << ")";
  }
}

const std::vector<std::string> kScenarios = {
    "churn:volatile_edges=6:lifetime=5", "switching-star:period=10:overlap=2",
    "gauss-markov:alpha=0.85"};

using MatrixParam = std::tuple<std::string, std::string>;  // scenario, variant

class StoreOracleMatrix : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(StoreOracleMatrix, ColumnsMatchOracleBitForBit) {
  const auto& [scenario, variant] = GetParam();
  const SyncParams p = cell_params();
  for (const auto engine :
       {gcs::sim::EnginePolicy::kCalendar, gcs::sim::EnginePolicy::kHeap}) {
    for (const std::size_t shards : {0u, 1u, 4u}) {
      for (const std::uint64_t seed : {1u, 2u}) {
        const Layout layout{engine, shards, seed};
        SCOPED_TRACE(::testing::Message()
                     << (engine == gcs::sim::EnginePolicy::kHeap ? "heap"
                                                                 : "calendar")
                     << " shards=" << shards << " seed=" << seed);
        expect_same_run(
            run(scenario, layout,
                std::make_unique<gcs::core::DcsaColumns>(
                    p, kN, gcs::harness::variant_rule(variant, p))),
            run(scenario, layout, oracle_store(variant, p)));
      }
    }
  }
}

// On the grid above B0 dwarfs every skew, so no cap ever binds and plain
// DCSA, noblock and weighted:0.5 run the same physics there.  The same
// cells under a crippled tolerance -- floor 0.5 plus 0.5 of headroom
// instead of G, bench_ablation's regime pushed further -- bind caps all
// the time, and the blocking rules must still match their oracles.  A
// weight of 0.3 on young edges makes w * floor + (base - floor) round
// differently from any reassociation of it, so the weighted arithmetic
// is pinned to the oracle's exact expression.
TEST(StoreOracleCrippled, BindingCapsMatchOracleBitForBit) {
  namespace oracle = gcs::oracle;
  const SyncParams p = cell_params();
  const gcs::core::BFunction crippled(0.5, 0.5, p.tau(), p.rho);
  const auto weight = [](NodeId a, NodeId b) {
    return (a + b) % 2 == 0 ? 0.3 : 1.0;
  };
  bool weighted_separates = false;
  bool noblock_separates = false;
  for (const std::string& scenario : kScenarios) {
    for (const Layout& layout :
         {Layout{gcs::sim::EnginePolicy::kCalendar, 0, 1},
          Layout{gcs::sim::EnginePolicy::kHeap, 4, 2}}) {
      SCOPED_TRACE(::testing::Message() << scenario << " shards="
                                        << layout.shards);
      double total_jump[3] = {0.0, 0.0, 0.0};
      for (int rule_index = 0; rule_index < 3; ++rule_index) {
        SCOPED_TRACE(rule_index == 0   ? "dcsa"
                     : rule_index == 1 ? "weighted"
                                       : "noblock");
        gcs::core::DcsaRule rule(p);
        rule.tolerance = crippled;
        if (rule_index == 1) rule.weight = weight;
        if (rule_index == 2) rule.block = false;
        const RunRecord columns = run(
            scenario, layout,
            std::make_unique<gcs::core::DcsaColumns>(p, kN, rule));
        const RunRecord per_node = run(
            scenario, layout,
            oracle::automaton_store(
                kN, [&](NodeId) -> std::unique_ptr<oracle::NodeAutomaton> {
                  if (rule_index == 1) {
                    return std::make_unique<oracle::WeightedDcsaNode>(
                        p, crippled, weight);
                  }
                  if (rule_index == 2) {
                    return std::make_unique<oracle::NoBlockDcsaNode>(p,
                                                                     crippled);
                  }
                  return std::make_unique<oracle::DcsaNode>(p, crippled);
                }));
        expect_same_run(columns, per_node);
        total_jump[rule_index] = columns.stats.total_jump;
      }
      weighted_separates |= total_jump[1] != total_jump[0];
      noblock_separates |= total_jump[2] != total_jump[0];
    }
  }
  // The caps did bind: somewhere on this grid each rule moved the clocks
  // differently from plain DCSA, so the comparisons above had teeth.
  EXPECT_TRUE(weighted_separates);
  EXPECT_TRUE(noblock_separates);
}

std::string matrix_name(const ::testing::TestParamInfo<MatrixParam>& info) {
  std::string name = std::get<0>(info.param).substr(
                         0, std::get<0>(info.param).find(':')) +
                     "_" + std::get<1>(info.param);
  for (char& c : name) {
    const bool alnum = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9');
    if (!alnum) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Variants, StoreOracleMatrix,
    ::testing::Combine(
        ::testing::ValuesIn(kScenarios),
        ::testing::Values("dcsa", "weighted:0.5", "noblock", "nojump")),
    matrix_name);

}  // namespace
