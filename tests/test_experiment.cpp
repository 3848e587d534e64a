#include "harness/experiment.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/scenario.hpp"
#include "util/rng.hpp"

namespace {

gcs::harness::ExperimentConfig small_config() {
  gcs::harness::ExperimentConfig cfg;
  cfg.name = "unit";
  cfg.params.n = 8;
  cfg.params.rho = 0.05;
  cfg.params.T = 1.0;
  cfg.params.D = 2.5;
  cfg.params.delta_h = 0.5;
  cfg.topology = "ring";
  cfg.drift = "spread";
  cfg.delay = "uniform";
  cfg.horizon = 40.0;
  cfg.sample_dt = 0.5;
  cfg.seed = 9;
  return cfg;
}

TEST(RunExperiment, StaticRingHasZeroViolations) {
  const auto result = gcs::harness::run_experiment(small_config());
  EXPECT_EQ(result.global_violations, 0u);
  EXPECT_EQ(result.envelope_violations, 0u);
  EXPECT_GT(result.samples, 0u);
  EXPECT_GT(result.events_executed, 0u);
  EXPECT_GT(result.run_stats.messages_delivered, 0u);
  EXPECT_GT(result.max_global_skew, 0.0);  // drift does open real skew...
  EXPECT_LE(result.max_global_skew, result.global_skew_bound);  // ...bounded
  EXPECT_EQ(result.run_stats.messages_dropped, 0u);  // static graph
}

TEST(RunExperiment, ChurnScenarioHasZeroViolations) {
  auto cfg = small_config();
  cfg.params.n = 12;
  cfg.drift = "walk";
  cfg.horizon = 60.0;
  gcs::util::Rng rng(5);
  cfg.scenario =
      gcs::net::make_churn_scenario(12, 6, 10.0, cfg.horizon, rng);
  const auto result = gcs::harness::run_experiment(cfg);
  EXPECT_EQ(result.global_violations, 0u);
  EXPECT_EQ(result.envelope_violations, 0u);
  EXPECT_GT(result.run_stats.topology_events_applied, 0u);
  EXPECT_LE(result.max_global_skew, result.global_skew_bound);
}

TEST(RunExperiment, DeterministicPerSeed) {
  const auto a = gcs::harness::run_experiment(small_config());
  const auto b = gcs::harness::run_experiment(small_config());
  EXPECT_EQ(a.max_global_skew, b.max_global_skew);
  EXPECT_EQ(a.max_local_skew, b.max_local_skew);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.run_stats.messages_delivered, b.run_stats.messages_delivered);
  EXPECT_EQ(a.run_stats.jumps, b.run_stats.jumps);

  auto other = small_config();
  other.seed = 10;  // different delays -> different skew trajectory
  const auto c = gcs::harness::run_experiment(other);
  EXPECT_NE(a.max_global_skew, c.max_global_skew);
}

TEST(RunExperiment, ConstantDelayStringParses) {
  auto cfg = small_config();
  cfg.delay = "constant:0.5";
  const auto result = gcs::harness::run_experiment(cfg);
  EXPECT_EQ(result.global_violations + result.envelope_violations, 0u);
}

TEST(RunExperiment, RejectsBadConfigs) {
  auto cfg = small_config();
  cfg.topology = "torus";
  EXPECT_THROW(gcs::harness::run_experiment(cfg), std::invalid_argument);
  cfg = small_config();
  cfg.drift = "quadratic";
  EXPECT_THROW(gcs::harness::run_experiment(cfg), std::invalid_argument);
  cfg = small_config();
  cfg.delay = "zipf";
  EXPECT_THROW(gcs::harness::run_experiment(cfg), std::invalid_argument);
  cfg = small_config();
  cfg.params.n = 1;
  EXPECT_THROW(gcs::harness::run_experiment(cfg), std::invalid_argument);
  cfg = small_config();
  cfg.engine = "wheel";
  EXPECT_THROW(gcs::harness::run_experiment(cfg), std::invalid_argument);
  cfg = small_config();
  cfg.delivery = "multicast";
  EXPECT_THROW(gcs::harness::run_experiment(cfg), std::invalid_argument);
}

TEST(RunExperiment, EngineAndDeliveryKnobsAreTrajectoryNeutral) {
  // The harness-level restatement of the determinism contract: every
  // engine/delivery combination reports the same measured physics.
  const auto base = gcs::harness::run_experiment(small_config());
  EXPECT_EQ(base.clamped_events, 0u);
  for (const char* engine : {"calendar", "heap"}) {
    for (const char* delivery : {"batched", "per-receiver"}) {
      auto cfg = small_config();
      cfg.engine = engine;
      cfg.delivery = delivery;
      const auto result = gcs::harness::run_experiment(cfg);
      EXPECT_EQ(result.max_global_skew, base.max_global_skew)
          << engine << "/" << delivery;
      EXPECT_EQ(result.max_local_skew, base.max_local_skew)
          << engine << "/" << delivery;
      EXPECT_EQ(result.run_stats.messages_delivered,
                base.run_stats.messages_delivered)
          << engine << "/" << delivery;
      EXPECT_EQ(result.run_stats.jumps, base.run_stats.jumps)
          << engine << "/" << delivery;
      EXPECT_EQ(result.clamped_events, 0u) << engine << "/" << delivery;
    }
  }
}

TEST(RunExperiment, VariantAxisRunsAblationProtocols) {
  // The ablation variants (core::DcsaRule on the columns store) through
  // the harness.  On this quiet spread-drift ring the blocking cap never
  // binds, so noblock and weighted track plain DCSA's physics, while
  // nojump free-runs: with constant rates evenly spaced over
  // [1-rho, 1+rho] and no catch-up, the skew at the final sample is
  // exactly 2 * rho * horizon.
  const auto dcsa_cfg = small_config();
  const auto dcsa = gcs::harness::run_experiment(dcsa_cfg);

  auto nojump_cfg = dcsa_cfg;
  nojump_cfg.variant = "nojump";
  const auto nojump = gcs::harness::run_experiment(nojump_cfg);
  EXPECT_NEAR(nojump.max_global_skew, 2.0 * 0.05 * 40.0, 1e-6);
  EXPECT_GT(nojump.max_global_skew, dcsa.max_global_skew);
  EXPECT_EQ(nojump.run_stats.jumps, 0u);
  EXPECT_GT(nojump.run_stats.messages_sent, 0u);  // broadcasts continue

  for (const char* variant : {"noblock", "weighted:0.5"}) {
    auto cfg = dcsa_cfg;
    cfg.variant = variant;
    const auto result = gcs::harness::run_experiment(cfg);
    EXPECT_EQ(result.global_violations, 0u) << variant;
    EXPECT_NEAR(result.max_global_skew, dcsa.max_global_skew, 1e-9)
        << variant;
  }
}

TEST(RunExperiment, VariantValidationIsLoud) {
  // An unknown variant or store must refuse to run rather than silently
  // measure the wrong protocol.  The per-node store is gone from the
  // harness; asking for it names where it went.
  auto cfg = small_config();
  cfg.store = "adapter";
  try {
    gcs::harness::run_experiment(cfg);
    ADD_FAILURE() << "store=adapter ran";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("tests/oracle"), std::string::npos)
        << e.what();
  }
  cfg.store = "columns";
  cfg.variant = "bogus";
  EXPECT_THROW(gcs::harness::run_experiment(cfg), std::invalid_argument);
  cfg.variant = "weighted:0";
  EXPECT_THROW(gcs::harness::run_experiment(cfg), std::invalid_argument);
  cfg.variant = "weighted:1.5";
  EXPECT_THROW(gcs::harness::run_experiment(cfg), std::invalid_argument);
}

TEST(RunExperiment, MalformedSpecsAreRefused) {
  // Every numeric field of a delay or variant spec must be consumed
  // whole: a trailing suffix used to be dropped silently, so
  // "constant:0.25x" ran as constant:0.25.
  struct Spec {
    std::string delay;
    std::string variant;
  };
  std::vector<Spec> bad = {
      {"constant:0.25x", "dcsa"},
      {"uniform:0.1:0.4junk", "dcsa"},
      {"uniform", "weighted:0.5zz"},
      {"constant:", "dcsa"},
      {"constantjunk", "dcsa"},
      {"constant: 0.25", "dcsa"},
      {"constant:nan", "dcsa"},
      {"uniform:0.1:", "dcsa"},
      {"uniform::0.4", "dcsa"},
      {"uniform:0.1:0.4:0.5", "dcsa"},
      {"uniform", "weighted:"},
      {"uniform", "weighted:inf"},
      {"uniform", "weighted0.5"},
  };
  // A seeded table on top: valid numeric fields with one junk character
  // spliced in after a random prefix of the number.
  const std::string junk = "q:_-+. ";
  gcs::util::Rng rng(2024);
  for (int k = 0; k < 24; ++k) {
    const std::string number = k % 2 == 0 ? "0.375" : "0.25";
    const std::size_t cut = rng.uniform_int(1, number.size());
    const char c = junk[rng.uniform_int(0, junk.size() - 1)];
    const std::string field = number.substr(0, cut) + c + number.substr(cut);
    switch (k % 3) {
      case 0:
        bad.push_back({"constant:" + field, "dcsa"});
        break;
      case 1:
        bad.push_back({"uniform:0.125:" + field, "dcsa"});
        break;
      default:
        bad.push_back({"uniform", "weighted:" + field});
        break;
    }
  }
  for (const Spec& spec : bad) {
    auto cfg = small_config();
    cfg.horizon = 1.0;
    cfg.delay = spec.delay;
    cfg.variant = spec.variant;
    EXPECT_THROW(gcs::harness::run_experiment(cfg), std::invalid_argument)
        << "delay=" << spec.delay << " variant=" << spec.variant;
  }
  // The well-formed neighbours of those specs still run.
  for (const Spec& spec : {Spec{"constant:0.25", "dcsa"},
                           Spec{"uniform:0.1:0.4", "dcsa"},
                           Spec{"uniform:0.1", "weighted:0.5"},
                           Spec{"constant", "weighted"},
                           Spec{"uniform", "weighted:1e-1"}}) {
    auto cfg = small_config();
    cfg.horizon = 1.0;
    cfg.delay = spec.delay;
    cfg.variant = spec.variant;
    EXPECT_NO_THROW(gcs::harness::run_experiment(cfg))
        << "delay=" << spec.delay << " variant=" << spec.variant;
  }
}

TEST(RunExperiment, SampleAtHorizonBoundaryFiresUnderBothEngines) {
  // The periodic sample scheduled exactly at t == horizon fires: the
  // engine's run_until executes events with t <= horizon under both
  // scheduler policies, so horizon == k*sample_dt (with both exact in
  // binary floating point) yields exactly k samples.  Pinned so `samples`
  // cannot drift across engine refactors.
  for (const char* engine : {"calendar", "heap"}) {
    auto cfg = small_config();
    cfg.engine = engine;
    cfg.horizon = 10.0;
    cfg.sample_dt = 0.5;
    const auto result = gcs::harness::run_experiment(cfg);
    EXPECT_EQ(result.samples, 20u) << engine;  // t = 0.5, 1.0, ..., 10.0
  }
}

TEST(RunExperiment, ReportsDeliveryEventStats) {
  auto cfg = small_config();
  cfg.topology = "complete";
  cfg.delay = "constant:0.5";
  const auto batched = gcs::harness::run_experiment(cfg);
  cfg.delivery = "per-receiver";
  const auto unbatched = gcs::harness::run_experiment(cfg);
  // Per-receiver: one engine event per message.  Batched on a complete
  // graph under constant delay: one event per broadcast fan-out.
  EXPECT_EQ(unbatched.run_stats.delivery_events,
            unbatched.run_stats.messages_sent);
  EXPECT_LT(batched.run_stats.delivery_events,
            batched.run_stats.messages_sent / 2);
  EXPECT_LT(batched.events_executed, unbatched.events_executed);
}

}  // namespace
