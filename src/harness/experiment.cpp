#include "harness/experiment.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/dcsa_columns.hpp"
#include "net/link.hpp"
#include "net/topology.hpp"

namespace gcs::harness {

namespace {

// The numeric field `text` of a delay or variant spec: the whole string
// must be one finite number ("0.25x" and "" are refused, not truncated).
// `what` leads the error message.
double spec_number(const std::string& text, const std::string& what,
                   const std::string& spec) {
  double value = 0.0;
  std::size_t used = 0;
  try {
    if (!text.empty() && !std::isspace(static_cast<unsigned char>(text[0]))) {
      value = std::stod(text, &used);
    }
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != text.size() || !std::isfinite(value)) {
    throw std::invalid_argument(what + " '" + spec +
                                "' has a malformed number '" + text + "'");
  }
  return value;
}

net::Scenario build_scenario(const ExperimentConfig& cfg) {
  if (cfg.scenario) return *cfg.scenario;
  const std::size_t n = cfg.params.n;
  if (cfg.topology == "path") return net::make_static_scenario(net::make_path(n));
  if (cfg.topology == "ring") return net::make_static_scenario(net::make_ring(n));
  if (cfg.topology == "star") return net::make_static_scenario(net::make_star(n));
  if (cfg.topology == "complete") {
    return net::make_static_scenario(net::make_complete(n));
  }
  throw std::invalid_argument("run_experiment: unknown topology '" +
                              cfg.topology + "'");
}

std::vector<clk::RateSchedule> build_schedules(const ExperimentConfig& cfg) {
  const std::size_t n = cfg.params.n;
  const double rho = cfg.params.rho;
  std::vector<clk::RateSchedule> schedules;
  schedules.reserve(n);
  if (cfg.drift == "spread") {
    for (std::size_t i = 0; i < n; ++i) {
      const double f = n > 1 ? static_cast<double>(i) / (n - 1) : 0.5;
      schedules.emplace_back(1.0 - rho + 2.0 * rho * f);
    }
  } else if (cfg.drift == "walk") {
    for (std::size_t i = 0; i < n; ++i) {
      schedules.push_back(clk::RateSchedule::random_walk(
          rho, /*step_dt=*/1.0, /*sigma=*/rho / 4.0,
          /*seed=*/cfg.seed * 7919 + i));
    }
  } else if (cfg.drift == "two-camp") {
    for (std::size_t i = 0; i < n; ++i) {
      schedules.emplace_back(i < n / 2 ? 1.0 + rho : 1.0 - rho);
    }
  } else {
    throw std::invalid_argument("run_experiment: unknown drift '" + cfg.drift +
                                "'");
  }
  return schedules;
}

net::DelayModel build_delay(const ExperimentConfig& cfg) {
  const double T = cfg.params.T;
  const std::string kUniform = "uniform";
  if (cfg.delay.rfind(kUniform, 0) == 0 &&
      (cfg.delay.size() == kUniform.size() ||
       cfg.delay[kUniform.size()] == ':')) {
    // "uniform" = [0, T]; "uniform:lo" = [lo, T]; "uniform:lo:hi".  A
    // positive lo gives the delay model the floor sharded runs need.
    double lo = 0.0;
    double hi = T;
    if (cfg.delay.size() > kUniform.size()) {
      const std::string rest = cfg.delay.substr(kUniform.size() + 1);
      const std::size_t colon = rest.find(':');
      lo = spec_number(rest.substr(0, colon), "delay", cfg.delay);
      if (colon != std::string::npos) {
        hi = spec_number(rest.substr(colon + 1), "delay", cfg.delay);
      }
    }
    if (lo < 0.0) {
      throw std::invalid_argument("uniform delay lo < 0");
    }
    return net::make_uniform_delay(T, lo, hi);
  }
  const std::string kConstant = "constant";
  if (cfg.delay.rfind(kConstant, 0) == 0 &&
      (cfg.delay.size() == kConstant.size() ||
       cfg.delay[kConstant.size()] == ':')) {
    double value = T;
    if (cfg.delay.size() > kConstant.size()) {
      value = spec_number(cfg.delay.substr(kConstant.size() + 1), "delay",
                          cfg.delay);
    }
    return net::make_constant_delay(T, value);
  }
  throw std::invalid_argument("unknown delay '" + cfg.delay + "'");
}

net::LinkModel build_link(const ExperimentConfig& cfg) {
  try {
    return net::LinkModel(build_delay(cfg), net::parse_traffic(cfg.traffic));
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string("run_experiment: ") + e.what());
  }
}

sim::EnginePolicy parse_engine(const std::string& engine) {
  if (engine == "calendar") return sim::EnginePolicy::kCalendar;
  if (engine == "heap") return sim::EnginePolicy::kHeap;
  throw std::invalid_argument("run_experiment: unknown engine '" + engine +
                              "'");
}

bool parse_delivery(const std::string& delivery) {
  if (delivery == "batched") return true;
  if (delivery == "per-receiver") return false;
  throw std::invalid_argument("run_experiment: unknown delivery '" + delivery +
                              "'");
}

}  // namespace

core::DcsaRule variant_rule(const std::string& variant,
                            const core::SyncParams& params) {
  core::DcsaRule rule(params);
  if (variant == "dcsa") return rule;
  const std::string kWeighted = "weighted";
  if (variant.rfind(kWeighted, 0) == 0 &&
      (variant.size() == kWeighted.size() ||
       variant[kWeighted.size()] == ':')) {
    // "weighted" = uniform weight 0.5; "weighted:w" pins it.  The weight
    // must be a usable tolerance scale in (0, 1].
    double w = 0.5;
    if (variant.size() > kWeighted.size()) {
      w = spec_number(variant.substr(kWeighted.size() + 1),
                      "run_experiment: variant", variant);
    }
    if (!(w > 0.0) || w > 1.0) {
      throw std::invalid_argument(
          "run_experiment: weighted variant wants a weight in (0, 1], got '" +
          variant + "'");
    }
    rule.weight = [w](core::NodeId, core::NodeId) { return w; };
    return rule;
  }
  if (variant == "noblock") {
    rule.block = false;
    return rule;
  }
  if (variant == "nojump") {
    rule.jump = false;
    return rule;
  }
  throw std::invalid_argument("run_experiment: unknown variant '" + variant +
                              "'");
}

ExperimentResult run_experiment(const ExperimentConfig& cfg,
                                obs::Recorder* recorder) {
  const core::SyncParams& p = cfg.params;
  if (p.n < 2) throw std::invalid_argument("run_experiment: need n >= 2");
  if (cfg.horizon <= 0.0 || cfg.sample_dt <= 0.0) {
    throw std::invalid_argument("run_experiment: bad horizon/sample_dt");
  }

  net::Scenario scenario = build_scenario(cfg);
  if (scenario.n != p.n) {
    throw std::invalid_argument(
        "run_experiment: scenario size disagrees with params.n");
  }

  core::SimOptions options = cfg.options;
  options.seed = cfg.seed;
  options.engine_policy = parse_engine(cfg.engine);
  options.batched_delivery = parse_delivery(cfg.delivery);
  options.recorder = recorder;
  options.shards = static_cast<std::size_t>(cfg.shards);
  if (cfg.store != "columns") {
    throw std::invalid_argument(
        "run_experiment: unknown store '" + cfg.store +
        "' (only \"columns\" remains; the per-node automatons live on as a "
        "test oracle in tests/oracle/)");
  }
  core::NetworkSimulation sim(
      p, scenario.to_dynamic_graph(), build_link(cfg), build_schedules(cfg),
      std::make_unique<core::DcsaColumns>(p, p.n, variant_rule(cfg.variant, p)),
      options);

  ExperimentResult result;
  result.name = cfg.name;
  result.global_skew_bound = p.global_skew_bound();
  result.local_skew_floor = p.effective_b0();

  const core::BFunction& bfunc = sim.bfunc();
  const double slack = options.conformance_slack;
  obs::SeriesAggregator series;
  // Sample buffers reused across ticks: one batch advance() per sample
  // instead of n virtual calls (the logical values bit-match the
  // per-node accessor, so the series bytes cannot move).
  std::vector<double> hw_sample;
  std::vector<double> logical_sample;
  sim.schedule_periodic(cfg.sample_dt, cfg.sample_dt, [&](sim::Time t) {
    ++result.samples;
    sim.sample_clocks(hw_sample, logical_sample);
    double lo = logical_sample[0];
    double hi = lo;
    for (std::size_t i = 1; i < sim.size(); ++i) {
      const double L = logical_sample[i];
      lo = std::min(lo, L);
      hi = std::max(hi, L);
    }
    obs::SeriesSample sample;
    sample.t = t;
    sample.global_skew = hi - lo;
    result.max_global_skew = std::max(result.max_global_skew, sample.global_skew);
    if (sample.global_skew > result.global_skew_bound + slack) {
      ++result.global_violations;
    }

    for (const net::Edge& e : sim.current_edges()) {
      const double local = std::abs(logical_sample[e.u] - logical_sample[e.v]);
      result.max_local_skew = std::max(result.max_local_skew, local);
      sample.max_local_skew = std::max(sample.max_local_skew, local);
      // Loosest envelope any conforming node could hold: hardware age of
      // the slowest admissible clock (see NetworkSimulation's checker).
      const double age_hw = (1.0 - p.rho) * sim.edge_age(e);
      const double envelope = bfunc(age_hw);
      if (local > envelope + slack) ++result.envelope_violations;
      // B is bounded below by b0 > 0, so the ratio is always finite;
      // it is the fraction of the allowed envelope this edge is using.
      sample.max_envelope_ratio =
          std::max(sample.max_envelope_ratio, local / envelope);
      ++sample.live_edges;
    }
    const core::RunStats& s = sim.stats();
    sample.in_flight =
        s.messages_sent - s.messages_delivered - s.messages_dropped;
    sample.engine_pending = sim.engine_pending();
    sample.queue_bytes = sim.max_queue_backlog();
    series.add(sample);
    if (recorder != nullptr) recorder->on_sample(sample);
  });

  sim.run_until(cfg.horizon);

  result.events_executed = sim.events_executed();
  result.clamped_events = sim.engine_clamped_count();
  result.run_stats = sim.stats();
  result.engine_stats = sim.engine_stats();
  result.series = series.summary();
  // Fold in the simulator's own delivery-time envelope checks (same
  // property, denser check points).  Monotonicity failures are a
  // different defect class and stay in run_stats only.
  result.envelope_violations += sim.stats().conformance_envelope_failures;
  return result;
}

}  // namespace gcs::harness
