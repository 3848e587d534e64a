#include "cli/campaign.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "harness/experiment.hpp"
#include "util/json.hpp"

namespace {

namespace cli = gcs::cli;
namespace json = gcs::util::json;

cli::Campaign from_text(const std::string& text,
                        std::map<std::string, std::string> overrides = {}) {
  const json::Value doc = json::parse(text);
  return cli::build_campaign(&doc, overrides);
}

TEST(Campaign, ExpandsCrossProductInCanonicalOrder) {
  const cli::Campaign campaign = from_text(R"({
    "name": "unit",
    "defaults": {"rho": 0.01, "horizon": 30},
    "sweep": {
      "n": [8, 16],
      "topology": ["ring", "complete"],
      "seeds": {"base": 1, "count": 3}
    }
  })");
  ASSERT_EQ(campaign.cells.size(), 12u);  // 2 * 2 * 3
  EXPECT_EQ(campaign.name, "unit");

  std::set<std::string> labels;
  for (const cli::Cell& cell : campaign.cells) {
    labels.insert(cell.label);
    EXPECT_DOUBLE_EQ(cell.config.params.rho, 0.01);
    EXPECT_DOUBLE_EQ(cell.config.horizon, 30.0);
    EXPECT_TRUE(cell.scenario.is_static());
    EXPECT_EQ(cell.config.name, "unit/" + cell.label);
  }
  EXPECT_EQ(labels.size(), 12u);  // labels are unique

  // Canonical order: n varies slowest, seed fastest.
  EXPECT_EQ(campaign.cells[0].label, "000-n8-ring-s1");
  EXPECT_EQ(campaign.cells[1].label, "001-n8-ring-s2");
  EXPECT_EQ(campaign.cells[3].label, "003-n8-complete-s1");
  EXPECT_EQ(campaign.cells[11].label, "011-n16-complete-s3");
  EXPECT_EQ(campaign.cells[11].config.params.n, 16u);
  EXPECT_EQ(campaign.cells[11].config.seed, 3u);

  // The axis metadata --list prints: canonical order, pinned defaults
  // contribute cardinality 1, and the product is the cell count.
  ASSERT_EQ(campaign.axes.size(), 5u);
  EXPECT_EQ(campaign.axes[0].key, "n");
  EXPECT_EQ(campaign.axes[0].cardinality, 2u);
  EXPECT_EQ(campaign.axes[1].key, "topology");
  EXPECT_EQ(campaign.axes[1].cardinality, 2u);
  EXPECT_EQ(campaign.axes[2].key, "rho");
  EXPECT_EQ(campaign.axes[2].cardinality, 1u);
  EXPECT_EQ(campaign.axes[3].key, "horizon");
  EXPECT_EQ(campaign.axes[3].cardinality, 1u);
  EXPECT_EQ(campaign.axes[4].key, "seed");
  EXPECT_EQ(campaign.axes[4].cardinality, 3u);
  std::size_t product = 1;
  for (const cli::AxisInfo& axis : campaign.axes) product *= axis.cardinality;
  EXPECT_EQ(product, campaign.cells.size());
}

TEST(Campaign, TrafficAxisSweepsAndValidatesSpecs) {
  const cli::Campaign campaign = from_text(R"({
    "name": "load",
    "defaults": {"n": 8, "delay": "constant:0.5"},
    "sweep": {"traffic": ["off", "cbr:bw=4000:rate=10"]}
  })");
  ASSERT_EQ(campaign.cells.size(), 2u);
  EXPECT_EQ(campaign.cells[0].config.traffic, "off");
  EXPECT_EQ(campaign.cells[1].config.traffic, "cbr:bw=4000:rate=10");
  // The traffic axis sits between delay and engine in label order, and
  // the spec's ':'/'=' sanitize to '-' in the label part.
  EXPECT_EQ(campaign.cells[1].label, "001-cbr-bw-4000-rate-10");
}

TEST(Campaign, VariantAxisSweepsProtocols) {
  // The ablation axis (campaigns/ablation_frontier.json): every cell
  // carries its protocol variant in config and label, and a store pinned
  // in the defaults block reaches every cell. Expansion does not validate
  // store values (run_experiment does), so a non-default value shows that
  // the pin is carried rather than defaulted.
  const cli::Campaign campaign = from_text(R"({
    "name": "abl",
    "defaults": {"n": 8, "store": "adapter"},
    "sweep": {"variant": ["dcsa", "weighted:0.5", "nojump"]}
  })");
  ASSERT_EQ(campaign.cells.size(), 3u);
  EXPECT_EQ(campaign.cells[0].config.variant, "dcsa");
  EXPECT_EQ(campaign.cells[1].config.variant, "weighted:0.5");
  EXPECT_EQ(campaign.cells[2].config.variant, "nojump");
  for (const cli::Cell& cell : campaign.cells) {
    EXPECT_EQ(cell.config.store, "adapter");
  }
  EXPECT_NE(campaign.cells[1].label.find("weighted"), std::string::npos)
      << campaign.cells[1].label;
}

TEST(Campaign, SeedListAndUnsweptAxesKeepDefaults) {
  const cli::Campaign campaign = from_text(R"({
    "name": "seeds",
    "sweep": {"seeds": [7, 9]}
  })");
  ASSERT_EQ(campaign.cells.size(), 2u);
  EXPECT_EQ(campaign.cells[0].config.seed, 7u);
  EXPECT_EQ(campaign.cells[1].config.seed, 9u);
  // Untouched axes keep the ExperimentConfig defaults.
  EXPECT_EQ(campaign.cells[0].config.topology, "path");
  EXPECT_EQ(campaign.cells[0].config.engine, "calendar");
  EXPECT_EQ(campaign.cells[0].config.params.n, 2u);
}

TEST(Campaign, ScenarioAxisSweepsGenerators) {
  const cli::Campaign campaign = from_text(R"({
    "name": "dyn",
    "defaults": {"n": 10, "horizon": 40},
    "sweep": {
      "scenario": [
        {"kind": "churn", "volatile_edges": 4, "lifetime": 5},
        {"kind": "switching-star", "period": 8, "overlap": 2}
      ],
      "seeds": [1, 2]
    }
  })");
  ASSERT_EQ(campaign.cells.size(), 4u);
  EXPECT_EQ(campaign.cells[0].scenario.kind, "churn");
  EXPECT_EQ(campaign.cells[0].scenario.volatile_edges, 4u);
  EXPECT_EQ(campaign.cells[2].scenario.kind, "switching-star");
  EXPECT_DOUBLE_EQ(campaign.cells[2].scenario.period, 8.0);

  // instantiate() resolves the spec against the cell's n/horizon/seed,
  // deterministically.
  const gcs::harness::ExperimentConfig a =
      cli::instantiate(campaign.cells[0]);
  const gcs::harness::ExperimentConfig b =
      cli::instantiate(campaign.cells[0]);
  ASSERT_TRUE(a.scenario.has_value());
  EXPECT_EQ(a.scenario->n, 10u);
  EXPECT_EQ(a.scenario->events.size(), b.scenario->events.size());
  EXPECT_GT(a.scenario->events.size(), 0u);

  // Different seeds draw different churn adversaries.
  const gcs::harness::ExperimentConfig c =
      cli::instantiate(campaign.cells[1]);
  bool differs = a.scenario->events.size() != c.scenario->events.size();
  for (std::size_t i = 0;
       !differs && i < a.scenario->events.size(); ++i) {
    differs = a.scenario->events[i].at != c.scenario->events[i].at;
  }
  EXPECT_TRUE(differs);
}

TEST(Campaign, OverridesPinOrResweepAxes) {
  const std::string text = R"({
    "name": "base",
    "sweep": {"engine": ["calendar", "heap"], "n": [4, 8]}
  })";
  // Scalar override pins a swept axis.
  const cli::Campaign pinned = from_text(text, {{"engine", "heap"}});
  ASSERT_EQ(pinned.cells.size(), 2u);
  for (const cli::Cell& cell : pinned.cells) {
    EXPECT_EQ(cell.config.engine, "heap");
  }
  // List override re-sweeps; ranges expand inclusively.
  const cli::Campaign reswept = from_text(text, {{"seeds", "1..3"}});
  EXPECT_EQ(reswept.cells.size(), 2u * 2u * 3u);
  // Name override renames the campaign.
  const cli::Campaign renamed = from_text(text, {{"name", "other"}});
  EXPECT_EQ(renamed.name, "other");
  EXPECT_EQ(renamed.cells[0].config.name.rfind("other/", 0), 0u);
}

TEST(Campaign, FlagsOnlyMode) {
  const cli::Campaign campaign = cli::build_campaign(
      nullptr, {{"n", "4,6"}, {"drift", "walk"}, {"topology", "ring"}});
  ASSERT_EQ(campaign.cells.size(), 2u);
  EXPECT_EQ(campaign.name, "adhoc");
  EXPECT_EQ(campaign.cells[0].config.params.n, 4u);
  EXPECT_EQ(campaign.cells[1].config.params.n, 6u);
  EXPECT_EQ(campaign.cells[0].config.drift, "walk");
  EXPECT_EQ(campaign.cells[0].config.topology, "ring");
}

TEST(Campaign, ScenarioFlagSyntax) {
  const cli::ScenarioSpec spec =
      cli::ScenarioSpec::from_flag("churn:lifetime=5:volatile_edges=3");
  EXPECT_EQ(spec.kind, "churn");
  EXPECT_DOUBLE_EQ(spec.lifetime, 5.0);
  EXPECT_EQ(spec.volatile_edges, 3u);

  const cli::Campaign campaign = cli::build_campaign(
      nullptr, {{"n", "6"}, {"scenario", "mobility:backbone=true:radius=0.4"}});
  ASSERT_EQ(campaign.cells.size(), 1u);
  EXPECT_EQ(campaign.cells[0].scenario.kind, "mobility");
  EXPECT_DOUBLE_EQ(campaign.cells[0].scenario.radius, 0.4);

  EXPECT_THROW(cli::ScenarioSpec::from_flag("churn:period=3"),
               std::invalid_argument);  // knob of the wrong kind
  EXPECT_THROW(cli::ScenarioSpec::from_flag("warp"), std::invalid_argument);
}

TEST(Campaign, SpecJsonRoundTrip) {
  const cli::ScenarioSpec spec =
      cli::ScenarioSpec::from_flag("mobility:radius=0.5:backbone=false");
  const cli::ScenarioSpec back = cli::ScenarioSpec::from_json(spec.to_json());
  EXPECT_EQ(json::dump(back.to_json()), json::dump(spec.to_json()));
  EXPECT_FALSE(back.backbone);
}

TEST(Campaign, NewGeneratorSpecsRoundTripAndValidate) {
  // Gauss-Markov: every knob serializes and survives the round trip.
  const cli::ScenarioSpec gm = cli::ScenarioSpec::from_flag(
      "gauss-markov:alpha=0.9:mean_speed=0.05:speed_sigma=0.02:dir_sigma=0.3:"
      "backbone=false:connect_window=3.5");
  EXPECT_EQ(gm.kind, "gauss-markov");
  EXPECT_DOUBLE_EQ(gm.alpha, 0.9);
  EXPECT_DOUBLE_EQ(gm.connect_window, 3.5);
  const cli::ScenarioSpec gm_back = cli::ScenarioSpec::from_json(gm.to_json());
  EXPECT_EQ(json::dump(gm_back.to_json()), json::dump(gm.to_json()));

  const cli::ScenarioSpec grp = cli::ScenarioSpec::from_flag(
      "group:groups=4:group_radius=0.1:switch_prob=0.05");
  EXPECT_EQ(grp.groups, 4u);
  const cli::ScenarioSpec grp_back =
      cli::ScenarioSpec::from_json(grp.to_json());
  EXPECT_EQ(json::dump(grp_back.to_json()), json::dump(grp.to_json()));

  // Knob strictness still applies per kind.
  EXPECT_THROW(cli::ScenarioSpec::from_flag("gauss-markov:lifetime=5"),
               std::invalid_argument);
  EXPECT_THROW(cli::ScenarioSpec::from_flag("group:alpha=0.5"),
               std::invalid_argument);
}

TEST(Campaign, TraceSpecCarriesPathAndRequiresIt) {
  // The path knob is a string; flag parsing must not mangle it, and the
  // JSON round trip must preserve it (this is what makes a trace cell
  // re-runnable from its result document).
  const cli::ScenarioSpec spec = cli::ScenarioSpec::from_flag(
      "trace:path=campaigns/traces/example_contacts.csv:connect_window=3.5");
  EXPECT_EQ(spec.kind, "trace");
  EXPECT_EQ(spec.path, "campaigns/traces/example_contacts.csv");
  EXPECT_DOUBLE_EQ(spec.connect_window, 3.5);
  const cli::ScenarioSpec back = cli::ScenarioSpec::from_json(spec.to_json());
  EXPECT_EQ(back.path, spec.path);
  EXPECT_EQ(json::dump(back.to_json()), json::dump(spec.to_json()));

  // A trace spec without a path is a loud error, not a later file-not-
  // found surprise.
  EXPECT_THROW(cli::ScenarioSpec::from_flag("trace"), std::invalid_argument);
  EXPECT_THROW(cli::ScenarioSpec::from_flag("trace:connect_window=2"),
               std::invalid_argument);
  // A missing trace file fails at build (= cell instantiation) time.
  cli::Campaign campaign = cli::build_campaign(
      nullptr, {{"n", "4"}, {"scenario", "trace:path=/no/such/trace.csv"}});
  ASSERT_EQ(campaign.cells.size(), 1u);
  EXPECT_THROW(cli::instantiate(campaign.cells[0]), std::runtime_error);
}

TEST(Campaign, RejectsMalformedCampaigns) {
  EXPECT_THROW(from_text(R"({"swep": {}})"), std::invalid_argument);
  EXPECT_THROW(from_text(R"({"sweep": {"warp": [1]}})"),
               std::invalid_argument);
  EXPECT_THROW(from_text(R"({"defaults": {"topologyy": "ring"}})"),
               std::invalid_argument);
  EXPECT_THROW(from_text(R"({"sweep": {"n": []}})"), std::invalid_argument);
  EXPECT_THROW(
      from_text(R"({"sweep": {"seeds": {"base": 1, "cont": 3}}})"),
      std::invalid_argument);
  // Workload axis must be topology or scenario, not both.
  EXPECT_THROW(from_text(R"({
    "defaults": {"topology": "ring"},
    "sweep": {"scenario": [{"kind": "churn"}]}
  })"),
               std::invalid_argument);
  // Unknown override key.
  EXPECT_THROW(cli::build_campaign(nullptr, {{"warp", "9"}}),
               std::invalid_argument);
  // Cross-product explosion guard -- including before the seeds axis is
  // materialized, so an absurd count cannot allocate first.
  EXPECT_THROW(from_text(R"({"sweep": {"seeds": {"base": 0, "count": 20000}}})"),
               std::invalid_argument);
  EXPECT_THROW(
      from_text(R"({"sweep": {"seeds": {"base": 1, "count": 200000000}}})"),
      std::invalid_argument);
  // Ranges are strictly integer: a float-looking range must fail loudly,
  // not strtoull-truncate into a silently different sweep.
  EXPECT_THROW(cli::build_campaign(nullptr, {{"rho", "0.01..0.05"}}),
               std::invalid_argument);
  EXPECT_THROW(cli::build_campaign(nullptr, {{"seeds", "1..x"}}),
               std::invalid_argument);
}

TEST(Campaign, NameIsSanitizedForPathsAndCsv) {
  // Commas would break the CSV schema; slashes and dot-runs would escape
  // the results root.
  const cli::Campaign campaign = cli::build_campaign(
      nullptr, {{"name", "a,b/../x"}, {"n", "4"}});
  EXPECT_EQ(campaign.name, "a-b-..-x");
  const cli::Campaign dots =
      cli::build_campaign(nullptr, {{"name", ".."}, {"n", "4"}});
  EXPECT_EQ(dots.name, "campaign");
}

}  // namespace
