// Unit tests for cli::diff_trees: identical trees, counter vs float
// tolerance semantics, timing exclusion, missing/extra cells, and
// schema-version mismatches -- each against real trees written by
// run_campaign into scratch directories.
#include "cli/diff.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>

#include "cli/campaign.hpp"
#include "cli/runner.hpp"
#include "util/json.hpp"

namespace {

namespace cli = gcs::cli;
namespace fs = std::filesystem;
namespace json = gcs::util::json;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / "gcs_diff" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// Writes one small real tree with run_campaign.
fs::path make_tree(const std::string& name,
                   const std::string& campaign_name = "difftest") {
  const fs::path dir = fresh_dir(name);
  const cli::Campaign campaign = cli::build_campaign(
      nullptr, {{"name", campaign_name}, {"n", "6"}, {"topology", "ring"},
                {"seeds", "1..3"}, {"horizon", "8"}});
  cli::RunnerOptions options;
  options.quiet = true;
  options.fixed_timing = true;
  options.out_dir = dir.string();
  std::ostringstream log;
  EXPECT_EQ(cli::run_campaign(campaign, options, log), 0);
  return dir;
}

// Parses a cell file, lets `mutate` edit the document, writes it back.
void rewrite_cell(const fs::path& tree, const std::string& file,
                  const std::function<void(json::Value&)>& mutate) {
  const fs::path path = tree / "cells" / file;
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  json::Value doc = json::parse(buf.str());
  mutate(doc);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << json::dump(doc, 2) << "\n";
}

struct DiffRun {
  int rc = 0;
  cli::DiffStats stats;
  std::string log;
};

DiffRun run_diff(const fs::path& a, const fs::path& b,
                 cli::DiffOptions options = {}) {
  DiffRun run;
  std::ostringstream log;
  run.rc = cli::diff_trees(a.string(), b.string(), options, log, &run.stats);
  run.log = log.str();
  return run;
}

TEST(DiffTrees, IdenticalTreesMatchUnderStrict) {
  const fs::path a = make_tree("ident-a");
  const fs::path b = make_tree("ident-b");
  cli::DiffOptions options;
  options.strict = true;
  const DiffRun run = run_diff(a, b, options);
  EXPECT_EQ(run.rc, 0);
  EXPECT_TRUE(run.stats.clean());
  EXPECT_EQ(run.stats.cells_compared, 3u);
  EXPECT_NE(run.log.find("trees match"), std::string::npos) << run.log;
}

TEST(DiffTrees, CounterDeltaIsExactEvenWithTolerance) {
  const fs::path a = make_tree("ctr-a");
  const fs::path b = make_tree("ctr-b");
  rewrite_cell(b, "000-s1.json", [](json::Value& doc) {
    doc["result"]["events_executed"] =
        doc.at("result").at("events_executed").as_u64() + 1;
  });
  cli::DiffOptions options;
  options.strict = true;
  options.tolerance = 100.0;  // counters must not care
  const DiffRun run = run_diff(a, b, options);
  EXPECT_EQ(run.rc, 1);
  EXPECT_EQ(run.stats.cells_differing, 1u);
  EXPECT_EQ(run.stats.field_diffs, 1u);
  EXPECT_NE(run.log.find("result.events_executed"), std::string::npos)
      << run.log;
}

TEST(DiffTrees, FloatFieldsRespectTolerance) {
  const fs::path a = make_tree("tol-a");
  const fs::path b = make_tree("tol-b");
  rewrite_cell(b, "001-s2.json", [](json::Value& doc) {
    doc["result"]["max_global_skew"] =
        doc.at("result").at("max_global_skew").as_number() + 1e-9;
  });
  cli::DiffOptions strict;
  strict.strict = true;
  EXPECT_EQ(run_diff(a, b, strict).rc, 1);  // tol 0 -> exact -> differs
  cli::DiffOptions tolerant = strict;
  tolerant.tolerance = 1e-6;
  const DiffRun run = run_diff(a, b, tolerant);
  EXPECT_EQ(run.rc, 0);
  EXPECT_TRUE(run.stats.clean());
}

TEST(DiffTrees, TimingIsIgnoredUnlessAsked) {
  const fs::path a = make_tree("time-a");
  const fs::path b = make_tree("time-b");
  rewrite_cell(b, "002-s3.json", [](json::Value& doc) {
    doc["wall_ms"] = 123.456;
    doc["events_per_sec"] = 1e9;
  });
  cli::DiffOptions strict;
  strict.strict = true;
  EXPECT_EQ(run_diff(a, b, strict).rc, 0);  // timing excluded by default
  cli::DiffOptions with_timing = strict;
  with_timing.compare_timing = true;
  const DiffRun run = run_diff(a, b, with_timing);
  EXPECT_EQ(run.rc, 1);
  EXPECT_EQ(run.stats.field_diffs, 2u);
}

TEST(DiffTrees, StoreEchoIsExecutionLayout) {
  // Trees written while the per-node store was a production option echo
  // "store": "adapter" and arena_bytes 0 for the same trajectories; they
  // diff clean against a columns tree even under --strict.
  const fs::path a = make_tree("store-a");
  const fs::path b = make_tree("store-b");
  for (const char* file : {"000-s1.json", "001-s2.json", "002-s3.json"}) {
    rewrite_cell(b, file, [](json::Value& doc) {
      doc["config"]["store"] = std::string("adapter");
      doc["result"]["run_stats"]["arena_bytes"] = std::uint64_t{0};
    });
  }
  cli::DiffOptions options;
  options.strict = true;
  const DiffRun run = run_diff(a, b, options);
  EXPECT_EQ(run.rc, 0) << run.log;
  EXPECT_TRUE(run.stats.clean());
}

TEST(DiffTrees, MissingAndExtraCellsAreReported) {
  const fs::path a = make_tree("miss-a");
  const fs::path b = make_tree("miss-b");
  fs::remove(b / "cells" / "001-s2.json");
  cli::DiffOptions options;
  options.strict = true;
  const DiffRun ab = run_diff(a, b, options);
  EXPECT_EQ(ab.rc, 1);
  EXPECT_EQ(ab.stats.missing_cells, 1u);
  EXPECT_EQ(ab.stats.extra_cells, 0u);
  EXPECT_EQ(ab.stats.cells_compared, 2u);
  const DiffRun ba = run_diff(b, a, options);
  EXPECT_EQ(ba.stats.missing_cells, 0u);
  EXPECT_EQ(ba.stats.extra_cells, 1u);
}

TEST(DiffTrees, SchemaVersionMismatchIsOneLoudFinding) {
  const fs::path a = make_tree("schema-a");
  const fs::path b = make_tree("schema-b");
  rewrite_cell(b, "000-s1.json", [](json::Value& doc) {
    doc["schema_version"] = 999;
    // Field drift under the bumped version must NOT add per-field noise.
    doc["result"]["events_executed"] = 0;
  });
  cli::DiffOptions options;
  options.strict = true;
  const DiffRun run = run_diff(a, b, options);
  EXPECT_EQ(run.rc, 1);
  EXPECT_EQ(run.stats.schema_mismatches, 1u);
  EXPECT_EQ(run.stats.field_diffs, 0u);
  EXPECT_NE(run.log.find("schema_version"), std::string::npos) << run.log;
}

TEST(DiffTrees, DifferentCampaignNamesStillMatch) {
  // A baseline tree routinely carries another campaign name.  Both trees
  // come from the real pipeline, so every place the campaign name leaks
  // into a cell document (top-level "campaign", config.name, result.name)
  // is exercised; all of them are identity, not trajectory.
  const fs::path a = make_tree("name-a");
  const fs::path b = make_tree("name-b", "renamed-baseline");
  cli::DiffOptions options;
  options.strict = true;
  const DiffRun run = run_diff(a, b, options);
  EXPECT_EQ(run.rc, 0) << run.log;
  EXPECT_TRUE(run.stats.clean()) << run.log;
}

// diff_files: the single-document mode gcs_diff uses to gate the
// committed ENVELOPE_baseline.json against a regenerated envelope fit.
fs::path write_file(const std::string& name, const std::string& text) {
  const fs::path path = fs::path(::testing::TempDir()) / "gcs_diff" / name;
  fs::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::binary);
  out << text;
  return path;
}

TEST(DiffFiles, IdenticalDocumentsMatchUnderStrict) {
  const std::string text =
      R"({"cells": [{"bound_gap": 12.5, "cell": "a", "envelope_ratio": 0.9}],)"
      R"( "schema_version": 7})";
  const fs::path a = write_file("env-a.json", text);
  const fs::path b = write_file("env-b.json", text);
  cli::DiffOptions options;
  options.strict = true;
  std::ostringstream log;
  cli::DiffStats stats;
  EXPECT_EQ(cli::diff_files(a.string(), b.string(), options, log, &stats), 0);
  EXPECT_TRUE(stats.clean()) << log.str();
  EXPECT_EQ(stats.cells_compared, 1u);
}

TEST(DiffFiles, PerturbedRatioFailsStrictNamingTheField) {
  const fs::path a = write_file(
      "perturb-a.json",
      R"({"cells": [{"cell": "a", "envelope_ratio": 0.9}], "schema_version": 7})");
  const fs::path b = write_file(
      "perturb-b.json",
      R"({"cells": [{"cell": "a", "envelope_ratio": 0.95}], "schema_version": 7})");
  cli::DiffOptions options;
  options.strict = true;
  std::ostringstream log;
  cli::DiffStats stats;
  EXPECT_EQ(cli::diff_files(a.string(), b.string(), options, log, &stats), 1);
  EXPECT_EQ(stats.field_diffs, 1u);
  EXPECT_NE(log.str().find("envelope_ratio"), std::string::npos) << log.str();
  // Without --strict the difference is still reported but not fatal.
  std::ostringstream relog;
  EXPECT_EQ(cli::diff_files(a.string(), b.string(), {}, relog, nullptr), 0);
}

TEST(DiffFiles, UnparseableFileThrowsNamingThePath) {
  const fs::path good = write_file("parse-good.json", R"({"schema_version": 7})");
  const fs::path bad = write_file("parse-bad.json", "{nope");
  try {
    std::ostringstream log;
    cli::diff_files(good.string(), bad.string(), {}, log, nullptr);
    FAIL() << "unparseable file did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("parse-bad.json"), std::string::npos)
        << e.what();
  }
}

TEST(DiffTrees, UnreadableTreeThrows) {
  const fs::path a = make_tree("throw-a");
  EXPECT_THROW(
      {
        std::ostringstream log;
        cli::diff_trees(a.string(), (a / "nope").string(), {}, log);
      },
      std::runtime_error);
}

}  // namespace
