// gcs_trace -- the benchmark's traced run.
//
//   gcs_trace --campaign FILE --reference TREE --out FILE --spans FILE
//             --cli-out DIR
//
// Rebuilds every cell of a gcs_run campaign through the same public calls
// harness::run_experiment makes (scenario generator, schedules, link
// model, NetworkSimulation, periodic sampler, run_until) and times each
// call from out here, so per-layer costs are visible without
// instrumenting src/.  Each cell's harness::to_json result must equal the
// result document of an untraced `gcs_run --check --fixed-timing` run of
// the same campaign (TREE) byte for byte; the comparison outcome is
// reported per cell and any mismatch makes the process exit 1.
//
// After the traced pass it replays HardwareClock::value_at over every
// node at the sample instants, then runs the campaign once more through
// cli::run_campaign to measure the runner's per-cell overhead.  Spans
// (name, start, end, parent, cell) stay in memory and are written to
// --spans, and per-cell counters to --out, when everything has finished.
//
// Only the production layout is mirrored (store=columns, variant=dcsa,
// shards=0); any other cell is refused with exit 2.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "cli/campaign.hpp"
#include "cli/runner.hpp"
#include "clk/clock.hpp"
#include "core/network_sim.hpp"
#include "harness/experiment.hpp"
#include "harness/serialize.hpp"
#include "net/delay.hpp"
#include "net/link.hpp"
#include "net/scenario.hpp"
#include "net/topology.hpp"
#include "obs/recorder.hpp"
#include "util/json.hpp"

namespace {

namespace json = gcs::util::json;
using gcs::harness::ExperimentConfig;
using gcs::harness::ExperimentResult;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           kEpoch)
          .count());
}

struct Span {
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::int64_t parent;  // index into the span list, -1 for a root
  std::int64_t cell;    // trace id: the cell index
};

// In-memory span recorder; written out once everything has run.
class Tracer {
 public:
  std::int64_t open(const char* name, std::int64_t parent, std::int64_t cell) {
    spans_.push_back(Span{name, now_ns(), 0, parent, cell});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }
  void close(std::int64_t id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }
  // Ends every span from `first` on that an exception left open.
  void close_open_from(std::int64_t first) {
    const std::uint64_t t = now_ns();
    for (auto i = static_cast<std::size_t>(first); i < spans_.size(); ++i) {
      if (spans_[i].end_ns == 0) spans_[i].end_ns = t;
    }
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// Resident set size right now, from /proc/self/statm (0 if unreadable).
std::uint64_t current_rss_kb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0;
  std::uint64_t resident = 0;
  if (!(statm >> size >> resident)) return 0;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE)) / 1024;
}

std::uint64_t peak_rss_kb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0 || usage.ru_maxrss < 0) return 0;
  return static_cast<std::uint64_t>(usage.ru_maxrss);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// --- mirrors of run_experiment's private helpers ----------------------------

gcs::net::Scenario static_scenario(const ExperimentConfig& cfg) {
  const std::size_t n = cfg.params.n;
  if (cfg.topology == "path") return gcs::net::make_static_scenario(gcs::net::make_path(n));
  if (cfg.topology == "ring") return gcs::net::make_static_scenario(gcs::net::make_ring(n));
  if (cfg.topology == "star") return gcs::net::make_static_scenario(gcs::net::make_star(n));
  if (cfg.topology == "complete") {
    return gcs::net::make_static_scenario(gcs::net::make_complete(n));
  }
  throw std::invalid_argument("unknown topology '" + cfg.topology + "'");
}

std::vector<gcs::clk::RateSchedule> schedules_for(const ExperimentConfig& cfg) {
  const std::size_t n = cfg.params.n;
  const double rho = cfg.params.rho;
  std::vector<gcs::clk::RateSchedule> schedules;
  schedules.reserve(n);
  if (cfg.drift == "spread") {
    for (std::size_t i = 0; i < n; ++i) {
      const double f = n > 1 ? static_cast<double>(i) / (n - 1) : 0.5;
      schedules.emplace_back(1.0 - rho + 2.0 * rho * f);
    }
  } else if (cfg.drift == "walk") {
    for (std::size_t i = 0; i < n; ++i) {
      schedules.push_back(gcs::clk::RateSchedule::random_walk(
          rho, 1.0, rho / 4.0, cfg.seed * 7919 + i));
    }
  } else if (cfg.drift == "two-camp") {
    for (std::size_t i = 0; i < n; ++i) {
      schedules.emplace_back(i < n / 2 ? 1.0 + rho : 1.0 - rho);
    }
  } else {
    throw std::invalid_argument("unknown drift '" + cfg.drift + "'");
  }
  return schedules;
}

// The benchmark's workloads use "constant:x" and "uniform:lo:hi" only.
gcs::net::DelayModel delay_for(const ExperimentConfig& cfg) {
  const double T = cfg.params.T;
  const std::string& d = cfg.delay;
  if (d.rfind("constant:", 0) == 0) {
    return gcs::net::make_constant_delay(T, std::stod(d.substr(9)));
  }
  if (d.rfind("uniform:", 0) == 0) {
    const std::string rest = d.substr(8);
    const std::size_t colon = rest.find(':');
    if (colon == std::string::npos) {
      return gcs::net::make_uniform_delay(T, std::stod(rest), T);
    }
    return gcs::net::make_uniform_delay(T, std::stod(rest.substr(0, colon)),
                                        std::stod(rest.substr(colon + 1)));
  }
  if (d == "uniform") return gcs::net::make_uniform_delay(T, 0.0, T);
  if (d == "constant") return gcs::net::make_constant_delay(T, T);
  throw std::invalid_argument("unsupported delay '" + d + "'");
}

// --- one traced cell --------------------------------------------------------

struct CellTrace {
  std::string label;
  std::size_t n = 0;
  double sample_dt = 1.0;
  bool errored = false;
  std::string error;
  bool matches = false;
  std::uint64_t schedule_rss_kb = 0;
  std::uint64_t construct_rss_kb = 0;
  ExperimentResult result;
};

std::uint64_t rss_delta(std::uint64_t before) {
  const std::uint64_t after = current_rss_kb();
  return after > before ? after - before : 0;
}

// run_experiment, call for call, with a span around each layer boundary.
ExperimentResult traced_experiment(const ExperimentConfig& cfg,
                                   gcs::net::Scenario scenario, Tracer& tr,
                                   std::int64_t cell_span, std::int64_t cell,
                                   CellTrace& out) {
  const gcs::core::SyncParams& p = cfg.params;

  std::int64_t span = tr.open("net.to_dynamic_graph", cell_span, cell);
  gcs::net::DynamicGraph graph = scenario.to_dynamic_graph();
  tr.close(span);

  span = tr.open("clk.schedule_build", cell_span, cell);
  std::uint64_t rss0 = current_rss_kb();
  std::vector<gcs::clk::RateSchedule> schedules = schedules_for(cfg);
  out.schedule_rss_kb = rss_delta(rss0);
  tr.close(span);

  span = tr.open("net.link_build", cell_span, cell);
  gcs::net::LinkModel link(delay_for(cfg), gcs::net::parse_traffic(cfg.traffic));
  tr.close(span);

  gcs::core::SimOptions options = cfg.options;
  options.seed = cfg.seed;
  options.engine_policy = gcs::sim::EnginePolicy::kCalendar;
  options.batched_delivery = true;
  options.recorder = nullptr;
  options.shards = 0;

  span = tr.open("core.construct", cell_span, cell);
  rss0 = current_rss_kb();
  gcs::core::NetworkSimulation sim(p, std::move(graph), std::move(link),
                                   std::move(schedules), options);
  out.construct_rss_kb = rss_delta(rss0);
  tr.close(span);

  ExperimentResult result;
  result.name = cfg.name;
  result.global_skew_bound = p.global_skew_bound();
  result.local_skew_floor = p.effective_b0();

  const gcs::core::BFunction& bfunc = sim.bfunc();
  const double slack = options.conformance_slack;
  gcs::obs::SeriesAggregator series;
  std::vector<double> hw_sample;
  std::vector<double> logical_sample;
  std::int64_t run_span = -1;
  sim.schedule_periodic(cfg.sample_dt, cfg.sample_dt, [&](gcs::sim::Time t) {
    const std::int64_t sample_span = tr.open("harness.sample", run_span, cell);
    ++result.samples;
    std::int64_t sub = tr.open("harness.sample_clocks", sample_span, cell);
    sim.sample_clocks(hw_sample, logical_sample);
    tr.close(sub);
    double lo = logical_sample[0];
    double hi = lo;
    for (std::size_t i = 1; i < sim.size(); ++i) {
      const double L = logical_sample[i];
      lo = std::min(lo, L);
      hi = std::max(hi, L);
    }
    gcs::obs::SeriesSample sample;
    sample.t = t;
    sample.global_skew = hi - lo;
    result.max_global_skew = std::max(result.max_global_skew, sample.global_skew);
    if (sample.global_skew > result.global_skew_bound + slack) {
      ++result.global_violations;
    }

    sub = tr.open("harness.current_edges", sample_span, cell);
    const std::vector<gcs::net::Edge> edges = sim.current_edges();
    tr.close(sub);
    for (const gcs::net::Edge& e : edges) {
      const double local = std::abs(logical_sample[e.u] - logical_sample[e.v]);
      result.max_local_skew = std::max(result.max_local_skew, local);
      sample.max_local_skew = std::max(sample.max_local_skew, local);
      const double age_hw = (1.0 - p.rho) * sim.edge_age(e);
      const double envelope = bfunc(age_hw);
      if (local > envelope + slack) ++result.envelope_violations;
      sample.max_envelope_ratio =
          std::max(sample.max_envelope_ratio, local / envelope);
      ++sample.live_edges;
    }
    const gcs::core::RunStats& s = sim.stats();
    sample.in_flight =
        s.messages_sent - s.messages_delivered - s.messages_dropped;
    sample.engine_pending = sim.engine_pending();
    sample.queue_bytes = sim.max_queue_backlog();
    series.add(sample);
    tr.close(sample_span);
  });

  run_span = tr.open("core.run", cell_span, cell);
  sim.run_until(cfg.horizon);
  tr.close(run_span);

  result.events_executed = sim.events_executed();
  result.clamped_events = sim.engine_clamped_count();
  result.run_stats = sim.stats();
  result.engine_stats = sim.engine_stats();
  result.series = series.summary();
  result.envelope_violations += sim.stats().conformance_envelope_failures;
  return result;
}

// The --check round trip gcs_run performs on every cell document; false
// when the result does not survive it.
bool traced_serialize(const gcs::cli::Cell& cell, const std::string& campaign,
                      const ExperimentResult& result, Tracer& tr,
                      std::int64_t cell_span, std::int64_t cell_index) {
  const std::int64_t span = tr.open("harness.serialize", cell_span, cell_index);
  const json::Value spec =
      cell.scenario.is_static() ? json::Value() : cell.scenario.to_json();
  const json::Value doc = gcs::harness::cell_document(
      campaign, cell.label, gcs::harness::config_to_json(cell.config),
      cell.scenario.is_static() ? nullptr : &spec, result, 0.0, 0.0);
  const json::Value reread = json::parse(json::dump(doc, 2) + "\n");
  const ExperimentResult decoded =
      gcs::harness::result_from_json(reread.at("result"));
  const bool ok = json::dump(gcs::harness::to_json(decoded)) ==
                  json::dump(reread.at("result"));
  tr.close(span);
  return ok;
}

json::Value counters_json(const ExperimentResult& r) {
  const gcs::core::RunStats& s = r.run_stats;
  json::Value v;
  v["events"] = r.events_executed;
  v["messages_sent"] = s.messages_sent;
  v["messages_delivered"] = s.messages_delivered;
  v["messages_dropped"] = s.messages_dropped;
  v["delivery_events"] = s.delivery_events;
  v["jumps"] = s.jumps;
  v["topology_events"] = s.topology_events_applied;
  v["conformance_checks"] = s.conformance_checks;
  v["arena_bytes"] = s.arena_bytes;
  v["traffic_packets"] = s.traffic_packets;
  v["traffic_dropped"] = s.traffic_dropped;
  v["ecn_marks"] = s.ecn_marks;
  v["peak_queue_bytes"] = s.peak_queue_bytes;
  v["max_pending"] = r.engine_stats.max_pending;
  v["calendar_bucket_scans"] = r.engine_stats.calendar_bucket_scans;
  v["calendar_resizes"] = r.engine_stats.calendar_resizes;
  return v;
}

std::string flag_value(int argc, char** argv, const std::string& name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == name) return argv[i + 1];
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string campaign_path = flag_value(argc, argv, "--campaign");
  const std::string reference_path = flag_value(argc, argv, "--reference");
  const std::string out_path = flag_value(argc, argv, "--out");
  const std::string spans_path = flag_value(argc, argv, "--spans");
  const std::string cli_out = flag_value(argc, argv, "--cli-out");
  if (campaign_path.empty() || reference_path.empty() || out_path.empty() ||
      spans_path.empty() || cli_out.empty()) {
    std::cerr << "usage: gcs_trace --campaign FILE --reference TREE --out FILE "
                 "--spans FILE --cli-out DIR\n";
    return 2;
  }

  gcs::cli::Campaign campaign;
  std::map<std::string, json::Value> reference;
  try {
    const json::Value doc = json::parse(read_file(campaign_path));
    campaign = gcs::cli::build_campaign(&doc, {});
    reference = gcs::harness::load_cell_documents(reference_path);
  } catch (const std::exception& e) {
    std::cerr << "gcs_trace: " << e.what() << "\n";
    return 2;
  }
  for (const gcs::cli::Cell& cell : campaign.cells) {
    const ExperimentConfig& c = cell.config;
    if (c.store != "columns" || c.variant != "dcsa" || c.shards != 0 ||
        c.engine != "calendar" || c.delivery != "batched") {
      std::cerr << "gcs_trace: cell " << cell.label
                << " is not on the production layout\n";
      return 2;
    }
  }

  // 1. The traced pass.
  Tracer tr;
  std::vector<CellTrace> traces(campaign.cells.size());
  const std::uint64_t pass_start = now_ns();
  for (std::size_t i = 0; i < campaign.cells.size(); ++i) {
    const gcs::cli::Cell& cell = campaign.cells[i];
    CellTrace& out = traces[i];
    const auto ci = static_cast<std::int64_t>(i);
    out.label = cell.label;
    out.n = cell.config.params.n;
    out.sample_dt = cell.config.sample_dt;
    const std::int64_t cell_span = tr.open("cell", -1, ci);
    try {
      const ExperimentConfig& cfg = cell.config;
      const std::int64_t span = tr.open("net.scenario_build", cell_span, ci);
      gcs::net::Scenario scenario =
          cell.scenario.is_static()
              ? static_scenario(cfg)
              : cell.scenario.build(cfg.params.n, cfg.horizon, cfg.seed);
      tr.close(span);
      out.result = traced_experiment(cfg, std::move(scenario), tr, cell_span,
                                     ci, out);
    } catch (const std::exception& e) {
      out.errored = true;
      out.error = e.what();
      tr.close_open_from(cell_span + 1);
    }
    const bool round_trips =
        out.errored ||
        traced_serialize(cell, campaign.name, out.result, tr, cell_span, ci);
    tr.close(cell_span);
    // An errored cell leaves no document behind in the reference tree.
    const auto ref = reference.find(cell.label);
    if (out.errored) {
      out.matches = ref == reference.end();
    } else if (ref != reference.end() && ref->second.find("result") != nullptr) {
      out.matches = round_trips &&
                    json::dump(gcs::harness::to_json(out.result)) ==
                        json::dump(*ref->second.find("result"));
    }
  }
  const double pass_s = static_cast<double>(now_ns() - pass_start) * 1e-9;
  const std::uint64_t pass_peak_rss_kb = peak_rss_kb();

  // 2. Clock replay: value_at over every node at every sample instant,
  //    on freshly built schedules (the simulation's own are gone).
  std::uint64_t replay_calls = 0;
  std::uint64_t replay_ns = 0;
  double checksum = 0.0;
  for (std::size_t i = 0; i < campaign.cells.size(); ++i) {
    if (traces[i].errored) continue;
    std::vector<gcs::clk::HardwareClock> clocks;
    {
      std::vector<gcs::clk::RateSchedule> schedules =
          schedules_for(campaign.cells[i].config);
      clocks.reserve(schedules.size());
      for (gcs::clk::RateSchedule& s : schedules) clocks.emplace_back(std::move(s));
    }
    const std::int64_t span =
        tr.open("clk.value_at_replay", -1, static_cast<std::int64_t>(i));
    const std::uint64_t t0 = now_ns();
    const double dt = traces[i].sample_dt;
    for (std::uint64_t k = 1; k <= traces[i].result.samples; ++k) {
      const double t = dt * static_cast<double>(k);
      for (const gcs::clk::HardwareClock& c : clocks) checksum += c.value_at(t);
      replay_calls += clocks.size();
    }
    replay_ns += now_ns() - t0;
    tr.close(span);
  }

  // 3. The runner itself: run_campaign wall against its cells' own walls.
  gcs::cli::RunnerOptions options;
  options.out_dir = cli_out;
  options.check = true;
  options.quiet = true;
  options.fixed_timing = true;
  options.jobs = 1;
  gcs::cli::CampaignOutcome outcome;
  std::ostringstream log;
  const std::int64_t cli_span = tr.open("cli.run_campaign", -1, -1);
  const std::uint64_t cli_start = now_ns();
  gcs::cli::run_campaign(campaign, options, log, &outcome);
  const double cli_wall_s = static_cast<double>(now_ns() - cli_start) * 1e-9;
  tr.close(cli_span);
  double cell_wall_s = 0.0;
  for (const gcs::cli::CellOutcome& c : outcome.cells) cell_wall_s += c.wall_ms * 1e-3;

  // 4. Write everything out.
  std::size_t mismatches = 0;
  json::Value doc;
  json::Array cells;
  for (const CellTrace& t : traces) {
    json::Value c;
    c["label"] = t.label;
    c["n"] = static_cast<std::uint64_t>(t.n);
    c["errored"] = t.errored;
    c["error"] = t.error;
    c["matches_reference"] = t.matches;
    c["schedule_rss_kb"] = t.schedule_rss_kb;
    c["construct_rss_kb"] = t.construct_rss_kb;
    c["counters"] = counters_json(t.result);
    if (!t.matches) ++mismatches;
    cells.push_back(c);
  }
  doc["cells"] = cells;
  doc["traced_pass_s"] = pass_s;
  doc["traced_pass_peak_rss_kb"] = pass_peak_rss_kb;
  doc["value_at_calls"] = replay_calls;
  doc["value_at_ns"] = replay_ns;
  doc["value_at_checksum_finite"] = std::isfinite(checksum);
  doc["cli_wall_s"] = cli_wall_s;
  doc["cli_cell_wall_s"] = cell_wall_s;
  doc["cli_cells"] = static_cast<std::uint64_t>(outcome.cells.size());
  doc["cli_errored_cells"] = static_cast<std::uint64_t>(outcome.errored_cells);
  doc["cli_failed_cells"] = static_cast<std::uint64_t>(outcome.failed_cells);
  doc["mismatches"] = static_cast<std::uint64_t>(mismatches);
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  out << json::dump(doc) << "\n";
  // Spans go out as one [name, start_ns, end_ns, parent, cell] row each;
  // a json::Value per span would cost ~1 KB apiece on the large sweeps.
  std::ofstream spans(spans_path, std::ios::binary | std::ios::trunc);
  spans << "[";
  const char* sep = "\n";
  for (const Span& s : tr.spans()) {
    spans << sep << "[\"" << s.name << "\"," << s.start_ns << ',' << s.end_ns
          << ',' << s.parent << ',' << s.cell << ']';
    sep = ",\n";
  }
  spans << "\n]\n";
  if (!out || !spans) {
    std::cerr << "gcs_trace: cannot write " << out_path << " / " << spans_path
              << "\n";
    return 2;
  }
  if (mismatches > 0) {
    std::cerr << "gcs_trace: " << mismatches
              << " cell(s) differ from the untraced reference\n";
    return 1;
  }
  return 0;
}
