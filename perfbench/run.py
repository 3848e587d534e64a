#!/usr/bin/env python3
"""End-to-end benchmark of the gcs simulator.

    python3 perfbench/run.py --workload churn_walk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload sweep_small --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --self-check

Run from the repository root.  The first call builds gcs_run, gcs_diff,
the traced run tool gcs_trace and the launcher gcs_launch from source into
.bench_build/ (the CMake package in perfbench/); later calls reuse that
build.

Untraced mode (--trace 0) times the shipped user path, one fresh
`gcs_run --check --fixed-timing` process per run, so peak RSS is per run.
It repeats the real campaign until --seconds have passed, with runs of
the workload's set-up twin (the same campaign with the horizon cut to
1e-9, which must execute 0 events) spread between them, and reports
medians of the end-to-end metrics.  Runs cycle through a few cell seeds
derived from --seed, each run at least twice.

Traced mode (--trace 1) pairs an untraced reference run with a gcs_trace
run of the same campaign, repeated until --seconds have passed, and
reports the per-layer metrics (medians over the pairs).  gcs_trace rebuilds
every cell through the public calls run_experiment makes, times them from
outside the program, and must reproduce the reference result bytes.

Every run is audited: gcs_run's own --check findings, a re-audit of each
cell document (bounds, envelope, monotonicity, connectivity, clamps), the
workload's validity assertions, and a `gcs_diff --strict` of every run
against the first run of the same seed.  A cell that errors, fails an
audit or an assertion, or differs from its first run counts as failed;
any failure other than a cell that refused to run makes `correct` false.
`attempted` and `failed` count distinct cells (the real and the twin cells
of each cell seed, and the traced cells), not runs: a cell fails if any of
its runs fails.  So the same arguments attempt and fail the same cells,
however many runs the host's speed allows.

All human-readable lines go to stdout before the last line, which is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD = ROOT / ".bench_build"
WORK = BUILD / "work"
SPEC = ROOT / "BENCHMARK.json"

SETUP_HORIZON = 1e-9
MIN_TWINS = 5         # set-up twins per measurement
TWIN_BUDGET_S = 3.0   # nominal time spent on twins (up to MAX_TWINS of them)
MAX_TWINS = 25
RUN_TIMEOUT_S = 150   # a single child process never runs longer than this

E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_node_s_per_s": "node-s/s",
    "cells_per_s": "cells/s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "net.scenario_build_s": "s",
    "net.topology_events": "count",
    "net.link.packets_offered": "count",
    "net.link.drop_share": "ratio",
    "net.link.ecn_share": "ratio",
    "net.link.peak_queue_bytes": "bytes",
    "clk.schedule_build_s": "s",
    "clk.schedule_rss_mb": "MB",
    "clk.value_at_ns": "ns",
    "sim.events": "count",
    "sim.events_per_msg": "ratio",
    "sim.calendar_scans_per_event": "ratio",
    "sim.calendar_resizes": "count",
    "sim.max_pending": "count",
    "core.construct_s": "s",
    "core.construct_rss_mb": "MB",
    "core.run_s": "s",
    "core.run_ns_per_msg": "ns",
    "core.msgs_delivered": "count",
    "core.msgs_per_delivery_event": "ratio",
    "core.jump_share": "ratio",
    "core.conformance_checks": "count",
    "core.drop_share": "ratio",
    "core.arena_bytes_per_node": "bytes",
    "core.arena_share_of_rss": "ratio",
    "harness.sample_s": "s",
    "harness.sample_clocks_s": "s",
    "harness.current_edges_s": "s",
    "harness.serialize_s": "s",
    "cli.overhead_ms_per_cell": "ms",
    "cli.errored_cells": "count",
    "obs.trace_overhead_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot produce a result (build or tool failure)."""


# ---------------------------------------------------------------------------
# Workloads.  Each builds a gcs_run campaign document from the seed; every
# one runs the production layout and no workload depends on an execution
# knob.  `toy` shrinks it for --self-check.
# ---------------------------------------------------------------------------
PRODUCTION = {"engine": "calendar", "delivery": "batched", "shards": 0,
              "store": "columns"}
SWEEP_SCENARIOS = [
    {"kind": "churn", "volatile_edges": 5, "lifetime": 6},
    {"kind": "switching-star", "period": 8, "overlap": 2},
    {"kind": "mobility", "radius": 0.3, "backbone": False,
     "connect_window": 3.5},
    {"kind": "gauss-markov", "radius": 0.3, "mean_speed": 0.04, "alpha": 0.8,
     "backbone": False, "connect_window": 3.5},
    {"kind": "group", "groups": 3, "radius": 0.3, "group_radius": 0.12,
     "switch_prob": 0.05, "backbone": False, "connect_window": 3.5},
]
SWEEP_SEEDS = 100


def churn_walk(seed, toy):
    # campaigns/million_node.json's cell at n=10^5.
    return {"name": "churn_walk", "defaults": dict(
        PRODUCTION, n=2000 if toy else 100000, rho=0.02, T=0.5, D=1.0,
        delta_h=0.5, B0=20.0, drift="walk", delay="constant:0.25",
        scenario={"kind": "churn", "volatile_edges": 64, "lifetime": 2.0},
        horizon=4, sample_dt=1.0, seed=seed)}


def dense_two_camp(seed, toy):
    # Static complete graph, constant rates and constant delay: the seed
    # reaches gcs_run but the trajectory does not depend on it.
    return {"name": "dense_two_camp", "defaults": dict(
        PRODUCTION, n=48 if toy else 192, rho=0.05, T=1.0, D=2.5,
        delta_h=0.5, topology="complete", drift="two-camp",
        delay="constant:0.5", horizon=10 if toy else 30, sample_dt=1.0,
        seed=seed)}


def contention_cbr(seed, toy):
    # Peak RSS depends on the cell seed (the calendar queue's growth), so
    # the cells are kept small enough to measure ten cell seeds per run.
    return {"name": "contention_cbr", "defaults": dict(
        PRODUCTION, n=500 if toy else 5000, rho=0.05, T=1.0, D=2.5,
        delta_h=0.5, drift="spread", delay="uniform:0.25:1",
        traffic="cbr:bw=8000:rate=12:pkt=1000:queue=4000:mark=1000",
        scenario={"kind": "churn", "volatile_edges": 6, "lifetime": 8},
        horizon=2 if toy else 10, sample_dt=1.0, seed=seed)}


def sweep_small(seed, toy):
    # Cell seed s covers generator seeds s*100+1 .. s*100+100 of every kind.
    count = 4 if toy else SWEEP_SEEDS
    return {"name": "sweep_small", "defaults": dict(
        PRODUCTION, n=16, rho=0.05, T=1.0, D=2.5, delta_h=0.5, drift="walk",
        horizon=40, sample_dt=1.0),
        "sweep": {"scenario": SWEEP_SCENARIOS,
                  "seeds": {"base": seed * SWEEP_SEEDS + 1, "count": count}}}


def assert_jumps(result):
    if result["run_stats"]["jumps"] == 0:
        return ["workload assertion: jumps == 0 (the algorithm never acted)"]
    return []


def assert_contention(result):
    stats = result["run_stats"]
    out = []
    if stats["traffic_packets"] == 0:
        out.append("workload assertion: traffic_packets == 0")
    if stats["ecn_marks"] == 0:
        out.append("workload assertion: ecn_marks == 0")
    return out


# name -> (campaign maker, per-cell assertion, cells may refuse to run)
WORKLOADS = {
    "churn_walk": (churn_walk, None, False),
    "dense_two_camp": (dense_two_camp, assert_jumps, False),
    "contention_cbr": (contention_cbr, assert_contention, False),
    # Some generated mobility cells are refused by the connectivity
    # enforcer ("no collision-free connector edge exists"); they stay in
    # and count as failed cells.
    "sweep_small": (sweep_small, None, True),
}

# name -> (cell seeds per untraced measurement, nominal wall of one run and
# of one set-up twin in s, measured on a 4-vCPU 2.1 GHz VM).  They only
# decide how twins are spread between the runs (plan()).
PLAN = {
    "churn_walk": (3, 2.6, 0.65),
    "dense_two_camp": (3, 3.2, 0.017),
    "contention_cbr": (10, 0.65, 0.04),
    "sweep_small": (3, 2.33, 0.27),
}


def plan(workload, seconds):
    """Returns (cell seeds, runs expected at nominal speed, twins)."""
    rotation, run_s, setup_s = PLAN[workload]
    rounds = max(2, int(seconds / (run_s * rotation)))
    twins = min(MAX_TWINS, max(MIN_TWINS, int(TWIN_BUDGET_S / setup_s)))
    return rotation, rounds * rotation, twins


def campaign_cells(campaign):
    cells = 1
    sweep = campaign.get("sweep", {})
    if "scenario" in sweep:
        cells *= len(sweep["scenario"])
    if "seeds" in sweep:
        cells *= sweep["seeds"]["count"]
    return cells


def node_seconds(campaign):
    d = campaign["defaults"]
    return campaign_cells(campaign) * d["n"] * d["horizon"]


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------
def log(line=""):
    print(line, flush=True)


def run_child(argv, stdout_path):
    """Runs argv through gcs_launch; returns (exit code, wall s, peak RSS MB).

    The launcher times the command and reaps it with its own rusage, so
    ru_maxrss is the command's high-water mark alone, not this process's.
    """
    launched = subprocess.run(
        [tool("gcs_launch"), str(stdout_path), str(RUN_TIMEOUT_S), *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=RUN_TIMEOUT_S + 30)
    if launched.returncode != 0:
        raise BenchError(f"gcs_launch failed: {launched.stderr.strip()}")
    code, wall, maxrss_kb = launched.stdout.split()
    if int(code) == -signal.SIGKILL:
        raise BenchError(f"{Path(argv[0]).name} killed after {RUN_TIMEOUT_S} s")
    return int(code), float(wall), int(maxrss_kb) / 1024.0


def build():
    if not (ROOT / "src").is_dir() or not (ROOT / "tools" / "gcs_run.cpp").is_file():
        raise BenchError(f"simulator sources not found under {ROOT}")
    # Configure every time: make cannot build a target that an older
    # configure of perfbench/CMakeLists.txt did not know about.
    for step in (["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", str(BUILD), "-j", str(min(4, os.cpu_count() or 1)),
                  "--target", "gcs_run", "gcs_diff", "gcs_trace", "gcs_launch"]):
        r = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if r.returncode != 0:
            print(r.stdout[-3000:], file=sys.stderr)
            raise BenchError(f"build step failed: {' '.join(step)}")


def tool(name):
    return str(BUILD / name)


# ---------------------------------------------------------------------------
# One audited gcs_run
# ---------------------------------------------------------------------------
class RunRecord:
    def __init__(self, tree, wall, rss, cells, failed, wrong, messages, docs):
        self.tree = tree
        self.wall = wall
        self.rss = rss
        self.cells = cells      # cells attempted
        self.failed = failed    # labels of cells that failed, for any reason
        self.wrong = wrong      # of those, cells whose output was wrong
        self.messages = messages
        self.docs = docs        # label -> cell document


def load_docs(tree):
    docs = {}
    cells_dir = tree / "cells"
    if cells_dir.is_dir():
        for path in sorted(cells_dir.glob("*.json")):
            doc = json.loads(path.read_text())
            docs[doc["cell"]] = doc
    return docs


def audit_result(result):
    """The benchmark's own re-audit of one result document."""
    stats = result["run_stats"]
    out = []
    for key, value in (("global_violations", result["global_violations"]),
                       ("envelope_violations", result["envelope_violations"]),
                       ("clamped_events", result["clamped_events"]),
                       ("monotonicity_failures",
                        stats["conformance_monotonicity_failures"]),
                       ("disconnected_windows",
                        stats["connectivity_windows_disconnected"])):
        if value != 0:
            out.append(f"audit: {key} = {value}")
    return out


def audit_tree(tree, gcs_run_output, expected_cells, assertion, twin,
               may_refuse):
    """Audits a finished gcs_run tree.

    Returns (failed labels, wrong labels, messages, docs, missing cells).
    """
    failed, wrong, messages = set(), set(), []
    refused = set()
    for line in gcs_run_output.splitlines():
        if not line.startswith("  check: "):
            continue
        label, _, finding = line[len("  check: "):].partition(": ")
        failed.add(label)
        messages.append(f"{label}: {finding}")
        if finding.startswith("failed to run:"):
            refused.add(label)
        else:
            wrong.add(label)
    docs = load_docs(tree)
    for label, doc in docs.items():
        result = doc["result"]
        findings = audit_result(result)
        if assertion is not None and not twin:
            findings += assertion(result)
        if twin and result["events_executed"] != 0:
            findings.append("set-up twin executed "
                            f"{result['events_executed']} event(s), want 0")
        if findings:
            failed.add(label)
            wrong.add(label)
            messages += [f"{label}: {f}" for f in findings]
    missing = expected_cells - len(docs) - len(refused - set(docs))
    if missing > 0:
        messages.append(f"{missing} cell(s) missing from {tree.name}")
    if refused and not may_refuse:
        wrong |= refused
    return failed, wrong, messages, docs, max(missing, 0)


def gcs_run(campaign_path, tree, expected_cells, assertion, may_refuse,
            twin=False):
    if tree.exists():
        shutil.rmtree(tree)
    argv = [tool("gcs_run"), "--campaign", str(campaign_path), "--check",
            "--fixed-timing", "--quiet", "--jobs", "1", "--out", str(tree)]
    if twin:
        argv.append(f"--horizon={SETUP_HORIZON!r}")
    out_path = tree.with_name(tree.name + ".log")
    code, wall, rss = run_child(argv, out_path)
    output = out_path.read_text(errors="replace")
    failed, wrong, messages, docs, missing = audit_tree(
        tree, output, expected_cells, assertion, twin, may_refuse)
    if code not in (0, 1) or (code == 1 and not failed):
        messages.append(f"gcs_run exited {code}: {output.strip()[-300:]}")
        wrong.add("<process>")
    gone = {f"<missing {j}>" for j in range(missing)}
    return RunRecord(tree, wall, rss, expected_cells, failed | gone,
                     wrong | gone, messages, docs)


def same_trajectory(reference, run):
    """gcs_diff --strict of run against reference; returns the labels of
    differing cells (all of them if only the tree around them differs)."""
    r = subprocess.run([tool("gcs_diff"), str(reference.tree), str(run.tree),
                        "--strict", "--quiet"], stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
    if r.returncode == 0:
        return set()
    labels = set(reference.docs) | set(run.docs)
    differing = {l for l in labels if reference.docs.get(l) != run.docs.get(l)}
    return differing or labels or {"<tree>"}


def fingerprint(*trees):
    digest = hashlib.sha256()
    for tree in trees:
        for path in sorted((tree / "cells").glob("*.json")):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------
def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def describe(name, unit, values):
    lo, hi = quartiles(values)
    return (f"  {name:<18} {statistics.median(values):>14.6g} {unit:<9} "
            f"(median of {len(values)}; q1 {lo:.6g}, q3 {hi:.6g})")


class Tally:
    """Distinct cells, keyed by (run kind, cell seed index[, label])."""

    def __init__(self):
        self.cells = {}
        self.failed = set()
        self.wrong = set()
        self.messages = []

    def add(self, key, run):
        self.cells[key] = run.cells
        self.failed |= {(*key, label) for label in run.failed}
        self.wrong |= {(*key, label) for label in run.wrong}
        self.messages += run.messages

    @property
    def attempted(self):
        return sum(self.cells.values())


def prepare(workload, seed, toy, count=1):
    """Writes the campaigns of the first `count` of the workload's cell
    seeds derived from `seed`.

    Returns (campaigns, work directory, campaign paths).  Folding the seed
    keeps every derived cell seed an integer a JSON number holds exactly.
    """
    work = WORK / workload
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    campaigns, paths = [], []
    rotation = PLAN[workload][0]
    for k in range(count):
        campaign = WORKLOADS[workload][0]((seed % 2**32) * rotation + k, toy)
        path = work / f"campaign{k}.json"
        path.write_text(json.dumps(campaign, indent=2) + "\n")
        campaigns.append(campaign)
        paths.append(path)
    return campaigns, work, paths


def measure_untraced(workload, seed, seconds, toy=False):
    """Times the workload's twins and runs, cycling through the workload's
    cell seeds derived from `seed`: some costs (peak RSS on contention_cbr,
    for one) depend on the cell seed, and a median over several seeds moves
    less between measurements than one seed's value."""
    _, assertion, may_refuse = WORKLOADS[workload]
    rotation, planned_runs, n_twins = plan(workload, seconds)
    campaigns, work, paths = prepare(workload, seed, toy, rotation)
    campaign = campaigns[0]
    cells = campaign_cells(campaign)
    tally = Tally()

    twins, runs = [], []
    references = {}

    def run_twin():
        k = len(twins) % rotation
        twin = gcs_run(paths[k], work / "twin", cells, assertion, may_refuse,
                       twin=True)
        tally.add(("twin", k), twin)
        twins.append(twin.wall)

    start = time.perf_counter()
    while True:
        # Twins are spread over the runs expected at nominal speed, so that
        # both sample the same stretch of the host's drifting speed.
        while (len(twins) < n_twins and
               len(twins) * planned_runs < (len(runs) + 1) * n_twins):
            run_twin()
        k = len(runs) % rotation
        tree = work / (f"reference{k}" if k not in references else "run")
        run = gcs_run(paths[k], tree, cells, assertion, may_refuse)
        if k not in references:
            references[k] = run
        else:
            differing = same_trajectory(references[k], run)
            if differing:
                run.failed |= differing
                run.wrong |= differing
                run.messages.append(f"{len(differing)} cell(s) differ from "
                                    "the first run of this seed")
        tally.add(("run", k), run)
        runs.append(run)
        elapsed = time.perf_counter() - start
        if len(runs) >= 2 * rotation and elapsed + run.wall > seconds:
            break
    # A slow host ends the runs before every twin was due.
    while len(twins) < max(MIN_TWINS, rotation):
        run_twin()

    walls = [r.wall for r in runs]
    rss = [r.rss for r in runs]
    wall_s = statistics.median(walls)
    setup_s = statistics.median(twins)
    metrics = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "sim_node_s_per_s": node_seconds(campaign) / max(wall_s - setup_s, 1e-9),
        "cells_per_s": cells / wall_s,
        "peak_rss_mb": statistics.median(rss),
    }
    log(f"workload {workload} seed {seed}: {len(runs)} timed run(s), "
        f"{len(twins)} set-up twin(s), {cells} cell(s) per run")
    log(describe("wall_s", "s", walls))
    log(describe("setup_s", "s", twins))
    log(describe("sim_node_s_per_s", "node-s/s",
                 [node_seconds(campaign) / max(w - setup_s, 1e-9) for w in walls]))
    log(describe("cells_per_s", "cells/s", [cells / w for w in walls]))
    log(describe("peak_rss_mb", "MB", rss))
    log(f"  {'failed_share':<18} {len(tally.failed) / tally.attempted:>14.6g} "
        f"{'ratio':<9} ({len(tally.failed)} of {tally.attempted} distinct "
        "cells, twins included)")
    log(f"  fingerprint {fingerprint(*(r.tree for r in references.values()))} "
        "(sha256 of each cell seed's first cell documents; timing fields are 0)")
    return metrics, tally


def layer_metrics(trace, spans, reference_wall):
    total = {}
    for name, start, end, _parent, _cell in spans:
        total[name] = total.get(name, 0) + (end - start) * 1e-9
    ok = [c for c in trace["cells"] if not c["errored"]]

    def s(key):
        return sum(c["counters"][key] for c in ok)

    def m(key):
        return max((c["counters"][key] for c in ok), default=0)

    def ratio(a, b):
        return a / b if b else 0.0

    run_s = total.get("core.run", 0.0) - total.get("harness.sample", 0.0)
    rss_bytes = trace["traced_pass_peak_rss_kb"] * 1024
    return {
        "net.scenario_build_s": total.get("net.scenario_build", 0.0)
        + total.get("net.to_dynamic_graph", 0.0),
        "net.topology_events": s("topology_events"),
        "net.link.packets_offered": s("traffic_packets"),
        "net.link.drop_share": ratio(s("traffic_dropped"), s("traffic_packets")),
        "net.link.ecn_share": ratio(s("ecn_marks"), s("traffic_packets")),
        "net.link.peak_queue_bytes": m("peak_queue_bytes"),
        "clk.schedule_build_s": total.get("clk.schedule_build", 0.0),
        "clk.schedule_rss_mb": max((c["schedule_rss_kb"] for c in ok), default=0) / 1024,
        "clk.value_at_ns": ratio(trace["value_at_ns"], trace["value_at_calls"]),
        "sim.events": s("events"),
        "sim.events_per_msg": ratio(s("events"), s("messages_sent")),
        "sim.calendar_scans_per_event": ratio(s("calendar_bucket_scans"), s("events")),
        "sim.calendar_resizes": s("calendar_resizes"),
        "sim.max_pending": m("max_pending"),
        "core.construct_s": total.get("core.construct", 0.0),
        "core.construct_rss_mb": max((c["construct_rss_kb"] for c in ok), default=0) / 1024,
        "core.run_s": run_s,
        "core.run_ns_per_msg": ratio(run_s * 1e9, s("messages_delivered")),
        "core.msgs_delivered": s("messages_delivered"),
        "core.msgs_per_delivery_event": ratio(s("messages_delivered"), s("delivery_events")),
        "core.jump_share": ratio(s("jumps"), s("messages_delivered")),
        "core.conformance_checks": s("conformance_checks"),
        "core.drop_share": ratio(s("messages_dropped"), s("messages_sent")),
        "core.arena_bytes_per_node": ratio(s("arena_bytes"), sum(c["n"] for c in ok)),
        "core.arena_share_of_rss": ratio(m("arena_bytes"), rss_bytes),
        "harness.sample_s": total.get("harness.sample", 0.0),
        "harness.sample_clocks_s": total.get("harness.sample_clocks", 0.0),
        "harness.current_edges_s": total.get("harness.current_edges", 0.0),
        "harness.serialize_s": total.get("harness.serialize", 0.0),
        "cli.overhead_ms_per_cell": ratio(
            (trace["cli_wall_s"] - trace["cli_cell_wall_s"]) * 1e3, trace["cli_cells"]),
        "cli.errored_cells": trace["cli_errored_cells"],
        "obs.trace_overhead_ratio": ratio(trace["traced_pass_s"], reference_wall),
    }


# Deterministic per-layer values: they must repeat exactly across traced
# repetitions, and are reported as counted rather than as a median.
COUNT_METRICS = [k for k, unit in LAYER_UNITS.items() if unit in ("count", "bytes")]


def measure_traced(workload, seed, seconds, toy=False):
    _, assertion, may_refuse = WORKLOADS[workload]
    (campaign,), work, (path,) = prepare(workload, seed, toy)
    cells = campaign_cells(campaign)
    tally = Tally()
    reps = []
    start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        ref = gcs_run(path, work / "reference", cells, assertion, may_refuse)
        tally.add(("reference", 0), ref)
        out, span_path = work / "trace.json", work / "spans.json"
        code, wall, _ = run_child(
            [tool("gcs_trace"), "--campaign", str(path), "--reference",
             str(ref.tree), "--out", str(out), "--spans", str(span_path),
             "--cli-out", str(work / "cli")], work / "trace.log")
        if code not in (0, 1):
            raise BenchError("gcs_trace failed: "
                             + (work / "trace.log").read_text()[-300:])
        trace = json.loads(out.read_text())
        spans = json.loads(span_path.read_text())
        mismatched = [c["label"] for c in trace["cells"] if not c["matches_reference"]]
        refused = [c["label"] for c in trace["cells"]
                   if c["errored"] and c["matches_reference"]]
        tally.cells[("traced", 0)] = len(trace["cells"])
        tally.failed |= {("traced", 0, label) for label in mismatched + refused}
        tally.wrong |= {("traced", 0, label) for label in mismatched}
        if mismatched:
            tally.messages.append(
                f"traced run differs from the untraced result bytes in "
                f"{len(mismatched)} cell(s), first {mismatched[0]}")
        if trace["cli_failed_cells"]:
            tally.wrong.add(("run_campaign", 0, "<failed cells>"))
            tally.messages.append(
                f"run_campaign reported {trace['cli_failed_cells']} failed cell(s)")
        reps.append(layer_metrics(trace, spans, ref.wall))
        if any(reps[0][k] != reps[-1][k] for k in COUNT_METRICS):
            tally.wrong.add(("traced", 0, "<counts>"))
            tally.messages.append("per-layer counts differ between traced repetitions")
        now = time.perf_counter()
        if now - start + (now - rep_start) > seconds:
            break

    metrics = {k: reps[0][k] if k in COUNT_METRICS else statistics.median(r[k] for r in reps)
               for k in LAYER_UNITS}
    log(f"workload {workload} seed {seed}: {len(reps)} traced repetition(s), "
        f"{cells} cell(s) each; spans in {work.relative_to(ROOT)}/spans.json")
    log(f"  fingerprint {fingerprint(ref.tree)}")
    for k, unit in LAYER_UNITS.items():
        log(f"  {k:<30} {metrics[k]:>16.6g} {unit}")
    return metrics, tally


def src_line_count():
    return sum(len(p.read_text(errors="replace").splitlines())
               for p in sorted((ROOT / "src").rglob("*"))
               if p.suffix in (".cpp", ".hpp"))


def result_line(tally, metrics, units):
    return json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": len(tally.failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def report_tally(tally):
    # Repeated runs of one seed repeat their findings; print each once.
    messages = list(dict.fromkeys(tally.messages))
    for message in messages[:20]:
        log(f"  failure: {message}")
    if len(messages) > 20:
        log(f"  ... {len(messages) - 20} more failure line(s)")


# ---------------------------------------------------------------------------
# Self-check
# ---------------------------------------------------------------------------
def self_check():
    problems = []
    spec = json.loads(SPEC.read_text())
    for section, units in (("end_to_end", E2E_UNITS), ("per_layer", LAYER_UNITS)):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        if declared != units:
            problems.append(f"BENCHMARK.json {section} {declared} != run.py {units}")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads do not match run.py")
    build()
    for workload in WORKLOADS:
        metrics, tally = measure_untraced(workload, 1, 0.0, toy=True)
        if set(metrics) != set(E2E_UNITS) or tally.wrong:
            problems.append(f"{workload}: untraced toy run wrong or incomplete")
        report_tally(tally)
        metrics, tally = measure_traced(workload, 1, 0.0, toy=True)
        if set(metrics) != set(LAYER_UNITS) or tally.wrong:
            problems.append(f"{workload}: traced toy run wrong or incomplete")
        report_tally(tally)

    # A doctored audit failure must raise failed_share and flip correct.
    _, work, (path,) = prepare("churn_walk", 1, True)
    clean = gcs_run(path, work / "clean", 1, None, False)
    doctored_tree = work / "doctored"
    shutil.copytree(clean.tree, doctored_tree)
    cell_file = next((doctored_tree / "cells").glob("*.json"))
    doc = json.loads(cell_file.read_text())
    doc["result"]["global_violations"] = 1
    cell_file.write_text(json.dumps(doc, indent=2) + "\n")
    failed, wrong, _, docs, _ = audit_tree(doctored_tree, "", 1, None, False, False)
    doctored = RunRecord(doctored_tree, 0, 0, 1, failed, wrong, [], docs)
    diff_flags = len(same_trajectory(clean, doctored))
    log(f"doctored audit failure: failed_share {len(clean.failed)}/1 -> "
        f"{len(doctored.failed)}/1, gcs_diff --strict flags {diff_flags} cell(s)")
    if (clean.failed or len(doctored.failed) != 1 or len(doctored.wrong) != 1
            or diff_flags != 1):
        problems.append("a doctored audit failure did not raise failed_share")
    # The traced run must refuse a reference whose result bytes differ.
    code, _, _ = run_child(
        [tool("gcs_trace"), "--campaign", str(path), "--reference",
         str(doctored_tree), "--out", str(work / "trace.json"), "--spans",
         str(work / "spans.json"), "--cli-out", str(work / "cli")],
        work / "trace.log")
    log(f"traced run against the doctored reference: exit {code} (want 1)")
    if code != 1:
        problems.append("the traced run accepted a doctored reference")

    log(f"src/ line count: {src_line_count()} (informational, not gated)")
    for p in problems:
        log(f"SELF-CHECK PROBLEM: {p}")
    log("self-check " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        if args.self_check:
            return self_check()
        if args.workload is None:
            parser.error("--workload is required")
        build()
        if args.trace:
            metrics, tally = measure_traced(args.workload, args.seed, args.seconds)
            units = LAYER_UNITS
        else:
            metrics, tally = measure_untraced(args.workload, args.seed, args.seconds)
            units = E2E_UNITS
        report_tally(tally)
        log(f"src/ line count: {src_line_count()} (informational, not gated)")
        log(result_line(tally, metrics, units))
        return 0
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
