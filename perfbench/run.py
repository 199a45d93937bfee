"""qgraphlab benchmark: study workloads end to end, or a traced layer sweep.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every run of the program is a fresh
interpreter with the repository's src directory on PYTHONPATH (the package
need not be installed).  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of one workload, measured with
tracing off.  --trace 1 repeats that untraced pass, then runs the traced
layer sweep (layers.py) and the process-pool probe, and reports the
per-layer metrics.  NOTES.md gives the reasons behind each workload and
metric.
"""

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time

sys.dont_write_bytecode = True

import oracles  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".perfbench_work"
DEADLINE_S = 170
SETUP_SAMPLES = 5
PROBE_GRAPHS = 4

# sha256 of the census outputs (graphs gen --n 7, props, qaoa --p 0 and the
# three analyze outputs).  Canonical forms and props bytes must never change.
CENSUS_PINS = {
    "graphs.g6": "f39a11e21a91db326d834f8e3bf6d5ae85c0f04d6077d08cfbaeecbc572b0a93",
    "props.csv": "7fdcb2d47a8c4002ae642ba08048ab777c935b6e7293825b854c7f548ac1b5c9",
    "qaoa.csv": "40e94c79ac99e165c1cb7c955f8ddf747c7d38098d78511054d481e4b94a775a",
    "corr.csv": "dbfea5724bd9127c4f9273948a622122a15b760e46a21c1faf693ab54dbc86af",
    "avg.csv": "2246a7cb3b7e5aa0ed4086884a97296c9ddb98ed00c22f0ec486112cd8d2dd39",
    "hist.csv": "e291121633d7f897df1adeface3bc00a8eeb9af24d07f583e483470a8ade1c96",
}

# name -> (QAOA depth, input generator, fewest reps); census enumerates its
# own inputs.  A qaoa-deep batch takes longer than a run, so it runs once and
# its repeat check is the traced replay.
WORKLOADS = {
    "qaoa-deep": (3, workloads.qaoa_deep, 1),
    "qaoa-shallow": (1, workloads.qaoa_shallow, 2),
    "census": (0, None, 2),
}


class BenchError(RuntimeError):
    pass


class Runner:
    """Starts fresh interpreters on the benchmark's scripts under one deadline."""

    def __init__(self, root: str, work: str):
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        paths = [os.path.join(root, "src")] + [p for p in [self.env.get("PYTHONPATH")] if p]
        self.env["PYTHONPATH"] = os.pathsep.join(paths)
        self.log = os.path.join(work, "stderr.log")

    def run(self, script: str, *args: str) -> str:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting " + script)
        with open(self.log, "ab") as err:
            proc = subprocess.Popen([sys.executable, os.path.join(HERE, script), *args],
                                    stdout=subprocess.PIPE, stderr=err, env=self.env,
                                    start_new_session=True)
            try:
                out, _ = proc.communicate(timeout=remaining)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise BenchError(f"{script} {' '.join(args)} ran past the deadline")
        if proc.returncode != 0:
            with open(self.log, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            raise BenchError(f"{script} {' '.join(args)} exited with {proc.returncode}:\n{tail}")
        return out.decode()

    def setup_seconds(self) -> float:
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        return float(self.run("child.py", "setup")) - start

    def cli(self, commands: list[list[str]], tag: str) -> dict:
        """One fresh interpreter running qgraphlab.cli.main per command."""
        plan = os.path.join(self.work, f"{tag}.plan.json")
        result = os.path.join(self.work, f"{tag}.result.json")
        with open(plan, "w", encoding="utf-8") as fh:
            json.dump({"commands": commands, "result": result}, fh)
        start = time.monotonic()
        self.run("child.py", "cli", plan)
        with open(result, encoding="utf-8") as fh:
            out = json.load(fh)
        out["wall"] = time.monotonic() - start
        return out


class Tally:
    """Graph outputs attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, attempted: int, failed: int = 0, problem: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(problem)


# ---------------------------------------------------------------------------
# untraced end-to-end pass
# ---------------------------------------------------------------------------


def _census_commands(out: str) -> list[list[str]]:
    f = {name: os.path.join(out, name) for name in CENSUS_PINS}
    pair = ["--props", f["props.csv"], "--qaoa", f["qaoa.csv"]]
    return [
        ["graphs", "gen", "--n", str(workloads.CENSUS_N), "--out", f["graphs.g6"]],
        ["props", "--in", f["graphs.g6"], "--out", f["props.csv"], "--workers", "1"],
        ["qaoa", "--in", f["graphs.g6"], "--p", "0", "--out", f["qaoa.csv"], "--workers", "1"],
        ["analyze", "corr", *pair, "--out", f["corr.csv"]],
        ["analyze", "avg", *pair, "--flag", "bipartite", "--out", f["avg.csv"]],
        ["analyze", "hist", *pair, "--flag", "bipartite", "--out", f["hist.csv"]],
    ]


def _qaoa_command(records_path: str, depth: int, out: str, workers: int) -> list[list[str]]:
    return [["qaoa", "--in", records_path, "--p", str(depth), "--starts", str(workloads.STARTS),
             "--seed", str(workloads.QAOA_SEED), "--out", os.path.join(out, "qaoa.csv"),
             "--workers", str(workers)]]


def check_qaoa_reps(records: list[str], depth: int, dirs: list[str], tally: Tally, label: str) -> None:
    """Oracles on the first rep's rows; every later rep must repeat them exactly."""
    first = oracles.rows_by_graph(oracles.read_rows(os.path.join(dirs[0], "qaoa.csv")))
    bad = {}
    for gid, record in enumerate(records, start=1):
        found = oracles.check_qaoa_graph(record, depth, first.get(gid, []))
        if found:
            bad[gid] = f"{label} graph {gid}: " + "; ".join(found)
    for i, d in enumerate(dirs):
        rows = oracles.rows_by_graph(oracles.read_rows(os.path.join(d, "qaoa.csv")))
        for gid in range(1, len(records) + 1):
            problem = bad.get(gid)
            if problem is None and rows.get(gid) != first.get(gid):
                problem = f"{label} rep {i} graph {gid}: rows differ from rep 0"
            tally.add(1, problem is not None, problem or "")


def check_census_rep(d: str, tally: Tally, with_oracles: bool) -> None:
    with open(os.path.join(d, "graphs.g6"), encoding="ascii") as fh:
        records = fh.read().split()
    changed = [name for name, pin in CENSUS_PINS.items()
               if oracles.sha256_file(os.path.join(d, name)) != pin]
    if changed:
        tally.add(len(records), len(records), f"census {d}: {changed} differ from their pins")
    elif with_oracles:
        check_qaoa_reps(records, 0, [d], tally, "census")
    else:
        tally.add(len(records))


def end_to_end(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    depth, generate, min_reps = WORKLOADS[workload]
    records, inputs = None, os.path.join(runner.work, "inputs.g6")
    if generate:
        records = generate(seed)
        with open(inputs, "w", encoding="ascii") as fh:
            fh.write("".join(r + "\n" for r in records))
    reps = []
    start = time.monotonic()
    while True:
        out = os.path.join(runner.work, f"rep{len(reps)}")
        os.mkdir(out)
        commands = _census_commands(out) if records is None else _qaoa_command(inputs, depth, out, 1)
        rep = runner.cli(commands, f"rep{len(reps)}")
        rep["dir"] = out
        reps.append(rep)
        elapsed = time.monotonic() - start
        if len(reps) >= min_reps and elapsed + statistics.median(r["wall"] for r in reps) > seconds:
            break
    tally = Tally()
    dirs = [r["dir"] for r in reps]
    if records is None:
        for i, d in enumerate(dirs):
            check_census_rep(d, tally, with_oracles=i == 0)
        with open(os.path.join(dirs[0], "graphs.g6"), encoding="ascii") as fh:
            records = fh.read().split()
    else:
        check_qaoa_reps(records, depth, dirs, tally, workload)
    top = [float(r["ratio"]) for r in oracles.read_rows(os.path.join(dirs[0], "qaoa.csv"))
           if int(r["p"]) == depth]
    return {"records": records, "inputs": inputs, "depth": depth, "reps": reps, "tally": tally,
            "ratio_mean": statistics.fmean(top),
            "digest": oracles.sha256_file(os.path.join(dirs[0], "qaoa.csv"))}


# ---------------------------------------------------------------------------
# traced pass
# ---------------------------------------------------------------------------


def _pct(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def pipeline_probe(runner: Runner, seed: int, e2e: dict, workload: str) -> tuple[dict, str]:
    """qaoa --p 1 on PROBE_GRAPHS shallow graphs with one worker and with all
    cores; returns the pipeline metrics and the probe's graph6 file."""
    records = workloads.qaoa_shallow(seed)[:PROBE_GRAPHS]
    path = os.path.join(runner.work, "probe.g6")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("".join(r + "\n" for r in records))
    workers = max(2, len(os.sched_getaffinity(0)))
    runs = {}
    for w in (1, workers):
        out = os.path.join(runner.work, f"probe-w{w}")
        os.mkdir(out)
        runs[w] = (out, runner.cli(_qaoa_command(path, 1, out, w), f"probe-w{w}"))
    tally = e2e["tally"]
    check_qaoa_reps(records, 1, [runs[1][0], runs[workers][0]], tally, "pipeline probe")
    if workload == "qaoa-shallow":
        # The probe graphs are the first lines of the workload's own input.
        with open(os.path.join(runs[1][0], "qaoa.csv"), encoding="utf-8") as fh:
            probe_lines = fh.read().splitlines()
        with open(os.path.join(e2e["reps"][0]["dir"], "qaoa.csv"), encoding="utf-8") as fh:
            e2e_lines = fh.read().splitlines()[:len(probe_lines)]
        tally.add(len(records), len(records) * (probe_lines != e2e_lines),
                  "pipeline probe rows differ from the end-to-end rows")
    speedup = sum(runs[1][1]["times"]) / sum(runs[workers][1]["times"])
    return ({"pipeline.speedup": (speedup, "x", 1),
             "pipeline.efficiency": (speedup / workers, "ratio", 1)}, path)


def traced(runner: Runner, workload: str, seed: int, e2e: dict) -> dict:
    """Per-layer metrics: a census CLI batch (unless the workload is census),
    the process-pool probe, then the traced sweep in layers.py."""
    if workload == "census":
        census_reps = e2e["reps"]
    else:
        out = os.path.join(runner.work, "census")
        os.mkdir(out)
        rep = runner.cli(_census_commands(out), "census")
        rep["dir"] = out
        check_census_rep(out, e2e["tally"], with_oracles=True)
        census_reps = [rep]
    metrics, probe_path = pipeline_probe(runner, seed, e2e, workload)

    layer_work = os.path.join(runner.work, "layers")
    os.mkdir(layer_work)
    spans_out = os.path.join(os.path.dirname(runner.work), f"spans-{workload}-seed{seed}.json")
    plan = {
        "seed": seed, "depth": e2e["depth"], "census_n": workloads.CENSUS_N,
        "starts": workloads.STARTS, "qaoa_seed": workloads.QAOA_SEED, "pins": CENSUS_PINS,
        "work": layer_work, "spans_out": spans_out,
        "replay_inputs": e2e["inputs"] if workload != "census" else None,
        "e2e_csv": os.path.join(e2e["reps"][0]["dir"], "qaoa.csv"),
        "probe_inputs": probe_path,
    }
    plan_path = os.path.join(runner.work, "layers.plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    runner.run("layers.py", plan_path)
    with open(spans_out, encoding="utf-8") as fh:
        trace = json.load(fh)
    spans = trace["spans"]
    failed = min(trace["checked"], sum(p["graphs"] for p in trace["problems"]))
    e2e["tally"].add(trace["checked"], failed, "; ".join(p["what"] for p in trace["problems"]))

    def dur(name, pred=lambda s: True):
        return [s["end"] - s["start"] for s in spans if s["name"] == name and pred(s)]

    def put(name, values, unit, scale=1.0, how="median"):
        value = {"median": statistics.median, "sum": sum, "mean": statistics.fmean}[how](values)
        metrics[name] = (value * scale, unit, len(values))

    def put_pct(name, values, unit, scale):
        metrics[name + ".p50"] = (_pct(values, 0.50) * scale, unit, len(values))
        metrics[name + ".p98"] = (_pct(values, 0.98) * scale, unit, len(values))

    put("graphs.enumerate_s", dur("graphs.enumerate"), "s")
    put_pct("graphs.canonical_form_us", dur("graphs.canonical_form"), "us", 1e6)
    put("graphs.graph6_roundtrip_us", dur("graphs.graph6_roundtrip"), "us", 1e6)
    put_pct("structure.profile_ms", dur("structure.profile"), "ms", 1e3)
    put("structure.total_s", dur("structure.profile"), "s", how="sum")
    put_pct("symmetry.group_ms", dur("symmetry.group"), "ms", 1e3)
    put("symmetry.total_s", dur("symmetry.group"), "s", how="sum")
    put("datastore.write_s", dur("datastore.write"), "s", how="sum")
    put("datastore.read_s", dur("datastore.read"), "s", how="sum")
    writes = [s["counts"]["bytes"] for s in spans if s["name"] == "datastore.write"]
    metrics["datastore.bytes"] = (sum(writes), "bytes", len(writes))
    put("analysis.reduce_s", dur("analysis.reduce"), "s", how="sum")

    optimize = [s for s in spans if s["name"] == "qaoa.optimize"]
    grid = dur("qaoa.grid")
    for p in (1, 2, 3):
        at_p = [s for s in optimize if s["counts"]["p"] == p]
        seconds = [s["end"] - s["start"] for s in at_p]
        evals = sum(s["counts"]["evals"] for s in at_p)
        put(f"qaoa.optimize_s.p{p}", seconds, "s", how="mean")
        metrics[f"qaoa.evals.p{p}"] = (evals, "count", len(at_p))
        # grid_scan_p1 runs inside every depth-1 optimization; its separately
        # measured time (one call per graph) is taken out, leaving the optimizer's own.
        own = sum(seconds) - (sum(grid) if p == 1 else 0.0)
        metrics[f"qaoa.us_per_eval.p{p}"] = (own / evals * 1e6, "us", evals)
    put("qaoa.evolve_us", dur("qaoa.evolve"), "us", 1e6)
    put("qaoa.grid_s", grid, "s", how="mean")
    own_prefix = "census/" if workload == "census" else "replay/"
    put("qaoa.maxcut_s", dur("qaoa.maxcut", lambda s: s["trace"].startswith(own_prefix)), "s", how="sum")
    wins = {"random": 0, "warm": 0, "grid": 0}
    for s in optimize:
        best = s["counts"]["best_start"]
        wins["grid" if best < 0 else "random" if best < workloads.STARTS else "warm"] += 1
    for source, count in wins.items():
        metrics[f"qaoa.wins.{source}"] = (count, "count", len(optimize))

    # Census commands run in the order gen, props, qaoa, analyze x3.
    put("cli.gen_s", [r["times"][0] for r in census_reps], "s")
    put("cli.props_s", [r["times"][1] for r in census_reps], "s")
    put("cli.qaoa_s", [r["times"][2 if workload == "census" else 0] for r in e2e["reps"]], "s")
    put("cli.analyze_s", [sum(r["times"][3:]) for r in census_reps], "s")

    if workload == "census":
        traced_wall = dur("census")[0]
        untraced = statistics.median(sum(r["times"]) for r in census_reps)
    else:
        traced_wall = dur("replay")[0]
        untraced = statistics.median(sum(r["times"]) for r in e2e["reps"])
    metrics["trace.overhead_frac"] = (traced_wall / untraced - 1.0, "ratio", len(e2e["reps"]))
    return metrics


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run_header() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qgraphlab", "cli.py")):
        print("error: run from the qgraphlab repository root (src/qgraphlab is missing)",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(root, WORK_DIR)) as work:
        runner = Runner(root, work)
        try:
            print("# header " + json.dumps(run_header()), flush=True)
            setups = [] if args.trace else [runner.setup_seconds() for _ in range(SETUP_SAMPLES)]
            e2e = end_to_end(runner, args.workload, args.seed, args.seconds)
            print("# inputs " + json.dumps(workloads.properties(e2e["records"], e2e["depth"])),
                  flush=True)
            if args.trace:
                metrics = traced(runner, args.workload, args.seed, e2e)
            else:
                rates = [len(e2e["records"]) / sum(r["times"]) for r in e2e["reps"]]
                rss = [r["rss_kb"] / 1024 for r in e2e["reps"]]
                metrics = {
                    "graphs_per_s": (statistics.median(rates), "1/s", len(rates)),
                    "setup_s": (statistics.median(setups), "s", len(setups)),
                    "peak_rss_mb": (statistics.median(rss), "MB", len(rss)),
                    "ratio_mean": (e2e["ratio_mean"], "ratio", len(e2e["records"])),
                    "pass_frac": (1 - e2e["tally"].failed / e2e["tally"].attempted, "ratio",
                                  e2e["tally"].attempted),
                }
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    tally = e2e["tally"]
    print(f"# {args.workload} seed={args.seed} digest={e2e['digest']} batch seconds="
          + " ".join(f"{sum(r['times']):.3f}" for r in e2e["reps"]))
    for problem in tally.problems:
        print(f"# FAIL {problem}")
    for name, (value, unit, samples) in metrics.items():
        print(f"# {name:28s} {value:14.6g} {unit:6s} samples={samples}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
