"""Traced layer sweep, run in a fresh interpreter: python3 perfbench/layers.py PLAN

Times calls into each qgraphlab module's public functions.  Every call is
one span (name, trace id, parent span, start, end, counts) kept in memory;
the spans and the problems found are written out once, at the end.

The sweep has two parts:

* census side: the n = 7 enumeration (cold, since this interpreter has
  not enumerated before), canonical form of seeded relabelings, the graph6
  codec, structure and symmetry per graph, the dataset and depth-0 result
  files, and the analysis reductions.  Its files must hash to the census
  pins.
* QAOA side: the workload's own graphs replayed at its depth exactly as
  run_depth_series runs them (the replayed results file must equal the
  end-to-end CSV byte for byte), the first graph extended to depth 3, and
  separate grid-oracle and forward-pass timings.  The census workload has
  no graph above depth 0, so it extends the first probe graph instead.
"""

import json
import os
import random
import sys
import time
from contextlib import contextmanager

import numpy as np

from qgraphlab import analysis, datastore, graphs, qaoa, structure, symmetry

sys.dont_write_bytecode = True  # keep the benchmark directory free of caches

from oracles import sha256_file  # noqa: E402

EVOLVE_CALLS = 100


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str, trace: str, **counts):
        record = {"id": len(self.spans), "parent": self._open[-1] if self._open else None,
                  "trace": trace, "name": name, "counts": counts}
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def _upper_triangle(g) -> str:
    return "".join("1" if g.has_edge(u, v) else "0" for v in range(1, g.n) for u in range(v))


def census_side(tr: Tracer, plan: dict, problems: list) -> int:
    """Trace the census layers; returns the number of graphs checked."""
    work, pins = plan["work"], plan["pins"]
    with tr.span("census", "census"):
        with tr.span("graphs.enumerate", "census"):
            found = graphs.enumerate_connected(plan["census_n"])
        rows, results = [], []
        for g in found:
            trace = f"census/{g.id}"
            with tr.span("structure.profile", trace):
                profile = structure.structure_profile(g)
            with tr.span("symmetry.group", trace):
                group = symmetry.automorphism_group(g)
            rows.append(datastore.build_dataset_row(g, profile, group))
            with tr.span("qaoa.maxcut", trace):
                mc = qaoa.maxcut_bruteforce(g)
            with tr.span("qaoa.uniform", trace):
                outcome = qaoa.uniform_outcome(g, mc)
            [outcome] = qaoa.metrics_bundle(g, mc, [outcome])
            results.append(datastore.QaoaResultRow.from_outcome(
                g, mc, outcome, plan["starts"], plan["qaoa_seed"]))
        files = {name: os.path.join(work, name) for name in pins}
        graphs.write_graph6_file(found, files["graphs.g6"])
        with tr.span("datastore.write", "census") as counts:
            datastore.write_dataset_file(rows, files["props.csv"])
        counts["bytes"] = os.path.getsize(files["props.csv"])
        with tr.span("datastore.write", "census") as counts:
            datastore.write_qaoa_results(results, files["qaoa.csv"])
        counts["bytes"] = os.path.getsize(files["qaoa.csv"])
        with tr.span("datastore.read", "census"):
            rows = datastore.read_dataset(files["props.csv"])
        with tr.span("datastore.read", "census"):
            outcomes = [r.as_outcome() for r in datastore.read_qaoa_results(files["qaoa.csv"])]
        n = plan["census_n"]
        with tr.span("analysis.reduce", "census"):
            cells = analysis.correlation_table(rows, outcomes, n, 0)
            averages = analysis.group_averages(rows, outcomes, n, 0, "bipartite")
            spec = analysis.histogram(rows, outcomes, n, 0, "bipartite")
        datastore.write_correlation_csv(cells, files["corr.csv"])
        datastore.write_averages_csv(list(averages), files["avg.csv"])
        datastore.write_histogram_csv(spec, files["hist.csv"])
    for name, path in files.items():
        if sha256_file(path) != pins[name]:
            problems.append({"graphs": len(found), "what": f"traced census {name} differs from its pin"})

    # Per-call codec and canonical-form costs, outside the census span.
    rng = random.Random(f"relabel/{plan['seed']}")
    for g in found:
        trace = f"census/{g.id}"
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabeled = graphs.relabel(g, perm)
        with tr.span("graphs.canonical_form", trace):
            form = graphs.canonical_form(relabeled)
        with tr.span("graphs.graph6_roundtrip", trace):
            back = graphs.decode_graph6(graphs.encode_graph6(g))
        if form != _upper_triangle(g) or back.adj != g.adj:
            problems.append({"graphs": 1, "what": f"census graph {g.id}: canonical form or graph6 roundtrip"})
    return len(found)


def _extend(tr: Tracer, g, outcomes: list, pmax: int, plan: dict, trace: str) -> None:
    """Optimize depths len(outcomes)..pmax with warm starts, as run_depth_series does."""
    for p in range(len(outcomes), pmax + 1):
        prev = outcomes[-1].best_angles
        warm = np.concatenate([prev.gammas, (0.0,), prev.betas, (0.0,)])
        with tr.span("qaoa.optimize", trace, p=p) as counts:
            outcome = qaoa.optimize_angles(g, p, plan["starts"], plan["qaoa_seed"], extra_starts=(warm,))
        counts["evals"] = outcome.optimizer_stats.evaluations
        counts["best_start"] = outcome.optimizer_stats.best_start
        outcomes.append(outcome)


def _start(tr: Tracer, g, trace: str):
    with tr.span("qaoa.maxcut", trace):
        mc = qaoa.maxcut_bruteforce(g)
    with tr.span("qaoa.uniform", trace):
        outcomes = [qaoa.uniform_outcome(g, mc)]
    return mc, outcomes


def qaoa_side(tr: Tracer, plan: dict, problems: list) -> int:
    """Trace the QAOA layers; returns the number of replayed graphs checked."""
    depth = plan["depth"]
    series = []
    if plan["replay_inputs"]:
        replayed = graphs.read_graph6_file(plan["replay_inputs"])
        rows = []
        with tr.span("replay", "replay"):
            for g in replayed:
                trace = f"replay/{g.id}"
                mc, outcomes = _start(tr, g, trace)
                _extend(tr, g, outcomes, depth, plan, trace)
                for o in qaoa.metrics_bundle(g, mc, outcomes):
                    rows.append(datastore.QaoaResultRow.from_outcome(
                        g, mc, o, plan["starts"], plan["qaoa_seed"]))
                series.append((g, outcomes, trace))
        path = os.path.join(plan["work"], "replay.csv")
        with tr.span("datastore.write", "replay") as counts:
            datastore.write_qaoa_results(rows, path)
        counts["bytes"] = os.path.getsize(path)
        if sha256_file(path) != sha256_file(plan["e2e_csv"]):
            problems.append({"graphs": len(replayed), "what": "traced replay differs from the end-to-end CSV"})
    else:
        for g in graphs.read_graph6_file(plan["probe_inputs"])[:1]:
            trace = f"probe/{g.id}"
            series.append((g, _start(tr, g, trace)[1], trace))

    # Depths above the workload's own run on its first graph only, so every
    # evaluation count repeats exactly.
    g, outcomes, trace = series[0]
    _extend(tr, g, outcomes, 3, plan, trace)
    for g, _, trace in series:
        with tr.span("qaoa.grid", trace):
            qaoa.grid_scan_p1(g)

    g, outcomes, trace = series[0]
    angles = outcomes[max(depth, 1)].best_angles
    for _ in range(EVOLVE_CALLS):
        with tr.span("qaoa.evolve", trace, n=g.n, p=angles.p):
            qaoa.expectation(g, qaoa.evolve(g, angles))
    return len(series) if plan["replay_inputs"] else 0


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    tr = Tracer()
    problems = []
    checked = census_side(tr, plan, problems) + qaoa_side(tr, plan, problems)
    with open(plan["spans_out"], "w", encoding="utf-8") as fh:
        json.dump({"spans": tr.spans, "checked": checked, "problems": problems}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
