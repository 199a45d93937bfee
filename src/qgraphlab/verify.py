"""Golden and invariant verification suites.

The golden suite replays the study's reference numbers: graph counts,
deterministic depth-0 statistics, the distance-regular probability claims,
and the optimized small-n subgroup means.  The full correlation
grids for n <= 6 and the n = 8 sign grid are long-running and opt-in.

Two corrections to the golden data are applied, both provable from its own
deterministic depth-0 rows (see the repository notes):

* the bipartite and eulerian columns of the reference correlation grids
  were produced with the boolean encoding inverted, so those two columns
  are compared after negation;
* the depth-0 P(C_max) cells of the reference tables are inconsistent with
  the uniform superposition and are not comparison targets; the artifact's
  own uniform-state values are asserted instead.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, fields

import numpy as np

from . import analysis
from .analysis import correlation_table, group_averages, pearson, sign_summary
from .datastore import DatasetRow, build_dataset_row
from .graphs import (Graph, complete_bipartite, complete_graph, connected_graph_count,
                     cycle_graph, enumerate_connected, relabel)
from .pipeline import dataset_rows, qaoa_result_rows
from .qaoa import (DEFAULT_STARTS, AngleVector, evolve, expectation, grid_scan_p1,
                   maxcut_bruteforce, prob_cmax, run_depth_series, uniform_outcome)
from .structure import cut_vertices_by_deletion, structure_profile
from .symmetry import automorphism_group

__all__ = ["CheckResult", "golden_suite", "invariant_suite", "GOLDEN_COUNTS"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


# ---------------------------------------------------------------------------
# Golden reference data
# ---------------------------------------------------------------------------

GOLDEN_COUNTS = {3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}

# Deterministic depth-0 subgroup means of <C> (member, non-member).
GOLDEN_P0_MEANS = {
    ("bipartite", 4): (1.667, 2.5),
    ("eulerian", 4): (2.0, 2.1),
    ("eulerian", 5): (3.5, 3.0),
}

# Depth-0 correlations of properties with <C>; columns edges, diameter,
# clique_number, min_odd_cycle_count.
GOLDEN_P0_CORR = {
    6: (1.0, -0.673, 0.768, 0.933),
    7: (1.0, -0.683, 0.722, 0.924),
    8: (1.0, -0.691, 0.682, 0.913),
}

# Subgroup-mean grids, rows keyed (flag, n, p), cells ordered
# (P(C_max), <C>, ratio, delta) for the member then non-member subgroup.
#
# Depth-3 delta cells need one adjustment: C4 and K4 close the full gap at
# depth 2, and the reference rows carry such saturated graphs forward at
# delta = 1, whereas this artifact treats their next delta as undefined and
# excludes them from averages.  The affected cells below are re-derived
# from the reference means by removing the carried 1.0 terms:
# bipartite member .973*3-1 over 2, non-member .994*3-1 over 2, eulerian
# non-member .980*5-1 over 4; the eulerian member subgroup is C4 alone, so
# its depth-3 delta must be undefined (None).
GOLDEN_GROUP_MEANS = {
    ("bipartite", 4, 1): ((0.481, 2.566, 0.772, 0.544), (0.602, 3.216, 0.879, 0.634)),
    ("bipartite", 4, 2): ((0.889, 3.180, 0.949, 0.762), (0.928, 3.586, 0.978, 0.825)),
    ("bipartite", 4, 3): ((0.993, 3.326, 0.998, 0.9595), (0.999, 3.666, 1.000, 0.991)),
    ("bipartite", 5, 1): ((0.368, 3.436, 0.750, 0.500), (0.495, 4.323, 0.857, 0.605)),
    ("bipartite", 5, 2): ((0.746, 4.222, 0.918, 0.661), (0.725, 4.685, 0.928, 0.587)),
    ("eulerian", 4, 1): ((0.531, 3.000, 0.75, 0.5), (0.543, 2.869, 0.841, 0.607)),
    ("eulerian", 4, 2): ((1.0, 4.0, 1.0, 1.0), (0.890, 3.260, 0.956, 0.752)),
    ("eulerian", 4, 3): ((1.0, 4.0, 1.0, None), (0.995, 3.395, 0.998, 0.975)),
}

# Correlation grids, one row per (metric, n, p); property columns in
# analysis.PROPERTY_NAMES order, verbatim from the reference tables.  The
# bipartite and eulerian columns (indices 3 and 4) are negated before
# comparison; see the module docstring.
GOLDEN_CORR_ROWS = {
    ("prob_cmax", 4, 1): (0.363, -0.535, 0.558, 0.398, 0.030, 0.437, -0.085, 0.346, 0.507, 0.015),
    ("prob_cmax", 4, 2): (0.561, -0.830, 0.421, 0.247, -0.512, 0.809, -0.769, 0.354, 0.663, -0.513),
    ("prob_cmax", 5, 1): (0.166, -0.387, 0.243, 0.238, -0.662, 0.661, -0.110, 0.217, 0.531, -0.619),
    ("prob_cmax", 5, 2): (0.018, -0.339, -0.016, 0.047, -0.447, 0.441, -0.128, 0.004, 0.411, -0.675),
    ("prob_cmax", 6, 1): (-0.016, -0.170, 0.043, 0.112, -0.301, 0.222, 0.011, 0.012, 0.232, -0.221),
    ("prob_cmax", 6, 2): (-0.094, -0.183, -0.123, -0.069, -0.281, 0.252, 0.011, -0.148, 0.272, -0.324),
    ("exp_c", 4, 0): (1.0, -0.812, 0.908, 0.781, 0.070, 0.552, -0.768, 0.947, 0.746, -0.417),
    ("exp_c", 4, 1): (0.983, -0.786, 0.824, 0.672, -0.101, 0.669, -0.819, 0.876, 0.761, -0.548),
    ("exp_c", 4, 2): (0.799, -0.639, 0.479, 0.355, -0.481, 0.761, -0.920, 0.583, 0.608, -0.725),
    ("exp_c", 5, 0): (1.0, -0.673, 0.845, 0.558, -0.247, 0.267, -0.691, 0.951, 0.527, -0.424),
    ("exp_c", 5, 1): (0.989, -0.671, 0.774, 0.495, -0.255, 0.305, -0.739, 0.908, 0.527, -0.464),
    ("exp_c", 5, 2): (0.889, -0.641, 0.571, 0.256, -0.118, 0.180, -0.781, 0.730, 0.456, -0.463),
    ("exp_c", 6, 0): (1.0, -0.673, 0.768, 0.466, -0.052, 0.189, -0.684, 0.933, 0.323, -0.277),
    ("exp_c", 6, 1): (0.991, -0.676, 0.697, 0.401, -0.073, 0.221, -0.729, 0.886, 0.319, -0.305),
    ("exp_c", 6, 2): (0.926, -0.662, 0.544, 0.250, -0.087, 0.256, -0.750, 0.749, 0.312, -0.351),
    ("ratio", 4, 0): (0.857, -0.740, 0.988, 0.926, 0.414, 0.252, -0.446, 0.926, 0.602, 0.017),
    ("ratio", 4, 1): (0.635, -0.576, 0.886, 0.819, 0.515, 0.125, -0.133, 0.753, 0.491, 0.206),
    ("ratio", 4, 2): (0.747, -0.800, 0.552, 0.440, -0.512, 0.810, -0.882, 0.525, 0.630, -0.520),
    ("ratio", 5, 0): (0.770, -0.592, 0.856, 0.744, -0.414, 0.389, -0.397, 0.849, 0.499, -0.421),
    ("ratio", 5, 1): (0.428, -0.400, 0.569, 0.599, -0.510, 0.549, -0.164, 0.546, 0.421, -0.463),
    ("ratio", 5, 2): (0.125, -0.390, 0.152, 0.091, -0.335, 0.483, -0.154, 0.147, 0.424, -0.648),
    ("ratio", 6, 0): (0.720, -0.530, 0.800, 0.681, -0.040, 0.061, -0.350, 0.822, 0.246, -0.116),
    ("ratio", 6, 1): (0.374, -0.314, 0.539, 0.541, -0.066, 0.051, -0.103, 0.515, 0.192, -0.071),
    ("ratio", 6, 2): (0.166, -0.300, 0.218, 0.234, -0.133, 0.140, -0.050, 0.193, 0.258, -0.212),
    ("delta_ratio", 4, 1): (0.295, -0.362, 0.619, 0.513, 0.451, 0.079, 0.192, 0.418, 0.368, 0.288),
    ("delta_ratio", 4, 2): (0.701, -0.766, 0.412, 0.192, -0.567, 0.897, -0.901, 0.465, 0.742, -0.809),
    ("delta_ratio", 5, 1): (0.175, -0.276, 0.305, 0.306, -0.612, 0.645, -0.001, 0.271, 0.487, -0.495),
    ("delta_ratio", 5, 2): (0.015, -0.347, -0.045, -0.140, -0.490, 0.571, -0.140, -0.011, 0.507, -0.710),
    ("delta_ratio", 6, 1): (-0.045, -0.053, 0.139, 0.209, -0.110, 0.112, 0.149, 0.077, 0.200, -0.078),
    ("delta_ratio", 6, 2): (-0.153, -0.124, -0.240, -0.203, -0.228, 0.310, 0.045, -0.252, 0.395, -0.318),
}

_NEGATED_PROPERTIES = ("bipartite", "eulerian")

# n = 8 sign grid (mean correlation over depths 1..3, thresholded at 0.1),
# verbatim; the bipartite and eulerian rows are flipped before comparison.
GOLDEN_SIGN_GRID = {
    "edges": ("+", "-", "+", "-"),
    "diameter": ("-", "", "-", ""),
    "clique_number": ("+", "-", "+", "-"),
    "bipartite": ("+", "", "+", ""),
    "eulerian": ("", "-", "", "-"),
    "distance_regular": ("", "", "", ""),
    "cut_vertex_count": ("-", "", "", ""),
    "min_odd_cycle_count": ("+", "-", "+", "-"),
    "group_size": ("", "", "", ""),
    "orbit_count": ("-", "-", "", ""),
}


def _flip(symbol: str) -> str:
    return {"+": "-", "-": "+"}.get(symbol, symbol)


# ---------------------------------------------------------------------------
# Per-n tables, all from the pipeline at the suite's worker count
# ---------------------------------------------------------------------------


@functools.cache
def _rows(n: int, workers):
    """Dataset rows of every n-vertex class, kept across checks within one process."""
    return dataset_rows(enumerate_connected(n), workers=workers)


def _optimized_rows(n: int, pmax: int, workers):
    """Rows of every n-vertex class at the only settings the reference values hold for."""
    return qaoa_result_rows(enumerate_connected(n), pmax, DEFAULT_STARTS, 0, workers)


# ---------------------------------------------------------------------------
# Golden checks
# ---------------------------------------------------------------------------


def check_counts() -> CheckResult:
    got = {n: connected_graph_count(n) for n in range(3, 9)}
    ok = got == GOLDEN_COUNTS
    return CheckResult("golden/enumeration-counts", ok, f"counts {got}")


def check_uniform_means(workers=None) -> CheckResult:
    tol = 5e-4
    problems = []
    for (flag, n), (want_member, want_non) in GOLDEN_P0_MEANS.items():
        member, non = group_averages(_rows(n, workers), _optimized_rows(n, 0, workers), n, 0, flag)
        for label, got, want in (("member", member.mean_exp_c, want_member),
                                 ("non-member", non.mean_exp_c, want_non)):
            if abs(got - want) > tol:
                problems.append(f"{flag} n={n} {label}: {got:.4f} != {want}")
    c4 = cycle_graph(4)
    p_uniform = uniform_outcome(c4).prob_cmax
    if p_uniform != 0.125:
        problems.append(f"uniform C4 P(C_max) = {p_uniform} != 0.125")
    detail = "; ".join(problems) if problems else "depth-0 subgroup means within 5e-4"
    return CheckResult("golden/uniform-means", not problems, detail)


def check_uniform_correlations(workers=None) -> list[CheckResult]:
    out = []
    for n, (want_edges, want_diam, want_clique, want_minodd) in GOLDEN_P0_CORR.items():
        cells = {(c.property, c.metric): c.r
                 for c in correlation_table(_rows(n, workers), _optimized_rows(n, 0, workers), n, 0)}
        problems = []
        if abs(cells[("edges", "exp_c")] - want_edges) > 1e-9:
            problems.append(f"edges r={cells[('edges', 'exp_c')]}")
        for prop, want in (("diameter", want_diam), ("clique_number", want_clique)):
            got = cells[(prop, "exp_c")]
            if abs(got - want) > 2e-3:
                problems.append(f"{prop} r={got:.4f} != {want}")
        detail = "; ".join(problems) if problems else "edges/diameter/clique within tolerance"
        out.append(CheckResult(f"golden/uniform-correlations-n{n}", not problems, detail))

        got = cells[("min_odd_cycle_count", "exp_c")]
        ok = abs(got - want_minodd) <= 2e-3
        out.append(CheckResult(
            f"golden/uniform-correlations-min-odd-n{n}", ok,
            f"min_odd_cycle_count r={got:.4f} vs {want_minodd} (tol 2e-3)"))
    return out


def _octahedron() -> Graph:
    return Graph.from_edges(6, [(u, v) for u in range(6) for v in range(u + 1, 6)
                                if u + 3 != v and v + 3 != u and abs(u - v) != 3])


def check_distance_regular_probabilities() -> CheckResult:
    cases = [
        ("C4", cycle_graph(4), 2, 0.999, 1.0),
        ("K4", complete_graph(4), 2, 0.999, 1.0),
        ("C5", cycle_graph(5), 2, 0.999, 1.0),
        ("K5", complete_graph(5), 2, 0.999, 1.0),
        ("C7", cycle_graph(7), 3, 0.999, 1.0),
        ("K7", complete_graph(7), 3, 0.999, 1.0),
        ("K33", complete_bipartite(3, 3), 3, 0.96, 0.98),
        ("C6", cycle_graph(6), 3, 0.99, 1.0),
        ("K6", complete_graph(6), 3, 0.99, 1.0),
        ("octahedron", _octahedron(), 3, 0.99, 1.0),
    ]
    problems = []
    details = []
    for name, g, p, lo, hi in cases:
        prob = run_depth_series(g, p, starts=60, seed=0)[p].prob_cmax
        details.append(f"{name}@p{p}={prob:.4f}")
        if not lo <= prob <= hi + 1e-12:
            problems.append(f"{name}: P={prob:.5f} outside [{lo}, {hi}]")
    detail = "; ".join(problems) if problems else ", ".join(details)
    return CheckResult("golden/distance-regular-probabilities", not problems, detail)


def _mean_cells(row) -> tuple[float, float, float, float]:
    return (row.mean_prob, row.mean_exp_c, row.mean_ratio, row.mean_delta)


def check_optimized_group_means(workers=None) -> CheckResult:
    tol = 5e-3
    needed = {(n, max(p for f, nn, p in GOLDEN_GROUP_MEANS if nn == n))
              for f, n, p in GOLDEN_GROUP_MEANS}
    outcomes = {n: _optimized_rows(n, pmax, workers) for n, pmax in sorted(needed)}
    problems = []
    for (flag, n, p), (want_member, want_non) in sorted(GOLDEN_GROUP_MEANS.items()):
        member, non = group_averages(_rows(n, workers), outcomes[n], n, p, flag)
        for row, wants in ((member, want_member), (non, want_non)):
            for name, got, want in zip(("P", "C", "ratio", "delta"), _mean_cells(row), wants):
                if want is None:
                    if got is not None:
                        problems.append(f"{flag} {n}:{p} {row.polarity} {name}: "
                                        f"{got:.4f} where undefined expected")
                elif got is None or abs(got - want) > tol:
                    problems.append(f"{flag} {n}:{p} {row.polarity} {name}: "
                                    f"{got if got is None else f'{got:.4f}'} != {want}")
    detail = "; ".join(problems) if problems else \
        f"subgroup means for {len(GOLDEN_GROUP_MEANS)} rows within 5e-3 (starts={DEFAULT_STARTS})"
    return CheckResult("golden/optimized-group-means", not problems, detail)


def check_correlation_grids(workers=None) -> CheckResult:
    """Full n <= 6, p <= 2 correlation grids within 2e-2 per cell (long-running)."""
    tol = 2e-2
    sizes = sorted({n for _, n, _ in GOLDEN_CORR_ROWS})
    outcomes = {n: _optimized_rows(n, 2, workers) for n in sizes}
    problems = []
    checked = 0
    for (metric, n, p), wants in sorted(GOLDEN_CORR_ROWS.items()):
        cells = {(c.property, c.metric): c.r
                 for c in correlation_table(_rows(n, workers), outcomes[n], n, p)}
        for prop, want in zip(analysis.PROPERTY_NAMES, wants):
            if prop in _NEGATED_PROPERTIES:
                want = -want
            got = cells[(prop, metric)]
            checked += 1
            if got is None or abs(got - want) > tol:
                problems.append(f"{metric} {n}:{p} {prop}: "
                                f"{got if got is None else f'{got:.4f}'} != {want:.3f}")
    detail = "; ".join(problems) if problems else f"{checked} grid cells within 2e-2"
    return CheckResult("golden/correlation-grids", not problems, detail)


def check_sign_grid(workers=None) -> CheckResult:
    """n = 8 averaged-correlation sign grid (multi-hour)."""
    outcomes = _optimized_rows(8, 3, workers)
    cells = []
    for p in (1, 2, 3):
        cells.extend(correlation_table(_rows(8, workers), outcomes, 8, p))
    symbols = sign_summary(cells)
    problems = []
    for prop, wants in GOLDEN_SIGN_GRID.items():
        for metric, want in zip(analysis.METRIC_NAMES, wants):
            if prop in _NEGATED_PROPERTIES:
                want = _flip(want)
            if want and symbols[(prop, metric)] != want:
                problems.append(f"{prop}/{metric}: {symbols[(prop, metric)]!r} != {want!r}")
    detail = "; ".join(problems) if problems else "all non-blank symbols match"
    return CheckResult("golden/sign-grid-n8", not problems, detail)


def golden_suite(include_slow: bool = False, include_huge: bool = False,
                 workers=None) -> list[CheckResult]:
    results = [check_counts(), check_uniform_means(workers)]
    results.extend(check_uniform_correlations(workers))
    results.append(check_distance_regular_probabilities())
    results.append(check_optimized_group_means(workers))
    if include_slow:
        results.append(check_correlation_grids(workers))
    if include_huge:
        results.append(check_sign_grid(workers))
    return results


# ---------------------------------------------------------------------------
# Invariant checks
# ---------------------------------------------------------------------------


def check_statevector_norm() -> CheckResult:
    rng = random.Random(1)
    nprng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(50):
        n = rng.randint(4, 7)
        g = rng.choice(enumerate_connected(n))
        p = rng.randint(1, 3)
        ang = AngleVector(tuple(nprng.uniform(0, 2 * np.pi, p)), tuple(nprng.uniform(0, np.pi, p)))
        sv = evolve(g, ang)
        worst = max(worst, abs(float(np.vdot(sv, sv).real) - 1.0))
    return CheckResult("invariant/statevector-norm", worst <= 1e-12, f"worst |norm-1| = {worst:.2e}")


def check_zero_angle_expectation() -> CheckResult:
    worst = 0.0
    for n in (4, 5, 6):
        for g in enumerate_connected(n):
            for p in (0, 3):
                ang = AngleVector((0.0,) * p, (0.0,) * p)
                got = expectation(g, evolve(g, ang))
                worst = max(worst, abs(got - g.edge_count / 2))
    return CheckResult("invariant/zero-angle-expectation", worst <= 1e-12,
                       f"worst |<C> - |E|/2| = {worst:.2e}")


def check_depth_monotonicity(workers=None) -> CheckResult:
    worst = 0.0
    for n in (3, 4, 5, 6):
        rows = qaoa_result_rows(enumerate_connected(n), 3, 6, 0, workers)
        for prev, cur in zip(rows, rows[1:]):
            if prev.graph_id == cur.graph_id:
                worst = max(worst, prev.exp_c - cur.exp_c)
    return CheckResult("invariant/depth-monotonicity", worst <= 1e-9,
                       f"worst decrease across depths = {worst:.2e}")


# Every dataset field but those that name vertices is a graph invariant.
_INVARIANT_FIELDS = tuple(f.name for f in fields(DatasetRow) if f.name not in (
    "graph_id", "graph6", "cut_vertices", "cycle_basis", "automorphism_generators", "orbits"))


def check_isomorphism_invariance() -> CheckResult:
    graphs, relabelings = 50, 20
    rng = random.Random(2)
    pool = [g for n in (4, 5, 6) for g in enumerate_connected(n)]
    problems = []
    def grid_metrics(graph):
        gamma, beta, value = grid_scan_p1(graph)
        sv = evolve(graph, AngleVector((gamma,), (beta,)))
        return value, prob_cmax(graph, sv), value / maxcut_bruteforce(graph).cmax

    for g in rng.sample(pool, graphs):
        base_row = build_dataset_row(g, structure_profile(g), automorphism_group(g))
        base_grid = grid_metrics(g)
        base_mc = maxcut_bruteforce(g)
        for _ in range(relabelings):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = relabel(g, perm)
            row = build_dataset_row(h, structure_profile(h), automorphism_group(h))
            for name in _INVARIANT_FIELDS:
                if getattr(row, name) != getattr(base_row, name):
                    problems.append(f"graph {g.id} field {name} changes under relabeling")
            if sorted(len(o) for o in row.orbits) != sorted(len(o) for o in base_row.orbits):
                problems.append(f"graph {g.id} orbit sizes change under relabeling")
            if len(row.cycle_basis) != len(base_row.cycle_basis):
                problems.append(f"graph {g.id} cycle basis size changes under relabeling")
            if maxcut_bruteforce(h) != base_mc:
                problems.append(f"graph {g.id} optimum changes under relabeling")
            grid = grid_metrics(h)
            for label, got, want in zip(("exp_c", "prob", "ratio"), grid, base_grid):
                if abs(got - want) > 1e-6:
                    problems.append(f"graph {g.id} depth-1 oracle {label} changes: "
                                    f"{got:.8f} vs {want:.8f}")
        if problems:
            break
    detail = "; ".join(problems[:4]) if problems else \
        f"{graphs} graphs x {relabelings} relabelings invariant"
    return CheckResult("invariant/isomorphism-invariance", not problems, detail)


def check_pearson_properties() -> CheckResult:
    pairs = 1000
    rng = np.random.default_rng(3)
    problems = []
    for _ in range(pairs):
        m = int(rng.integers(2, 40))
        x = rng.normal(size=m)
        y = rng.normal(size=m)
        r = pearson(x, y)
        if r is None:
            continue
        if not -1 - 1e-12 <= r <= 1 + 1e-12:
            problems.append(f"out of bounds: {r}")
        if abs(r - pearson(y, x)) > 1e-12:
            problems.append("asymmetric")
        a = float(rng.uniform(0.1, 3.0)) * (1 if rng.random() < 0.5 else -1)
        b = float(rng.normal())
        r2 = pearson(a * x + b, y)
        if abs(r2 - np.sign(a) * r) > 1e-12:
            problems.append(f"not affine-equivariant: {r2} vs {np.sign(a) * r}")
    detail = "; ".join(problems[:3]) if problems else f"{pairs} random pairs satisfy all identities"
    return CheckResult("invariant/pearson-properties", not problems, detail)


def check_cut_vertex_agreement(workers=None) -> CheckResult:
    """Cut vertices, which the profile reads off its cycle basis (so this
    checks the basis too), against vertex deletion."""
    graphs = [g for n in range(3, 8) for g in enumerate_connected(n)]
    rows = [row for n in range(3, 8) for row in _rows(n, workers)]
    mismatches = sum(list(row.cut_vertices) != cut_vertices_by_deletion(g)
                     for row, g in zip(rows, graphs, strict=True))
    return CheckResult("invariant/cut-vertex-agreement", mismatches == 0, f"{len(graphs)} graphs, "
                       f"{mismatches} disagreements between cycle-basis blocks and deletion")


def check_bipartite_odd_cycles(workers=None) -> CheckResult:
    bad = 0
    total = 0
    for n in range(3, 9):
        for row in _rows(n, workers):
            total += 1
            has_odd = any(c and k % 2 == 1 for k, c in row.cycle_counts.items())
            if row.bipartite != (not has_odd):
                bad += 1
    return CheckResult("invariant/bipartite-odd-cycles", bad == 0,
                       f"{total} graphs, {bad} violate bipartite <=> no odd cycles")


def invariant_suite(workers=None) -> list[CheckResult]:
    return [
        check_statevector_norm(),
        check_zero_angle_expectation(),
        check_depth_monotonicity(workers),
        check_isomorphism_invariance(),
        check_pearson_properties(),
        check_cut_vertex_agreement(workers),
        check_bipartite_odd_cycles(workers),
    ]
