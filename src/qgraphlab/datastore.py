"""CSV persistence for the per-graph dataset and QAOA results, plus run
configuration.

One dataset file per vertex count, named graphs_n<k>.csv, UTF-8, header
first.  List-valued fields are serialized as plain text:

* cut vertices and degree sequences: space-separated integers
* permutations: "(0 2 1 3)" image lists, multiple joined by ";"
* orbits: each orbit space-separated, orbits joined by ";"
* cycle basis: each cycle "u-v u-v ...", cycles joined by ";"

Real numbers are written with 12 significant digits; an empty cell is an
undefined value.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

from .analysis import GroupAverageRow
from .graphs import Graph, encode_graph6
from .qaoa import DELTA_EPS, AngleVector, OptimizerStats, QaoaOutcome

__all__ = [
    "SchemaError",
    "DatasetRow",
    "QaoaResultRow",
    "RunConfig",
    "build_dataset_row",
    "dataset_filename",
    "write_dataset",
    "write_dataset_file",
    "read_dataset",
    "write_qaoa_results",
    "read_qaoa_results",
    "load_config",
]


class SchemaError(ValueError):
    """A CSV header does not match the expected schema."""


def fmt_real(x: float) -> str:
    return format(float(x), ".12g")


@dataclass(frozen=True)
class DatasetRow:
    """All structure and symmetry properties of one graph.

    cycle_count_by_len holds the simple-cycle counts for lengths 3..n in
    order; the cycle_counts property exposes them keyed by length.
    """

    graph_id: int
    n: int
    graph6: str
    bipartite: bool
    edges: int
    diameter: int
    clique_number: int
    distance_regular: bool
    distance_regular_strict: bool
    eulerian: bool
    cut_vertices: tuple[int, ...]
    cut_vertex_count: int
    cycle_basis: tuple[tuple[tuple[int, int], ...], ...]
    degree_sequence: tuple[int, ...]
    automorphism_generators: tuple[tuple[int, ...], ...]
    group_size: int
    orbits: tuple[tuple[int, ...], ...]
    orbit_count: int
    cycle_count_by_len: tuple[int, ...]
    min_odd_cycle_count: int

    @property
    def cycle_counts(self) -> dict[int, int]:
        return {k: c for k, c in enumerate(self.cycle_count_by_len, start=3)}


def build_dataset_row(g: Graph, profile, symmetry) -> DatasetRow:
    """Assemble one dataset row from a structure profile and group summary."""
    return DatasetRow(
        graph_id=g.id,
        n=g.n,
        graph6=encode_graph6(g),
        bipartite=profile.bipartite,
        edges=profile.edges,
        diameter=profile.diameter,
        clique_number=profile.clique_number,
        distance_regular=profile.distance_regular,
        distance_regular_strict=profile.distance_regular_strict,
        eulerian=profile.eulerian,
        cut_vertices=tuple(profile.cut_vertices),
        cut_vertex_count=profile.cut_vertex_count,
        cycle_basis=profile.cycle_basis,
        degree_sequence=tuple(profile.degree_sequence),
        automorphism_generators=symmetry.generators,
        group_size=symmetry.group_size,
        orbits=symmetry.orbits,
        orbit_count=symmetry.orbit_count,
        cycle_count_by_len=tuple(profile.cycle_counts.get(k, 0) for k in range(3, g.n + 1)),
        min_odd_cycle_count=profile.min_odd_cycle_count,
    )


# ---------------------------------------------------------------------------
# field serializers
# ---------------------------------------------------------------------------


def _ints_to_text(values) -> str:
    return " ".join(str(v) for v in values)


def _ints_from_text(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split()) if text else ()


def _perm_to_text(perm) -> str:
    return "(" + " ".join(str(v) for v in perm) + ")"


def _perm_from_text(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.strip("()").split())


def _perms_to_text(perms) -> str:
    return ";".join(_perm_to_text(p) for p in perms)


def _perms_from_text(text: str) -> tuple[tuple[int, ...], ...]:
    return tuple(_perm_from_text(tok) for tok in text.split(";")) if text else ()


def _orbits_to_text(orbits) -> str:
    return ";".join(_ints_to_text(orbit) for orbit in orbits)


def _orbits_from_text(text: str) -> tuple[tuple[int, ...], ...]:
    return tuple(_ints_from_text(tok) for tok in text.split(";")) if text else ()


def _basis_to_text(basis) -> str:
    return ";".join(" ".join(f"{u}-{v}" for u, v in cycle) for cycle in basis)


def _basis_from_text(text: str) -> tuple[tuple[tuple[int, int], ...], ...]:
    if not text:
        return ()
    cycles = []
    for tok in text.split(";"):
        cycles.append(tuple(tuple(int(x) for x in edge.split("-")) for edge in tok.split()))
    return tuple(cycles)


def _bool_to_text(value: bool) -> str:
    return "1" if value else "0"


def _bool_from_text(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"boolean cell must be 0 or 1, got {text!r}")
    return text == "1"


# ---------------------------------------------------------------------------
# dataset files
# ---------------------------------------------------------------------------

_FIXED_COLUMNS = [
    "graph_id", "n", "graph6", "bipartite", "edges", "diameter", "clique_number",
    "distance_regular", "distance_regular_strict", "eulerian", "cut_vertices",
    "cut_vertex_count", "cycle_basis", "degree_sequence", "automorphism_generators",
    "group_size", "orbits", "orbit_count",
]


def dataset_columns(n: int) -> list[str]:
    return _FIXED_COLUMNS + [f"cycle_count_{k}" for k in range(3, n + 1)] + ["min_odd_cycle_count"]


def dataset_filename(n: int) -> str:
    return f"graphs_n{n}.csv"


def write_dataset(rows, path: str) -> str:
    """Write one vertex count's rows to <path>/graphs_n<k>.csv; returns the file path."""
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to write")
    os.makedirs(path, exist_ok=True)
    target = os.path.join(path, dataset_filename(rows[0].n))
    write_dataset_file(rows, target)
    return target


def write_dataset_file(rows, target: str) -> None:
    """Write dataset rows (a single vertex count) to an explicit file path."""
    rows = sorted(rows, key=lambda r: r.graph_id)
    if not rows:
        raise ValueError("no rows to write")
    n = rows[0].n
    if any(r.n != n for r in rows):
        raise ValueError("dataset files hold a single vertex count per file")
    with open(target, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(dataset_columns(n))
        for r in rows:
            writer.writerow([
                r.graph_id, r.n, r.graph6,
                _bool_to_text(r.bipartite), r.edges, r.diameter, r.clique_number,
                _bool_to_text(r.distance_regular), _bool_to_text(r.distance_regular_strict),
                _bool_to_text(r.eulerian),
                _ints_to_text(r.cut_vertices), r.cut_vertex_count,
                _basis_to_text(r.cycle_basis), _ints_to_text(r.degree_sequence),
                _perms_to_text(r.automorphism_generators), r.group_size,
                _orbits_to_text(r.orbits), r.orbit_count,
                *r.cycle_count_by_len, r.min_odd_cycle_count,
            ])


def read_dataset(path: str) -> list[DatasetRow]:
    """Exact inverse of write_dataset for one graphs_n<k>.csv file."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SchemaError("empty dataset file")
        body = list(reader)
    if not body:
        return []
    n = int(body[0][1])
    expected = dataset_columns(n)
    for got, want in zip(header, expected):
        if got != want:
            raise SchemaError(f"unexpected column {got!r} where {want!r} expected")
    if len(header) != len(expected):
        raise SchemaError(f"expected {len(expected)} columns, found {len(header)}; "
                          f"first mismatch at {header[len(expected):] or expected[len(header):]}")
    rows = []
    for rec in body:
        vals = dict(zip(header, rec))
        rows.append(DatasetRow(
            graph_id=int(vals["graph_id"]),
            n=int(vals["n"]),
            graph6=vals["graph6"],
            bipartite=_bool_from_text(vals["bipartite"]),
            edges=int(vals["edges"]),
            diameter=int(vals["diameter"]),
            clique_number=int(vals["clique_number"]),
            distance_regular=_bool_from_text(vals["distance_regular"]),
            distance_regular_strict=_bool_from_text(vals["distance_regular_strict"]),
            eulerian=_bool_from_text(vals["eulerian"]),
            cut_vertices=_ints_from_text(vals["cut_vertices"]),
            cut_vertex_count=int(vals["cut_vertex_count"]),
            cycle_basis=_basis_from_text(vals["cycle_basis"]),
            degree_sequence=_ints_from_text(vals["degree_sequence"]),
            automorphism_generators=_perms_from_text(vals["automorphism_generators"]),
            group_size=int(vals["group_size"]),
            orbits=_orbits_from_text(vals["orbits"]),
            orbit_count=int(vals["orbit_count"]),
            cycle_count_by_len=tuple(int(vals[f"cycle_count_{k}"]) for k in range(3, int(vals["n"]) + 1)),
            min_odd_cycle_count=int(vals["min_odd_cycle_count"]),
        ))
    return rows


# ---------------------------------------------------------------------------
# QAOA result files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QaoaResultRow:
    """Flat per-(graph, depth) record as stored in the results CSV."""

    graph_id: int
    n: int
    graph6: str
    p: int
    gammas: tuple[float, ...]
    betas: tuple[float, ...]
    exp_c: float
    prob_cmax: float
    ratio: float
    delta_ratio: float | None
    cmax: int
    optimal_count: int
    starts: int
    seed: int

    @staticmethod
    def from_outcome(g: Graph, mc, outcome: QaoaOutcome, starts: int, seed: int) -> "QaoaResultRow":
        return QaoaResultRow(
            graph_id=g.id, n=g.n, graph6=encode_graph6(g), p=outcome.p,
            gammas=outcome.best_angles.gammas, betas=outcome.best_angles.betas,
            exp_c=outcome.exp_c, prob_cmax=outcome.prob_cmax, ratio=outcome.ratio,
            delta_ratio=outcome.delta_ratio, cmax=mc.cmax,
            optimal_count=mc.optimal_count, starts=starts, seed=seed,
        )

    def as_outcome(self) -> QaoaOutcome:
        return QaoaOutcome(
            graph_id=self.graph_id, p=self.p,
            best_angles=AngleVector(self.gammas, self.betas),
            exp_c=self.exp_c, prob_cmax=self.prob_cmax, ratio=self.ratio,
            delta_ratio=self.delta_ratio,
            optimizer_stats=OptimizerStats("from-file", self.starts, -1, 0),
        )


def qaoa_columns(pmax: int) -> list[str]:
    return (["graph_id", "n", "graph6", "p"]
            + [f"gamma_{i}" for i in range(1, pmax + 1)]
            + [f"beta_{i}" for i in range(1, pmax + 1)]
            + ["exp_c", "prob_cmax", "ratio", "delta_ratio", "cmax",
               "optimal_count", "starts", "seed"])


def write_qaoa_results(rows, path: str) -> None:
    rows = sorted(rows, key=lambda r: (r.graph_id, r.p))
    pmax = max((r.p for r in rows), default=0)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(qaoa_columns(pmax))
        for r in rows:
            gam = [fmt_real(x) for x in r.gammas] + [""] * (pmax - r.p)
            bet = [fmt_real(x) for x in r.betas] + [""] * (pmax - r.p)
            writer.writerow([
                r.graph_id, r.n, r.graph6, r.p, *gam, *bet,
                fmt_real(r.exp_c), fmt_real(r.prob_cmax), fmt_real(r.ratio),
                "" if r.delta_ratio is None else fmt_real(r.delta_ratio),
                r.cmax, r.optimal_count, r.starts, r.seed,
            ])


def read_qaoa_results(path: str) -> list[QaoaResultRow]:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SchemaError("empty results file")
        gamma_cols = [c for c in header if c.startswith("gamma_")]
        pmax = len(gamma_cols)
        expected = qaoa_columns(pmax)
        for got, want in zip(header, expected):
            if got != want:
                raise SchemaError(f"unexpected column {got!r} where {want!r} expected")
        if len(header) != len(expected):
            raise SchemaError("results header has the wrong column count")
        rows = []
        for rec in reader:
            vals = dict(zip(header, rec))
            p = int(vals["p"])
            rows.append(QaoaResultRow(
                graph_id=int(vals["graph_id"]), n=int(vals["n"]), graph6=vals["graph6"], p=p,
                gammas=tuple(float(vals[f"gamma_{i}"]) for i in range(1, p + 1)),
                betas=tuple(float(vals[f"beta_{i}"]) for i in range(1, p + 1)),
                exp_c=float(vals["exp_c"]), prob_cmax=float(vals["prob_cmax"]),
                ratio=float(vals["ratio"]),
                delta_ratio=None if vals["delta_ratio"] == "" else float(vals["delta_ratio"]),
                cmax=int(vals["cmax"]), optimal_count=int(vals["optimal_count"]),
                starts=int(vals["starts"]), seed=int(vals["seed"]),
            ))
    return rows


# ---------------------------------------------------------------------------
# analysis output files
# ---------------------------------------------------------------------------


def write_correlation_csv(cells, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "p", "property", "metric", "r", "sample_size"])
        for cell in cells:
            writer.writerow([cell.n, cell.p, cell.property, cell.metric,
                             "" if cell.r is None else fmt_real(cell.r), cell.sample_size])


def write_averages_csv(rows: list[GroupAverageRow], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "p", "flag", "polarity", "mean_prob", "mean_exp_c",
                         "mean_ratio", "mean_delta"])
        for r in rows:
            writer.writerow([r.n, r.p, r.flag, r.polarity,
                             fmt_real(r.mean_prob), fmt_real(r.mean_exp_c), fmt_real(r.mean_ratio),
                             "" if r.mean_delta is None else fmt_real(r.mean_delta)])


def write_histogram_csv(spec, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_lo", "bin_hi", "subgroup", "fraction"])
        for subgroup, fractions in spec.fractions.items():
            for lo, hi, frac in zip(spec.bin_edges, spec.bin_edges[1:], fractions):
                writer.writerow([fmt_real(lo), fmt_real(hi), subgroup, fmt_real(frac)])


def write_signs_csv(symbols: dict, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["property", "metric", "symbol"])
        for (prop, metric), symbol in symbols.items():
            writer.writerow([prop, metric, symbol])


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    """Pipeline configuration; flat key=value files override the defaults."""

    n_min: int = 3
    n_max: int = 8
    p_max: int = 3
    starts: int = 200
    seed: int = 0
    out_dir: str = "."
    workers: int = 0  # 0 = available parallelism
    delta_eps: float = DELTA_EPS

    def __post_init__(self):
        if not 3 <= self.n_min <= self.n_max <= 8:
            raise ValueError(f"n range must satisfy 3 <= n_min <= n_max <= 8")
        if not 0 <= self.p_max <= 3:
            raise ValueError("p_max must be within 0..3")
        if self.starts < 1:
            raise ValueError("starts must be >= 1")
        if not self.delta_eps > 0:
            raise ValueError("delta_eps must be > 0")


_CONFIG_TYPES = {
    "n_min": int, "n_max": int, "p_max": int, "starts": int, "seed": int,
    "out_dir": str, "workers": int, "delta_eps": float,
}


def load_config(path: str) -> RunConfig:
    """Parse a flat key=value config file (blank lines and # comments skipped)."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = _CONFIG_TYPES[key](value.strip())
    return RunConfig(**values)
