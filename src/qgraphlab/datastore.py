"""CSV persistence for the per-graph dataset and QAOA results, plus run
configuration.

One dataset file per vertex count, UTF-8, header first.  A row
dataclass's fields, in order, are its file's columns; a tuple field in
_NUMBERED spans numbered columns, padded with empty cells.  List-valued
fields are serialized as plain text:

* cut vertices and degree sequences: space-separated integers
* permutations: "(0 2 1 3)" image lists, multiple joined by ";"
* orbits: each orbit space-separated, orbits joined by ";"
* cycle basis: each cycle "u-v u-v ...", cycles joined by ";"; a read
  edge u < v is graphs.EDGE's shared tuple

Real numbers are written with 12 significant digits; an empty cell is an
undefined value.  A record whose cell count differs from the header's is
malformed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from operator import attrgetter

from .analysis import CorrelationCell, GroupAverageRow
from .graphs import EDGE, MAX_VERTICES, Graph, encode_graph6
from .qaoa import DEFAULT_STARTS, AngleVector, OptimizerStats, QaoaOutcome

__all__ = [
    "SchemaError",
    "DatasetRow",
    "QaoaResultRow",
    "RunConfig",
    "build_dataset_row",
    "write_dataset_file",
    "read_dataset",
    "write_qaoa_results",
    "read_qaoa_results",
    "load_config",
]


class SchemaError(ValueError):
    """A CSV header or record does not match the expected schema."""


def fmt_real(x: float) -> str:
    return format(float(x), ".12g")


@dataclass(frozen=True, slots=True)
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

    def __post_init__(self):
        if len(self.cycle_count_by_len) != max(self.n - 2, 0):
            raise ValueError(f"graph {self.graph_id}: {len(self.cycle_count_by_len)} "
                             f"cycle counts for n = {self.n}")

    @property
    def cycle_counts(self) -> dict[int, int]:
        return {k: c for k, c in enumerate(self.cycle_count_by_len, start=3)}


def build_dataset_row(g: Graph, profile, symmetry) -> DatasetRow:
    """One dataset row: the profile's and the summary's fields by name, with
    generators as automorphism_generators and cycle_counts as cycle_count_by_len."""
    values = {f.name: getattr(src, f.name) for src in (profile, symmetry) for f in fields(src)}
    counts = values.pop("cycle_counts")
    return DatasetRow(graph_id=g.id, n=g.n, graph6=encode_graph6(g),
                      automorphism_generators=values.pop("generators"),
                      cycle_count_by_len=tuple(counts.get(k, 0) for k in range(3, g.n + 1)),
                      **values)


@dataclass(frozen=True, slots=True)
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

    def __post_init__(self):
        if not len(self.gammas) == len(self.betas) == self.p:
            raise ValueError(f"graph {self.graph_id}: {len(self.gammas)} gammas and "
                             f"{len(self.betas)} betas at p = {self.p}")

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
            optimizer_stats=OptimizerStats(self.starts, -1, 0),
        )


# ---------------------------------------------------------------------------
# the column schema: one (to_text, from_text) codec per field
# ---------------------------------------------------------------------------


def _bool_from_text(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"boolean cell must be 0 or 1, got {text!r}")
    return text == "1"


_INT = (str, int)
_TEXT = (str, str)
_REAL = (fmt_real, float)
_OPT_REAL = (lambda x: "" if x is None else fmt_real(x), lambda text: float(text) if text else None)
_BOOL = (lambda value: "1" if value else "0", _bool_from_text)


def _seq(sep: str, inner=_INT, wrap: str = ""):
    """Codec of a tuple: its elements' texts joined by `sep`, the whole
    wrapped in the two characters of `wrap`, if given; "" is ()."""
    to_inner, from_inner = inner
    left, right = wrap[:1], wrap[1:]

    def to_text(values) -> str:
        return f"{left}{sep.join(map(to_inner, values))}{right}"

    def from_text(text: str) -> tuple:
        text = text.strip(wrap)
        return tuple(map(from_inner, text.split(sep))) if text else ()

    return to_text, from_text


_PAIR = _seq("-")


def _edge_from_text(text: str) -> tuple:
    """A "u-v" cell part read as _seq("-") reads it; an in-range u < v pair
    becomes EDGE's shared tuple, and any other value stays as read."""
    pair = _PAIR[1](text)
    if len(pair) == 2 and 0 <= pair[0] < pair[1] < MAX_VERTICES:
        return EDGE[pair[0]][pair[1]]
    return pair


# Codec of every field that is not a plain int; a numbered field's codec
# is that of one element.
_CODECS = {
    **dict.fromkeys(["graph6", "property", "metric", "flag", "polarity"], _TEXT),
    **dict.fromkeys(["bipartite", "eulerian", "distance_regular", "distance_regular_strict"],
                    _BOOL),
    **dict.fromkeys(["gammas", "betas", "exp_c", "prob_cmax", "ratio"], _REAL),
    **dict.fromkeys(["delta_ratio", "r", "mean_prob", "mean_exp_c", "mean_ratio", "mean_delta"],
                    _OPT_REAL),
    "cut_vertices": _seq(" "),
    "cycle_basis": _seq(";", _seq(" ", (_PAIR[0], _edge_from_text))),
    "degree_sequence": _seq(" "),
    "automorphism_generators": _seq(";", _seq(" ", wrap="()")),
    "orbits": _seq(";", _seq(" ")),
}

# Tuple fields stored one element per column: field -> (column prefix,
# number of the first column).
_NUMBERED = {
    "cycle_count_by_len": ("cycle_count_", 3),
    "gammas": ("gamma_", 1),
    "betas": ("beta_", 1),
}


def _schema(cls, width):
    """Header of cls's file and its (to_text, from_text, width) plan per
    field.  width(name, prefix) sizes a numbered field; the plan's width is
    None for a one-column field."""
    header, plan = [], []
    for f in fields(cls):
        to_text, from_text = _CODECS.get(f.name, _INT)
        if f.name in _NUMBERED:
            prefix, first = _NUMBERED[f.name]
            w = width(f.name, prefix)
            header += [f"{prefix}{i}" for i in range(first, first + w)]
        else:
            w = None
            header.append(f.name)
        plan.append((to_text, from_text, w))
    return header, plan


def _write_csv(path: str, header, records) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(records)


def _write_rows(path: str, cls, rows) -> None:
    header, plan = _schema(cls, lambda name, _: max((len(getattr(r, name)) for r in rows), default=0))
    columns = []
    for f, (to_text, _, w) in zip(fields(cls), plan):
        values = map(attrgetter(f.name), rows)
        if w is None:
            columns.append(map(to_text, values))
        else:
            columns += zip(*(list(map(to_text, v)) + [""] * (w - len(v)) for v in values))
    _write_csv(path, header, zip(*columns))


def _read_rows(path: str, cls) -> list:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SchemaError(f"{path}: empty file")
        expected, plan = _schema(cls, lambda _, prefix: sum(c.startswith(prefix) for c in header))
        for got, want in zip(header, expected):
            if got != want:
                raise SchemaError(f"unexpected column {got!r} where {want!r} expected")
        if len(header) != len(expected):
            raise SchemaError(f"expected {len(expected)} columns, found {len(header)}")
        rows = []
        for rec in reader:
            if len(rec) != len(header):
                raise SchemaError(f"{path}:{reader.line_num}: expected {len(header)} cells, "
                                  f"found {len(rec)}")
            values, i = [], 0
            for _, from_text, w in plan:
                if w is None:
                    values.append(from_text(rec[i]))
                    i += 1
                else:
                    cells = rec[i:i + w]
                    while cells and not cells[-1]:  # padding; an empty cell inside is malformed
                        cells.pop()
                    values.append(tuple(map(from_text, cells)))
                    i += w
            rows.append(cls(*values))
    return rows


# ---------------------------------------------------------------------------
# dataset and QAOA result files
# ---------------------------------------------------------------------------


def write_dataset_file(rows, target: str) -> None:
    """Write dataset rows (a single vertex count) to the file target."""
    rows = sorted(rows, key=lambda r: r.graph_id)
    if not rows:
        raise ValueError("no rows to write")
    if any(r.n != rows[0].n for r in rows):
        raise ValueError("dataset files hold a single vertex count per file")
    _write_rows(target, DatasetRow, rows)


def read_dataset(path: str) -> list[DatasetRow]:
    """Exact inverse of write_dataset_file."""
    return _read_rows(path, DatasetRow)


def write_qaoa_results(rows, path: str) -> None:
    _write_rows(path, QaoaResultRow, sorted(rows, key=lambda r: (r.graph_id, r.p)))


def read_qaoa_results(path: str) -> list[QaoaResultRow]:
    return _read_rows(path, QaoaResultRow)


# ---------------------------------------------------------------------------
# analysis output files
# ---------------------------------------------------------------------------


def write_correlation_csv(cells: list[CorrelationCell], path: str) -> None:
    _write_rows(path, CorrelationCell, cells)


def write_averages_csv(rows: list[GroupAverageRow], path: str) -> None:
    _write_rows(path, GroupAverageRow, rows)


def write_histogram_csv(spec, path: str) -> None:
    _write_csv(path, ["bin_lo", "bin_hi", "subgroup", "fraction"],
               ([fmt_real(lo), fmt_real(hi), subgroup, _OPT_REAL[0](frac)]
                for subgroup, fractions in spec.fractions.items()
                for lo, hi, frac in zip(spec.bin_edges, spec.bin_edges[1:], fractions)))


def write_signs_csv(symbols: dict, path: str) -> None:
    _write_csv(path, ["property", "metric", "symbol"],
               ([prop, metric, symbol] for (prop, metric), symbol in symbols.items()))


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    """Settings of `props`, `qaoa` and `verify`; `--config` and then flags override them."""

    starts: int = DEFAULT_STARTS
    seed: int = 0
    workers: int = 0  # 0 = available parallelism

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError("starts must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.workers < 0:
            raise ValueError("workers must be >= 0")


def load_config(path: str, reads=None) -> RunConfig:
    """Parse a flat key=value config file (blank lines and # comments skipped).
    `reads`, when given, names the keys the caller reads; any other key is an error."""
    types = {f.name: type(f.default) for f in fields(RunConfig)}
    values, first = {}, {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in first:
                raise ValueError(f"{path}:{lineno}: config key {key!r} repeats line {first[key]}")
            first[key] = lineno
            if key not in types:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            if reads is not None and key not in reads:
                raise ValueError(f"{path}:{lineno}: config key {key!r} is not read by this "
                                 f"command, which reads only {', '.join(reads)}")
            try:
                values[key] = types[key](value.strip())
            except ValueError:
                raise ValueError(f"{path}:{lineno}: config key {key!r} expects "
                                 f"{types[key].__name__}, got {value.strip()!r}") from None
    return RunConfig(**values)
