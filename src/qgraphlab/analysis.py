"""Statistical reductions over completed per-graph results: Pearson
correlations between graph properties and QAOA metrics, subgroup averages,
histogram data, and the averaged-correlation sign summary.

Boolean properties are encoded 1 = true, 0 = false.  A correlation is
undefined (None) whenever either variable has no variance or fewer than
two samples remain; undefined delta ratios are dropped pairwise and the
surviving sample size is recorded per cell.

Outcomes are read only through graph_id, p and the four metric fields, so
the QaoaResultRows of a results file serve as they are.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .qaoa import SUPPORTED_DEPTHS

__all__ = [
    "MissingDataError",
    "CorrelationCell",
    "GroupAverageRow",
    "HistogramSpec",
    "PROPERTY_NAMES",
    "METRIC_NAMES",
    "HISTOGRAM_METRICS",
    "SUBGROUP_FLAGS",
    "pearson",
    "property_value",
    "correlation_table",
    "group_averages",
    "histogram",
    "sign_summary",
]


class MissingDataError(ValueError):
    """A per-graph input is incomplete; the message lists absent graph ids."""


# Column order of the reference correlation tables.  distance_regular here
# is the strict (intersection-array) flag; the weaker distance-degree flag
# is carried in the dataset but not correlated.
PROPERTY_NAMES = (
    "edges",
    "diameter",
    "clique_number",
    "bipartite",
    "eulerian",
    "distance_regular",
    "cut_vertex_count",
    "min_odd_cycle_count",
    "group_size",
    "orbit_count",
)

METRIC_NAMES = ("exp_c", "prob_cmax", "ratio", "delta_ratio")
HISTOGRAM_METRICS = ("prob_cmax", "ratio", "delta_ratio")  # the metrics that lie in [0, 1]
SUBGROUP_FLAGS = ("bipartite", "eulerian")


@dataclass(frozen=True)
class CorrelationCell:
    n: int
    p: int
    property: str
    metric: str
    r: float | None
    sample_size: int


@dataclass(frozen=True)
class GroupAverageRow:
    n: int
    p: int
    flag: str
    polarity: str  # "member" | "non-member"
    mean_prob: float | None  # None: the subgroup has no defined value
    mean_exp_c: float | None
    mean_ratio: float | None
    mean_delta: float | None


@dataclass(frozen=True)
class HistogramSpec:
    metric: str
    bin_edges: tuple[float, ...]
    fractions: dict[str, tuple[float | None, ...]]  # subgroup label -> normalized bins


def pearson(x, y) -> float | None:
    """Sample Pearson product-moment coefficient, or None if degenerate."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    if x.size < 2:
        return None
    # an exactly constant vector has zero variance even when the two-pass
    # formula picks up rounding residue from an inexact mean
    if np.all(x == x[0]) or np.all(y == y[0]):
        return None
    xc = x - x.mean()
    yc = y - y.mean()
    vx = float((xc * xc).mean())
    vy = float((yc * yc).mean())
    if vx == 0.0 or vy == 0.0:
        return None
    return float((xc * yc).mean() / math.sqrt(vx * vy))


def property_value(row, name: str) -> float:
    """Numeric encoding of one dataset-row property (booleans become 0/1)."""
    return float(getattr(row, "distance_regular_strict" if name == "distance_regular" else name))


def _by_id(items, what: str) -> dict:
    """The items keyed by graph id; raise naming the ids that repeat."""
    counts = Counter(item.graph_id for item in items)
    repeated = sorted(i for i, count in counts.items() if count > 1)
    if repeated:
        raise ValueError(f"graph ids repeated among {what}: {repeated}")
    return {item.graph_id: item for item in items}


def _paired(rows, outcomes, n: int, p: int):
    """Match rows to outcomes by graph id; raise if either side is missing,
    or if an id repeats on either side (ids restart at 1 for every n, and
    for every graph6 file a props run reads)."""
    row_map = _by_id([row for row in rows if row.n == n],
                     f"the n={n} rows (props of more than one graph6 file?)")
    out_map = _by_id([o for o in outcomes if o.p == p],
                     f"the p={p} outcomes (results of more than one vertex count?)")
    missing = sorted(set(row_map) ^ set(out_map))
    if missing:
        raise MissingDataError(f"graphs present on only one side for n={n}, p={p}: {missing}")
    if not row_map:
        raise MissingDataError(f"no graphs with n={n}")
    return [(row_map[i], out_map[i]) for i in sorted(row_map)]


def correlation_table(rows, outcomes, n: int, p: int) -> list[CorrelationCell]:
    """One cell per (property, metric) over every enumerated graph of size n."""
    pairs = _paired(rows, outcomes, n, p)
    cells = []
    for prop in PROPERTY_NAMES:
        xs = [property_value(row, prop) for row, _ in pairs]
        for metric in METRIC_NAMES:
            ys = [getattr(o, metric) for _, o in pairs]
            keep = [(x, y) for x, y in zip(xs, ys) if y is not None]
            r = pearson([k[0] for k in keep], [k[1] for k in keep])  # None below two pairs
            cells.append(CorrelationCell(n, p, prop, metric, r, len(keep)))
    return cells


def _mean(values) -> float | None:
    values = [v for v in values if v is not None]
    return float(np.mean(values)) if values else None


def _subgroups(rows, outcomes, n: int, p: int, flag: str) -> dict[str, list]:
    """The paired outcomes of the flag's members and of its non-members."""
    if flag not in SUBGROUP_FLAGS:
        raise ValueError(f"unsupported subgroup flag {flag!r}")
    pairs = _paired(rows, outcomes, n, p)
    return {polarity: [o for row, o in pairs if bool(property_value(row, flag)) is keep]
            for polarity, keep in (("member", True), ("non-member", False))}


def group_averages(rows, outcomes, n: int, p: int, flag: str) -> tuple[GroupAverageRow, GroupAverageRow]:
    """Arithmetic metric means for the flag subgroup and its complement; a
    mean over no defined value is None."""
    member, non = (GroupAverageRow(n, p, flag, polarity,
                                   *(_mean(getattr(o, metric) for o in sub)
                                     for metric in ("prob_cmax", "exp_c", "ratio", "delta_ratio")))
                   for polarity, sub in _subgroups(rows, outcomes, n, p, flag).items())
    return member, non


def histogram(rows, outcomes, n: int, p: int, flag: str, metric: str = "prob_cmax",
              bins: int = 20) -> HistogramSpec:
    """Per-subgroup bin fractions of one metric over [0, 1] (final bin right-closed);
    a subgroup with no defined value is None (undefined) in every bin."""
    if metric not in HISTOGRAM_METRICS:
        raise ValueError(f"histogram metric must be one of {HISTOGRAM_METRICS}, got {metric!r}")
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    edges = np.linspace(0.0, 1.0, bins + 1)
    fractions: dict[str, tuple[float, ...]] = {}
    for polarity, sub in _subgroups(rows, outcomes, n, p, flag).items():
        values = [v for v in (getattr(o, metric) for o in sub) if v is not None]
        counts, _ = np.histogram(values, bins=edges)
        total = counts.sum()
        fractions[polarity] = tuple(counts / total) if total else (None,) * bins
    return HistogramSpec(metric=metric, bin_edges=tuple(edges), fractions=fractions)


def sign_summary(cells) -> dict[tuple[str, str], str]:
    """Symbol per (property, metric): the mean r over the depths in
    qaoa.SUPPORTED_DEPTHS (1..3).

    "+" for mean >= 0.1, "-" for mean <= -0.1, "" inside (-0.1, 0.1).
    Undefined cells are excluded from the mean; an all-undefined group is
    blank.
    """
    by_key: dict[tuple[str, str], list[float]] = {}
    for cell in cells:
        if cell.p in SUPPORTED_DEPTHS and cell.r is not None:
            by_key.setdefault((cell.property, cell.metric), []).append(cell.r)
    out = {}
    for prop in PROPERTY_NAMES:
        for metric in METRIC_NAMES:
            rs = by_key.get((prop, metric))
            mean = float(np.mean(rs)) if rs else 0.0  # all undefined: blank
            out[(prop, metric)] = "+" if mean >= 0.1 else ("-" if mean <= -0.1 else "")
    return out
