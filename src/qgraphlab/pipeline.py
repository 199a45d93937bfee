"""Orchestration: fan per-graph work out to processes and assemble CSVs.

Per-graph computations are deterministic given the global seed (random
streams are keyed by canonical form), so worker count and completion order
never change the output files.
"""

from __future__ import annotations

import os

from .datastore import DatasetRow, QaoaResultRow, build_dataset_row
from .graphs import Graph
from .qaoa import _require_edges, maxcut_bruteforce, run_depth_series
from .structure import structure_profile
from .symmetry import automorphism_group

__all__ = ["resolve_workers", "dataset_rows", "qaoa_result_rows"]


def resolve_workers(requested: int | None = None) -> int:
    """Worker count: the requested count, or for 0 or None the CPUs this
    process may run on (its affinity mask where the platform has one)."""
    if requested is not None and requested < 0:
        raise ValueError(f"workers must be >= 0, got {requested}")
    if requested:
        return requested
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _props_task(g: Graph) -> DatasetRow:
    return build_dataset_row(g, structure_profile(g), automorphism_group(g))


def _qaoa_task(args: tuple[Graph, int, int, int]) -> list[QaoaResultRow]:
    g, pmax, starts, seed = args
    mc = maxcut_bruteforce(g)
    outcomes = run_depth_series(g, pmax, starts=starts, seed=seed)
    return [QaoaResultRow.from_outcome(g, mc, o, starts, seed) for o in outcomes]


def _run(task, jobs, workers: int):
    workers = min(workers, len(jobs))  # a pool starts all its processes up front
    if workers <= 1:
        return [task(job) for job in jobs]
    from concurrent.futures import ProcessPoolExecutor  # with multiprocessing, only a pool needs it

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, jobs, chunksize=max(1, len(jobs) // (workers * 8))))


def dataset_rows(graphs: list[Graph], workers: int | None = None) -> list[DatasetRow]:
    """Structure + symmetry rows for a batch of graphs (sorted by id)."""
    rows = _run(_props_task, graphs, resolve_workers(workers))
    return sorted(rows, key=lambda r: r.graph_id)


def qaoa_result_rows(graphs: list[Graph], pmax: int, starts: int, seed: int,
                     workers: int | None = None) -> list[QaoaResultRow]:
    """Depth 0..pmax QAOA rows for a batch of graphs (sorted by id, then p)."""
    for g in graphs:  # fail before dispatching any work
        _require_edges(g)
    jobs = [(g, pmax, starts, seed) for g in graphs]
    nested = _run(_qaoa_task, jobs, resolve_workers(workers))
    return sorted((row for rows in nested for row in rows), key=lambda r: (r.graph_id, r.p))
