"""Seeded input generators for the benchmark workloads.

Each generator returns the graph6 records the program receives, and
properties() summarises the input properties the workload's cost depends
on.  Graphs are built here, with this package's own graph6 encoder, so the
program only ever sees the generated files.
"""

from __future__ import annotations

import random
from collections import Counter

from oracles import decode_graph6, encode_graph6

STARTS = 200
QAOA_SEED = 0
CENSUS_N = 7


def _random_connected(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """A uniformly random connected labeled graph with n vertices and m edges."""
    pairs = [(u, v) for v in range(n) for u in range(v)]
    while True:
        edges = rng.sample(pairs, m)
        seen, frontier = {0}, [0]
        while frontier:
            x = frontier.pop()
            for u, v in edges:
                for a, b in ((u, v), (v, u)):
                    if a == x and b not in seen:
                        seen.add(b)
                        frontier.append(b)
        if len(seen) == n:
            return sorted(edges)


def _stratified_edges(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """k edge counts, one drawn from each of k equal strata of lo..hi."""
    width = hi - lo + 1
    return [lo + int((i + rng.random()) * width / k) for i in range(k)]


def qaoa_deep(seed: int, count: int = 2) -> list[str]:
    """count random connected graphs on 8 vertices, with edge counts
    stratified over 7..28."""
    rng = random.Random(f"qaoa-deep/{seed}")
    return [encode_graph6(8, _random_connected(rng, 8, m)) for m in _stratified_edges(rng, 7, 28, count)]


def qaoa_shallow(seed: int, count: int = 12) -> list[str]:
    """count random connected graphs, half on 5 and half on 6 vertices, with
    edge counts stratified over each size's connected range."""
    rng = random.Random(f"qaoa-shallow/{seed}")
    records = []
    for n in (5, 6):
        for m in _stratified_edges(rng, n - 1, n * (n - 1) // 2, count // 2):
            records.append(encode_graph6(n, _random_connected(rng, n, m)))
    rng.shuffle(records)
    return records


def properties(records: list[str], depth: int) -> dict:
    """The input properties a workload's cost depends on."""
    sizes = Counter()
    edge_counts = Counter()
    for record in records:
        n, edges = decode_graph6(record)
        sizes[n] += 1
        edge_counts[len(edges)] += 1
    return {
        "graphs": len(records),
        "depth": depth,
        "n_hist": {str(k): sizes[k] for k in sorted(sizes)},
        "edges_hist": {str(k): edge_counts[k] for k in sorted(edge_counts)},
    }
