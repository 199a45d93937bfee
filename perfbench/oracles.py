"""Correctness oracles that share no code with qgraphlab.

Graphs are handled here as plain edge lists decoded by this module's own
graph6 reader; MaxCut is brute force over all 2^n assignments and the
depth-1 expectation is the closed form of Wang, Hadfield, Jiang and
Rieffel, PRA 97, 022304 (2018).
"""

from __future__ import annotations

import csv
import hashlib
import math

# QAOA rows are compared at the CSV's own resolution: every real is written
# with 12 significant digits, so 1e-9 leaves room for rounding only.
TOL = 1e-9


def encode_graph6(n: int, edges) -> str:
    """graph6 record of a simple graph on n <= 62 vertices."""
    edge_set = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (u, v) in edge_set else 0 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    groups = (int("".join(map(str, bits[i:i + 6])), 2) for i in range(0, len(bits), 6))
    return chr(63 + n) + "".join(chr(63 + g) for g in groups)


def decode_graph6(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and sorted (u, v), u < v, edge list of a graph6 record."""
    n = ord(text[0]) - 63
    bits = "".join(format(ord(ch) - 63, "06b") for ch in text[1:])
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    return n, sorted(pair for pair, bit in zip(pairs, bits) if bit == "1")


def maxcut(n: int, edges) -> tuple[int, int]:
    """(cmax, number of optimal assignments) by enumerating every assignment."""
    best, count = -1, 0
    for z in range(1 << n):
        cut = sum((z >> u ^ z >> v) & 1 for u, v in edges)
        if cut > best:
            best, count = cut, 1
        elif cut == best:
            count += 1
    return best, count


def closed_form_p1(n: int, edges, gamma: float, beta: float) -> float:
    """Depth-1 <C> summed over edges from the WHJR closed form."""
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    cg, c2g = math.cos(gamma), math.cos(2 * gamma)
    total = 0.0
    for u, v in edges:
        du, dv = len(nbrs[u]) - 1, len(nbrs[v]) - 1
        lam = len(nbrs[u] & nbrs[v])
        total += (0.5
                  + 0.25 * math.sin(4 * beta) * math.sin(gamma) * (cg ** du + cg ** dv)
                  - 0.25 * math.sin(2 * beta) ** 2 * cg ** (du + dv - 2 * lam)
                  * (1 - c2g ** lam))
    return total


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_rows(path: str) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def rows_by_graph(rows) -> dict[int, list[dict[str, str]]]:
    out: dict[int, list[dict[str, str]]] = {}
    for row in rows:
        out.setdefault(int(row["graph_id"]), []).append(row)
    return out


def check_qaoa_graph(g6: str, depth: int, rows) -> list[str]:
    """Every problem found in one graph's result rows (empty when all hold).

    Checks: one row per depth 0..depth on the input graph; cmax and the
    optimal count by brute force; exp_c <= cmax and non-decreasing in p;
    ratio = exp_c / cmax; the uniform-state values at p = 0; and the
    closed-form <C> at the stored angles at p = 1.
    """
    problems = []
    if [int(r["p"]) for r in rows] != list(range(depth + 1)):
        return [f"depths {[r['p'] for r in rows]} != 0..{depth}"]
    n, edges = decode_graph6(g6)
    cmax, count = maxcut(n, edges)
    previous = -math.inf
    for r in rows:
        p, exp_c, cut = int(r["p"]), float(r["exp_c"]), int(r["cmax"])
        if r["graph6"] != g6:
            problems.append(f"p={p}: graph6 {r['graph6']} is not the input {g6}")
        if (cut, int(r["optimal_count"])) != (cmax, count):
            problems.append(f"p={p}: cmax/optimal_count {cut}/{r['optimal_count']} != {cmax}/{count}")
        if not exp_c <= cmax:
            problems.append(f"p={p}: exp_c {exp_c} > cmax {cmax}")
        if exp_c < previous - TOL:
            problems.append(f"p={p}: exp_c {exp_c} decreased from {previous}")
        previous = exp_c
        if abs(float(r["ratio"]) - exp_c / cmax) > TOL:
            problems.append(f"p={p}: ratio {r['ratio']} != exp_c / cmax")
        if p == 0:
            if abs(exp_c - len(edges) / 2) > TOL:
                problems.append(f"p=0: exp_c {exp_c} != m/2")
            if abs(float(r["prob_cmax"]) - count / (1 << n)) > TOL:
                problems.append(f"p=0: prob_cmax {r['prob_cmax']} != {count}/2^{n}")
        if p == 1:
            exact = closed_form_p1(n, edges, float(r["gamma_1"]), float(r["beta_1"]))
            if abs(exp_c - exact) > TOL:
                problems.append(f"p=1: exp_c {exp_c} != closed form {exact!r}")
    return problems
