"""Automorphism groups by exhaustive permutation search.

The search places vertex images one at a time, restricted to images of
equal degree and consistent adjacency with all previously mapped vertices,
which is an exhaustive scan of the n! permutations with pruning.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, UnsupportedSizeError

__all__ = ["AutomorphismSummary", "automorphisms", "automorphism_group"]

MAX_GROUP_N = 8


@dataclass(frozen=True)
class AutomorphismSummary:
    """Size, generating set, and vertex orbits of one graph's automorphism group.

    Each generator is an image tuple (vertex v maps to generators[i][v]).
    The identity is never listed; a trivial group has no generators.
    Orbits are disjoint sorted tuples covering all vertices, ordered by
    their smallest element.
    """

    group_size: int
    generators: tuple[tuple[int, ...], ...]
    orbits: tuple[tuple[int, ...], ...]
    orbit_count: int


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """All edge-preserving vertex relabelings, in lexicographic order."""
    if g.n > MAX_GROUP_N:
        raise UnsupportedSizeError(f"automorphism search supports n <= {MAX_GROUP_N}, got {g.n}")
    found: list[tuple[int, ...]] = []
    _place(g.adj, g.degrees(), [-1] * g.n, 0, 0, found)
    return found


def _place(adj: tuple[int, ...], deg: tuple[int, ...], image: list[int], v: int, used: int,
           found: list[tuple[int, ...]]) -> None:
    """Append to `found`, in lexicographic order, every automorphism that
    extends the map image[:v], whose images are the bits of `used`."""
    n = len(adj)
    if v == n:
        found.append(tuple(image))
        return
    for w in range(n):
        if used >> w & 1 or deg[w] != deg[v]:
            continue
        ok = True
        for u in range(v):
            if (adj[v] >> u & 1) != (adj[w] >> image[u] & 1):
                ok = False
                break
        if ok:
            image[v] = w
            _place(adj, deg, image, v + 1, used | 1 << w, found)


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """(a . b)(v) = a[b[v]]."""
    return tuple(a[x] for x in b)


def _extend(group: set[tuple[int, ...]], generators) -> None:
    """Grow the closed group H in ``group`` to the one generated by H and ``generators``.

    Dimino's method: the new group is a union of right cosets H.r, and
    right-multiplying a coset by a generator gives another coset, so each
    new coset is added whole and its representative queued.  Every element
    is composed once, instead of the whole group once per generator.
    """
    base = list(group)
    reps = base[:1]  # any element of H represents the coset H itself
    for r in reps:
        for gen in generators:
            rep = _compose(r, gen)
            if rep not in group:
                group.update(_compose(h, rep) for h in base)
                reps.append(rep)


def automorphism_group(g: Graph) -> AutomorphismSummary:
    """Group size, a greedy-lexicographic generating set, and vertex orbits."""
    perms = automorphisms(g)
    n = g.n

    generators: list[tuple[int, ...]] = []
    reached = {tuple(range(n))}
    for p in perms:
        if p in reached:
            continue
        generators.append(p)
        _extend(reached, generators)
        if len(reached) == len(perms):
            break

    # v's orbit is its image under every automorphism; disjoint sorted
    # tuples sort by their smallest element.
    orbits = sorted({tuple(sorted({p[v] for p in perms})) for v in range(n)})

    return AutomorphismSummary(
        group_size=len(perms),
        generators=tuple(generators),
        orbits=tuple(orbits),
        orbit_count=len(orbits),
    )
