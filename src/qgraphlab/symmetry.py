"""Automorphism groups one stabilizer level at a time (Sims' stabilizer chain).

In lexicographic order on image tuples, the automorphisms that fix 0..j-1
come before all others.  So when a greedy scan for generators reaches level
j, its generators generate exactly the automorphisms that fix 0..j, and one
that fixes 0..j-1 is already generated iff its image of j lies in j's orbit.
Level j thus needs, for each b outside that orbit, only the first
automorphism that fixes 0..j-1 and maps j to b.  The group size is the
product of the level orbits' sizes; no other group element is kept.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph

__all__ = ["AutomorphismSummary", "automorphism_group"]


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


def _first_leaf(adj: tuple[int, ...], deg: tuple[int, ...], image: list[int],
                used: int) -> tuple[int, ...] | None:
    """The lexicographically first automorphism that maps each v < len(image)
    to image[v] (the bits of `used`), or None if there is none."""
    v = len(image)
    if v == len(adj):
        return tuple(image)
    # w can image v iff w's neighbours among the images are the images of v's
    mapped = 0
    for u in range(v):
        if adj[v] >> u & 1:
            mapped |= 1 << image[u]
    for w in range(len(adj)):
        if not used >> w & 1 and deg[w] == deg[v] and adj[w] & used == mapped:
            leaf = _first_leaf(adj, deg, image + [w], used | 1 << w)
            if leaf is not None:
                return leaf
    return None


def _orbit(v: int, generators: list[tuple[int, ...]]) -> set[int]:
    """The images of v under every product of the generators."""
    orbit = {v}
    frontier = [v]
    for x in frontier:
        for gen in generators:
            if gen[x] not in orbit:
                orbit.add(gen[x])
                frontier.append(gen[x])
    return orbit


def automorphism_group(g: Graph) -> AutomorphismSummary:
    """Group size, a greedy-lexicographic generating set, and vertex orbits."""
    n = g.n
    adj, deg = g.adj, g.degrees()

    generators: list[tuple[int, ...]] = []
    group_size = 1
    for j in range(n - 1, -1, -1):
        fixed = (1 << j) - 1
        orbit = {j}
        for b in range(j + 1, n):
            # pruning only: j's image must share its degree and its edges to 0..j-1
            if b in orbit or deg[b] != deg[j] or (adj[b] ^ adj[j]) & fixed:
                continue
            leaf = _first_leaf(adj, deg, [*range(j), b], fixed | 1 << b)
            if leaf is not None:
                generators.append(leaf)
                orbit = _orbit(j, generators)
        group_size *= len(orbit)

    # disjoint sorted tuples sort by their smallest element
    orbits = sorted({tuple(sorted(_orbit(v, generators))) for v in range(n)})

    return AutomorphismSummary(
        group_size=group_size,
        generators=tuple(generators),
        orbits=tuple(orbits),
        orbit_count=len(orbits),
    )
