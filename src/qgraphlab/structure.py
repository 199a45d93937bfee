"""Structural graph properties: distances, cliques, cut vertices,
bipartite/Eulerian flags, distance regularity, and the simple-cycle census.

`structure_profile` is the one entry point: it derives every property from
the breadth-first layers of each vertex (which also show connectivity), one
BFS spanning tree, its fundamental cycle basis (which also gives the blocks
and so the cut vertices) and a cycle census over (vertex set, end) pairs.
Graphs are the bitmask graphs of :mod:`qgraphlab.graphs`, and every function
is pure, so per-graph invocations can run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import EDGE, Graph, _bits, _graph_name, _layers, is_connected

__all__ = [
    "DisconnectedGraphError",
    "StructureProfile",
    "structure_profile",
    "cut_vertices_by_deletion",
]


class DisconnectedGraphError(ValueError):
    """Operation requires a connected graph."""


@dataclass(frozen=True)
class StructureProfile:
    """Every non-symmetry property extracted for one graph.

    distance_regular is the weaker, distance-degree-regular sense: every
    vertex has the same number of vertices at each distance.
    distance_regular_strict adds the intersection-array condition: for
    every pair u, v at distance i, the numbers of neighbors of v at
    distance i - 1 and i + 1 from u depend only on i.
    cycle_counts maps cycle length k (3..n) to the number of simple cycles
    of that length; cycle_basis holds the fundamental cycles of the BFS
    spanning tree rooted at vertex 0, each as a tuple of graphs.EDGE's
    shared (u, v) edges.
    """

    edges: int
    diameter: int
    clique_number: int
    bipartite: bool
    eulerian: bool
    distance_regular: bool
    distance_regular_strict: bool
    cut_vertices: tuple[int, ...]
    cut_vertex_count: int
    degree_sequence: tuple[int, ...]
    cycle_counts: dict[int, int]
    cycle_basis: tuple[tuple[tuple[int, int], ...], ...]
    min_odd_cycle_count: int


def structure_profile(g: Graph) -> StructureProfile:
    """Compute every structural property of one connected graph."""
    full = (1 << g.n) - 1
    layers = [list(_layers(g.adj, 1 << s, full)) for s in range(g.n)]  # [s][d]: distance d from s
    if sum(layers[0]) != full:
        raise DisconnectedGraphError(f"{_graph_name(g)} is not connected; structure properties "
                                     f"are defined for connected graphs only")
    parent, depth = _bfs_tree(g)
    basis = _cycle_basis(g, parent, depth)
    counts = _count_simple_cycles(g)
    degree_regular = len({tuple(map(int.bit_count, row)) for row in layers}) == 1
    cuts = _block_cut_vertices(g, basis)
    return StructureProfile(
        edges=g.edge_count,
        diameter=max(map(len, layers)) - 1,
        clique_number=_clique_number(g.adj, full, 0, 0),
        # edges outside a BFS layer join consecutive layers, so coloring the
        # layers alternately 2-colors g; an edge inside a layer closes an odd cycle
        bipartite=all(depth[u] != depth[v] for u, v in g.edges()),
        eulerian=all(row.bit_count() % 2 == 0 for row in g.adj),  # g is connected
        distance_regular=degree_regular,
        distance_regular_strict=degree_regular and _intersection_array_holds(g.adj, layers),
        cut_vertices=cuts,
        cut_vertex_count=len(cuts),
        degree_sequence=tuple(sorted(g.degrees(), reverse=True)),
        cycle_counts=counts,
        cycle_basis=basis,
        min_odd_cycle_count=next((c for k, c in counts.items() if k % 2 and c), 0),
    )


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------


def _intersection_array_holds(adj: tuple[int, ...], layers: list[list[int]]) -> bool:
    """b_i / c_i are the same for every pair at distance i, at every i: for v
    in layer i from u, c_i and b_i count v's neighbors in layers i - 1 and i + 1."""
    arrays = set()
    for row in layers:
        padded = (0, *row, 0)
        for i, layer in enumerate(row):
            for v in _bits(layer):
                below, above = adj[v] & padded[i], adj[v] & padded[i + 2]
                arrays.add((i, below.bit_count(), above.bit_count()))
    return len(arrays) == max(map(len, layers))  # every distance i occurs, so one (b_i, c_i) each


# ---------------------------------------------------------------------------
# Cliques
# ---------------------------------------------------------------------------


def _clique_number(adj: tuple[int, ...], cand: int, size: int, best: int) -> int:
    """Size of the largest complete subgraph (branch and bound on bitmasks):
    the best of `best` and of a clique of `size` vertices grown from `cand`."""
    best = max(best, size)
    while cand and size + cand.bit_count() > best:
        v = (cand & -cand).bit_length() - 1
        cand &= cand - 1
        best = _clique_number(adj, cand & adj[v], size + 1, best)
    return best


# ---------------------------------------------------------------------------
# Cut vertices
# ---------------------------------------------------------------------------


def _block_cut_vertices(g: Graph, basis) -> tuple[int, ...]:
    """Articulation points of a connected graph, ascending, from its cycle basis.

    Two edges share a block exactly when a chain of basis cycles, each
    sharing an edge with the next, joins them: every cycle is a sum of basis
    cycles, and no proper part of a cycle is such a sum.  An edge on no
    cycle is a block of its own, and a cut vertex is on edges of two blocks.
    """
    block = {}  # edge -> index of the last basis cycle chained to it
    for i, cycle in enumerate(basis):
        joined = {block[e] for e in cycle if e in block}
        if joined:
            for e, b in block.items():
                if b in joined:
                    block[e] = i
        block.update(dict.fromkeys(cycle, i))
    ids = [set() for _ in range(g.n)]  # the blocks of each vertex's edges
    for edge in g.edges():
        b = block.get(edge, edge)
        ids[edge[0]].add(b)
        ids[edge[1]].add(b)
    return tuple(v for v, on in enumerate(ids) if len(on) > 1)


def cut_vertices_by_deletion(g: Graph) -> list[int]:
    """Definitional reference for the profile's cut vertices: v is a cut
    vertex iff deleting it disconnects the rest."""
    if not is_connected(g):
        raise DisconnectedGraphError(f"{_graph_name(g)} is not connected; cut vertices are "
                                     f"defined for connected graphs only")
    out = []
    full = (1 << g.n) - 1
    for v in range(g.n):
        alive = full ^ (1 << v)
        if sum(_layers(g.adj, alive & -alive, alive)) != alive:
            out.append(v)
    return out


# ---------------------------------------------------------------------------
# Cycles
# ---------------------------------------------------------------------------


def _count_simple_cycles(g: Graph) -> dict[int, int]:
    """Count every simple cycle exactly once, keyed by length, with Held and
    Karp's subset dynamic program: from each root s, `paths` maps (vertex set,
    end) to the number of simple paths from s through that set of vertices
    above s.  A path of k >= 3 vertices whose end is adjacent to s closes a
    k-cycle with minimum vertex s, and each cycle closes once in each
    direction.  At most 2^n n^2 steps, however many paths there are."""
    counts = dict.fromkeys(range(3, g.n + 1), 0)
    for s in range(g.n):
        paths = {(1 << s | 1 << w, w): 1 for w in _bits(g.adj[s] & (-2 << s))}
        for k in range(3, g.n - s + 1):
            grown = {}
            for (seen, v), count in paths.items():
                for w in _bits(g.adj[v] & ~seen & (-2 << s)):
                    key = (seen | 1 << w, w)
                    grown[key] = grown.get(key, 0) + count
            paths = grown
            counts[k] += sum(count for (_, v), count in paths.items() if g.adj[v] >> s & 1)
    return {k: count // 2 for k, count in counts.items()}


def _bfs_tree(g: Graph) -> tuple[list[int], list[int]]:
    """Parents and depths of the BFS spanning tree rooted at 0: each vertex
    hangs from the first vertex in queue order adjacent to it."""
    parent, depth = [-1] * g.n, [0] * g.n
    order, seen = [0], 1
    for v in order:  # the loop reaches the vertices it appends
        new = g.adj[v] & ~seen
        seen |= new
        for w in _bits(new):
            parent[w], depth[w] = v, depth[v] + 1
            order.append(w)
    return parent, depth


def _cycle_basis(g: Graph, parent: list[int],
                 depth: list[int]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The fundamental cycle basis of a connected graph.

    The basis has one cycle per non-tree edge of the BFS spanning tree
    rooted at vertex 0 (neighbors visited in ascending order); each cycle
    is the tuple of its edges, normalized to EDGE's (min, max) pairs,
    ordered along the traversal from one endpoint of the non-tree edge to
    the other.  parent and depth are the tree's, from _bfs_tree.
    """
    basis = []
    for edge in g.edges():
        u, v = edge
        if parent[u] == v or parent[v] == u:
            continue  # a tree edge
        up, vp = [u], [v]
        while up[-1] != vp[-1]:  # climb the deeper end until the ends meet
            if depth[up[-1]] >= depth[vp[-1]]:
                up.append(parent[up[-1]])
            else:
                vp.append(parent[vp[-1]])
        path = up + vp[-2::-1]
        basis.append(tuple([EDGE[a][b] for a, b in zip(path, path[1:])] + [edge]))
    return tuple(basis)
