"""Whole-enumeration differential gate: every connected class on 3..7
vertices (994 graphs), and every 40th class on 8 (278 graphs), against
networkx, which shares no code with the structure and symmetry layers.  The
deletion reference for cut vertices is checked too: it is the only caller of
the breadth-first layers whose `alive` mask is not closed under adjacency.
Cut vertices and the simple-cycle census are also checked on chosen graphs
with 9..16 vertices, through `structure_profile` itself."""

import random
from collections import Counter

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

from qgraphlab.graphs import (Graph, complete_graph, cycle_graph, encode_graph6,
                              enumerate_connected, relabel, star_graph)
from qgraphlab.structure import cut_vertices_by_deletion, structure_profile
from qgraphlab.symmetry import automorphism_group


def networkx_profile(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    isos = list(GraphMatcher(G, G).isomorphisms_iter())
    lengths = Counter(len(c) for c in nx.simple_cycles(G))
    cuts = tuple(sorted(nx.articulation_points(G)))
    return {
        "diameter": nx.diameter(G),
        "clique_number": max(len(c) for c in nx.find_cliques(G)),
        "cut_vertices": cuts,
        "cut_vertices_by_deletion": cuts,
        "bipartite": nx.is_bipartite(G),
        "eulerian": nx.is_eulerian(G),
        "distance_regular_strict": nx.is_distance_regular(G),
        "cycle_counts": {k: lengths[k] for k in range(3, g.n + 1)},
        "group_size": len(isos),
        "orbits": tuple(sorted({tuple(sorted({p[v] for p in isos})) for v in range(g.n)})),
    }


def mismatches_against_networkx(graphs):
    mismatches = []
    for g in graphs:
        profile, group = structure_profile(g), automorphism_group(g)
        ours = {**vars(profile), "cut_vertices_by_deletion": tuple(cut_vertices_by_deletion(g)),
                "group_size": group.group_size, "orbits": group.orbits}
        for key, expected in networkx_profile(g).items():
            if ours[key] != expected:
                mismatches.append(f"n={g.n} {encode_graph6(g)} {key}: {ours[key]} != {expected}")
    return mismatches


def test_every_connected_class_matches_networkx():
    graphs = [g for n in range(3, 8) for g in enumerate_connected(n)]
    mismatches = mismatches_against_networkx(graphs)
    assert len(graphs) == 994
    assert not mismatches, f"{len(mismatches)} mismatches, first: {mismatches[:5]}"


def test_every_40th_class_on_8_vertices_matches_networkx():
    graphs = enumerate_connected(8)[::40]
    mismatches = mismatches_against_networkx(graphs)
    assert len(graphs) == 278
    assert not mismatches, f"{len(mismatches)} mismatches, first: {mismatches[:5]}"


def random_tree_edges(rng, n):
    return [(v, rng.randrange(v)) for v in range(1, n)]


def sparse_connected(seed):
    """A random tree on 9..16 vertices plus a few random extra edges."""
    rng = random.Random(seed)
    n = rng.randint(9, 16)
    extra = [rng.sample(range(n), 2) for _ in range(rng.randint(1, n // 2))]
    return Graph.from_edges(n, random_tree_edges(rng, n) + extra)


def joined_cliques(n, cliques, extra):
    """Complete graphs on the vertex tuples in `cliques`, plus the edges in `extra`."""
    return Graph.from_edges(n, [(u, v) for c in cliques for u in c for v in c if u < v] + extra)


LARGER = {
    "friendship": Graph.from_edges(15, [e for t in range(1, 15, 2)
                                        for e in ((0, t), (0, t + 1), (t, t + 1))]),
    "k4-pair-with-tail": joined_cliques(9, [(0, 1, 2, 3), (3, 4, 5, 6)], [(6, 7), (7, 8)]),
    "barbell-by-path": joined_cliques(10, [(0, 1, 2, 3), (6, 7, 8, 9)], [(3, 4), (4, 5), (5, 6)]),
    "star": star_graph(12),
    "random-tree": Graph.from_edges(16, random_tree_edges(random.Random(3), 16)),
    "c9-pendant-paths": Graph.from_edges(15, cycle_graph(9).edges() + [
        (0, 9), (3, 10), (10, 11), (6, 12), (12, 13), (13, 14)]),
    "k16": complete_graph(16),
    **{f"sparse-{seed}": sparse_connected(seed) for seed in range(20)},
}


@pytest.mark.parametrize("g", LARGER.values(), ids=LARGER.keys())
def test_cut_vertices_past_eight_vertices_match_networkx(g):
    """Each graph as built and, where that differs, relabelled, against
    nx.articulation_points."""
    perm = list(range(g.n))
    random.Random(g.n).shuffle(perm)
    for h in dict.fromkeys((g, relabel(g, perm))):  # K16 relabelled is K16
        assert 9 <= h.n <= 16
        G = nx.Graph(h.edges())
        assert nx.is_connected(G)
        assert structure_profile(h).cut_vertices == tuple(sorted(nx.articulation_points(G)))


@pytest.mark.parametrize("g, cuts", [
    (Graph(1, (0,)), ()),
    (complete_graph(2), ()),
    (joined_cliques(6, [(0, 1, 2), (3, 4, 5)], [(2, 3)]), (2, 3)),
], ids=["n1", "k2", "triangles-joined-by-a-bridge"])
def test_cut_vertex_edge_cases(g, cuts):
    assert structure_profile(g).cut_vertices == cuts


@pytest.mark.parametrize("g", [g for name, g in LARGER.items() if name != "k16"],
                         ids=[name for name in LARGER if name != "k16"])
def test_cycle_census_past_eight_vertices_matches_networkx(g):
    """Against nx.simple_cycles; K16's 1.9 x 10^12 cycles are left to the closed form
    of test_structure."""
    lengths = Counter(len(c) for c in nx.simple_cycles(nx.Graph(g.edges())))
    assert structure_profile(g).cycle_counts == {k: lengths[k] for k in range(3, g.n + 1)}
