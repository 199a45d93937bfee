"""Whole-enumeration differential gate: every connected class on 3..7
vertices (994 graphs), and every 40th class on 8 (278 graphs), against
networkx, which shares no code with the structure and symmetry layers.  The
deletion reference for cut vertices is checked too: it is the only caller of
the breadth-first layers whose `alive` mask is not closed under adjacency."""

from collections import Counter

import networkx as nx
from networkx.algorithms.isomorphism import GraphMatcher

from qgraphlab.graphs import encode_graph6, enumerate_connected
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
