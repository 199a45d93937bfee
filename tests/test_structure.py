import itertools
import math
import random
from collections import Counter, deque

import networkx as nx
import pytest

from qgraphlab import structure
from qgraphlab.graphs import (Graph, complete_bipartite, complete_graph, cycle_graph,
                              enumerate_connected, path_graph, relabel, star_graph)
from qgraphlab.structure import DisconnectedGraphError, cut_vertices_by_deletion, structure_profile


def to_networkx(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return G


def prism():
    return Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                                (0, 3), (1, 4), (2, 5)])


def paw():
    return Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)])


def distance_regular_flags(g):
    """(degree sense, strict sense) of distance regularity from networkx:
    equal per-vertex distance histograms, and nx.is_distance_regular."""
    G = to_networkx(g)
    histograms = {tuple(sorted(Counter(lengths.values()).items()))
                  for _, lengths in nx.all_pairs_shortest_path_length(G)}
    return len(histograms) == 1, nx.is_distance_regular(G)


def brute_force_cliques(g):
    """Largest vertex subset that is pairwise adjacent, by full subset scan."""
    best = 1
    for k in range(2, g.n + 1):
        for subset in itertools.combinations(range(g.n), k):
            if all(g.has_edge(u, v) for u, v in itertools.combinations(subset, 2)):
                best = max(best, k)
    return best


def brute_force_cycles(g):
    """Count simple cycles by scanning cyclic arrangements of vertex subsets."""
    counts = {k: 0 for k in range(3, g.n + 1)}
    for k in range(3, g.n + 1):
        for subset in itertools.combinations(range(g.n), k):
            first = subset[0]
            seen = set()
            for rest in itertools.permutations(subset[1:]):
                cyc = (first,) + rest
                if cyc[1] > cyc[-1]:
                    continue  # one direction per cycle
                if all(g.has_edge(cyc[i], cyc[(i + 1) % k]) for i in range(k)):
                    seen.add(cyc)
            counts[k] += len(seen)
    return counts


NAMED = {  # name: (networkx graph, (distance_regular, distance_regular_strict))
    "petersen": (nx.petersen_graph(), (True, True)),
    "heawood": (nx.heawood_graph(), (True, True)),
    "q3": (nx.hypercube_graph(3), (True, True)),
    "q4": (nx.hypercube_graph(4), (True, True)),
    "k44": (nx.complete_bipartite_graph(4, 4), (True, True)),
    "rook4x4": (nx.cartesian_product(nx.complete_graph(4), nx.complete_graph(4)), (True, True)),
    "prism5": (nx.circular_ladder_graph(5), (True, False)),
    "mobius-kantor": (nx.LCF_graph(16, [5, -5], 8), (True, False)),
    "c9": (nx.cycle_graph(9), (True, True)),
}


class TestDistances:
    # the breadth-first layers from every vertex are internal; diameter and
    # both regularity flags are derived from them, and the bipartite flag
    # from the BFS tree's depths
    def test_complete_graph(self):
        p = structure_profile(complete_graph(4))
        assert (p.diameter, p.distance_regular, p.distance_regular_strict) == (1, True, True)

    def test_path_endpoints(self):
        assert structure_profile(path_graph(4)).diameter == 3

    def test_c6_antipodes(self):
        # every vertex has one antipode at distance 3
        p = structure_profile(cycle_graph(6))
        assert (p.diameter, p.distance_regular, p.bipartite) == (3, True, True)

    def test_matches_networkx(self):
        for n in range(3, 7):
            for g in enumerate_connected(n):
                G = to_networkx(g)
                p = structure_profile(g)
                assert p.diameter == nx.diameter(G)
                assert (p.distance_regular, p.distance_regular_strict) == distance_regular_flags(g)
                assert p.bipartite == nx.is_bipartite(G)

    @pytest.mark.parametrize("name", NAMED)
    def test_named_graphs_beyond_the_study_sizes(self, name):
        G, flags = NAMED[name]
        G = nx.convert_node_labels_to_integers(G)
        g = Graph.from_edges(G.number_of_nodes(), G.edges())
        p = structure_profile(g)
        assert (p.distance_regular, p.distance_regular_strict) == flags == distance_regular_flags(g)
        assert p.diameter == nx.diameter(G)
        assert p.bipartite == nx.is_bipartite(G)

    def test_disconnected_rejected(self):
        split = Graph.from_edges(4, [(0, 1), (2, 3)], id=7)
        for op in (structure_profile, cut_vertices_by_deletion):
            with pytest.raises(DisconnectedGraphError, match="graph 7 is not connected"):
                op(split)

    @pytest.mark.parametrize("op, defined", [(structure_profile, "structure properties"),
                                             (cut_vertices_by_deletion, "cut vertices")])
    def test_disconnected_without_id_named_by_graph6(self, op, defined):
        with pytest.raises(DisconnectedGraphError,
                           match=f"^graph 'C`' is not connected; {defined} are defined"):
            op(Graph.from_edges(4, [(0, 1), (2, 3)]))


class TestDiameter:
    def test_examples(self):
        assert structure_profile(complete_graph(8)).diameter == 1
        assert structure_profile(cycle_graph(8)).diameter == 4
        assert structure_profile(star_graph(8)).diameter == 2


class TestCliqueNumber:
    def test_examples(self):
        assert structure_profile(complete_graph(5)).clique_number == 5
        assert structure_profile(cycle_graph(5)).clique_number == 2
        assert structure_profile(paw()).clique_number == brute_force_cliques(paw()) == 3

    def test_against_subset_scan(self):
        for g in enumerate_connected(5):
            assert structure_profile(g).clique_number == brute_force_cliques(g)


class TestCutVertices:
    def test_examples(self):
        assert structure_profile(cycle_graph(4)).cut_vertices == ()
        assert structure_profile(star_graph(4)).cut_vertices == (0,)
        assert structure_profile(path_graph(4)).cut_vertices == (1, 2)

    def test_cycle_basis_blocks_equal_deletion(self):
        for n in (3, 4, 5, 6):
            for g in enumerate_connected(n):
                assert list(structure_profile(g).cut_vertices) == cut_vertices_by_deletion(g)

    def test_matches_networkx(self):
        for g in enumerate_connected(6):
            p = structure_profile(g)
            assert p.cut_vertices == tuple(sorted(nx.articulation_points(to_networkx(g))))
            assert p.cut_vertex_count == len(p.cut_vertices)


class TestBooleanFlags:
    def test_bipartite(self):
        assert structure_profile(cycle_graph(6)).bipartite
        assert not structure_profile(cycle_graph(5)).bipartite
        assert structure_profile(complete_bipartite(3, 3)).bipartite

    def test_eulerian(self):
        assert structure_profile(cycle_graph(4)).eulerian
        assert not structure_profile(path_graph(4)).eulerian
        assert structure_profile(complete_graph(5)).eulerian
        # every degree is even, but a disconnected graph has no Euler circuit
        # and no profile
        with pytest.raises(DisconnectedGraphError):
            structure_profile(Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]))

    def test_eulerian_matches_networkx(self):
        for g in enumerate_connected(6):
            assert structure_profile(g).eulerian == nx.is_eulerian(to_networkx(g))


def regularity(g):
    p = structure_profile(g)
    return p.distance_regular, p.distance_regular_strict


class TestDistanceRegular:
    def test_c5_both_modes(self):
        assert regularity(cycle_graph(5)) == (True, True)

    def test_path_neither(self):
        assert regularity(path_graph(4)) == (False, False)

    def test_prism_splits_the_modes(self):
        # every prism vertex sees (3, 2) at distances (1, 2), but b_1 differs
        # between triangle and square neighbors
        assert regularity(prism()) == (True, False)

    def test_strict_matches_networkx(self):
        for g in enumerate_connected(6):
            assert regularity(g)[1] == nx.is_distance_regular(to_networkx(g))

    def test_strict_census_n6(self):
        flags = [regularity(g) for g in enumerate_connected(6)]
        assert sum(strict for _, strict in flags) == 4
        assert sum(degree for degree, _ in flags) == 5

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            structure_profile(Graph.from_edges(4, [(0, 1), (2, 3)]))


def deque_bfs_tree(g):
    """(parents, depths) of the BFS tree rooted at 0, neighbors queued in ascending order."""
    parent, depth = [-1] * g.n, [0] * g.n
    seen, queue = {0}, deque([0])
    while queue:
        v = queue.popleft()
        for w in range(g.n):
            if g.has_edge(v, w) and w not in seen:
                seen.add(w)
                parent[w], depth[w] = v, depth[v] + 1
                queue.append(w)
    return parent, depth


class TestCycleCensus:
    def test_c5(self):
        p = structure_profile(cycle_graph(5))
        assert p.cycle_counts == {3: 0, 4: 0, 5: 1}
        assert len(p.cycle_basis) == 1 and len(p.cycle_basis[0]) == 5

    def test_k4(self):
        p = structure_profile(complete_graph(4))
        assert p.cycle_counts == {3: 4, 4: 3}
        assert p.cycle_counts == brute_force_cycles(complete_graph(4))
        assert len(p.cycle_basis) == 3

    def test_tree_has_none(self):
        p = structure_profile(star_graph(4))
        assert sum(p.cycle_counts.values()) == 0 and p.cycle_basis == ()

    def test_against_subset_scan(self):
        for g in enumerate_connected(5):
            assert structure_profile(g).cycle_counts == brute_force_cycles(g)

    @pytest.mark.parametrize("n", range(3, 17))
    def test_complete_graph_closed_form(self, n):
        # a k-cycle of K_n is a k-subset in one of its (k - 1)!/2 cyclic orders,
        # and deleting one vertex leaves K_(n-1), connected, so no vertex cuts
        want = {k: math.comb(n, k) * math.factorial(k - 1) // 2 for k in range(3, n + 1)}
        profile = structure_profile(complete_graph(n))
        assert profile.cycle_counts == want and profile.cut_vertices == ()

    @pytest.mark.parametrize("a, b", [(3, 3), (4, 5), (6, 6), (7, 8), (8, 8)])
    def test_complete_bipartite_closed_form(self, a, b):
        # a 2k-cycle alternates k vertices of each side: k! k! orders of the
        # two k-subsets, over 2k starting points and 2 directions
        want = dict.fromkeys(range(3, a + b + 1), 0)
        for k in range(2, min(a, b) + 1):
            orders = math.factorial(k) * math.factorial(k - 1) // 2
            want[2 * k] = math.comb(a, k) * math.comb(b, k) * orders
        assert structure_profile(complete_bipartite(a, b)).cycle_counts == want

    def test_basis_dimension(self):
        for g in enumerate_connected(6):
            assert len(structure_profile(g).cycle_basis) == g.edge_count - g.n + 1

    def test_basis_follows_queue_order(self):
        # layer 2 is queued as [4, 3], so vertex 5 hangs from 4, the first
        # queued neighbor, not from 3, the smallest
        g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 4), (2, 3), (4, 5), (3, 5)])
        assert structure_profile(g).cycle_basis == (((2, 3), (0, 2), (0, 1), (1, 4), (4, 5), (3, 5)),)

    def test_tree_matches_deque_bfs(self):
        rng = random.Random(3)
        for g in enumerate_connected(6):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = relabel(g, perm)
            assert structure._bfs_tree(h) == deque_bfs_tree(h)

    def test_basis_cycles_close(self):
        # every basis element is a closed walk: each vertex appears twice
        for g in enumerate_connected(5):
            for cyc in structure_profile(g).cycle_basis:
                degree = {}
                for u, v in cyc:
                    degree[u] = degree.get(u, 0) + 1
                    degree[v] = degree.get(v, 0) + 1
                assert all(d == 2 for d in degree.values())


class TestMinOddCycles:
    def test_examples(self):
        assert structure_profile(cycle_graph(4)).min_odd_cycle_count == 0
        assert structure_profile(complete_graph(4)).min_odd_cycle_count == 4
        assert structure_profile(cycle_graph(5)).min_odd_cycle_count == 1

    def test_zero_iff_bipartite(self):
        # the count comes from the cycle census, the flag from BFS layers
        for g in enumerate_connected(6):
            p = structure_profile(g)
            assert (p.min_odd_cycle_count == 0) == p.bipartite == nx.is_bipartite(to_networkx(g))


class TestProfile:
    def test_degree_sum(self):
        for g in enumerate_connected(5):
            p = structure_profile(g)
            assert sum(p.degree_sequence) == 2 * p.edges
            assert p.degree_sequence == tuple(sorted(p.degree_sequence, reverse=True))
            assert p.cut_vertex_count == len(p.cut_vertices) <= g.n - 2
            assert 1 <= p.diameter <= g.n - 1
            assert p.eulerian == (all(d % 2 == 0 for d in p.degree_sequence))
            assert (p.min_odd_cycle_count == 0) == p.bipartite
            if p.distance_regular_strict:
                assert p.distance_regular
            if p.distance_regular:
                assert len(set(p.degree_sequence)) == 1

    def test_relabeling_invariance(self):
        rng = random.Random(5)
        for g in random.Random(1).sample(enumerate_connected(6), 12):
            base = structure_profile(g)
            perm = list(range(g.n))
            rng.shuffle(perm)
            other = structure_profile(relabel(g, perm))
            assert (base.edges, base.diameter, base.clique_number, base.bipartite,
                    base.eulerian, base.distance_regular, base.distance_regular_strict,
                    base.cut_vertex_count, base.degree_sequence, base.cycle_counts,
                    base.min_odd_cycle_count) == \
                   (other.edges, other.diameter, other.clique_number, other.bipartite,
                    other.eulerian, other.distance_regular, other.distance_regular_strict,
                    other.cut_vertex_count, other.degree_sequence, other.cycle_counts,
                    other.min_odd_cycle_count)
