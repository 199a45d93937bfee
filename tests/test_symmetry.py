import itertools
import math
import random
import tracemalloc

import networkx as nx
import pytest

from qgraphlab.graphs import (Graph, complete_bipartite, complete_graph, cycle_graph,
                              enumerate_connected, path_graph, relabel, star_graph)
from qgraphlab.symmetry import automorphism_group


def brute_force_automorphisms(g):
    """Filter all n! permutations on edge-set preservation."""
    edges = set(g.edges())
    out = []
    for perm in itertools.permutations(range(g.n)):
        mapped = {tuple(sorted((perm[u], perm[v]))) for u, v in edges}
        if mapped == edges:
            out.append(perm)
    return out


def closure(generators, n):
    identity = tuple(range(n))
    group = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for p in frontier:
            for gen in generators:
                q = tuple(gen[x] for x in p)
                if q not in group:
                    group.add(q)
                    new.append(q)
        frontier = new
    return group


def closure_size(generators, n):
    return len(closure(generators, n))


def greedy_generators(perms, n):
    """Greedy-lexicographic generators, closing the group from the identity after each."""
    generators, reached = [], {tuple(range(n))}
    for p in perms:
        if p not in reached:
            generators.append(p)
            reached = closure(generators, n)
    return tuple(generators)


class TestAutomorphisms:
    def test_c4(self):
        summary = automorphism_group(cycle_graph(4))
        assert summary.group_size == 8
        assert summary.orbit_count == 1

    def test_k4(self):
        summary = automorphism_group(complete_graph(4))
        assert summary.group_size == 24
        assert summary.orbit_count == 1

    def test_star(self):
        summary = automorphism_group(star_graph(4))
        assert summary.group_size == 6
        assert summary.orbits == ((0,), (1, 2, 3))
        assert summary.orbit_count == 2

    def test_k8_generators_are_adjacent_transpositions(self):
        summary = automorphism_group(complete_graph(8))
        assert summary.group_size == 40320
        assert summary.orbits == (tuple(range(8)),)
        swaps = []
        for i in range(6, -1, -1):
            image = list(range(8))
            image[i], image[i + 1] = i + 1, i
            swaps.append(tuple(image))
        assert summary.generators == tuple(swaps)

    def test_k8_holds_no_list_of_the_group(self):
        """K8 has 40,320 automorphisms; a summary that listed them would
        peak at about 10 MB."""
        g = complete_graph(8)
        tracemalloc.start()
        try:
            automorphism_group(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_nine_to_sixteen_vertices_match_networkx(self):
        rook = [(4 * a + b, 4 * c + d) for a, b, c, d in itertools.product(range(4), repeat=4)
                if (a == c) != (b == d)]
        steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
        shrikhande = [(4 * a + b, 4 * c + d) for a, b, c, d in itertools.product(range(4), repeat=4)
                      if ((c - a) % 4, (d - b) % 4) in steps]
        sample = [path_graph(9), cycle_graph(9), Graph.from_edges(16, rook),
                  Graph.from_edges(16, shrikhande)]
        rng = random.Random(31)
        for n in range(9, 17):
            for _ in range(3):  # a random spanning tree plus n // 2 random edges
                edges = {(rng.randrange(v), v) for v in range(1, n)}
                edges |= {tuple(rng.sample(range(n), 2)) for _ in range(n // 2)}
                sample.append(relabel(Graph.from_edges(n, edges), rng.sample(range(n), n)))
        for g in sample:
            G = nx.Graph(g.edges())
            G.add_nodes_from(range(g.n))
            perms = [tuple(m[v] for v in range(g.n))
                     for m in nx.algorithms.isomorphism.GraphMatcher(G, G).isomorphisms_iter()]
            summary = automorphism_group(g)
            assert summary.group_size == len(perms)
            assert closure(summary.generators, g.n) == set(perms)
            orbits = {tuple(sorted({p[v] for p in perms})) for v in range(g.n)}
            assert summary.orbits == tuple(sorted(orbits))
        assert [automorphism_group(g).group_size for g in sample[:4]] == [2, 18, 1152, 192]

    @pytest.mark.parametrize("g, size, orbits", [
        (complete_graph(16), math.factorial(16), (tuple(range(16)),)),
        (star_graph(16), math.factorial(15), ((0,), tuple(range(1, 16)))),
        (Graph(16, (0,) * 16), math.factorial(16), (tuple(range(16)),)),
        (complete_bipartite(8, 8), 2 * math.factorial(8) ** 2, (tuple(range(16)),)),
    ], ids=["K16", "star16", "empty16", "K8,8"])
    def test_sixteen_vertex_closed_forms(self, g, size, orbits):
        summary = automorphism_group(g)
        assert (summary.group_size, summary.orbits) == (size, orbits)


class TestGroupStructure:
    def test_group_size_divides_factorial(self):
        for g in enumerate_connected(5):
            assert math.factorial(5) % automorphism_group(g).group_size == 0

    def test_generator_closure(self):
        for n in (4, 5, 6):
            for g in enumerate_connected(n):
                summary = automorphism_group(g)
                assert closure_size(summary.generators, n) == summary.group_size

    def test_generator_closure_sampled_large(self):
        rng = random.Random(23)
        sample = rng.sample(enumerate_connected(7), 40) + rng.sample(enumerate_connected(8), 40)
        for g in sample:
            summary = automorphism_group(g)
            assert closure_size(summary.generators, g.n) == summary.group_size

    def test_generators_and_orbits_match_reference(self):
        rng = random.Random(29)
        sample = [g for n in range(3, 7) for g in enumerate_connected(n)]
        sample += [relabel(g, rng.sample(range(7), 7))
                   for g in rng.sample(enumerate_connected(7), 30)]
        for g in sample:
            perms = sorted(brute_force_automorphisms(g))
            summary = automorphism_group(g)
            assert summary.group_size == len(perms)
            assert summary.generators == greedy_generators(perms, g.n)
            orbits = {tuple(sorted({p[v] for p in perms})) for v in range(g.n)}
            assert summary.orbits == tuple(sorted(orbits))

    def test_trivial_group_has_no_generators(self):
        asym = next(g for g in enumerate_connected(6)
                    if len(brute_force_automorphisms(g)) == 1)
        summary = automorphism_group(asym)
        assert summary.group_size == 1
        assert summary.generators == ()
        assert summary.orbit_count == 6

    def test_vs_networkx_group_size(self):
        for g in random.Random(3).sample(enumerate_connected(6), 20):
            G = nx.Graph()
            G.add_nodes_from(range(g.n))
            G.add_edges_from(g.edges())
            matcher = nx.algorithms.isomorphism.GraphMatcher(G, G)
            assert sum(1 for _ in matcher.isomorphisms_iter()) == automorphism_group(g).group_size


class TestOrbits:
    def test_vertex_transitive(self):
        assert automorphism_group(cycle_graph(7)).orbit_count == 1

    def test_path_has_two(self):
        assert automorphism_group(path_graph(4)).orbit_count == 2

    def test_orbits_partition_and_degree(self):
        for g in enumerate_connected(5):
            summary = automorphism_group(g)
            all_vertices = sorted(v for orbit in summary.orbits for v in orbit)
            assert all_vertices == list(range(5))
            for orbit in summary.orbits:
                assert len({g.degrees()[v] for v in orbit}) == 1

    def test_invariant_under_relabeling(self):
        rng = random.Random(11)
        for g in rng.sample(enumerate_connected(6), 10):
            base = automorphism_group(g)
            perm = list(range(6))
            rng.shuffle(perm)
            other = automorphism_group(relabel(g, perm))
            assert other.group_size == base.group_size
            assert other.orbit_count == base.orbit_count
            assert sorted(len(o) for o in other.orbits) == sorted(len(o) for o in base.orbits)
