import gc
import hashlib
import itertools

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgraphlab.graphs import (Graph, Graph6Error, UnsupportedSizeError, _all_classes,
                              _canonical_columns, canonical_form, complete_bipartite,
                              complete_graph, connected_graph_count, cycle_graph, decode_graph6,
                              encode_graph6, enumerate_connected, is_connected, path_graph,
                              read_graph6_file, relabel, star_graph, write_graph6_file)
from qgraphlab.structure import structure_profile
from qgraphlab.symmetry import automorphism_group


def bits_graph(n, bits):
    """Graph from explicit upper-triangle bits in column-major order."""
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                edges.append((u, v))
            idx += 1
    return Graph.from_edges(n, edges)


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=2, max_value=max_n))
    m = n * (n - 1) // 2
    word = draw(st.integers(min_value=0, max_value=(1 << m) - 1))
    return bits_graph(n, [(word >> i) & 1 for i in range(m)])


class TestGraphType:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(3, [(0, 0)])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="asymmetric"):
            Graph(2, (2, 0))

    def test_rejects_high_bits(self):
        with pytest.raises(ValueError, match="above position"):
            Graph(2, (4, 1))

    def test_rejects_bad_size(self):
        with pytest.raises(UnsupportedSizeError):
            Graph(17, (0,) * 17)

    def test_edges_and_degrees(self):
        g = path_graph(4)
        assert g.edges() == [(0, 1), (1, 2), (2, 3)]
        assert g.degrees() == (1, 2, 2, 1)
        assert g.edge_count == 3


class TestGraph6:
    def test_k2_encodes(self):
        # hand-packed: one bit x(0,1)=1 -> group 100000 -> chr(63+32)
        assert encode_graph6(path_graph(2)) == "A_"
        assert decode_graph6("A_").edges() == [(0, 1)]

    def test_k4_encodes(self):
        # all six upper-triangle bits set -> 111111 -> chr(63+63)
        assert encode_graph6(complete_graph(4)) == "C~"
        assert decode_graph6("C~").edge_count == 6

    def test_edgeless_records(self):
        assert encode_graph6(Graph(2, (0, 0))) == "A?"
        g = decode_graph6("B?")  # size byte 'B' = 66 -> three vertices
        assert (g.n, g.edge_count) == (3, 0)

    def test_byte_out_of_range(self):
        with pytest.raises(Graph6Error, match="printable"):
            decode_graph6("C" + chr(20))

    def test_truncated_record(self):
        with pytest.raises(Graph6Error, match="truncated"):
            decode_graph6("G~~")  # n=8 needs five data bytes

    def test_oversized_record(self):
        with pytest.raises(Graph6Error):
            decode_graph6("A__")

    def test_too_many_vertices(self):
        # size byte for n=17 exceeds the single-byte cap
        with pytest.raises(UnsupportedSizeError):
            decode_graph6(chr(63 + 17) + "?" * 23)

    @settings(max_examples=80, deadline=None)
    @given(graphs())
    def test_roundtrip(self, g):
        assert decode_graph6(encode_graph6(g)).adj == g.adj

    def test_roundtrip_whole_enumeration(self):
        for n in range(3, 9):
            for g in enumerate_connected(n):
                back = decode_graph6(encode_graph6(g))
                assert back.adj == g.adj

    def test_file_ids_number_records_past_blank_lines(self, tmp_path):
        gs = enumerate_connected(4)
        path = tmp_path / "g.g6"
        write_graph6_file(gs, path)
        lines = path.read_text().splitlines()
        path.write_text("\n" + "\n\n".join(lines[:3]) + "\n  \n" + "\n".join(lines[3:]) + "\n\n")
        back = read_graph6_file(path)
        assert [g.id for g in back] == [1, 2, 3, 4, 5, 6]
        assert [g.adj for g in back] == [g.adj for g in gs]

    @pytest.mark.parametrize("header", [">>graph6<<", ">>graph6<<\n"],
                             ids=["on-first-record", "own-line"])
    def test_file_header_reads_as_without_it(self, tmp_path, header):
        # nauty's -h writes the header with no end of line before the first record
        path = tmp_path / "g.g6"
        write_graph6_file(enumerate_connected(4), path)
        plain = read_graph6_file(path)
        path.write_text(header + path.read_text())
        back = read_graph6_file(path)
        assert [(g.id, g.n, g.adj) for g in back] == [(g.id, g.n, g.adj) for g in plain]

    def test_file_header_only_at_start(self, tmp_path):
        path = tmp_path / "g.g6"
        path.write_text("C~\n>>graph6<<C~\n")
        with pytest.raises(Graph6Error, match=":2: byte 62 outside"):
            read_graph6_file(path)


class TestRelabel:
    def test_identity(self):
        g = cycle_graph(5)
        assert relabel(g, range(5)).adj == g.adj

    def test_complete_graph_fixed(self):
        g = complete_graph(5)
        assert relabel(g, (4, 3, 2, 1, 0)).adj == g.adj

    def test_swap_on_path(self):
        g = path_graph(3)
        assert relabel(g, (1, 0, 2)).edges() == [(0, 1), (0, 2)]

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError, match="permutation"):
            relabel(path_graph(3), (0, 0, 2))


class TestConnectivity:
    def test_cycle_connected(self):
        assert is_connected(cycle_graph(4))

    def test_two_disjoint_edges(self):
        assert not is_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))

    def test_single_vertex(self):
        assert is_connected(Graph(1, (0,)))


class TestCanonicalForm:
    def test_relabeling_invariance_c5(self):
        g = cycle_graph(5)
        want = canonical_form(g)
        for perm in itertools.permutations(range(5)):
            assert canonical_form(relabel(g, perm)) == want

    def test_distinguishes_p3_k3(self):
        assert canonical_form(path_graph(3)) != canonical_form(complete_graph(3))

    def test_complete_graph_all_ones(self):
        assert canonical_form(complete_graph(4)) == "111111"

    def test_canonical_graph_matches_form(self):
        # the enumerated representative of a class is its canonically
        # labeled graph: its upper triangle is the canonical form
        g = star_graph(5)
        [cg] = [h for h in enumerate_connected(5) if canonical_form(h) == canonical_form(g)]
        bits = "".join(str(cg.adj[v] >> u & 1) for v in range(1, 5) for u in range(v))
        assert bits == canonical_form(g)

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=6), st.randoms(use_true_random=False))
    def test_random_relabel_invariance(self, g, rnd):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        assert canonical_form(relabel(g, perm)) == canonical_form(g)

    def test_hundred_random_relabelings(self):
        import random

        rng = random.Random(17)
        pool = enumerate_connected(6) + enumerate_connected(7)
        for g in rng.sample(pool, 10):
            want = canonical_form(g)
            for _ in range(100):
                perm = list(range(g.n))
                rng.shuffle(perm)
                assert canonical_form(relabel(g, perm)) == want

    def test_no_duplicate_forms_in_enumeration(self):
        for n in (5, 6, 7):
            forms = [canonical_form(g) for g in enumerate_connected(n)]
            assert len(set(forms)) == len(forms)

    def test_exhaustive_classes_n4(self):
        # canonical forms partition all labeled 4- and 5-vertex graphs into
        # the known 11 and 34 isomorphism classes, and the bounded search
        # accepts a labeling's own columns iff they are the canonical form
        for n, classes in ((4, 11), (5, 34)):
            m = n * (n - 1) // 2
            forms = set()
            for word in range(1 << m):
                g = bits_graph(n, [(word >> i) & 1 for i in range(m)])
                form = canonical_form(g)
                forms.add(form)
                bits = "".join(str(g.adj[v] >> u & 1) for v in range(1, n) for u in range(v))
                cols = [0] + [int(bits[j * (j - 1) // 2:j * (j + 1) // 2], 2) for j in range(1, n)]
                assert (_canonical_columns(n, g.adj, cols) is not None) == (bits == form)
            assert len(forms) == classes


class TestEnumeration:
    def test_small_counts(self):
        assert connected_graph_count(3) == 2
        assert connected_graph_count(4) == 6
        assert connected_graph_count(5) == 21
        assert connected_graph_count(6) == 112
        assert connected_graph_count(7) == 853

    def test_n3_classes(self):
        forms = {canonical_form(g) for g in enumerate_connected(3)}
        assert forms == {canonical_form(path_graph(3)), canonical_form(complete_graph(3))}

    def test_ids_are_positional(self):
        gs = enumerate_connected(4)
        assert [g.id for g in gs] == [1, 2, 3, 4, 5, 6]

    def test_sorted_by_canonical_form(self):
        forms = [canonical_form(g) for g in enumerate_connected(5)]
        assert forms == sorted(forms)
        assert len(set(forms)) == len(forms)

    def test_all_connected(self):
        assert all(is_connected(g) for g in enumerate_connected(5))

    def test_n8_enumeration_pinned(self):
        # sha256 of `graphs gen --n 8`; the golden count check has already
        # filled the enumeration cache in a full run
        text = "".join(encode_graph6(g) + "\n" for g in enumerate_connected(8))
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == (
            "370179f0d16fe7beee1c5b3baca8898cf6f0f9154058486f03031eec0611a145")

    def test_out_of_range(self):
        for n in (2, 9):
            with pytest.raises(UnsupportedSizeError):
                enumerate_connected(n)


class TestEnumerationAgainstAtlas:
    """networkx's graph atlas lists every graph on 0..7 vertices, one per class."""

    @staticmethod
    def atlas_forms(connected_only):
        forms = {}
        for G in nx.graph_atlas_g():
            n = G.number_of_nodes()
            if n and (nx.is_connected(G) or not connected_only):
                forms.setdefault(n, set()).add(canonical_form(Graph.from_edges(n, G.edges())))
        return forms

    def test_all_classes(self):
        atlas = self.atlas_forms(connected_only=False)
        for n in range(1, 8):
            assert set(_all_classes(n)) == atlas[n]

    def test_connected_classes(self):
        atlas = self.atlas_forms(connected_only=True)
        for n in range(3, 8):
            assert [canonical_form(g) for g in enumerate_connected(n)] == sorted(atlas[n])


class TestConstructions:
    def test_complete_bipartite(self):
        g = complete_bipartite(2, 3)
        assert g.edge_count == 6
        assert sorted(g.degrees()) == [2, 2, 2, 3, 3]

    def test_star(self):
        g = star_graph(4)
        assert g.degrees() == (3, 1, 1, 1)


class TestSearchMemory:
    def test_searches_leave_no_cyclic_garbage(self):
        """The recursive searches (canonical form, enumeration, structure,
        automorphism groups) free everything they build by reference
        counting, so a command's peak memory does not depend on when the
        cyclic GC runs."""
        graphs = enumerate_connected(6)
        gc.collect()
        gc.disable()
        try:
            _all_classes.__wrapped__(6)
            for g in graphs:
                canonical_form(g)
                structure_profile(g)
                automorphism_group(g)
            assert gc.collect() == 0
        finally:
            gc.enable()
