import os
import pickle
import re
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgraphlab.datastore import (DatasetRow, QaoaResultRow, RunConfig, SchemaError,
                                 build_dataset_row, load_config, read_dataset,
                                 read_qaoa_results, write_dataset_file, write_qaoa_results,
                                 fmt_real)
from qgraphlab.graphs import EDGE, enumerate_connected
from qgraphlab.qaoa import maxcut_bruteforce, run_depth_series
from qgraphlab.structure import StructureProfile, structure_profile
from qgraphlab.symmetry import AutomorphismSummary, automorphism_group


def rows_for(n):
    return [build_dataset_row(g, structure_profile(g), automorphism_group(g))
            for g in enumerate_connected(n)]


class TestDatasetRoundTrip:
    def test_n4_file(self, tmp_path):
        rows = rows_for(4)
        target = os.path.join(tmp_path, "graphs_n4.csv")
        write_dataset_file(rows, target)
        back = read_dataset(target)
        assert back == rows
        assert len(back) == 6

    def test_n5_roundtrip(self, tmp_path):
        rows = rows_for(5)
        target = os.path.join(tmp_path, "out.csv")
        write_dataset_file(rows, target)
        assert read_dataset(target) == rows

    def test_row_fields_are_the_source_fields_by_name(self):
        renames = {"generators": "automorphism_generators", "cycle_counts": "cycle_count_by_len"}
        sourced = [renames.get(f.name, f.name)
                   for source in (StructureProfile, AutomorphismSummary) for f in fields(source)]
        assert sorted(f.name for f in fields(DatasetRow)) == sorted(["graph_id", "n", "graph6",
                                                                     *sourced])
        g = enumerate_connected(5)[-3]
        profile, summary = structure_profile(g), automorphism_group(g)
        row = build_dataset_row(g, profile, summary)
        for source in (profile, summary):
            for f in fields(source):
                if f.name not in renames:
                    assert getattr(row, f.name) == getattr(source, f.name), f.name
        assert row.automorphism_generators == summary.generators
        assert row.cycle_counts == {k: profile.cycle_counts.get(k, 0) for k in range(3, 6)}

    def test_cycle_counts_view(self):
        row = rows_for(4)[-1]
        assert row.cycle_counts == {3: row.cycle_count_by_len[0], 4: row.cycle_count_by_len[1]}

    def test_mixed_sizes_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="single vertex count"):
            write_dataset_file(rows_for(4) + rows_for(5), os.path.join(tmp_path, "bad.csv"))

    def test_schema_error_names_column(self, tmp_path):
        target = os.path.join(tmp_path, "graphs_n4.csv")
        write_dataset_file(rows_for(4), target)
        text = open(target).read().replace("clique_number", "cliquish", 1)
        open(target, "w").write(text)
        with pytest.raises(SchemaError, match="cliquish"):
            read_dataset(target)

    def test_cycle_count_columns_must_match_n(self, tmp_path):
        target = os.path.join(tmp_path, "graphs_n4.csv")
        write_dataset_file(rows_for(4), target)
        lines = open(target).read().splitlines()
        cells = lines[1].split(",")
        cells[1] = "5"
        open(target, "w").write("\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n")
        with pytest.raises(ValueError, match="cycle counts for n = 5"):
            read_dataset(target)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_randomized_rows_roundtrip(self, tmp_path_factory, data):
        # arbitrary well-typed rows survive the CSV exactly
        n = data.draw(st.integers(3, 8))
        ints = st.integers(0, 50)
        verts = st.lists(st.integers(0, n - 1), max_size=n, unique=True).map(
            lambda vs: tuple(sorted(vs)))
        perm = st.permutations(range(n)).map(tuple)
        edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        cycle = st.lists(edge, min_size=1, max_size=6).map(tuple)
        rows = []
        for graph_id in range(1, data.draw(st.integers(1, 4)) + 1):
            rows.append(DatasetRow(
                graph_id=graph_id, n=n, graph6=data.draw(st.text("ABC?~_", min_size=1, max_size=5)),
                bipartite=data.draw(st.booleans()), edges=data.draw(ints),
                diameter=data.draw(ints), clique_number=data.draw(ints),
                distance_regular=data.draw(st.booleans()),
                distance_regular_strict=data.draw(st.booleans()),
                eulerian=data.draw(st.booleans()),
                cut_vertices=data.draw(verts), cut_vertex_count=data.draw(ints),
                cycle_basis=data.draw(st.lists(cycle, max_size=4).map(tuple)),
                degree_sequence=data.draw(st.lists(ints, min_size=n, max_size=n).map(tuple)),
                automorphism_generators=data.draw(st.lists(perm, max_size=3).map(tuple)),
                group_size=data.draw(st.integers(1, 40320)),
                orbits=data.draw(st.lists(verts.filter(bool), min_size=1, max_size=3).map(tuple)),
                orbit_count=data.draw(ints),
                cycle_count_by_len=data.draw(
                    st.lists(ints, min_size=n - 2, max_size=n - 2).map(tuple)),
                min_odd_cycle_count=data.draw(ints),
            ))
        target = tmp_path_factory.mktemp("ds") / "rows.csv"
        write_dataset_file(rows, str(target))
        assert read_dataset(str(target)) == rows


class TestSharedEdges:
    """Every edge tuple is graphs.EDGE's one tuple of its vertex pair."""

    @staticmethod
    def assert_shared(edges):
        for edge in edges:
            assert edge is EDGE[edge[0]][edge[1]], edge

    def test_every_layer_hands_out_shared_tuples(self, tmp_path):
        for n in range(3, 7):
            graphs = enumerate_connected(n)
            rows = rows_for(n)
            for g in graphs:
                self.assert_shared(g.edges())
                for cycle in structure_profile(g).cycle_basis:
                    self.assert_shared(cycle)
            target = str(tmp_path / f"graphs_n{n}.csv")
            write_dataset_file(rows, target)
            back = read_dataset(target)
            assert back == rows
            for row in back:
                for cycle in row.cycle_basis:
                    self.assert_shared(cycle)

    def test_table(self):
        for v in range(len(EDGE)):
            assert EDGE[v][v] is None
            for u in range(v):
                assert EDGE[u][v] == (u, v) and EDGE[v][u] is EDGE[u][v]


@pytest.fixture(scope="module")
def result_rows():
    rows = []
    for g in enumerate_connected(4)[:3]:
        mc = maxcut_bruteforce(g)
        for outcome in run_depth_series(g, 2, starts=3, seed=7):
            rows.append(QaoaResultRow.from_outcome(g, mc, outcome, starts=3, seed=7))
    return rows


class TestQaoaResults:
    def test_roundtrip(self, result_rows, tmp_path):
        target = os.path.join(tmp_path, "qaoa.csv")
        write_qaoa_results(result_rows, target)
        back = read_qaoa_results(target)
        assert len(back) == len(result_rows)
        for a, b in zip(sorted(result_rows, key=lambda r: (r.graph_id, r.p)), back):
            assert (a.graph_id, a.p, a.graph6, a.cmax, a.optimal_count) == \
                   (b.graph_id, b.p, b.graph6, b.cmax, b.optimal_count)
            assert b.exp_c == pytest.approx(a.exp_c, rel=1e-11)
            assert b.prob_cmax == pytest.approx(a.prob_cmax, rel=1e-11)
            for x, y in zip(a.gammas, b.gammas):
                assert y == pytest.approx(x, rel=1e-11)
            if a.delta_ratio is None:
                assert b.delta_ratio is None
            else:
                assert b.delta_ratio == pytest.approx(a.delta_ratio, rel=1e-9)

    def test_na_delta_is_empty_cell(self, result_rows, tmp_path):
        target = os.path.join(tmp_path, "qaoa.csv")
        write_qaoa_results(result_rows, target)
        header, first = open(target).read().splitlines()[:2]
        cols = dict(zip(header.split(","), first.split(",")))
        assert cols["p"] == "0"
        assert cols["delta_ratio"] == ""

    @pytest.mark.parametrize("column, text", [(4, ""), (3, "1"), (5, "")])
    def test_angle_cells_must_match_depth(self, result_rows, tmp_path, column, text):
        # the last row has p = 2: empty gamma_1 before a filled gamma_2, a p
        # that disagrees with the filled angle cells, and a missing gamma_2
        target = os.path.join(tmp_path, "qaoa.csv")
        write_qaoa_results(result_rows, target)
        lines = open(target).read().splitlines()
        cells = lines[-1].split(",")
        assert cells[3] == "2"
        cells[column] = text
        open(target, "w").write("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
        with pytest.raises(ValueError):
            read_qaoa_results(target)

    def test_outcome_conversion(self, result_rows):
        out = result_rows[-1].as_outcome()
        assert out.p == result_rows[-1].p
        assert out.exp_c == result_rows[-1].exp_c

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_randomized_rows_rewrite_identically(self, tmp_path_factory, data):
        # mixed depths pad the numbered angle columns; a second write of what
        # was read back must reproduce the file byte for byte
        reals = st.floats(allow_nan=False, allow_infinity=False)
        rows = []
        for graph_id in range(1, data.draw(st.integers(1, 5)) + 1):
            p = data.draw(st.integers(0, 3))
            angles = st.lists(reals, min_size=p, max_size=p).map(tuple)
            rows.append(QaoaResultRow(
                graph_id=graph_id, n=data.draw(st.integers(3, 8)),
                graph6=data.draw(st.text("ABC?~_", min_size=1, max_size=5)), p=p,
                gammas=data.draw(angles), betas=data.draw(angles),
                exp_c=data.draw(reals), prob_cmax=data.draw(reals), ratio=data.draw(reals),
                delta_ratio=data.draw(st.none() | reals), cmax=data.draw(st.integers(0, 28)),
                optimal_count=data.draw(st.integers(0, 256)), starts=data.draw(st.integers(1, 200)),
                seed=data.draw(st.integers(0, 2**31)),
            ))
        first = tmp_path_factory.mktemp("qr") / "first.csv"
        second = first.with_name("second.csv")
        write_qaoa_results(rows, str(first))
        back = read_qaoa_results(str(first))
        assert [(r.graph_id, r.p, r.delta_ratio is None) for r in back] == \
               [(r.graph_id, r.p, r.delta_ratio is None) for r in rows]
        write_qaoa_results(back, str(second))
        assert second.read_bytes() == first.read_bytes()

    def test_twelve_significant_digits(self):
        assert fmt_real(0.1234567890123456) == "0.123456789012"
        assert fmt_real(4.0) == "4"


class TestRowObjects:
    def test_rows_are_slotted_and_pickle_round_trip(self, result_rows):
        """Rows carry no per-instance dict, and they cross the process pool
        by pickle, so a round trip must give an equal row."""
        for row in (rows_for(4)[-1], result_rows[-1]):
            assert not hasattr(row, "__dict__")
            assert pickle.loads(pickle.dumps(row)) == row


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.starts == 200

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(starts=0)

    def test_load(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# pipeline settings\nstarts = 50\nseed=9\nworkers=2\n")
        cfg = load_config(str(path))
        assert (cfg.starts, cfg.seed, cfg.workers) == (50, 9, 2)

    def test_negative_workers_rejected(self, tmp_path):
        assert RunConfig(workers=0).workers == 0
        path = tmp_path / "run.cfg"
        path.write_text("workers=-5\n")
        with pytest.raises(ValueError, match="workers"):
            load_config(str(path))

    def test_removed_key_rejected(self, tmp_path):
        # n_min, n_max, p_max and out_dir were once accepted and never read;
        # delta_eps had one value in use and is the constant qaoa.DELTA_EPS
        path = tmp_path / "run.cfg"
        for line in ("n_min=4", "delta_eps=0.5"):
            path.write_text(f"{line}\n")
            key = line.partition("=")[0]
            with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
                load_config(str(path))

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("shots=100\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config(str(path))

    def test_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("starts=3\nseed=1\n\nstarts=5\n")
        with pytest.raises(ValueError, match=re.escape("run.cfg:4: config key 'starts' repeats line 1")):
            load_config(str(path))

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        for text, message in [
            ("starts 50\n", "run.cfg:1: expected key=value"),
            ("workers=1\nstarts=abc\n", "run.cfg:2: config key 'starts' expects int, got 'abc'"),
            ("seed=1.5\n", "run.cfg:1: config key 'seed' expects int, got '1.5'"),
        ]:
            path.write_text(text)
            with pytest.raises(ValueError, match=re.escape(message)):
                load_config(str(path))
