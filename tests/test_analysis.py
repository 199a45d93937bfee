import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgraphlab.analysis import (CorrelationCell, MissingDataError, correlation_table,
                                group_averages, histogram, pearson, sign_summary,
                                PROPERTY_NAMES, METRIC_NAMES)
from qgraphlab.datastore import build_dataset_row
from qgraphlab.graphs import enumerate_connected
from qgraphlab.pipeline import dataset_rows, qaoa_result_rows
from qgraphlab.qaoa import uniform_outcome
from qgraphlab.structure import structure_profile
from qgraphlab.symmetry import automorphism_group


@pytest.fixture(scope="module")
def n4_rows():
    return [build_dataset_row(g, structure_profile(g), automorphism_group(g))
            for g in enumerate_connected(4)]


@pytest.fixture(scope="module")
def n4_uniform():
    return [uniform_outcome(g) for g in enumerate_connected(4)]


class TestPearson:
    def test_perfect_correlation(self):
        assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0, abs=1e-12)

    def test_reference_value(self):
        # by the definitional formula: r = 1 / sqrt(2/3 * 14/9) = sqrt(27/28)
        want = math.sqrt(27 / 28)
        assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(want, abs=1e-12)
        assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(0.9820, abs=1e-4)

    def test_constant_is_undefined(self):
        assert pearson([2, 2, 2], [1, 2, 3]) is None

    def test_constant_with_inexact_mean_is_undefined(self):
        # 0.1+0.1+0.1 has an inexact float mean; still zero variance
        assert pearson([0.1, 0.1, 0.1], [1, 2, 3]) is None
        assert pearson([1, 2, 3], [0.1, 0.1, 0.1]) is None

    def test_shape_error(self):
        with pytest.raises(ValueError, match="mismatch"):
            pearson([1, 2], [1, 2, 3])

    # six-decimal granularity keeps the vectors well conditioned; sub-epsilon
    # spreads would be absorbed by the shift and void the affine identity
    _values = st.floats(-50, 50).map(lambda v: round(v, 6))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_values, min_size=2, max_size=25), st.data())
    def test_bounds_symmetry_affine(self, x, data):
        y = data.draw(st.lists(self._values, min_size=len(x), max_size=len(x)))
        r = pearson(x, y)
        if r is None:
            return
        assert -1 - 1e-12 <= r <= 1 + 1e-12
        assert pearson(y, x) == pytest.approx(r, abs=1e-12)
        a = data.draw(st.sampled_from([-2.5, -1.0, 0.5, 3.0]))
        b = data.draw(st.floats(-10, 10).map(lambda v: round(v, 6)))
        scaled = [a * v + b for v in x]
        assert pearson(scaled, y) == pytest.approx(math.copysign(1, a) * r, abs=1e-9)


class TestCorrelationTable:
    def test_depth0_edges_is_one(self, n4_rows, n4_uniform):
        cells = {(c.property, c.metric): c for c in correlation_table(n4_rows, n4_uniform, 4, 0)}
        assert cells[("edges", "exp_c")].r == pytest.approx(1.0, abs=1e-9)
        assert cells[("edges", "exp_c")].sample_size == 6

    def test_depth0_diameter(self, n4_rows, n4_uniform):
        cells = {(c.property, c.metric): c for c in correlation_table(n4_rows, n4_uniform, 4, 0)}
        assert cells[("diameter", "exp_c")].r == pytest.approx(-0.812, abs=2e-3)
        assert cells[("clique_number", "exp_c")].r == pytest.approx(0.908, abs=2e-3)

    def test_depth0_bipartite_sign(self, n4_rows, n4_uniform):
        # bipartite graphs are the sparse ones, so the correlation with the
        # uniform-state expectation is negative
        cells = {(c.property, c.metric): c for c in correlation_table(n4_rows, n4_uniform, 4, 0)}
        assert cells[("bipartite", "exp_c")].r == pytest.approx(-0.781, abs=2e-3)

    def test_delta_cells_empty_at_depth0(self, n4_rows, n4_uniform):
        cells = correlation_table(n4_rows, n4_uniform, 4, 0)
        for cell in cells:
            if cell.metric == "delta_ratio":
                assert cell.r is None and cell.sample_size == 0

    def test_table_shape(self, n4_rows, n4_uniform):
        cells = correlation_table(n4_rows, n4_uniform, 4, 0)
        assert len(cells) == len(PROPERTY_NAMES) * len(METRIC_NAMES)

    def test_deterministic(self, n4_rows, n4_uniform):
        first = correlation_table(n4_rows, n4_uniform, 4, 0)
        second = correlation_table(n4_rows, n4_uniform, 4, 0)
        assert first == second

    def test_missing_graph_raises(self, n4_rows, n4_uniform):
        with pytest.raises(MissingDataError, match=r"\[6\]"):
            correlation_table(n4_rows, n4_uniform[:-1], 4, 0)

    def test_outcomes_of_two_vertex_counts_raise(self):
        # graph ids restart at 1 for every n, so the n = 5 results would
        # silently replace those of n = 6 graphs 1..21
        rows = dataset_rows(enumerate_connected(5), 1) + dataset_rows(enumerate_connected(6), 1)
        res5 = qaoa_result_rows(enumerate_connected(5), 0, 1, 0, 1)
        res6 = qaoa_result_rows(enumerate_connected(6), 0, 1, 0, 1)
        cells = {(c.property, c.metric): c.r for c in correlation_table(rows, res6, 6, 0)}
        assert cells[("edges", "exp_c")] == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError, match=r"repeated .*\[1, 2, 3, .*, 21\]"):
            correlation_table(rows, res6 + res5, 6, 0)

    def test_rows_with_repeated_ids_raise(self, n4_rows, n4_uniform):
        # merged props files restart their ids at 1, and a dict keyed by id
        # would silently keep the last row of each
        extra = dataclasses.replace(n4_rows[-1], graph_id=1)
        with pytest.raises(ValueError, match=r"repeated among the n=4 rows .*: \[1\]$"):
            correlation_table(n4_rows + [extra], n4_uniform, 4, 0)


class TestGroupAverages:
    def test_depth0_bipartite_means(self, n4_rows, n4_uniform):
        member, non = group_averages(n4_rows, n4_uniform, 4, 0, "bipartite")
        assert member.mean_exp_c == pytest.approx(5 / 3, abs=5e-4)
        assert non.mean_exp_c == pytest.approx(2.5, abs=5e-4)
        # three bipartite classes and three others: the two subgroups cover all six graphs
        total = sum(o.exp_c for o in n4_uniform)
        assert 3 * (member.mean_exp_c + non.mean_exp_c) == pytest.approx(total)
        assert member.mean_delta is None and non.mean_delta is None

    def test_depth0_eulerian_means(self, n4_rows, n4_uniform):
        member, non = group_averages(n4_rows, n4_uniform, 4, 0, "eulerian")
        assert member.mean_exp_c == pytest.approx(2.0, abs=5e-4)
        assert non.mean_exp_c == pytest.approx(2.1, abs=5e-4)

    def test_uniform_probability_c4(self):
        from qgraphlab.graphs import cycle_graph

        assert uniform_outcome(cycle_graph(4)).prob_cmax == 0.125

    def test_bad_flag(self, n4_rows, n4_uniform):
        with pytest.raises(ValueError, match="flag"):
            group_averages(n4_rows, n4_uniform, 4, 0, "diameter")
        # a dataset column, but not one of the subgroup flags the CLI offers
        with pytest.raises(ValueError, match="unsupported subgroup flag 'distance_regular'"):
            group_averages(n4_rows, n4_uniform, 4, 0, "distance_regular")


class TestHistogram:
    def test_fractions_sum_to_one(self, n4_rows, n4_uniform):
        spec = histogram(n4_rows, n4_uniform, 4, 0, "bipartite", bins=10)
        for fractions in spec.fractions.values():
            assert sum(fractions) == pytest.approx(1.0, abs=1e-9)

    def test_identical_values_single_bin(self, n4_rows, n4_uniform):
        spec = histogram(n4_rows, n4_uniform, 4, 0, "bipartite", metric="ratio", bins=4)
        member = spec.fractions["member"]
        # every bipartite graph has uniform ratio exactly 1/2, the left edge
        # of the third bin
        assert member[2] == 1.0 and sum(member) == 1.0

    def test_value_one_lands_in_last_bin(self, n4_rows):
        from dataclasses import replace

        outcomes = [uniform_outcome(g) for g in enumerate_connected(4)]
        patched = [replace(o, prob_cmax=1.0) for o in outcomes]
        spec = histogram(n4_rows, patched, 4, 0, "bipartite", bins=20)
        assert spec.fractions["member"][-1] == 1.0

    def test_bins_floor(self, n4_rows, n4_uniform):
        with pytest.raises(ValueError, match="bins"):
            histogram(n4_rows, n4_uniform, 4, 0, "bipartite", bins=0)

    def test_bad_flag(self, n4_rows, n4_uniform):
        with pytest.raises(ValueError, match="flag"):
            histogram(n4_rows, n4_uniform, 4, 0, "edges", metric="ratio", bins=4)
        with pytest.raises(ValueError, match="flag"):
            histogram(n4_rows, n4_uniform, 4, 0, "no_such_flag")

    def test_metric_outside_unit_interval_rejected(self, n4_rows, n4_uniform):
        with pytest.raises(ValueError, match="metric"):
            histogram(n4_rows, n4_uniform, 4, 0, "bipartite", metric="exp_c")

    def test_subgroup_without_values_is_undefined(self, n4_rows, n4_uniform):
        # delta_ratio is undefined at depth 0, so neither subgroup has a value
        spec = histogram(n4_rows, n4_uniform, 4, 0, "bipartite", metric="delta_ratio", bins=5)
        assert spec.fractions == {"member": (None,) * 5, "non-member": (None,) * 5}


class TestSignSummary:
    def _cells(self, values):
        cells = []
        for p, r in enumerate(values, start=1):
            cells.append(CorrelationCell(8, p, "edges", "exp_c", r, 100))
        return cells

    def test_positive(self):
        assert sign_summary(self._cells([0.9, 0.8, 0.7]))[("edges", "exp_c")] == "+"

    def test_negative(self):
        assert sign_summary(self._cells([-0.3, -0.2, -0.4]))[("edges", "exp_c")] == "-"

    def test_blank_inside_band(self):
        assert sign_summary(self._cells([0.05, 0.06, 0.04]))[("edges", "exp_c")] == ""

    def test_na_cells_excluded(self):
        cells = self._cells([0.9, 0.8, 0.7])
        cells.append(CorrelationCell(8, 2, "edges", "exp_c", None, 0))
        assert sign_summary(cells)[("edges", "exp_c")] == "+"

    def test_empty_group_blank(self):
        assert sign_summary([])[("group_size", "ratio")] == ""

    def test_threshold_boundary(self):
        assert sign_summary(self._cells([0.1, 0.1, 0.1]))[("edges", "exp_c")] == "+"
