"""Acceptance gate: every criterion runs at its stated tolerance and
prints one PASS/FAIL line.

The same checks are reachable from the command line through
`qgraphlab verify golden|invariants`.  The two full-grid
reproductions are opt-in: --runslow covers the n <= 6 correlation grids,
--runhuge the n = 8 sign grid.
"""

import pytest

from qgraphlab import verify


def _report(results):
    if not isinstance(results, list):
        results = [results]
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    assert not failed, "; ".join(r.line() for r in failed)


class TestGoldenSuite:
    def test_1_enumeration_counts(self):
        _report(verify.check_counts())

    def test_2_uniform_state_means(self):
        _report(verify.check_uniform_means(workers=2))

    def test_3_uniform_state_correlations(self):
        results = [r for r in verify.check_uniform_correlations(workers=2) if "min-odd" not in r.name]
        _report(results)

    def test_3_uniform_state_correlations_min_odd(self):
        # The reference quantity behind this column is tied to the original
        # files' vertex labelings (a fundamental-cycle-basis count), which
        # are not recoverable; the odd-girth cycle count used here is the
        # closest labeling-independent reading but sits ~0.002-0.023 away.
        # Kept at the stated tolerance; see the expected-red checks in the
        # README ("Install and test") and the standing constraints in
        # ROADMAP.md.
        results = [r for r in verify.check_uniform_correlations(workers=2) if "min-odd" in r.name]
        _report(results)

    def test_4_distance_regular_probabilities(self):
        _report(verify.check_distance_regular_probabilities())

    def test_5_optimized_group_means(self):
        _report(verify.check_optimized_group_means(workers=2))

    @pytest.mark.slow
    def test_6_correlation_grids(self):
        _report(verify.check_correlation_grids(workers=2))

    @pytest.mark.huge
    def test_6_sign_grid(self):
        _report(verify.check_sign_grid(workers=2))


class TestInvariantSuite:
    def test_7_statevector_norm(self):
        _report(verify.check_statevector_norm())

    def test_7_zero_angle_expectation(self):
        _report(verify.check_zero_angle_expectation())

    def test_7_depth_monotonicity(self):
        _report(verify.check_depth_monotonicity(workers=2))

    def test_7_isomorphism_invariance(self):
        _report(verify.check_isomorphism_invariance())

    def test_7_pearson_properties(self):
        _report(verify.check_pearson_properties())

    def test_7_cut_vertex_agreement(self):
        _report(verify.check_cut_vertex_agreement(workers=2))

    def test_7_bipartite_odd_cycles(self):
        _report(verify.check_bipartite_odd_cycles(workers=2))
