import functools
import hashlib
import itertools
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import minimize

import qgraphlab
from qgraphlab import pipeline, qaoa
from qgraphlab.graphs import (Graph, _all_classes, canonical_form, complete_graph, cycle_graph,
                              decode_graph6, enumerate_connected, path_graph, relabel, star_graph)
from qgraphlab.qaoa import (AngleVector, _lbfgsb, _Objective, _start_key, _start_points, cost_vector,
                            evolve, expectation, grid_scan_p1, maxcut_bruteforce, metrics_bundle,
                            optimize_angles, prob_cmax, run_depth_series, uniform_outcome)


def brute_force_maxcut(g):
    """Independent optimum: explicit loop over assignments and edges."""
    best = -1
    count = 0
    for z in range(1 << g.n):
        cut = 0
        for u, v in g.edges():
            if (z >> u & 1) != (z >> v & 1):
                cut += 1
        if cut > best:
            best, count = cut, 1
        elif cut == best:
            count += 1
    return best, count


def random_graph(rng, n, density=0.5):
    """A seeded random labeled graph on n vertices with at least one edge."""
    pairs = [(u, v) for v in range(n) for u in range(v)]
    edges = [e for e in pairs if rng.random() < density] or [pairs[0]]
    return Graph.from_edges(n, edges)


def connected_graphs_up_to(nmax):
    """Every connected graph on 1..nmax vertices, one per isomorphism class."""
    small = [Graph.from_edges(1, []), path_graph(2)]
    return small + [g for n in range(3, nmax + 1) for g in enumerate_connected(n)]


def closed_form_p1(g, gamma, beta):
    """Depth-1 <C> from the Wang-Hadfield-Jiang-Rieffel closed form
    (PRA 97, 022304, 2018): each edge (u, v) contributes a term fixed by
    the endpoint degrees and the number of triangles through the edge."""
    nbrs = [set() for _ in range(g.n)]
    for u, v in g.edges():
        nbrs[u].add(v)
        nbrs[v].add(u)
    cg = np.cos(gamma)
    total = 0.0
    for u, v in g.edges():
        du, dv = len(nbrs[u]) - 1, len(nbrs[v]) - 1
        lam = len(nbrs[u] & nbrs[v])
        total += (0.5
                  + 0.25 * np.sin(4 * beta) * np.sin(gamma) * (cg ** du + cg ** dv)
                  - 0.25 * np.sin(2 * beta) ** 2 * cg ** (du + dv - 2 * lam)
                  * (1 - np.cos(2 * gamma) ** lam))
    return total


def dense_statevector(g, gammas, betas):
    """Reference statevector from dense 2^n x 2^n layer matrices."""
    cost = np.array([sum((z >> u & 1) != (z >> v & 1) for u, v in g.edges())
                     for z in range(1 << g.n)], dtype=float)
    sv = np.full(1 << g.n, 2.0 ** (-g.n / 2), dtype=complex)
    for gamma, beta in zip(gammas, betas):
        c, s = np.cos(beta), np.sin(beta)
        mixer = functools.reduce(np.kron, [np.array([[c, -1j * s], [-1j * s, c]])] * g.n)
        sv = mixer @ (np.diag(np.exp(-1j * gamma * cost)) @ sv)
    return sv


class TestMaxCut:
    def test_c4(self):
        mc = maxcut_bruteforce(cycle_graph(4))
        assert (mc.cmax, mc.optimal_count) == (4, 2)

    def test_k4(self):
        mc = maxcut_bruteforce(complete_graph(4))
        assert (mc.cmax, mc.optimal_count) == brute_force_maxcut(complete_graph(4)) == (4, 6)

    def test_k5(self):
        mc = maxcut_bruteforce(complete_graph(5))
        assert (mc.cmax, mc.optimal_count) == brute_force_maxcut(complete_graph(5)) == (6, 20)

    def test_summaries_compare_and_hash(self):
        g = enumerate_connected(6)[40]
        a, b = maxcut_bruteforce(g), maxcut_bruteforce(relabel(g, (5, 3, 0, 4, 1, 2)))
        assert a == b and hash(a) == hash(b)
        assert a != maxcut_bruteforce(complete_graph(6))

    def test_whole_enumeration_n5(self):
        for g in enumerate_connected(5):
            mc = maxcut_bruteforce(g)
            assert (mc.cmax, mc.optimal_count) == brute_force_maxcut(g)
            assert mc.optimal_count % 2 == 0
            assert 1 <= mc.cmax <= g.edge_count

    def test_half_cost_vector_gives_cmax_and_optimal_count(self):
        """_outcome reads C_max off the kernel's half cost vector: C(z) = C(~z),
        so the half holds the maximum and half of the optimal assignments."""
        for n in range(3, 8):
            for g in enumerate_connected(n):
                mc = maxcut_bruteforce(g)
                cost = _Objective(g).cost
                assert cost.max() == mc.cmax, g
                assert 2 * int((cost == cost.max()).sum()) == mc.optimal_count, g

    def test_cost_vector(self):
        c4 = cycle_graph(4)
        cost = cost_vector(c4)
        assert cost[0] == 0
        assert cost[0b0101] == 4
        assert cost_vector(path_graph(2))[0b01] == 1


class TestAngleVector:
    def test_domain_reduction(self):
        ang = AngleVector((2 * np.pi + 0.5, -0.5), (np.pi + 0.25, -0.25))
        assert ang.gammas[0] == pytest.approx(0.5)
        assert ang.gammas[1] == pytest.approx(2 * np.pi - 0.5)
        assert ang.betas[0] == pytest.approx(0.25)
        assert ang.betas[1] == pytest.approx(np.pi - 0.25)

    def test_reduction_never_reaches_the_period(self):
        # -1e-17 % 2pi rounds up to 2pi itself, the angle 0
        ang = AngleVector((-1e-17,), (-1e-18,))
        assert ang.gammas == (0.0,) and ang.betas == (0.0,)

    def test_star_depth_3_gamma_in_range(self):
        # the star K1,4's seed-0 optimum at p = 3 has a gamma_3 that % rounds to 2pi
        outcome = run_depth_series(decode_graph6("D?{"), 3, seed=0)[3]
        assert outcome.best_angles.gammas[2] == 0.0
        assert all(0 <= x < 2 * np.pi for x in outcome.best_angles.gammas)
        assert all(0 <= x < np.pi for x in outcome.best_angles.betas)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            AngleVector((0.1,), ())


class TestEvolve:
    def test_p0_uniform(self):
        g = cycle_graph(4)
        sv = evolve(g, AngleVector((), ()))
        assert np.allclose(np.abs(sv) ** 2, 1 / 16)
        assert expectation(g, sv) == pytest.approx(2.0, abs=1e-12)

    def test_zero_angles_match_p0(self):
        g = star_graph(5)
        zero = AngleVector((0.0,) * 3, (0.0,) * 3)
        assert expectation(g, evolve(g, zero)) == pytest.approx(g.edge_count / 2, abs=1e-12)
        mc = maxcut_bruteforce(g)
        assert prob_cmax(g, evolve(g, zero)) == pytest.approx(mc.optimal_count / 32, abs=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(0)
        for g in (cycle_graph(5), complete_graph(6)):
            for p in (1, 2, 3):
                ang = AngleVector(tuple(rng.uniform(0, 6.3, p)), tuple(rng.uniform(0, 3.1, p)))
                sv = evolve(g, ang)
                assert abs(np.vdot(sv, sv).real - 1) < 1e-12

    def test_periodicity(self):
        g = cycle_graph(5)
        base = AngleVector((1.1,), (0.7,))
        shifted_gamma = evolve(g, AngleVector((1.1 + 2 * np.pi,), (0.7,)))
        shifted_beta = evolve(g, AngleVector((1.1,), (0.7 + np.pi,)))
        ref = evolve(g, base)
        for sv in (shifted_gamma, shifted_beta):
            assert abs(expectation(g, sv) - expectation(g, ref)) < 1e-10
            assert abs(prob_cmax(g, sv) - prob_cmax(g, ref)) < 1e-10

    def test_full_vector_metrics_are_the_cost_vector_definitions(self):
        # bit for bit, on evolved states and on vectors that are not flip-symmetric
        rng = np.random.default_rng(4)
        for g in connected_graphs_up_to(6):
            cost = cost_vector(g)
            ang = AngleVector(tuple(rng.uniform(0, 6.3, 2)), tuple(rng.uniform(0, 3.1, 2)))
            noise = (1, 1j) @ rng.normal(size=(2, cost.size))
            for sv in (evolve(g, ang), noise / np.linalg.norm(noise)):
                assert expectation(g, sv) == float(np.dot(cost, np.abs(sv) ** 2))
                assert prob_cmax(g, sv) == float((np.abs(sv[cost == cost.max()]) ** 2).sum())

    def test_full_vector_metrics_read_the_kernel_cut_vector(self, monkeypatch):
        calls = []
        monkeypatch.setattr(qaoa, "cost_vector", lambda g: calls.append(g) or cost_vector(g))
        qaoa._kernel.cache_clear()
        g = complete_graph(8)
        sv = evolve(g, AngleVector((0.4,), (0.3,)))
        expectation(g, sv)
        prob_cmax(g, sv)
        assert calls == [g]  # the kernel's own


class TestKernelOracles:
    """evolve against references that share no code with the kernel."""

    def test_p1_closed_form_connected_n_le_7(self):
        rng = np.random.default_rng(11)
        for g in connected_graphs_up_to(7):
            gamma, beta = rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi)
            got = expectation(g, evolve(g, AngleVector((gamma,), (beta,))))
            assert abs(got - closed_form_p1(g, gamma, beta)) <= 1e-12

    def test_p1_closed_form_random_n8_and_n12(self):
        # n = 12 puts 6 and 5 of its 11 qubits in the two Hadamard factors
        rng = random.Random(12)
        angles = np.random.default_rng(12)
        graphs = [random_graph(rng, 8, rng.uniform(0.2, 0.9)) for _ in range(40)]
        graphs.append(random_graph(rng, 12, 0.4))
        for g in graphs:
            gamma, beta = angles.uniform(0, 2 * np.pi), angles.uniform(0, np.pi)
            got = expectation(g, evolve(g, AngleVector((gamma,), (beta,))))
            assert abs(got - closed_form_p1(g, gamma, beta)) <= 1e-12

    def test_amplitudes_match_dense_layers(self):
        rng = np.random.default_rng(5)
        graphs = random.Random(5)
        larger = [random_graph(graphs, n, graphs.uniform(0.3, 0.9)) for n in (6, 6, 7, 7, 8, 8)]
        for g in connected_graphs_up_to(5) + larger:
            for p in range(4):
                gammas = tuple(rng.uniform(0, 2 * np.pi, p))
                betas = tuple(rng.uniform(0, np.pi, p))
                sv = evolve(g, AngleVector(gammas, betas))
                assert np.abs(sv - dense_statevector(g, gammas, betas)).max() <= 1e-12

    @pytest.mark.parametrize("n", range(1, 13))
    def test_hadamard_matches_scipy(self, n):
        # n - 1 qubits split into ceil and floor halves: odd, even and empty factors
        q = n - 1
        objective = _Objective(Graph.from_edges(n, [(0, 1)] if n > 1 else []))
        rng = np.random.default_rng(n)
        psi = rng.normal(size=(3, 1 << q)) + 1j * rng.normal(size=(3, 1 << q))
        reference = psi @ (scipy.linalg.hadamard(1 << q) / 2 ** (q / 2))
        assert np.abs(objective._hadamard(psi) - reference).max() <= 1e-12


class TestGradient:
    @staticmethod
    def _check(g, p, rng):
        objective = _Objective(g)
        theta = rng.uniform(0.05, 3.0, 2 * p)
        _, grad = objective.value_and_grad(theta)
        for i in range(2 * p):
            e = np.zeros(2 * p)
            e[i] = 1e-5
            up, down = objective.value_and_grad(theta + e)[0], objective.value_and_grad(theta - e)[0]
            fd = (up - down) / 2e-5
            assert abs(grad[i] - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_matches_central_differences(self):
        rng = np.random.default_rng(4)
        pool = enumerate_connected(4) + enumerate_connected(5)
        for _ in range(100):
            g = pool[rng.integers(len(pool))]
            p = int(rng.integers(1, 4))
            self._check(g, p, rng)

    def test_matches_central_differences_n6_to_8(self):
        rng = np.random.default_rng(6)
        graphs = random.Random(6)
        for _ in range(24):
            g = random_graph(graphs, int(rng.integers(6, 9)), graphs.uniform(0.2, 0.9))
            self._check(g, int(rng.integers(1, 4)), rng)


def random_starts(rng, rows, p):
    return np.concatenate([rng.uniform(0, 2 * np.pi, (rows, p)), rng.uniform(0, np.pi, (rows, p))],
                          axis=1)


class TestLockstepOptimizer:
    """The lockstep L-BFGS-B optimizer against scipy's own minimize, one start
    at a time, and against itself on one-row batches."""

    @pytest.mark.parametrize("max_iter", [qaoa.MAX_ITER, 3])
    def test_rows_match_scipy_minimize(self, monkeypatch, max_iter):
        monkeypatch.setattr(qaoa, "MAX_ITER", max_iter)
        rng = np.random.default_rng(21)
        graphs = random.Random(21)
        # 10 (graph, p) cases, n = 4..8 twice, p = 1..3 in turn, two starts each
        for case in range(10):
            n, p = 4 + case % 5, 1 + case % 3
            g = random_graph(graphs, n, graphs.uniform(0.3, 0.9))
            theta0 = random_starts(rng, 2, p)
            theta, value, nit, nfev = _lbfgsb(_Objective(g), theta0)
            reference = _Objective(g)

            def negated(t):
                v, grad = reference.value_and_grad(t)
                return -v, -grad

            for row in range(2):
                res = minimize(negated, theta0[row], jac=True, method="L-BFGS-B",
                               options={"maxiter": max_iter, "ftol": qaoa.OBJECTIVE_TOL,
                                        "gtol": 1e-9})
                value0 = reference.value_and_grad(theta0[row])[0]
                want_value, want_x = (-res.fun, res.x) if -res.fun >= value0 else (value0, theta0[row])
                assert (nfev[row], nit[row]) == (res.nfev, res.nit)
                assert abs(value[row] - want_value) <= 1e-12
                assert np.abs(theta[row] - want_x).max() <= 1e-9
                if max_iter == 3:
                    assert nit[row] == 3

    def test_rows_independent_of_batch(self):
        rng = np.random.default_rng(22)
        g = random_graph(random.Random(22), 7, 0.5)
        theta0 = random_starts(rng, 201, 2)
        theta, value, nit, nfev = _lbfgsb(_Objective(g), theta0)
        for row in range(201):
            one = _lbfgsb(_Objective(g), theta0[row:row + 1])
            assert (one[2][0], one[3][0]) == (nit[row], nfev[row])
            assert abs(one[1][0] - value[row]) <= 1e-12
            assert np.abs(one[0][0] - theta[row]).max() <= 1e-12

    def test_rows_independent_of_batch_n8(self):
        # at n = 8 a batch of 128 or more rows spans 256 KiB per state, where
        # a plain a * b may reuse a temporary and swap its operands
        rng = np.random.default_rng(24)
        g = random_graph(random.Random(24), 8, 0.5)
        theta0 = random_starts(rng, 201, 3)
        theta, value, nit, nfev = _lbfgsb(_Objective(g), theta0)
        objective = _Objective(g)
        batch = objective.states(theta0[:, :3].T, theta0[:, 3:].T)
        for row in range(0, 201, 8):
            alone = objective.states(theta0[row, :3, None], theta0[row, 3:, None])
            assert np.array_equal(alone[0], batch[row])
            one = _lbfgsb(_Objective(g), theta0[row:row + 1])
            assert (one[2][0], one[3][0]) == (nit[row], nfev[row])
            assert abs(one[1][0] - value[row]) <= 1e-12
            assert np.abs(one[0][0] - theta[row]).max() <= 1e-12

    def test_phase_tables_equal_direct_exp(self):
        """states() looks phases up from per-level tables; the direct formula
        takes an exp per amplitude, with C and w computed here.  On K3..K8
        the tables collapse the most levels (K8: 5 cost levels for 28 edges)."""
        rng = np.random.default_rng(23)
        graphs = random.Random(23)
        for g in ([random_graph(graphs, n, graphs.uniform(0.3, 0.9)) for n in range(3, 10)]
                  + [complete_graph(n) for n in range(3, 9)]):
            n = g.n
            objective = _Objective(g)
            half = 1 << (n - 1)
            cost = cost_vector(g)[:half].astype(float)
            ones = np.array([bin(x).count("1") for x in range(half)])
            weight = n - 2.0 * (ones + ones % 2)
            for p in (1, 2, 3):
                gammas = rng.uniform(-2 * np.pi, 4 * np.pi, (p, 5))
                betas = rng.uniform(-np.pi, 2 * np.pi, (p, 5))
                psi = objective.uniform
                for gamma, beta in zip(gammas, betas):
                    phased = psi * np.exp(-1j * np.multiply.outer(gamma, cost))
                    mixed = objective._hadamard(phased) * np.exp(-1j * np.multiply.outer(beta, weight))
                    psi = objective._hadamard(mixed)
                assert np.array_equal(objective.states(gammas, betas), psi)

    def test_adjoint_pass_equals_full_phase_recursion(self):
        """value_and_grad looks the backward phases up from per-level tables
        and forms each gradient term in reused buffers; the reference keeps
        every step's full phase array and allocates every term, with the same
        operand order.  On K3..K8 the tables collapse the most levels."""
        rng = np.random.default_rng(29)
        graphs = random.Random(29)
        for g in ([random_graph(graphs, n, graphs.uniform(0.3, 0.9)) for n in range(3, 10)]
                  + [complete_graph(n) for n in range(3, 9)]):
            n = g.n
            objective = _Objective(g)
            half = 1 << (n - 1)
            cost = cost_vector(g)[:half].astype(float)
            ones = np.array([bin(x).count("1") for x in range(half)])
            weight = n - 2.0 * (ones + ones % 2)
            for p in (1, 2, 3):
                for rows in (1, 201):
                    theta = rng.uniform(-2 * np.pi, 4 * np.pi, (rows, 2 * p))
                    psi, steps = objective.uniform, []
                    for gamma, beta in zip(theta[:, :p].T, theta[:, p:].T):
                        cost_phase = np.exp(-1j * np.multiply.outer(gamma, cost))
                        phased = psi * cost_phase
                        mixer_phase = np.exp(-1j * np.multiply.outer(beta, weight))
                        mixed = objective._hadamard(phased) * mixer_phase
                        psi = objective._hadamard(mixed)
                        steps += (phased, cost, cost_phase), (mixed, weight, mixer_phase)
                    grad = np.empty_like(theta)
                    adjoint = cost * psi
                    columns = [c for i in range(p) for c in (i, p + i)]
                    for column, (state, diagonal, phase) in zip(columns[::-1], steps[::-1]):
                        adjoint = objective._hadamard(adjoint)
                        grad[:, column] = 4.0 * ((adjoint.conj() * state).imag * diagonal).sum(axis=-1)
                        # np.multiply: a * b could swap operands to reuse b's temporary
                        adjoint = np.multiply(adjoint, phase.conj())
                    value = 2.0 * (np.abs(psi) ** 2 * cost).sum(axis=-1)
                    got_value, got_grad = objective.value_and_grad(theta)
                    assert np.array_equal(got_value, value) and np.array_equal(got_grad, grad), (n, p, rows)


class TestStartStream:
    """optimize_angles's random starts, pinned to the seeded stream they come from."""

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_starts_are_keyed_uniform_draws(self, monkeypatch, p):
        g = enumerate_connected(5)[7]
        digest = int.from_bytes(hashlib.sha256(canonical_form(g).encode("ascii")).digest()[:8], "big")
        passed = []

        def recording(objective, theta0):
            passed.append(theta0.copy())
            return _lbfgsb(objective, theta0)

        monkeypatch.setattr(qaoa, "_lbfgsb", recording)
        starts = 4
        for seed in (0, 11):
            for extra in ([], [np.arange(2.0 * p) / 7, np.full(2 * p, 0.5)]):
                passed.clear()
                optimize_angles(g, p, starts=starts, seed=seed, extra_starts=extra)
                theta0 = passed[0]
                assert theta0.shape == (starts + len(extra), 2 * p)
                for idx in range(starts):
                    r = np.random.default_rng([seed, digest, idx])
                    want = np.concatenate([r.uniform(0, 2 * np.pi, p), r.uniform(0, np.pi, p)])
                    assert np.array_equal(theta0[idx], want)
                for j, point in enumerate(extra):
                    assert np.array_equal(theta0[starts + j], point)

    def test_vectorised_streams_equal_default_rng(self):
        # seeds and digests on both sides of one 32-bit word, and the
        # canonical-form digest optimize_angles takes
        form = canonical_form(enumerate_connected(5)[7])
        real = int.from_bytes(hashlib.sha256(form.encode("ascii")).digest()[:8], "big")
        for seed in (0, 11, 2**32 - 1, 2**32 + 5):
            for digest in (0, 0x9E3779B9, 2**64 - 1, real):
                for d in (2, 4, 6):
                    points = _start_points(seed, digest, 64, d)
                    assert points.shape == (64, d)
                    for idx in range(64):
                        want = np.random.default_rng([seed, digest, idx]).random(d)
                        assert np.array_equal(points[idx], want), (seed, digest, d, idx)

    def test_start_key_equals_hashlib(self):
        # every canonical form for n <= 6, and a 16-vertex form of 120
        # characters, which spans two SHA-256 blocks
        graphs = random.Random(16)
        big = canonical_form(random_graph(graphs, 16, 0.4))
        assert len(big) == 120
        for form in [form for n in range(1, 7) for form in _all_classes(n)] + [big]:
            want = int.from_bytes(hashlib.sha256(form.encode("ascii")).digest()[:8], "big")
            assert _start_key(form) == want, form

    def test_stream_arguments_refused(self):
        with pytest.raises(ValueError, match="2\\^32"):
            _start_points(0, 1, 2**32 + 1, 2)
        with pytest.raises(ValueError, match="non-negative"):
            _start_points(-1, 1, 4, 2)
        with pytest.raises(ValueError, match="non-negative"):
            optimize_angles(cycle_graph(4), 1, starts=2, seed=-1)


class TestOptimization:
    def test_k3_depth2_reaches_optimum(self):
        out = optimize_angles(complete_graph(3), 2, starts=30, seed=1)
        assert out.exp_c == pytest.approx(2.0, abs=1e-4)

    def test_c4_depth2_reaches_optimum(self):
        out = optimize_angles(cycle_graph(4), 2, starts=30, seed=1)
        assert out.exp_c == pytest.approx(4.0, abs=1e-3)
        assert out.prob_cmax == pytest.approx(1.0, abs=1e-3)

    def test_invalid_depth(self):
        with pytest.raises(ValueError, match="depth"):
            optimize_angles(cycle_graph(4), 4)
        with pytest.raises(ValueError, match="depth"):
            optimize_angles(cycle_graph(4), 0)

    def test_edgeless_graph_refused(self):
        # C_max = 0 leaves the ratio undefined; each entry point refuses the
        # graph up front instead of dividing by zero
        g = decode_graph6("A?")
        for call in (lambda: uniform_outcome(g), lambda: optimize_angles(g, 1, starts=2),
                     lambda: run_depth_series(g, 1, starts=2)):
            with pytest.raises(ValueError, match="has no edges"):
                call()

    def test_edgeless_graph_named_by_id_or_graph6(self):
        with pytest.raises(ValueError, match="^graph 'B\\?' has no edges"):
            optimize_angles(Graph(3, (0, 0, 0)), 1)
        with pytest.raises(ValueError, match="^graph 4 has no edges"):
            optimize_angles(Graph(3, (0, 0, 0), id=4), 1)

    def test_grid_oracle_c4(self):
        _, _, value = grid_scan_p1(cycle_graph(4))
        assert value == pytest.approx(3.000, abs=1e-3)

    def test_grid_oracle_k2(self):
        k2 = path_graph(2)
        gamma, beta, value = grid_scan_p1(k2)
        assert value == pytest.approx(1.0, abs=1e-9)
        sv = evolve(k2, AngleVector((np.pi / 2,), (np.pi / 8,)))
        assert expectation(k2, sv) == pytest.approx(1.0, abs=1e-12)

    def test_one_kernel_per_optimization(self, monkeypatch):
        built = []

        class Counting(_Objective):
            def __init__(self, g):
                built.append(g)
                super().__init__(g)

        monkeypatch.setattr(qaoa, "_Objective", Counting)
        qaoa._kernel.cache_clear()
        g = cycle_graph(4)
        run_depth_series(g, 3, starts=3, seed=0)
        grid_scan_p1(g)
        evolve(g, AngleVector((0.3,), (0.2,)))
        assert len(built) == 1

    def test_grid_never_beats_optimizer(self):
        for g in enumerate_connected(4):
            _, _, grid_value = grid_scan_p1(g)
            out = optimize_angles(g, 1, starts=8, seed=0)
            assert grid_value <= out.exp_c + 1e-6

    def test_isomorphism_invariant_results(self):
        g = enumerate_connected(5)[7]
        h = relabel(g, (3, 1, 4, 0, 2))
        a = optimize_angles(g, 2, starts=6, seed=9)
        b = optimize_angles(h, 2, starts=6, seed=9)
        assert a.exp_c == pytest.approx(b.exp_c, abs=1e-9)
        assert a.prob_cmax == pytest.approx(b.prob_cmax, abs=1e-9)

    def test_outcome_bounds(self):
        for g in enumerate_connected(4):
            mc = maxcut_bruteforce(g)
            out = optimize_angles(g, 1, starts=5, seed=3)
            assert 0 <= out.exp_c <= mc.cmax
            assert 0 < out.ratio <= 1
            assert 0 <= out.prob_cmax <= 1


class TestUniformOutcome:
    def test_exact_for_every_class_up_to_n7(self):
        # <C> = |E|/2, P(C_max) = optimal_count/2^n and their ratio, each the
        # correctly rounded float of the exact fraction
        for n in range(3, 8):
            for g in enumerate_connected(n):
                cmax, count = brute_force_maxcut(g)
                got = uniform_outcome(g)
                assert got.exp_c == float(Fraction(g.edge_count, 2)), g.id
                assert got.prob_cmax == float(Fraction(count, 2 ** n)), g.id
                assert got.ratio == float(Fraction(g.edge_count, 2 * cmax)), g.id
                assert got.p == 0 and got.best_angles.p == 0 and got.delta_ratio is None


class TestMetricsBundle:
    def test_c4_series(self):
        series = run_depth_series(cycle_graph(4), 3, starts=30, seed=2)
        assert series[0].exp_c == pytest.approx(2.0, abs=1e-12)
        assert series[0].delta_ratio is None
        assert series[1].exp_c == pytest.approx(3.0, abs=1e-4)
        assert series[1].delta_ratio == pytest.approx(0.5, abs=1e-3)
        assert series[2].exp_c == pytest.approx(4.0, abs=1e-4)
        assert series[3].delta_ratio is None  # saturated at depth 2

    def test_depth_monotone(self):
        for g in random.Random(0).sample(enumerate_connected(5), 6):
            series = run_depth_series(g, 3, starts=6, seed=5)
            for prev, cur in zip(series, series[1:]):
                assert cur.exp_c >= prev.exp_c - 1e-9

    def test_sequencing_error(self):
        g = cycle_graph(4)
        mc = maxcut_bruteforce(g)
        out1 = optimize_angles(g, 1, starts=3, seed=0)
        with pytest.raises(ValueError, match="consecutive"):
            metrics_bundle(g, mc, [out1])

    def test_one_canonical_search_per_series(self, monkeypatch):
        calls = []

        def counting(g):
            calls.append(g)
            return canonical_form(g)

        monkeypatch.setattr(qaoa, "canonical_form", counting)
        qaoa._kernel.cache_clear()
        g = enumerate_connected(5)[7]
        series = run_depth_series(g, 3, starts=4, seed=0)
        assert len(calls) == 1 and len(series) == 4

    def test_qaoa_rows_build_each_graph_once(self, monkeypatch):
        # one cut vector for the MaxCut summary and one for the kernel, which
        # every depth, the grid oracle and the start key share
        calls = {"cost": 0, "kernel": 0, "canonical": 0}

        def counting(name, f):
            def wrapped(*args):
                calls[name] += 1
                return f(*args)
            return wrapped

        class Counting(_Objective):
            def __init__(self, g):
                calls["kernel"] += 1
                super().__init__(g)

        monkeypatch.setattr(qaoa, "cost_vector", counting("cost", cost_vector))
        monkeypatch.setattr(qaoa, "canonical_form", counting("canonical", canonical_form))
        monkeypatch.setattr(qaoa, "_Objective", Counting)
        qaoa._kernel.cache_clear()
        qaoa.maxcut_bruteforce.cache_clear()
        rows = pipeline.qaoa_result_rows([enumerate_connected(6)[50]], 3, 4, 0, workers=1)
        assert [r.p for r in rows] == [0, 1, 2, 3]
        assert calls == {"cost": 2, "kernel": 1, "canonical": 1}

    def test_shared_kernel_keeps_each_graph_id(self):
        g = enumerate_connected(5)[7]
        twin = Graph(g.n, g.adj, id=99)
        assert twin == g and twin.id != g.id
        qaoa._kernel.cache_clear()
        first = run_depth_series(g, 2, starts=3, seed=0)
        second = run_depth_series(twin, 2, starts=3, seed=0)
        assert {o.graph_id for o in first} == {g.id} and {o.graph_id for o in second} == {99}
        assert [replace(o, graph_id=None) for o in first] == [replace(o, graph_id=None) for o in second]

    def test_delta_zero_when_no_progress(self):
        g = cycle_graph(4)
        mc = maxcut_bruteforce(g)
        base = uniform_outcome(g, mc)
        stalled = replace(base, p=1)
        filled = metrics_bundle(g, mc, [base, stalled])
        assert filled[1].delta_ratio == pytest.approx(0.0, abs=1e-12)


_THREADS_SCRIPT = """
import os, numpy
from qgraphlab.graphs import cycle_graph
from qgraphlab.qaoa import optimize_angles
before = len(os.listdir("/proc/self/task"))
optimize_angles(cycle_graph(4), 1, starts=2)
print(before, len(os.listdir("/proc/self/task")), os.environ.get("OPENBLAS_NUM_THREADS"))
"""

# scipy.optimize loads scipy's OpenBLAS first, at the library's default count
_LOADED_FIRST_SCRIPT = """
import ctypes, scipy.optimize
from qgraphlab.graphs import cycle_graph
from qgraphlab.qaoa import optimize_angles
get = getattr(ctypes.CDLL(scipy.optimize._lbfgsb.__file__), "scipy_openblas_get_num_threads", None)
if get is None:
    print("absent")
else:
    optimize_angles(cycle_graph(4), 1, starts=2)
    print(get())
"""


def _run_in_child(script, threads=None):
    """stdout words of script run in a fresh interpreter that imports this
    qgraphlab, with OPENBLAS_NUM_THREADS set to threads or unset."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    src = os.path.dirname(os.path.dirname(qgraphlab.__file__))
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True, text=True).stdout.split()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
class TestBlasThreads:
    """The first optimization loads scipy's OpenBLAS, which L-BFGS-B calls,
    without worker threads, and leaves OPENBLAS_NUM_THREADS as it was."""

    def _optimize_in_child(self, threads):
        out = _run_in_child(_THREADS_SCRIPT, threads)
        return int(out[0]), int(out[1]), out[2]

    def test_first_optimization_starts_no_threads_and_restores_env(self):
        before, after, chosen = self._optimize_in_child(None)
        assert after == before
        assert chosen == "None"

    def test_caller_thread_count_kept(self):
        _, _, chosen = self._optimize_in_child("2")
        assert chosen == "2"

    @pytest.mark.parametrize("threads, want", [(None, "1"), ("2", "2")])
    def test_library_loaded_first_runs_one_thread(self, threads, want):
        out = _run_in_child(_LOADED_FIRST_SCRIPT, threads)
        if out == ["absent"]:
            pytest.skip("this scipy's OpenBLAS exports no scipy_openblas_get_num_threads")
        assert out == [want]


_ON_FIRST_USE = ("numpy.random", "hashlib", "scipy.optimize._lbfgsb", "concurrent.futures",
                 "qgraphlab.verify")


class TestImportFootprint:
    """qaoa loads scipy's L-BFGS-B extension alone, once per process and on
    first use; the CLI loads what a command uses when it runs."""

    def test_cli_import_loads_no_scipy_optimize(self):
        assert _run_in_child("import sys, qgraphlab.cli; print('scipy.optimize' in sys.modules)") \
            == ["False"]

    def test_cli_import_defers_what_commands_load(self):
        script = f"import sys, qgraphlab.cli; print(*[m in sys.modules for m in {_ON_FIRST_USE}])"
        assert _run_in_child(script) == ["False"] * len(_ON_FIRST_USE)

    def test_qaoa_command_loads_no_numpy_random(self, tmp_path):
        # nor hashlib: the start key's digest is CPython's own SHA-256, not OpenSSL's
        graphs, out = tmp_path / "k3.g6", tmp_path / "qaoa.csv"
        graphs.write_text("Bw\n")
        script = (f"import sys; from qgraphlab import cli; "
                  f"code = cli.main(['qaoa', '--in', {str(graphs)!r}, '--p', '1', '--starts', '3', "
                  f"'--out', {str(out)!r}, '--workers', '1']); "
                  f"print(code, *[m in sys.modules for m in "
                  f"('scipy.optimize._lbfgsb', 'numpy.random', 'hashlib', '_hashlib')])")
        assert _run_in_child(script) == ["0", "True", "False", "False", "False"]

    def test_setulb_shared_with_scipy_optimize(self):
        # in both import orders the accessor returns the copy scipy.optimize
        # holds; loaded first, it is the copy scipy.optimize then imports
        # (as a package attribute only once scipy.optimize came first)
        for script in ("import scipy.optimize, qgraphlab.qaoa; "
                       "print(qgraphlab.qaoa._setulb() is scipy.optimize._lbfgsb.setulb)",
                       "import qgraphlab.qaoa, scipy.optimize; "
                       "print(qgraphlab.qaoa._setulb() is scipy.optimize._lbfgsb.setulb)",
                       "import qgraphlab.qaoa; setulb = qgraphlab.qaoa._setulb(); "
                       "from scipy.optimize import _lbfgsb; print(setulb is _lbfgsb.setulb)"):
            assert _run_in_child(script) == ["True"], script
