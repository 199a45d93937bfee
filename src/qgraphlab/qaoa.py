"""Exact MaxCut and QAOA statevector machinery.

Bit i of a basis index z is the side of vertex i.  A layer applies
exp(-i gamma C), C(z) the plain cut-edge count, then exp(-i beta sum_q X_q),
starting from the uniform superposition.  One per-graph kernel, _Objective,
serves evolve, expectation, prob_cmax, the optimizer at every depth and the
depth-1 grid oracle: _kernel keeps the last graph's, as maxcut_bruteforce
keeps the last graph's two-integer summary, so a depth series builds each
once.  The kernel rests on two exact reductions:

* Z2 halving: C(z) = C(~z), and the uniform start and the mixer commute with
  X on every qubit, so amplitude[~z] = amplitude[z].  The kernel keeps only
  the half state z < 2^(n-1) (vertex n-1 on side 0); the full vector is
  concatenate(half, half[::-1]) and <C> = 2 sum_z C(z) |half[z]|^2.
* Hadamard-basis mixer: on the half state the mixer is
  H diag(exp(-i beta w)) H, with H the orthonormal Sylvester Hadamard on n-1
  qubits and w[x] = n - 2(|x| + |x| mod 2).  H = H_lead kron H_trail, on
  ceil((n-1)/2) and floor((n-1)/2) qubits, is one stacked product and one
  GEMM on the complex-as-real view.

Each phase factor is looked up from a table of one complex exp per value
that C or w takes on the half state (K8's has 5 of each).  States carry
leading batch axes: the angle optimizer runs multi-start L-BFGS-B (on the
exact adjoint gradient) with all starts in lockstep, one kernel call per
round for the starts that ask for a value, and the depth-1 optimum is
cross-checked against a dense (gamma, beta) grid scan, in slices of
gammas.  Random starts come from a stream keyed by (seed, canonical form,
start index), so isomorphic graphs give identical results: start idx is
np.random.default_rng([seed, digest, idx]).random(2p), scaled, and all
starts are drawn in one vectorised pass that rebuilds SeedSequence and
PCG64 in uint64 arithmetic, without numpy.random.

Importing this module loads numpy alone.  The first optimization loads
scipy's compiled L-BFGS-B step (one extension, not scipy.optimize) and
CPython's own SHA-256 module for the canonical-form digest, not hashlib,
which would load OpenSSL's libcrypto.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.util
import os
import sys
from dataclasses import dataclass, replace
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np

from .graphs import Graph, _graph_name, canonical_form

__all__ = [
    "MaxCutSummary",
    "AngleVector",
    "OptimizerStats",
    "QaoaOutcome",
    "cost_vector",
    "maxcut_bruteforce",
    "evolve",
    "expectation",
    "prob_cmax",
    "uniform_outcome",
    "optimize_angles",
    "grid_scan_p1",
    "metrics_bundle",
    "run_depth_series",
]

TWO_PI = 2.0 * np.pi
SUPPORTED_DEPTHS = (1, 2, 3)
DELTA_EPS = 1e-9  # a remaining gap below this makes the delta ratio undefined
DEFAULT_STARTS = 200
MAX_ITER = 500
OBJECTIVE_TOL = 1e-8
EVAL_BLOCK = 1 << 13  # amplitudes per state in a batched pass: a p = 3 pass stays in L2 cache
GRID_POINTS = 64  # points per axis of the depth-1 grid oracle


@dataclass(frozen=True)
class MaxCutSummary:
    """Exact optimum cut value and the number of assignments that reach it."""

    cmax: int
    optimal_count: int


def _wrap(x: float, period: float) -> float:
    """x reduced into [0, period): a float just below a multiple of the period
    rounds up to the period itself under %, and that is the angle 0."""
    r = float(x) % period
    return 0.0 if r == period else r


@dataclass(frozen=True)
class AngleVector:
    """Depth-p angle set, reduced to gamma in [0, 2pi) and beta in [0, pi)."""

    gammas: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self):
        if len(self.gammas) != len(self.betas):
            raise ValueError("gammas and betas must have the same length")
        object.__setattr__(self, "gammas", tuple(_wrap(x, TWO_PI) for x in self.gammas))
        object.__setattr__(self, "betas", tuple(_wrap(x, np.pi) for x in self.betas))

    @property
    def p(self) -> int:
        return len(self.gammas)

    @staticmethod
    def from_flat(theta) -> "AngleVector":
        theta = np.asarray(theta, dtype=float)
        p = theta.size // 2
        return AngleVector(tuple(theta[:p]), tuple(theta[p:]))


@dataclass(frozen=True)
class OptimizerStats:
    """Bookkeeping for one multi-start optimization."""

    starts: int
    best_start: int  # index of the winning start; -1 marks the grid oracle
    evaluations: int  # objective evaluations over all starts, as minimize counts nfev


@dataclass(frozen=True)
class QaoaOutcome:
    """Optimized angles and the four per-graph metrics at one depth."""

    graph_id: int | None
    p: int
    best_angles: AngleVector
    exp_c: float
    prob_cmax: float
    ratio: float
    delta_ratio: float | None
    optimizer_stats: OptimizerStats


# ---------------------------------------------------------------------------
# Cost and exact optimum
# ---------------------------------------------------------------------------


def cost_vector(g: Graph) -> np.ndarray:
    """Cut value of every assignment: entry z counts edges with unequal bits."""
    bits = (np.arange(1 << g.n)[:, None] >> np.arange(g.n) & 1).astype(np.uint8)
    u, v = np.array(g.edges(), dtype=np.intp).reshape(-1, 2).T
    return (bits[:, u] != bits[:, v]).sum(axis=1, dtype=np.int64)


@functools.lru_cache(maxsize=1)
def maxcut_bruteforce(g: Graph) -> MaxCutSummary:
    """Evaluate all 2^n assignments and keep the exact maximum; the last
    graph's summary is kept, so a depth series brute-forces its graph once."""
    cost = cost_vector(g)
    cmax = int(cost.max())
    return MaxCutSummary(cmax=cmax, optimal_count=int((cost == cmax).sum()))


def _require_edges(g: Graph) -> None:
    """Refuse an edgeless graph: C_max = 0 leaves the ratio <C>/C_max undefined."""
    if not g.edge_count:
        raise ValueError(f"{_graph_name(g)} has no edges, so it has no MaxCut to approximate")


# ---------------------------------------------------------------------------
# The statevector kernel
# ---------------------------------------------------------------------------


class _Objective:
    """The QAOA kernel of one graph on the flip-symmetric half state.

    states() evolves a batch of angle sets; value_and_grad() adds the exact
    gradient of <C> by the adjoint recursion over the saved forward steps.
    For each step `saved` holds the state after it, its diagonal, and its
    small per-level exp table with the level index, not the full phase
    array: the backward pass looks the conjugate phases up from the table.
    Rows do not depend on their batch, bit for bit: reductions run along the
    row, and each complex product has one operand order (a * b may swap them
    to reuse a large temporary; complex products do not commute bitwise).
    """

    def __init__(self, g: Graph):
        self.graph = g
        half = 1 << (g.n - 1)
        ones = sum((np.arange(half) >> q & 1 for q in range(g.n - 1)), np.zeros(half, int))
        self.cost = cost_vector(g)[:half].astype(float)
        self.weight = g.n - 2.0 * (ones + ones % 2)  # sum_q X_q in the Hadamard basis
        self.cost_levels, self.cost_index = np.unique(self.cost, return_inverse=True)
        self.weight_levels, self.weight_index = np.unique(self.weight, return_inverse=True)
        # H on the n - 1 qubits is lead kron trail: orthonormal Sylvester Hadamards on
        # ceil((n-1)/2) and floor((n-1)/2) qubits, trail also on (re, im) pairs; the
        # Sylvester sign at (i, j) is (-1)^|i & j|
        a, b = g.n // 2, (g.n - 1) // 2
        rows = np.arange(1 << a)
        signs = 1.0 - 2.0 * (ones[rows[:, None] & rows] % 2)
        self.lead = signs * 2.0 ** (-a / 2)
        trail = signs[:1 << b, None, :1 << b, None] * np.eye(2)[:, None]  # kron(signs, eye(2))
        self.trail = trail.reshape(2 << b, 2 << b) * 2.0 ** (-b / 2)
        self.uniform = np.full(half, 2.0 ** (-g.n / 2), dtype=complex)

    @functools.cached_property
    def start_key(self) -> int:
        """The key of the graph's start streams, from one canonical search."""
        return _start_key(canonical_form(self.graph))

    @staticmethod
    def _table(angle, levels) -> np.ndarray:
        """exp(-i angle v) for each level v, along a new last axis; a phase array is
        table.take(index, axis=-1) (np.take, not [..., index], keeps it C-contiguous)."""
        return np.exp(-1j * np.multiply.outer(angle, levels))

    def _hadamard(self, psi: np.ndarray) -> np.ndarray:
        """H along the last axis of a C-contiguous complex batch (a new array)."""
        v = psi.view(float)
        x = np.matmul(self.lead, v.reshape(-1, len(self.lead), len(self.trail)))
        return (x.reshape(-1, len(self.trail)) @ self.trail).reshape(v.shape).view(complex)

    def states(self, gammas, betas, saved: list | None = None) -> np.ndarray:
        """Half states after the layers.  Angle arrays of shape (p, *batch)
        broadcast together and give states of shape (*batch, 2^(n-1)).
        `saved` collects, per step (cost, then mixer), the state after it
        (the mixer's in the Hadamard basis), its diagonal, its exp table and
        its level index."""
        psi = self.uniform
        for gamma, beta in zip(np.asarray(gammas, dtype=float), np.asarray(betas, dtype=float)):
            cost_exp, mixer_exp = self._table(gamma, self.cost_levels), self._table(beta, self.weight_levels)
            phased = np.multiply(psi, cost_exp.take(self.cost_index, axis=-1))
            mixed = np.multiply(self._hadamard(phased), mixer_exp.take(self.weight_index, axis=-1))
            psi = self._hadamard(mixed)
            if saved is not None:
                saved += ((phased, self.cost, cost_exp, self.cost_index),
                          (mixed, self.weight, mixer_exp, self.weight_index))
        return psi

    def expectation(self, psi: np.ndarray):
        return 2.0 * (np.abs(psi) ** 2 * self.cost).sum(axis=-1)

    def value_and_grad(self, theta):
        """<C> and its gradient at theta of shape (2p,), or at each row of
        theta of shape (B, 2p), in blocks of rows of EVAL_BLOCK amplitudes."""
        theta = np.asarray(theta, dtype=float)
        rows = theta.reshape(-1, theta.shape[-1])
        step = max(1, EVAL_BLOCK // self.uniform.size)
        if len(rows) > step:
            blocks = [self.value_and_grad(rows[i:i + step]) for i in range(0, len(rows), step)]
            return tuple(np.concatenate(part) for part in zip(*blocks))
        p = rows.shape[1] // 2
        saved = []
        sv = self.states(rows[:, :p].T, rows[:, p:].T, saved)
        # Half-state inner products are half the full ones, and sum_q X_q is
        # diag(weight) in the Hadamard basis, so d<C>/dbeta =
        # 2 Im(<adjoint| sum_q X_q |state>) is a diagonal product there (and
        # d<C>/dgamma one in the computational basis); steps run backwards.
        grad = np.empty_like(rows)
        adjoint = np.multiply(self.cost, sv)
        buf, rbuf = np.empty_like(sv), np.empty(sv.shape)
        columns = np.arange(2 * p).reshape(2, p).T.ravel()  # gamma_1, beta_1, gamma_2, ...
        for column, (state, diagonal, table, index) in zip(columns[::-1], saved[::-1]):
            adjoint = self._hadamard(adjoint)
            np.multiply(np.conjugate(adjoint, out=buf), state, out=buf)
            grad[:, column] = 4.0 * np.multiply(buf.imag, diagonal, out=rbuf).sum(axis=-1)
            adjoint *= table.conj().take(index, axis=-1)  # conj only flips sign bits
        values = self.expectation(sv)
        return (values, grad) if theta.ndim > 1 else (float(values[0]), grad[0])


@functools.lru_cache(maxsize=1)
def _kernel(g: Graph) -> _Objective:
    """g's kernel; the last graph's is kept, so every depth of a series, the
    grid oracle, evolve and the full-vector metrics share one.  Graphs
    compare without their ids, so the kernel's own graph may carry another
    id: read ids off the caller's."""
    return _Objective(g)


def evolve(g: Graph, angles: AngleVector) -> np.ndarray:
    """Full 2^n statevector after p QAOA layers from the uniform superposition."""
    half = _kernel(g).states(angles.gammas, angles.betas)
    return np.concatenate([half, half[::-1]])


def expectation(g: Graph, sv: np.ndarray) -> float:
    """<C> of a full statevector, with C off the kernel's half (C(z) = C(~z))."""
    cost = _kernel(g).cost
    return float(np.dot(np.concatenate([cost, cost[::-1]]), np.abs(sv) ** 2))


def prob_cmax(g: Graph, sv: np.ndarray) -> float:
    """Total probability of measuring an optimal assignment of a full statevector."""
    cost = _kernel(g).cost
    best = np.concatenate([cost, cost[::-1]]) == cost.max()
    return float((np.abs(sv[best]) ** 2).sum())


# ---------------------------------------------------------------------------
# Optimization
# ---------------------------------------------------------------------------


@functools.cache
def _setulb():
    """scipy's L-BFGS-B step, setulb, loaded on first call.

    setulb is private API: its module's file name and the signature called
    here (scipy 1.15's C port) are checked against scipy 1.17.1.  Only that
    one extension is loaded, not scipy.optimize, whose import spends about
    0.5 s and 40 MB on linprog, linalg, sparse and more that nothing here
    runs.  It is registered under its own name, so a process holds one copy
    whichever of scipy.optimize and this module loads it first.  A missing
    file raises ImportError naming its path.

    L-BFGS-B makes tiny BLAS calls through scipy's own OpenBLAS, whose
    threads busy-wait between calls: an optimization burns a second core,
    runs up to 3x slower after a thread sleeps, and forked workers that
    inherit the threads run many times slower.  So unless the caller set
    OPENBLAS_NUM_THREADS (a caller's count wins), the library runs one
    thread.  It reads that variable once, at load, so it is loaded with
    the variable set to 1; where it loaded earlier (with scipy.linalg or
    scipy.optimize, here or in the process this one forked from), its count
    is set through the setter that scipy's wheels export.
    """
    name = "scipy.optimize._lbfgsb"
    chosen = os.environ.get("OPENBLAS_NUM_THREADS")
    if name not in sys.modules:
        scipy = importlib.util.find_spec("scipy")
        if scipy is None:
            raise ImportError("No module named 'scipy'", name="scipy")
        spec = importlib.util.spec_from_file_location(name, os.path.join(
            os.path.dirname(scipy.origin), "optimize", "_lbfgsb" + EXTENSION_SUFFIXES[0]))
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
        try:
            sys.modules[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(sys.modules[name])
        finally:
            if chosen is None:
                del os.environ["OPENBLAS_NUM_THREADS"]
    if chosen is None:
        library = ctypes.CDLL(sys.modules[name].__file__)  # dlsym also searches its OpenBLAS
        set_threads = getattr(library, "scipy_openblas_set_num_threads", None)
        if set_threads is not None:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(1)
    return sys.modules[name].setulb


def _lbfgsb(objective: _Objective, theta0: np.ndarray):
    """Maximize <C> by L-BFGS-B from every row of theta0, all rows in lockstep.

    Each row has its own state in scipy's L-BFGS-B step (setulb) and runs
    minimize's loop and settings: memory 10, ftol OBJECTIVE_TOL, gtol 1e-9,
    20 line-search steps, MAX_ITER iterations, no bounds, and no second
    evaluation at the point last evaluated (first of all, the start).  A
    round advances each running row until it asks for (f, g) or stops; the
    rows that asked share one kernel call.  A row that ends below its start
    keeps the start.  Returns the angles, the values and each row's nit and
    nfev, as minimize counts them.

    The loop runs once per setulb call, so it keeps its Python cost near the
    call's own: each row's setulb arguments are views into the batch arrays,
    built once (none of those arrays is rebound afterwards), f, the last
    evaluated point, nit and nfev are lists, and a kernel call writes back
    only the rows that asked.
    """
    rows, d = theta0.shape
    setulb = _setulb()
    m, maxls, factr, pgtol = 10, 20, OBJECTIVE_TOL / np.finfo(float).eps, 1e-9
    x = np.array(theta0, dtype=float)  # setulb moves each row in place
    value0, grad0 = objective.value_and_grad(x)
    g, f, last = -grad0, (-value0).tolist(), x.tolist()
    wa, dsave = np.zeros((rows, 2 * m * d + 5 * d + 11 * m * m + 8 * m)), np.zeros((rows, 29))
    iwa, task, ln_task, lsave, isave = (np.zeros((rows, k), np.int32) for k in (3 * d, 2, 2, 4, 44))
    bound, unbounded = np.zeros(d), np.zeros(d, np.int32)
    views = list(zip(x, g, wa, iwa, task, lsave, isave, dsave, ln_task))
    nit, nfev = [0] * rows, [1] * rows
    running = range(rows)
    while running:
        asking = []
        for i in running:
            xi, gi, wai, iwai, taski, lsavei, isavei, dsavei, ln_taski = views[i]
            while True:
                setulb(m, xi, bound, bound, unbounded, f[i], gi, factr, pgtol, wai, iwai, taski,
                       lsavei, isavei, dsavei, maxls, ln_taski)
                code = taski[0]
                if code == 3:  # FG: wants f and g at xi
                    if xi.tolist() != last[i]:
                        asking.append(i)
                        break
                elif code == 1:  # NEW_X: an iteration ended
                    nit[i] += 1
                    if nit[i] >= MAX_ITER:
                        taski[:] = 5, 504  # STOP, iteration limit; the next call returns
                else:
                    break
        running = asking
        if asking:
            points = x[asking]
            value, grad = objective.value_and_grad(points)
            g[asking] = -grad
            for i, fi, point in zip(asking, (-value).tolist(), points.tolist()):
                f[i], last[i] = fi, point
                nfev[i] += 1
    f = np.array(f)
    keep = -f < value0
    x[keep] = theta0[keep]
    return x, np.where(keep, value0, -f), np.array(nit), np.array(nfev)


@functools.cache
def _sha256():
    """CPython's own SHA-256 constructor, loaded on first call: _sha2.sha256
    from 3.12, _sha256.sha256 before, as random.py takes its SHA-512.
    hashlib, only on a build with neither, loads OpenSSL's libcrypto, about
    3.5 MB of RSS for one short digest per optimization."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256


def _start_key(form: str) -> int:
    """The digest that keys a graph's start streams: the first 8 bytes of
    sha256 of its canonical form, big-endian."""
    return int.from_bytes(_sha256()(form.encode("ascii")).digest()[:8], "big")


# Seeded starts.  Row idx of _start_points is what
# np.random.default_rng([seed, digest, idx]).random(d) draws, rebuilt from
# the algorithms that call defines, for all rows at once:
# * SeedSequence (numpy's port of O'Neill's seed_seq_fe) hashes the entropy
#   words, 32 bits each and least significant first, into a pool of 4 words
#   and expands the pool into four 64-bit words w0..w3;
# * PCG64 (O'Neill, HMC-CS-2014-0905) is the 128-bit LCG
#   s <- s * 0x2360ED051FC65DA44385DF649FCCF645 + inc, seeded with
#   inc = 2 (w2 w3) + 1 and s = step(step(0) + (w0 w1)); each draw steps once
#   and outputs XSL-RR, rotr64(hi ^ lo, hi >> 58), of the new state;
# * random() maps each output x to (x >> 11) 2^-53.
# 128-bit values are (hi, lo) pairs of uint64 rows.  The hash constants do
# not depend on the data, so they stay Python ints.

_MASK32 = 0xFFFFFFFF
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _entropy_words(value: int) -> list[int]:
    """SeedSequence's 32-bit words of a non-negative int; 0 is [0]."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    return [value >> shift & _MASK32 for shift in range(0, value.bit_length(), 32)] or [0]


def _hash_constants(hash_const: int, mult: int):
    """SeedSequence's hash constant before and after each successive hashmix."""
    while True:
        advanced = hash_const * mult & _MASK32
        yield hash_const, advanced
        hash_const = advanced


def _hashmix(value: np.ndarray, constants) -> np.ndarray:
    before, after = next(constants)
    value = (value ^ before) * after
    return value ^ value >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = 0xCA01F9DD * x - 0x4973F715 * y
    return result ^ result >> 16


def _add128(hi, lo, add_hi, add_lo):
    lo_sum = lo + add_lo
    return hi + add_hi + (lo_sum < lo), lo_sum


def _pcg_step(hi, lo, inc):
    """s * multiplier + inc mod 2^128; lo * _PCG_MULT_LO is taken whole, on 32-bit limbs."""
    a0, a1, b0, b1 = lo & _MASK32, lo >> 32, _PCG_MULT_LO & _MASK32, _PCG_MULT_LO >> 32
    low, cross0, cross1 = a0 * b0, a0 * b1, a1 * b0
    mid = (low >> 32) + (cross0 & _MASK32) + (cross1 & _MASK32)
    carry = a1 * b1 + (cross0 >> 32) + (cross1 >> 32) + (mid >> 32)
    return _add128(carry + hi * _PCG_MULT_LO + lo * _PCG_MULT_HI, mid << 32 | low & _MASK32, *inc)


def _start_points(seed: int, digest: int, count: int, d: int) -> np.ndarray:
    """Row idx, for idx < count, is np.random.default_rng([seed, digest, idx]).random(d),
    bit for bit (see the comment above)."""
    if count > 1 << 32:
        raise ValueError(f"start indices must fit one 32-bit word: at most 2^32 starts, got {count}")
    # every idx < 2^32 is one entropy word, so all rows share one word layout
    entropy = [np.full(count, w, np.uint32) for w in _entropy_words(seed) + _entropy_words(digest)]
    entropy.append(np.arange(count, dtype=np.uint32))
    entropy += [np.zeros(count, np.uint32)] * (4 - len(entropy))
    constants = _hash_constants(0x43B0D7E5, 0x931E8875)
    pool = [_hashmix(word, constants) for word in entropy[:4]]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], _hashmix(pool[i_src], constants))
    for word in entropy[4:]:
        for i_dst in range(4):
            pool[i_dst] = _mix(pool[i_dst], _hashmix(word, constants))
    constants = _hash_constants(0x8B51F9DD, 0x58F38DED)
    halves = [_hashmix(pool[i % 4], constants).astype(np.uint64) for i in range(8)]
    w0, w1, w2, w3 = (halves[k] | halves[k + 1] << 32 for k in range(0, 8, 2))
    inc = w2 << 1 | w3 >> 63, w3 << 1 | 1
    hi, lo = _pcg_step(*_add128(*inc, w0, w1), inc)  # step(0) is inc
    out = np.empty((count, d))
    for j in range(d):
        hi, lo = _pcg_step(hi, lo, inc)
        x, r = hi ^ lo, hi >> 58
        out[:, j] = (x >> r | x << (64 - r & 63)) >> 11
    return out * 2.0 ** -53


def _outcome(g: Graph, objective: _Objective, p: int, theta, stats: OptimizerStats) -> QaoaOutcome:
    angles = AngleVector.from_flat(theta)
    sv = objective.states(angles.gammas, angles.betas)
    cmax = float(objective.cost.max())  # C(z) = C(~z), so the half state holds every cut value
    exp_c = min(float(objective.expectation(sv)), cmax)
    prob = 2.0 * float((np.abs(sv[objective.cost == cmax]) ** 2).sum())
    return QaoaOutcome(graph_id=g.id, p=p, best_angles=angles, exp_c=exp_c, prob_cmax=prob,
                       ratio=exp_c / cmax, delta_ratio=None, optimizer_stats=stats)


def uniform_outcome(g: Graph, mc: MaxCutSummary | None = None) -> QaoaOutcome:
    """Depth-0 metrics: the uniform superposition, no parameters.  They are
    exact: each edge is cut in half the assignments, so <C> = |E|/2, and
    every assignment has probability 2^-n."""
    _require_edges(g)
    mc = maxcut_bruteforce(g) if mc is None else mc
    exp_c = g.edge_count / 2
    return QaoaOutcome(graph_id=g.id, p=0, best_angles=AngleVector((), ()), exp_c=exp_c,
                       prob_cmax=mc.optimal_count / 2 ** g.n, ratio=exp_c / mc.cmax,
                       delta_ratio=None, optimizer_stats=OptimizerStats(0, -1, 0))


def optimize_angles(g: Graph, p: int, starts: int = DEFAULT_STARTS, seed: int = 0,
                    extra_starts=()) -> QaoaOutcome:
    """Best <C> over multi-start L-BFGS-B; depth 1 is grid cross-checked.

    extra_starts supplies additional flat angle vectors to polish alongside
    the seeded random starts (used for warm starts between depths); extra
    point j has start index starts + j.  The first start with the highest
    value wins.
    """
    if p not in SUPPORTED_DEPTHS:
        raise ValueError(f"depth must be one of {SUPPORTED_DEPTHS}, got {p}")
    if starts < 1:
        raise ValueError("starts must be >= 1")
    _require_edges(g)
    objective = _kernel(g)
    # uniform(0, hi) is 0 + hi * random(), so one draw of 2p doubles gives the
    # gammas in [0, 2pi) and then the betas in [0, pi)
    points = _start_points(seed, objective.start_key, starts, 2 * p) * np.repeat([TWO_PI, np.pi], p)
    thetas, values, _, nfev = _lbfgsb(objective, np.vstack([points, *extra_starts]))
    best_start = int(np.argmax(values))
    value, theta = values[best_start], thetas[best_start]
    if p == 1:
        gamma, beta, grid_value = grid_scan_p1(g)
        if grid_value > value:
            value, theta, best_start = grid_value, np.array([gamma, beta]), -1
    stats = OptimizerStats(starts, best_start, int(nfev.sum()))
    return _outcome(g, objective, p, theta, stats)


def grid_scan_p1(g: Graph) -> tuple[float, float, float]:
    """Dense depth-1 (gamma, beta) scan, GRID_POINTS per axis, with a local
    polish of the best cell.

    Serves as the depth-1 global oracle; seed-independent by construction.
    """
    objective, grid = _kernel(g), GRID_POINTS
    gammas = np.arange(grid) * (TWO_PI / grid)
    betas = np.arange(grid) * (np.pi / grid)
    step = max(1, EVAL_BLOCK // (grid * objective.uniform.size))  # gammas per slice
    values = np.concatenate([objective.expectation(objective.states(chunk[None, :, None], betas[None]))
                             for chunk in np.split(gammas, range(step, grid, step))])
    i, j = np.unravel_index(int(values.argmax()), values.shape)
    theta, value, _, _ = _lbfgsb(objective, np.array([[gammas[i], betas[j]]]))
    angles = AngleVector.from_flat(theta[0])
    return angles.gammas[0], angles.betas[0], float(value[0])


# ---------------------------------------------------------------------------
# Metric assembly
# ---------------------------------------------------------------------------


def metrics_bundle(g: Graph, mc: MaxCutSummary, outcomes) -> list[QaoaOutcome]:
    """Fill the delta ratio across a p = 0..P outcome sequence.

    delta at p is the fraction of the remaining gap closed by the p-th
    layer; it is undefined (None) at p = 0 and whenever the previous level
    already sits within DELTA_EPS of the optimum.
    """
    filled = []
    for i, outcome in enumerate(outcomes):
        if outcome.p != i:
            raise ValueError(f"outcome sequence must start at p=0 and be consecutive; "
                             f"position {i} has p={outcome.p}")
        delta = None
        if i:
            gap = mc.cmax - filled[-1].exp_c
            delta = None if gap < DELTA_EPS else (outcome.exp_c - filled[-1].exp_c) / gap
        filled.append(replace(outcome, delta_ratio=delta))
    return filled


def run_depth_series(g: Graph, pmax: int, starts: int = DEFAULT_STARTS,
                     seed: int = 0) -> list[QaoaOutcome]:
    """Optimize depths 1..pmax (plus the depth-0 row) with warm starts.

    Each depth adds the zero-padded best of the previous depth to the start
    set, which keeps best <C> non-decreasing in p by construction.
    """
    if not 0 <= pmax <= max(SUPPORTED_DEPTHS):
        raise ValueError(f"pmax must be within 0..{max(SUPPORTED_DEPTHS)}, got {pmax}")
    outcomes = [uniform_outcome(g)]
    for p in range(1, pmax + 1):
        prev = outcomes[-1].best_angles
        warm = np.concatenate([prev.gammas, (0.0,), prev.betas, (0.0,)])
        outcomes.append(optimize_angles(g, p, starts, seed, extra_starts=(warm,)))
    return metrics_bundle(g, maxcut_bruteforce(g), outcomes)
