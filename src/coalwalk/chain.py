"""Exact quantities of the lazy random walk on a graph.

Everything here is deterministic linear algebra on the lazy transition
matrix P = I/2 + D^{-1}A/2: the stationary distribution, t-step rows,
total-variation mixing and separation times, the spectral gap, hitting
times, exact meeting times via the synchronous product chain, and the
collision statistics (expected co-location and return counts over a
mixing-time window) that drive the explicit meeting-time sandwich.

Mixing and separation times are first threshold crossings of P^t. They
share one ladder of squarings [P, P^2, P^4, ...] cached on the graph and
find t by doubling along it, then binary lifting: about 2 log2 t dense
n x n products per search, and the squarings are paid once per graph.

Collision statistics step the rows of P^t transposed, X <- P^T X with a
sparse P^T, in contiguous blocks of start vertices, at most one per
usable CPU: block 0 on the calling thread, the others in a thread pool.
Each start's sums take the same float operations in the same order in
any block, so the values do not depend on the CPU count.

P is built once, dense, from the graph's rows in numpy
(``_dense_transition``), so hitting, separation, spectral, bracket mixing
and the dense meeting solve need no scipy. It loads inside the three
callers that do: scipy.sparse for the CSR copies of that dense P in
collision statistics and the sparse meeting branch (with its LU solver),
and scipy.spatial for the pairwise mixing distance.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (BudgetExceeded, InvalidSpec, LengthMismatch, TooLarge,
                     is_integer)
from .graphs import Graph

if TYPE_CHECKING:
    import scipy.sparse as sp

INV_E = 1.0 / math.e
_REFINE_TOL = 1e-10  # hitting_to refines once above this residual times n
_PAIRWISE_LIMIT = 256  # mixing_time: largest n with the exact pairwise value
_PER_TARGET_LIMIT = 128  # hitting_matrix: largest n solved target by target
_MEETING_LIMIT = 100  # meeting_exact: largest n of the product-chain solve
_MAX_STEPS = 10 ** 8  # mixing_time, separation_time: largest t searched
# Fewest start vertices in a collision_stats block. Blocks of one column
# would let einsum reduce in another order, so this stays at 2 or more.
_COLLISION_GRAIN = 128


# ---------------------------------------------------------------------------
# Transition matrix and distributions
# ---------------------------------------------------------------------------

def _dense_rows(g: Graph, weights) -> np.ndarray:
    """Dense n x n matrix with ``weights`` at the row entries of g; repeats
    add up, as in ``toarray()`` of the CSR matrix over the same rows."""
    mat = np.zeros((g.n, g.n))
    keys = np.repeat(np.arange(g.n) * g.n, g.degrees) + g.indices
    np.add.at(mat.reshape(-1), keys, weights)
    return mat


def _dense_transition(g: Graph) -> np.ndarray:
    """Dense lazy transition matrix P (cached on the graph), filled from
    the rows; the one builder of P."""
    mat = g._cache.get("P_dense")
    if mat is None:
        mat = _dense_rows(g, 0.5 / np.repeat(g.degrees, g.degrees))
        mat.reshape(-1)[::g.n + 1] += 0.5
        g._cache["P_dense"] = mat
    return mat


def stationary(g: Graph) -> np.ndarray:
    """pi(u) = deg(u) / 2m."""
    return g.degrees / (2.0 * g.m)


def lazy_step(g: Graph, dist: np.ndarray) -> np.ndarray:
    """One lazy-walk step d' = d P in a single O(m + n) sparse pass."""
    dist = np.asarray(dist, dtype=float)
    if dist.shape != (g.n,):
        raise LengthMismatch("distribution length != vertex count")
    contrib = np.repeat(dist / (2.0 * g.degrees), g.degrees)
    return 0.5 * dist + np.bincount(g.indices, weights=contrib, minlength=g.n)


# ---------------------------------------------------------------------------
# Mixing and separation times
# ---------------------------------------------------------------------------

def _dbar(rows: np.ndarray) -> float:
    """Worst pairwise total-variation distance between rows."""
    from scipy.spatial.distance import pdist

    return 0.5 * float(pdist(rows, metric="cityblock").max())


def _dmax(rows: np.ndarray, pi: np.ndarray) -> float:
    """Worst total-variation distance to stationarity."""
    return 0.5 * float(np.abs(rows - pi).sum(axis=1).max())


def _first_time(g: Graph, predicate, max_steps: int, what: str) -> int:
    """Smallest t >= 1 with predicate(P^t) true; predicate monotone in t.

    Walks the ladder [P, P^2, P^4, ...] cached on the graph, one squaring
    per new rung, up to the first rung where the predicate holds, then
    binary-lifts from the rung below: rows @ ladder[j] for j from high to
    low, kept while the predicate stays false. P^1 is always probed, no
    probe passes ``max_steps``, and BudgetExceeded is raised when the
    predicate is still false at t = max_steps. P^0 = I is never probed:
    for n >= 2 no predicate holds there (d(I) = 1 - min pi, dbar(I) = 1).
    """
    ladder = g._cache.setdefault("pow2", [_dense_transition(g)])
    if predicate(ladder[0]):
        return 1
    top = 0  # predicate false at t = 2**top
    while 2 ** (top + 1) <= max_steps:
        if len(ladder) == top + 1:
            ladder.append(ladder[top] @ ladder[top])
        if predicate(ladder[top + 1]):
            break
        top += 1
    t, rows = 2 ** top, ladder[top]
    for j in range(top - 1, -1, -1):
        if t + 2 ** j <= max_steps:
            probe = rows @ ladder[j]
            if not predicate(probe):
                t, rows = t + 2 ** j, probe
    if t >= max_steps:
        raise BudgetExceeded(f"{what}: predicate still false at t={t}")
    return t + 1


@dataclass(frozen=True)
class MixingResult:
    """Mixing time, either exact (pairwise definition) or bracketed.

    ``method`` is "pairwise" when the worst pairwise distance was
    evaluated exactly, or "bracket" when only the distance to
    stationarity d(t) was used; then ``bracket`` = (min t: d <= 1/e,
    min t: d <= 1/(2e)) sandwiches the pairwise value and ``value`` is the
    conservative upper endpoint.
    """
    value: int
    method: str
    bracket: tuple[int, int] | None = None


def mixing_time(g: Graph) -> MixingResult:
    """First t at which the worst pairwise TV distance drops to 1/e (INV_E).

    Exact for n <= _PAIRWISE_LIMIT (256). Above that, evolving all rows is
    still exact but the pairwise maximum is replaced by the distance to
    stationarity, which sandwiches the pairwise value within the reported
    bracket; the returned value is the bracket's upper end. Both bracket
    searches walk the graph's cached ladder of squarings of P, which holds
    ceil(log2 t) + 1 dense n x n matrices once the search reaches t.
    BudgetExceeded is raised when the distance is still above 1/e at
    t = _MAX_STEPS (10^8).
    """
    if g.n <= _PAIRWISE_LIMIT:
        t = _first_time(g, lambda rows: _dbar(rows) <= INV_E, _MAX_STEPS,
                        "mixing_time")
        return MixingResult(t, "pairwise")
    pi = stationary(g)
    hi = _first_time(g, lambda rows: _dmax(rows, pi) <= INV_E / 2,
                     _MAX_STEPS, "mixing_time")
    lo = _first_time(g, lambda rows: _dmax(rows, pi) <= INV_E, hi,
                     "mixing_time")
    return MixingResult(hi, "bracket", bracket=(lo, hi))


def separation_time(g: Graph) -> int:
    """First t with p^t(u, v) >= (1 - 1/e) pi(v) for every pair, searched
    up to t = _MAX_STEPS (10^8) like ``mixing_time``."""
    floor = (1.0 - INV_E) * stationary(g)

    def ok(rows: np.ndarray) -> bool:
        return bool(np.all(rows >= floor - 1e-15))

    return _first_time(g, ok, _MAX_STEPS, "separation_time")


# ---------------------------------------------------------------------------
# Spectral gap
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralSummary:
    lambda2: float
    gap: float
    method: str
    residual: float


def spectral(g: Graph) -> SpectralSummary:
    """Second-largest eigenvalue of the lazy walk.

    One dense symmetric eigensolve (``eigvalsh``) of the similarity
    transform D^{1/2} P D^{-1/2}; being direct, it reports residual 0.
    """
    dinv = 1.0 / np.sqrt(g.degrees)
    sym = 0.5 * np.eye(g.n) + 0.5 * (
        dinv[:, None] * _dense_rows(g, 1.0) * dinv[None, :])
    eigs = np.linalg.eigvalsh(sym)
    lam2 = float(eigs[-2])
    lam2 = min(max(lam2, 0.0), 1.0)
    return SpectralSummary(lam2, 1.0 - lam2, "dense", 0.0)


# ---------------------------------------------------------------------------
# Hitting times
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HittingProfile:
    """Expected times to reach ``target`` from every start vertex."""
    target: int
    times: np.ndarray
    residual: float
    method: str


def hitting_to(g: Graph, target: int) -> HittingProfile:
    """Solve (I - P restricted to V minus {target}) h = 1.

    One dense LU solve, refined once when its max residual exceeds
    1e-10 * n; the refined solve is kept only when its residual is lower.
    ``residual`` is the max residual of the times returned.
    """
    g.check_vertices((target,), "target")
    others = np.flatnonzero(np.arange(g.n) != target)
    rhs = np.ones(g.n - 1)
    P = _dense_transition(g)
    A = np.eye(g.n - 1) - P[np.ix_(others, others)]
    h = np.linalg.solve(A, rhs)
    resid = np.abs(A @ h - rhs).max()
    if resid > _REFINE_TOL * g.n:
        refined = h + np.linalg.solve(A, rhs - A @ h)
        refined_resid = np.abs(A @ refined - rhs).max()
        if refined_resid < resid:
            h, resid = refined, refined_resid
    full = np.zeros(g.n)
    full[others] = h
    return HittingProfile(target, full, float(resid), "dense")


def hitting_matrix(g: Graph) -> np.ndarray:
    """All-pairs expected hitting times H[u, v] = E[time to v from u].

    Graphs with n <= _PER_TARGET_LIMIT (128) run one restricted solve per
    target; larger ones use the fundamental-matrix identity
    H[u, v] = (Z[v, v] - Z[u, v]) / pi(v) with Z = (I - P + 1 pi^T)^{-1},
    one dense solve total. The two routes agree to solver precision and the
    tests hold them to that. Nothing is cached: each call solves afresh.
    """
    if g.n <= _PER_TARGET_LIMIT:
        return np.column_stack([hitting_to(g, v).times for v in range(g.n)])
    pi = stationary(g)
    P = _dense_transition(g)
    Z = np.linalg.solve(np.eye(g.n) - P + pi[None, :], np.eye(g.n))
    H = (np.diag(Z)[None, :] - Z) / pi[None, :]
    np.fill_diagonal(H, 0.0)
    return H


def t_hit(g: Graph) -> float:
    """Worst-case expected hitting time max_{u,v} E[time to v from u]."""
    return float(hitting_matrix(g).max())


# ---------------------------------------------------------------------------
# Meeting times (synchronous product chain)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeetingResult:
    t_meet: float
    t_meet_pi: float
    pair: tuple[int, int]
    pairwise: np.ndarray
    residual: float
    method: str


def meeting_exact(g: Graph) -> MeetingResult:
    """Expected meeting times of two independent lazy walks.

    Graphs with n > _MEETING_LIMIT raise ``TooLarge``.

    Solves the absorption time of the synchronous product chain over
    ordered off-diagonal pairs in one direct solve of A m = 1 with
    A = I - K: dense (``method`` "dense") when P (x) P has more than 2%
    nonzeros, else sparse LU ("sparse"). The dense branch never forms
    P (x) P: it fills A^T in C order, one row block per first coordinate
    from products of the columns of P, so the A it hands to LAPACK is
    already in column order and numpy's copy of it is not a transpose.
    ``residual`` is max |A m - 1|, with A @ m taken by BLAS on that same
    matrix.

    Returns the worst-case value, the stationary-start average, the argmax
    pair, and the full matrix of pair values.
    """
    if g.n > _MEETING_LIMIT:
        raise TooLarge(f"meeting_exact limited to n <= {_MEETING_LIMIT}, "
                       f"got {g.n}")
    n = g.n
    states = np.arange(n * n)
    offdiag = np.flatnonzero(states // n != states % n)
    N = offdiag.size
    rhs = np.ones(N)
    density = (n + 2.0 * g.m) ** 2 / (float(N) * N)
    if density > 0.02:
        method = "dense"
        Pt = _dense_transition(g).T
        # A^T in C order, one row block (i, v != i) per i: entry
        # ((i, v), (x, y)) is 0 - P[x, i] P[y, v], the x == y columns dropped
        At = np.empty((N, N))
        prod = np.empty((n - 1, n * n))
        for i in range(n):
            np.multiply(Pt[i][None, :, None],
                        np.delete(Pt, i, axis=0)[:, None, :],
                        out=prod.reshape(n - 1, n, n))
            offdiag_cols = prod[:, 1:].reshape(n - 1, n - 1, n + 1)[:, :, :n]
            block = At[i * (n - 1):(i + 1) * (n - 1)].reshape(n - 1, n - 1, n)
            np.subtract(0.0, offdiag_cols, out=block)
        At.reshape(-1)[::N + 1] += 1.0
        A = At.T  # column order: numpy hands it to LAPACK without a transpose
        m_vec = np.linalg.solve(A, rhs)
    else:
        import scipy.sparse as sp
        from scipy.sparse.linalg import spsolve

        method = "sparse"
        P = sp.csr_matrix(_dense_transition(g))
        K = sp.kron(P, P, format="csr")[offdiag][:, offdiag].tocsr()
        A = (sp.identity(N, format="csr") - K).tocsc()
        m_vec = spsolve(A, rhs)
    resid = float(np.abs(A @ m_vec - rhs).max())
    full = np.zeros(n * n)
    full[offdiag] = m_vec
    M = full.reshape(n, n)
    pi = stationary(g)
    weights = np.outer(pi, pi)
    t_meet_pi = float((weights * M).sum())
    pair = np.unravel_index(int(np.argmax(M)), (n, n))
    return MeetingResult(float(M.max()), t_meet_pi,
                         (int(pair[0]), int(pair[1])), M, resid, method)


# ---------------------------------------------------------------------------
# Collision statistics over a mixing-time window
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CollisionStats:
    """Expected co-location and return counts over t in [0, t_mix).

    c_max/c_min bound the expected collisions of two walks released from
    the same vertex; r_max counts expected returns. The window always
    includes t = 0, so c_min >= 1 and r_max >= 1.
    """
    c_max: float
    c_min: float
    r_max: float
    pi_norm_sq: float
    t_mix_used: int

    def __post_init__(self):
        if self.c_min > self.c_max + 1e-12:
            raise ValueError("c_min exceeds c_max")


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _collision_block(Pt: sp.csr_matrix, lo: int, hi: int,
                     window: int) -> tuple[np.ndarray, np.ndarray]:
    """Window sums of sum_v p^t(u,v)^2 and p^t(u,u) for lo <= u < hi.

    Column j of X is the row p^t(lo + j, .), stepped as X <- P^T X.
    """
    X = np.eye(Pt.shape[0], hi - lo, -lo)
    sq_sums = np.ones(hi - lo)  # the t = 0 terms: X has unit columns
    returns = np.ones(hi - lo)
    for _ in range(window - 1):
        X = Pt @ X
        sq_sums += np.einsum("ij,ij->j", X, X)
        returns += X[lo:hi].diagonal()
    return sq_sums, returns


def collision_stats(g: Graph, t_mix_value: int) -> CollisionStats:
    """Accumulate sum_t sum_v p^t(u,v)^2 and sum_t p^t(u,u) for t < t_mix.

    The window is ``t_mix_value`` steps, an integer >= 1 (else
    InvalidSpec); callers pass ``mixing_time(g).value``.
    The rows p^t(u, .) are kept transposed, as the columns of X, and
    stepped as X <- P^T X with P^T a CSR copy of the dense P. The start
    vertices are split into contiguous blocks of at least _COLLISION_GRAIN,
    one per usable CPU at most. Block 0 runs on the calling thread and the
    rest in a pool, so one block starts no thread. Every start sees the
    same float operations in the same order whatever its block, so the
    result does not depend on the CPU count.
    """
    import scipy.sparse as sp

    if not is_integer(t_mix_value) or t_mix_value < 1:
        raise InvalidSpec("collision window must be an integer >= 1")
    window = int(t_mix_value)
    Pt = sp.csr_matrix(_dense_transition(g).T)
    count = max(1, min(_usable_cpus(), g.n // _COLLISION_GRAIN))
    edges = [g.n * k // count for k in range(count + 1)]
    with ThreadPoolExecutor(count) as pool:
        rest = pool.map(lambda lo, hi: _collision_block(Pt, lo, hi, window),
                        edges[1:-1], edges[2:])
        parts = [_collision_block(Pt, 0, edges[1], window), *rest]
    sq_sums, returns = map(np.concatenate, zip(*parts))
    pi = stationary(g)
    return CollisionStats(
        c_max=float(sq_sums.max()), c_min=float(sq_sums.min()),
        r_max=float(returns.max()), pi_norm_sq=float(pi @ pi),
        t_mix_used=window)
