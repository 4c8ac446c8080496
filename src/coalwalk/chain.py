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
sparse P^T, in contiguous blocks of start vertices that run in threads,
at most one per usable CPU. Each start's sums take the same float
operations in the same order in any block, so the values do not depend on
the CPU count.

Dense matrices are filled from the graph's rows in numpy, so hitting,
separation, spectral, bracket mixing and the dense meeting solve need no
scipy. It loads inside the three callers that do: scipy.sparse for the CSR
transition matrix of collision statistics and the sparse meeting branch
(with its LU solver), and scipy.spatial for the pairwise mixing distance.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import BudgetExceeded, LengthMismatch, TooLarge
from .graphs import Graph

if TYPE_CHECKING:
    import scipy.sparse as sp

INV_E = 1.0 / math.e
_REFINE_TOL = 1e-10  # hitting_to refines once above this residual times n
_PAIRWISE_LIMIT = 256  # mixing_time: largest n with the exact pairwise value
_PER_TARGET_LIMIT = 128  # hitting_matrix: largest n solved target by target
_MEETING_LIMIT = 100  # meeting_exact: largest n of the product-chain solve
# Fewest start vertices in a collision_stats block. Blocks of one column
# would let einsum reduce in another order, so this stays at 2 or more.
_COLLISION_GRAIN = 128


# ---------------------------------------------------------------------------
# Transition matrix and distributions
# ---------------------------------------------------------------------------

def transition_matrix(g: Graph) -> sp.csr_matrix:
    """Sparse lazy transition matrix P (cached on the graph); built from
    the rows, not from the dense P, which costs a scan of all n^2 cells."""
    mat = g._cache.get("P")
    if mat is None:
        import scipy.sparse as sp

        weights = 0.5 / np.repeat(g.degrees, g.degrees)
        off = sp.csr_matrix((weights, g.indices, g.indptr), shape=(g.n, g.n))
        mat = (off + sp.identity(g.n, format="csr") * 0.5).tocsr()
        g._cache["P"] = mat
    return mat


def _dense_rows(g: Graph, weights) -> np.ndarray:
    """Dense n x n matrix with ``weights`` at the row entries of g; repeats
    add up, as in ``toarray()`` of the CSR matrix over the same rows."""
    mat = np.zeros((g.n, g.n))
    keys = np.repeat(np.arange(g.n) * g.n, g.degrees) + g.indices
    np.add.at(mat.reshape(-1), keys, weights)
    return mat


def _dense_transition(g: Graph) -> np.ndarray:
    """Dense lazy transition matrix P (cached on the graph), filled from
    the rows: equal bit for bit to ``transition_matrix(g).toarray()``."""
    mat = g._cache.get("P_dense")
    if mat is None:
        mat = _dense_rows(g, 0.5 / np.repeat(g.degrees, g.degrees))
        mat.reshape(-1)[::g.n + 1] += 0.5
        g._cache["P_dense"] = mat
    return mat


def stationary(g: Graph) -> np.ndarray:
    """pi(u) = deg(u) / 2m; the single-vertex graph gets the point mass."""
    if g.n == 1:
        return np.ones(1)
    return g.degrees / (2.0 * g.m)


def lazy_step(g: Graph, dist: np.ndarray) -> np.ndarray:
    """One lazy-walk step d' = d P in a single O(m + n) sparse pass."""
    dist = np.asarray(dist, dtype=float)
    if dist.shape != (g.n,):
        raise LengthMismatch("distribution length != vertex count")
    out = 0.5 * dist
    if g.m:
        contrib = np.repeat(dist / (2.0 * g.degrees), g.degrees)
        out += np.bincount(g.indices, weights=contrib, minlength=g.n)
    else:
        out += 0.5 * dist
    return out


# ---------------------------------------------------------------------------
# Mixing and separation times
# ---------------------------------------------------------------------------

def _dbar(rows: np.ndarray) -> float:
    """Worst pairwise total-variation distance between rows."""
    if rows.shape[0] < 2:
        return 0.0
    from scipy.spatial.distance import pdist

    return 0.5 * float(pdist(rows, metric="cityblock").max())


def _dmax(rows: np.ndarray, pi: np.ndarray) -> float:
    """Worst total-variation distance to stationarity."""
    return 0.5 * float(np.abs(rows - pi).sum(axis=1).max())


def _first_time(g: Graph, predicate, max_steps: int, what: str) -> int:
    """Smallest t >= 0 with predicate(P^t) true; predicate monotone in t.

    Walks the ladder [P, P^2, P^4, ...] cached on the graph, one squaring
    per new rung, up to the first rung where the predicate holds, then
    binary-lifts from the rung below: rows @ ladder[j] for j from high to
    low, kept while the predicate stays false. P^1 is always probed, no
    probe passes ``max_steps``, and BudgetExceeded is raised when the
    predicate is still false at t = max_steps.
    """
    if predicate(np.eye(g.n)):
        return 0
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
    stationarity d(t) was used; then ``bracket`` = (min t: d <= eps,
    min t: d <= eps/2) sandwiches the pairwise value and ``value`` is the
    conservative upper endpoint.
    """
    value: int
    method: str
    eps: float
    bracket: tuple[int, int] | None = None

    def __int__(self) -> int:
        return self.value

    def __index__(self) -> int:
        return self.value


def mixing_time(g: Graph, eps: float = INV_E,
                max_steps: int = 10 ** 8) -> MixingResult:
    """First t at which the worst pairwise TV distance drops to eps.

    Exact for n <= _PAIRWISE_LIMIT (256). Above that, evolving all rows is
    still exact but the pairwise maximum is replaced by the distance to
    stationarity, which sandwiches the pairwise value within the reported
    bracket; the returned value is the bracket's upper end. Both bracket
    searches walk the graph's cached ladder of squarings of P, which holds
    ceil(log2 t) + 1 dense n x n matrices once the search reaches t.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    if g.n == 1:
        return MixingResult(0, "pairwise", eps)
    if g.n <= _PAIRWISE_LIMIT:
        t = _first_time(g, lambda rows: _dbar(rows) <= eps, max_steps,
                        "mixing_time")
        return MixingResult(t, "pairwise", eps)
    pi = stationary(g)
    hi = _first_time(g, lambda rows: _dmax(rows, pi) <= eps / 2, max_steps,
                     "mixing_time")
    lo = _first_time(g, lambda rows: _dmax(rows, pi) <= eps, hi,
                     "mixing_time")
    return MixingResult(hi, "bracket", eps, bracket=(lo, hi))


def separation_time(g: Graph, eps: float = INV_E,
                    max_steps: int = 10 ** 8) -> int:
    """First t with p^t(u, v) >= (1 - eps) pi(v) for every pair."""
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    if g.n == 1:
        return 0
    pi = stationary(g)
    floor = (1.0 - eps) * pi

    def ok(rows: np.ndarray) -> bool:
        return bool(np.all(rows >= floor - 1e-15))

    return _first_time(g, ok, max_steps, "separation_time")


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
    if g.n == 1:
        return SpectralSummary(0.0, 1.0, "dense", 0.0)
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
    1e-10 * n; ``residual`` is the final max residual.
    """
    g.check_vertices((target,), "target")
    if g.n == 1:
        return HittingProfile(target, np.zeros(1), 0.0, "dense")
    others = np.flatnonzero(np.arange(g.n) != target)
    rhs = np.ones(g.n - 1)
    P = _dense_transition(g)
    A = np.eye(g.n - 1) - P[np.ix_(others, others)]
    h = np.linalg.solve(A, rhs)
    resid = np.abs(A @ h - rhs).max()
    if resid > _REFINE_TOL * g.n:
        h = h + np.linalg.solve(A, rhs - A @ h)
        resid = np.abs(A @ h - rhs).max()
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
    if g.n == 1:
        return np.zeros((1, 1))
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
    if n == 1:
        return MeetingResult(0.0, 0.0, (0, 0), np.zeros((1, 1)), 0.0, "direct")
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
        P = transition_matrix(g)
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
    sq_sums = np.zeros(hi - lo)
    returns = np.zeros(hi - lo)
    for t in range(window):
        if t:
            X = Pt @ X
        sq_sums += np.einsum("ij,ij->j", X, X)
        returns += X[lo:hi].diagonal()
    return sq_sums, returns


def collision_stats(g: Graph, t_mix_value: int | None = None) -> CollisionStats:
    """Accumulate sum_t sum_v p^t(u,v)^2 and sum_t p^t(u,u) for t < t_mix.

    The window is ``t_mix_value`` steps, by default ``mixing_time(g)`` at
    eps = 1/e, and at least one.
    The rows p^t(u, .) are kept transposed, as the columns of X, and
    stepped as X <- P^T X with P^T in CSR form. The start vertices are
    split into contiguous blocks of at least _COLLISION_GRAIN, one per
    usable CPU at most, and each block runs its whole window in a thread
    of its own. Every start sees the same float operations in the same
    order whatever its block, so the result does not depend on the CPU
    count.
    """
    if t_mix_value is None:
        t_mix_value = mixing_time(g).value
    window = max(int(t_mix_value), 1)
    Pt = transition_matrix(g).T.tocsr()
    count = max(1, min(_usable_cpus(), g.n // _COLLISION_GRAIN))
    if count == 1:
        parts = [_collision_block(Pt, 0, g.n, window)]
    else:
        edges = [g.n * k // count for k in range(count + 1)]
        with ThreadPoolExecutor(count) as pool:
            parts = list(pool.map(
                lambda lo, hi: _collision_block(Pt, lo, hi, window),
                edges[:-1], edges[1:]))
    sq_sums, returns = map(np.concatenate, zip(*parts))
    pi = stationary(g)
    return CollisionStats(
        c_max=float(sq_sums.max()), c_min=float(sq_sums.min()),
        r_max=float(returns.max()), pi_norm_sq=float(pi @ pi),
        t_mix_used=window)
