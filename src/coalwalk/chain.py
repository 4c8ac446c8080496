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

Collision statistics step the rows of P^t for every start at once,
X <- P^T X with a sparse P^T, while that takes at most _LOOP_WORK
multiply-adds; above it they sum, as geometric series, the powers of the
eigenvalues of one ``eigh`` of S = D^{1/2} P D^{-1/2}, whatever the window.

P is built once, dense, from the graph's rows in numpy
(``_dense_transition``), so all but three callers need no scipy. It loads
inside those: scipy.sparse for the CSR copies of that dense P in the
collision step loop (not its closed form) and the sparse meeting branch
(with its LU solver), and scipy.spatial for the pairwise mixing distance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BudgetExceeded, InvalidSpec, LengthMismatch, TooLarge,
                     is_integer)
from .graphs import Graph

INV_E = 1.0 / math.e
_PAIRWISE_LIMIT = 256  # mixing_time: largest n of the pairwise distance
_LOOP_WORK = 2 ** 24  # collision_stats: most multiply-adds of the step loop
_PER_TARGET_LIMIT = 128  # hitting_matrix: largest n of the stacked solves
_MEETING_LIMIT = 100  # meeting_exact: largest n of the product-chain solve
_MAX_STEPS = 10 ** 8  # mixing_time, separation_time: largest t searched


# ---------------------------------------------------------------------------
# Transition matrix and distributions
# ---------------------------------------------------------------------------

def _dense_rows(g: Graph, weights) -> np.ndarray:
    """Dense n x n matrix with ``weights`` at the row entries of g, each
    written once (rows are simple), as in ``toarray()`` of their CSR."""
    mat = np.zeros((g.n, g.n))
    keys = np.repeat(np.arange(g.n) * g.n, g.degrees) + g.indices
    mat.reshape(-1)[keys] = weights
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


def _symmetric(g: Graph) -> np.ndarray:
    """S = D^{1/2} P D^{-1/2}, dense and symmetric; built on each call."""
    dinv = 1.0 / np.sqrt(g.degrees)
    return 0.5 * np.eye(g.n) + 0.5 * (
        dinv[:, None] * _dense_rows(g, 1.0) * dinv[None, :])


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
    """Worst total-variation distance to stationarity, 64 rows at a time:
    the whole matrix's row sums, with no n x n temporary."""
    return 0.5 * max(float(np.abs(rows[a:a + 64] - pi).sum(axis=1).max())
                     for a in range(0, len(rows), 64))


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
    floor = (1.0 - INV_E) * stationary(g) - 1e-15

    def ok(rows: np.ndarray) -> bool:
        return bool(np.all(rows >= floor))

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
    transform ``_symmetric(g)``; being direct, it reports residual 0.
    """
    eigs = np.linalg.eigvalsh(_symmetric(g))
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


def _restricted_solves(g: Graph,
                       targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve (I - P without row and column v) h = 1 for each target v.

    The k systems are gathered from I - P by one boolean mask, keep[v, i, j]
    = (i != v) & (j != v), into a C-ordered (k, n-1, n-1) stack, and one
    ``np.linalg.solve`` runs LAPACK gesv on each slice: the same matrix and
    right-hand side, so the same bits, as a solve of that system alone.
    Returns the stack and the (k, n) times, 0 at each target.
    """
    n, k = g.n, targets.size
    off = np.arange(n) != targets[:, None]
    keep = off[:, :, None] & off[:, None, :]
    A = np.broadcast_to(np.eye(n) - _dense_transition(g), keep.shape)[keep]
    A = A.reshape(k, n - 1, n - 1)
    h = np.linalg.solve(A, np.ones((k, n - 1, 1)))
    times = np.zeros((k, n))
    times[off] = h.reshape(-1)
    return A, times


def hitting_to(g: Graph, target: int) -> HittingProfile:
    """Solve (I - P restricted to V minus {target}) h = 1.

    One dense LU solve, a stack of one in ``_restricted_solves``;
    ``residual`` is the max residual |A h - 1| of the times returned.
    """
    g.check_vertices((target,), "target")
    A, times = _restricted_solves(g, np.array([target]))
    h = np.delete(times[0], target)
    resid = np.abs(A[0] @ h - 1.0).max()
    return HittingProfile(target, times[0], float(resid), "dense")


def hitting_matrix(g: Graph) -> np.ndarray:
    """All-pairs expected hitting times H[u, v] = E[time to v from u].

    Graphs with n <= _PER_TARGET_LIMIT (128) solve the n restricted systems
    of ``hitting_to`` in one stacked call (``_restricted_solves``), column v
    bit for bit ``hitting_to(g, v).times``; larger ones use the
    fundamental-matrix identity H[u, v] = (Z[v, v] - Z[u, v]) / pi(v) with
    Z = (I - P + 1 pi^T)^{-1}, one dense solve total. The two routes agree
    to solver precision and the tests hold them to that. Nothing is cached:
    each call solves afresh.
    """
    if g.n <= _PER_TARGET_LIMIT:
        return _restricted_solves(g, np.arange(g.n))[1].T.copy()
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


def _collision_loop(g: Graph, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Window sums of sum_v p^t(u,v)^2 and p^t(u,u) for every start u,
    stepped: column u of X is the row p^t(u, .), and X <- P^T X with P^T a
    CSR copy of the dense P."""
    import scipy.sparse as sp

    Pt = sp.csr_matrix(_dense_transition(g).T)
    X = np.eye(g.n)
    sq_sums = np.ones(g.n)  # the t = 0 terms: X has unit columns
    returns = np.ones(g.n)
    for _ in range(window - 1):
        X = Pt @ X
        sq_sums += np.einsum("ij,ij->j", X, X)
        returns += X.diagonal()
    return sq_sums, returns


def _window_sum(x: np.ndarray, window: int) -> np.ndarray:
    """sum_{t < window} x^t for each x in [0, 1], as
    -expm1(window log x) / (1 - x): 1 at x = 0, window at x = 1."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x == 1.0, window,
                        -np.expm1(window * np.log(x)) / (1.0 - x))


def _collision_closed_form(g: Graph,
                           window: int) -> tuple[np.ndarray, np.ndarray]:
    """The sums of ``_collision_loop`` from S = Phi diag(lam) Phi^T, lam
    clipped to [0, 1]: sum_v p^t(u,v)^2 = sum_kl Phi_uk Phi_ul G_kl
    (lam_k lam_l)^t / pi(u) with G = Phi^T diag(pi) Phi, and p^t(u, u) =
    sum_k Phi_uk^2 lam_k^t, each power summed as a geometric series."""
    lam, phi = np.linalg.eigh(_symmetric(g))
    lam = np.clip(lam, 0.0, 1.0)
    pi = stationary(g)
    G = phi.T @ (pi[:, None] * phi)
    G *= _window_sum(np.outer(lam, lam), window)
    sq_sums = np.einsum("uk,uk->u", phi, phi @ G) / pi
    returns = (phi * phi) @ _window_sum(lam, window)
    return sq_sums, returns


def collision_stats(g: Graph, t_mix_value: int) -> CollisionStats:
    """Accumulate sum_t sum_v p^t(u,v)^2 and sum_t p^t(u,u) for t < t_mix.

    The window is ``t_mix_value`` steps, an integer >= 1 (else
    InvalidSpec); callers pass ``mixing_time(g).value``.
    The rows of P^t are stepped (``_collision_loop``) when that takes at
    most _LOOP_WORK (2^24) multiply-adds, window * (n + 2m) * n; above it
    the sums come from the closed form of one ``eigh``
    (``_collision_closed_form``), whose cost does not grow with the
    window. The tests hold the two to 1e-10 relative.
    """
    if not is_integer(t_mix_value) or t_mix_value < 1:
        raise InvalidSpec("collision window must be an integer >= 1")
    window = int(t_mix_value)
    sums = (_collision_loop if window * (g.n + 2 * g.m) * g.n <= _LOOP_WORK
            else _collision_closed_form)
    sq_sums, returns = sums(g, window)
    pi = stationary(g)
    return CollisionStats(
        c_max=float(sq_sums.max()), c_min=float(sq_sums.min()),
        r_max=float(returns.max()), pi_norm_sq=float(pi @ pi),
        t_mix_used=window)
