"""Coalescence and voter estimates against the exact occupied-set chain.

With the smallest-id merge rule the set of occupied vertices is itself a
Markov chain: each occupied vertex holds one walk, the walks step
independently by P, and the next state is the set of their positions. Its
expected absorption times into the one-vertex sets give E[T_coal] from any
start set. By duality, the voter consensus time from all-distinct opinions
has the law of coalescence from every vertex.
"""
import numpy as np
import pytest

from coalwalk import chain
from coalwalk.graphs import FamilySpec, generate
from coalwalk.simulate import estimate
from conftest import csr_transition

# (spec, E[T_coal] from every vertex, to four decimals)
CASES = [
    (FamilySpec("cycle", n=8), 25.8102),
    (FamilySpec("path", n=8), 33.4452),
    (FamilySpec("star", n=8), 6.3672),
    (FamilySpec("clique", n=8), 16.7107),
    (FamilySpec("hypercube", dim=3), 19.0966),
    (FamilySpec("cycle", n=10), 39.1470),
]
TRIALS = 4000
COAL_SEED, VOTER_SEED = 777, 778
Z_MAX = 4.0


def exact_coalescence_times(g):
    """E[T_coal] from every start set, indexed by the set's bitmask, and
    the largest residual of the solve; n <= 10 keeps the 2^n states cheap.

    A state's row is the law of the image set, built by folding in one
    walk at a time: the walk at u lands on w with probability P[u, w],
    taking each image set T to T | {w}.
    """
    P = csr_transition(g).toarray()
    size = 1 << g.n
    image = np.zeros((size, size))
    image[:, 0] = 1.0  # before any walk is folded in, the image is empty
    for u in range(g.n):
        # a view of the rows of the sets holding u; split on bit w, the last
        # axis pairs T without w (index 0) with T + {w} (index 1)
        held = image.reshape(-1, 2, 1 << u, size)[:, 1]
        folded = np.zeros_like(held)
        for w in np.flatnonzero(P[u]):
            split = held.shape[:2] + (-1, 2, 1 << w)
            src, dst = held.reshape(split), folded.reshape(split)
            dst[..., 1, :] += P[u, w] * (src[..., 0, :] + src[..., 1, :])
        held[...] = folded
    sets = np.arange(size)
    moving = np.flatnonzero([bin(s).count("1") >= 2 for s in sets])
    A = np.eye(moving.size) - image[np.ix_(moving, moving)]
    t = np.zeros(size)
    t[moving] = np.linalg.solve(A, np.ones(moving.size))
    residual = float(np.abs(A @ t[moving] - 1.0).max())
    return t, residual


@pytest.fixture(scope="module", params=CASES, ids=lambda c: c[0].label())
def case(request):
    spec, expected = request.param
    g = generate(spec)
    times, residual = exact_coalescence_times(g)
    return g, times, residual, expected


def _mask(vertices):
    return sum(1 << v for v in vertices)


def _z(est, exact):
    return (est.mean - exact) / est.stderr


def test_exact_values_and_meeting_below_coalescence(case):
    g, times, residual, expected = case
    full = times[_mask(range(g.n))]
    assert residual <= 1e-12
    assert full == pytest.approx(expected, abs=5e-5)
    assert chain.meeting_exact(g).t_meet <= full


def test_coalescence_from_every_vertex(case):
    g, times, _, _ = case
    est = estimate("coalescence", g, {}, TRIALS, COAL_SEED)
    assert est.censored_count == 0
    assert abs(_z(est, times[_mask(range(g.n))])) <= Z_MAX


def test_coalescence_from_a_sparse_start_set(case):
    g, times, _, _ = case
    starts = [0, 3, g.n - 1]
    est = estimate("coalescence", g, {"start_vertices": starts}, TRIALS,
                   COAL_SEED)
    assert est.censored_count == 0
    assert abs(_z(est, times[_mask(starts)])) <= Z_MAX


def test_voter_consensus(case):
    g, times, _, _ = case
    est = estimate("voter", g, {}, TRIALS, VOTER_SEED)
    assert est.censored_count == 0
    assert abs(_z(est, times[_mask(range(g.n))])) <= Z_MAX
