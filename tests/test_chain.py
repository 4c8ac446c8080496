import dataclasses
import functools
import math

import numpy as np
import pytest

from coalwalk import chain
from coalwalk.errors import (BudgetExceeded, InvalidSpec, LengthMismatch,
                             TooLarge)
from coalwalk.graphs import FamilySpec, generate
from conftest import (RAW_ROWS, csr_transition, row_arrays, small_family_specs,
                      unchecked_graph)

INV_E = 1.0 / math.e


def brute_rows(g, t):
    """Independent t-step rows: repeated single-step application."""
    rows = np.eye(g.n)
    for _ in range(t):
        rows = np.stack([chain.lazy_step(g, row) for row in rows])
    return rows


def brute_dbar(g, t):
    rows = brute_rows(g, t)
    worst = 0.0
    for i in range(g.n):
        for j in range(i + 1, g.n):
            worst = max(worst, 0.5 * np.abs(rows[i] - rows[j]).sum())
    return worst


@pytest.fixture(scope="module")
def k2():
    return generate(FamilySpec("clique", n=2))


@pytest.fixture(scope="module")
def cycle8():
    return generate(FamilySpec("cycle", n=8))


class TestStationaryAndSteps:
    def test_cycle_uniform(self, cycle8):
        assert np.allclose(chain.stationary(cycle8), 1.0 / 8)

    def test_star_degrees_over_2m(self):
        star = generate(FamilySpec("star", n=5))
        pi = chain.stationary(star)
        assert pi[0] == 0.5
        assert np.allclose(pi[1:], 1.0 / 8)

    def test_sums_to_one(self, small_graph):
        assert chain.stationary(small_graph).sum() == pytest.approx(1.0, abs=1e-12)

    def test_lazy_step_k2_point_mass(self, k2):
        assert np.allclose(chain.lazy_step(k2, [1.0, 0.0]), [0.5, 0.5])

    def test_stationary_fixed_point(self, small_graph):
        pi = chain.stationary(small_graph)
        assert np.abs(chain.lazy_step(small_graph, pi) - pi).max() < 1e-12

    def test_cycle4_one_step(self):
        c4 = generate(FamilySpec("cycle", n=4))
        step = chain.lazy_step(c4, [1.0, 0.0, 0.0, 0.0])
        assert np.allclose(step, [0.5, 0.25, 0.0, 0.25])

    def test_lazy_step_rejects_wrong_length(self, cycle8):
        with pytest.raises(LengthMismatch):
            chain.lazy_step(cycle8, [0.5, 0.5])

    def test_reversibility(self, small_graph):
        g = small_graph
        P = csr_transition(g).toarray()
        pi = chain.stationary(g)
        assert np.abs(pi[:, None] * P - (pi[:, None] * P).T).max() < 1e-12

    def test_return_probability_monotone_and_above_pi(self, cycle8):
        pi = chain.stationary(cycle8)
        prev = 1.0
        row = np.zeros(8)
        row[0] = 1.0
        for _ in range(1, 21):
            row = chain.lazy_step(cycle8, row)
            assert row[0] <= prev + 1e-15
            assert row[0] >= pi[0] - 1e-15
            prev = row[0]


class TestTV:
    """chain._dmax, the worst distance to pi, on single rows."""

    def test_identical(self):
        assert chain._dmax(np.array([[0.5, 0.5]]), np.array([0.5, 0.5])) == 0.0

    def test_disjoint_point_masses(self):
        assert chain._dmax(np.array([[1.0, 0.0]]), np.array([0.0, 1.0])) == 1.0

    def test_half(self):
        assert chain._dmax(np.array([[1.0, 0.0]]), np.array([0.5, 0.5])) == 0.5


class TestMixingSeparation:
    def test_k2(self, k2):
        assert chain.mixing_time(k2).value == 1
        assert chain.separation_time(k2) == 1

    def test_clique16_matches_brute_force(self):
        k16 = generate(FamilySpec("clique", n=16))
        t_mix = chain.mixing_time(k16).value
        assert t_mix <= 3  # consistent with constant mixing
        assert brute_dbar(k16, t_mix) <= INV_E
        assert brute_dbar(k16, t_mix - 1) > INV_E

    def test_monotone_in_eps(self, monkeypatch):
        c16 = generate(FamilySpec("cycle", n=16))
        values = []
        for eps in (0.5, INV_E, 0.2):
            monkeypatch.setattr(chain, "INV_E", eps)
            values.append(chain.mixing_time(c16).value)
        assert values == sorted(values)

    def test_dbar_nonincreasing(self, cycle8):
        vals = [brute_dbar(cycle8, t) for t in range(0, 12)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_bracket_mode_contains_pairwise_value(self, monkeypatch):
        c16 = generate(FamilySpec("cycle", n=16))
        exact = chain.mixing_time(c16).value
        monkeypatch.setattr(chain, "_PAIRWISE_LIMIT", 4)
        bracketed = chain.mixing_time(c16)
        assert bracketed.method == "bracket"
        lo, hi = bracketed.bracket
        assert lo <= exact <= hi
        assert bracketed.value == hi

    def test_budget_exceeded(self, cycle8, monkeypatch):
        monkeypatch.setattr(chain, "_MAX_STEPS", 2)
        with pytest.raises(BudgetExceeded):
            chain.mixing_time(cycle8)

    def test_separation_star_brute(self):
        star = generate(FamilySpec("star", n=5))
        t_sep = chain.separation_time(star)
        pi = chain.stationary(star)
        rows_prev = brute_rows(star, t_sep - 1)
        rows = brute_rows(star, t_sep)
        assert np.all(rows >= (1 - INV_E) * pi - 1e-15)
        assert not np.all(rows_prev >= (1 - INV_E) * pi - 1e-15)

    def test_sep_at_most_4_mix(self, small_graph):
        t_mix = chain.mixing_time(small_graph).value
        assert chain.separation_time(small_graph) <= 4 * t_mix

    def test_mixing_time_d_below_pairwise(self, cycle8):
        pi = chain.stationary(cycle8)
        t_d = chain._first_time(
            cycle8, lambda rows: chain._dmax(rows, pi) <= INV_E, 10 ** 8, "d")
        assert t_d <= chain.mixing_time(cycle8).value

    def test_cycle_mixing_scales_quadratically(self):
        from coalwalk.cli import fit_scaling
        series = [(n, float(chain.mixing_time(
            generate(FamilySpec("cycle", n=n))).value))
            for n in (16, 24, 32, 48)]
        fit = fit_scaling(series)
        assert 1.7 <= fit.exponent <= 2.3

    def test_return_probabilities_dominate_pi(self, small_graph):
        # over t <= 4 t_mix: p^t(u,u) non-increasing and always >= pi(u)
        g = small_graph
        horizon = 4 * chain.mixing_time(g).value
        pi = chain.stationary(g)
        rows = np.eye(g.n)
        prev = np.ones(g.n)
        P = csr_transition(g)
        for _ in range(horizon):
            rows = rows @ P
            diag = rows.diagonal()
            assert np.all(diag <= prev + 1e-12)
            assert np.all(diag >= pi - 1e-12)
            prev = diag.copy()


def scan_first_time(g, predicate, max_steps):
    """Oracle for the ladder search: P^t = P^(t-1) @ P, one step at a time.

    P^0 and P^1 are always probed, later t only up to max_steps.
    """
    P = csr_transition(g).toarray()
    rows = np.eye(g.n)
    for t in range(max(max_steps, 1) + 1):
        if predicate(rows):
            return t
        rows = rows @ P
    raise BudgetExceeded("oracle: predicate still false at max_steps")


def scan_or_budget(g, predicate, max_steps):
    try:
        return scan_first_time(g, predicate, max_steps)
    except BudgetExceeded:
        return BudgetExceeded


def budgeted(monkeypatch, m, eps, fn, *args):
    """fn(*args) with the search budget chain._MAX_STEPS set to m and the
    threshold chain.INV_E to eps."""
    with monkeypatch.context() as budget:
        budget.setattr(chain, "_MAX_STEPS", m)
        budget.setattr(chain, "INV_E", eps)
        return fn(*args)


def call_or_budget(fn):
    try:
        return fn()
    except BudgetExceeded:
        return BudgetExceeded


@pytest.mark.parametrize("spec", [
    FamilySpec("cycle", n=9),
    FamilySpec("path", n=12),
    FamilySpec("star", n=7),
    FamilySpec("barbell", n=16),
    FamilySpec("binary_tree", levels=4),
    FamilySpec("lower_bound", n=16, alpha=1.0),
], ids=lambda s: s.label())
def test_ladder_search_matches_step_scan(spec, monkeypatch):
    g = generate(spec, seed=11)
    pi = chain.stationary(g)
    for eps in (0.5, INV_E, 0.1):
        floor = (1.0 - eps) * pi

        def d_ok(rows):
            return chain._dmax(rows, pi) <= eps

        searches = {
            "pairwise": (lambda rows: chain._dbar(rows) <= eps,
                         lambda m: budgeted(monkeypatch, m, eps,
                                            chain.mixing_time, g).value),
            "d": (d_ok, lambda m: chain._first_time(g, d_ok, m, "d")),
            "separation": (lambda rows: bool(np.all(rows >= floor - 1e-15)),
                           lambda m: budgeted(monkeypatch, m, eps,
                                              chain.separation_time, g)),
        }
        for name, (predicate, search) in searches.items():
            t_star = scan_first_time(g, predicate, 10 ** 6)
            budgets = sorted({0, 1, 2, t_star - 1, t_star, t_star + 1,
                              2 * t_star + 1})
            for m in budgets:
                expected = scan_or_budget(g, predicate, m)
                got = call_or_budget(lambda: int(search(m)))
                assert got == expected, (name, eps, m)
        # bracket branch: d <= eps/2 under the budget, then d <= eps under it
        hi_star = scan_first_time(
            g, lambda rows: chain._dmax(rows, pi) <= eps / 2, 10 ** 6)
        for m in sorted({0, 1, 2, hi_star - 1, hi_star, hi_star + 1,
                         2 * hi_star + 1}):
            hi = scan_or_budget(
                g, lambda rows: chain._dmax(rows, pi) <= eps / 2, m)
            with monkeypatch.context() as forced:
                forced.setattr(chain, "_PAIRWISE_LIMIT", 4)
                forced.setattr(chain, "_MAX_STEPS", m)
                forced.setattr(chain, "INV_E", eps)
                got = call_or_budget(lambda: chain.mixing_time(g))
            if hi is BudgetExceeded:
                assert got is BudgetExceeded, (eps, m)
                continue
            lo = scan_first_time(
                g, lambda rows: chain._dmax(rows, pi) <= eps, hi)
            assert (got.value, got.method, got.bracket) == (
                hi, "bracket", (lo, hi)), (eps, m)


def oracle_graphs(source):
    if source == "raw_rows":
        # not "repeated": a graph's rows are simple, so the dense fills write
        # each entry once where toarray() would add repeats up
        return {name: unchecked_graph(*row_arrays(rows))
                for name, rows in RAW_ROWS.items() if name != "repeated"}
    from test_acceptance import family_grid

    specs = small_family_specs() if source == "small" else family_grid()
    return {s.label(): generate(s, seed=11) for s in specs}


@pytest.mark.parametrize("source", ["small", "family_grid", "raw_rows"])
def test_dense_fills_match_csr_route(source):
    """P and the spectral transform, filled from the rows in numpy, against
    the CSR matrices they were once read from, bit for bit."""
    import scipy.sparse as sp

    for name, g in oracle_graphs(source).items():
        P = csr_transition(g).toarray()
        assert chain._dense_transition(g).tobytes() == P.tobytes(), name
        if g.deg_min == 0:
            continue  # D^{-1/2} needs every degree positive
        adj = sp.csr_matrix((np.ones(g.indices.size), g.indices, g.indptr),
                            shape=(g.n, g.n))
        dinv = 1.0 / np.sqrt(g.degrees)
        sym = 0.5 * np.eye(g.n) + 0.5 * (
            dinv[:, None] * adj.toarray() * dinv[None, :])
        lam2 = min(max(float(np.linalg.eigvalsh(sym)[-2]), 0.0), 1.0)
        assert chain.spectral(g).lambda2 == lam2, name


# The graphs of the benchmark's exact_chain workload.
EXACT_CHAIN_SPECS = [
    FamilySpec("hypercube", dim=6),
    FamilySpec("torus", dim=2, side=8),
    FamilySpec("barbell", n=64),
    FamilySpec("lower_bound", n=64, alpha=4.0),
    FamilySpec("binary_tree", levels=9),
    FamilySpec("lower_bound", n=340, alpha=4.0),
]


@pytest.mark.parametrize("spec", small_family_specs() + EXACT_CHAIN_SPECS,
                         ids=lambda s: s.label())
def test_csr_copies_of_dense_match_row_builder(spec):
    """The CSR P of the sparse meeting branch and the CSR P^T of collision
    statistics, both copied from the dense P, against the CSR matrices
    built from the rows: the same indptr, indices and data, byte for byte."""
    import scipy.sparse as sp

    g = generate(spec, seed=11)
    P = chain._dense_transition(g)
    want = csr_transition(g)
    for got, ref in ((sp.csr_matrix(P), want),
                     (sp.csr_matrix(P.T), want.T.tocsr())):
        for part in ("indptr", "indices", "data"):
            assert getattr(got, part).dtype == getattr(ref, part).dtype, part
            assert getattr(got, part).tobytes() == getattr(
                ref, part).tobytes(), part


def dmax_whole(rows, pi):
    """d(t) over the whole n x n difference at once: the oracle of
    ``chain._dmax``, which sums it 64 rows at a time."""
    return 0.5 * float(np.abs(rows - pi).sum(axis=1).max())


@pytest.mark.parametrize("spec", [FamilySpec("binary_tree", levels=9),
                                  FamilySpec("lower_bound", n=340, alpha=4.0)],
                         ids=lambda s: s.label())
def test_dmax_row_blocks_match_whole_matrix(spec, monkeypatch):
    """Every matrix the bracketed mixing search probes gets the bits of
    the whole-matrix d(t)."""
    g = generate(spec, seed=11)
    assert g.n > chain._PAIRWISE_LIMIT
    dmax, probes = chain._dmax, []

    def checked(rows, pi):
        probes.append(len(rows))
        got = dmax(rows, pi)
        assert got.hex() == dmax_whole(rows, pi).hex(), len(probes)
        return got

    monkeypatch.setattr(chain, "_dmax", checked)
    chain.mixing_time(g)
    assert len(probes) > 10


@pytest.mark.parametrize("count", [1, 63, 64, 65])
def test_dmax_row_counts_around_the_block(count):
    rng = np.random.default_rng(count)
    rows = rng.random((count, 97))
    rows /= rows.sum(axis=1, keepdims=True)
    pi = rng.random(97)
    pi /= pi.sum()
    assert chain._dmax(rows, pi).hex() == dmax_whole(rows, pi).hex()


class TestSpectral:
    def test_k2_zero(self, k2):
        summary = chain.spectral(k2)
        assert summary.lambda2 == pytest.approx(0.0, abs=1e-12)
        assert summary.gap == pytest.approx(1.0)

    def test_cycle8_closed_form(self, cycle8):
        expected = (1.0 + math.cos(2 * math.pi / 8)) / 2.0
        assert chain.spectral(cycle8).lambda2 == pytest.approx(expected, abs=1e-10)

    def test_nonnegative_everywhere(self, small_graph):
        assert chain.spectral(small_graph).lambda2 >= 0.0

    def test_torus3_13_closed_form(self):
        # n = 2197: the dense eigensolve holds above 2048 vertices too
        g = generate(FamilySpec("torus", dim=3, side=13))
        expected = (1.0 + (2.0 + math.cos(2 * math.pi / 13)) / 3.0) / 2.0
        summary = chain.spectral(g)
        assert summary.lambda2 == pytest.approx(expected, abs=1e-10)
        assert summary.method == "dense"


class TestHitting:
    def test_k2(self, k2):
        profile = chain.hitting_to(k2, 1)
        assert np.allclose(profile.times, [2.0, 0.0])

    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_clique_closed_form(self, n):
        g = generate(FamilySpec("clique", n=n))
        expected = 2.0 * (n - 1)
        assert chain.t_hit(g) == pytest.approx(expected, rel=1e-9)

    def test_cycle8_antipodal(self, cycle8):
        # independent oracle: lazy doubling of the k(n-k) closed form
        assert chain.hitting_to(cycle8, 4).times[0] == pytest.approx(
            2 * 4 * 4, rel=1e-9)

    def test_residual_invariant(self, small_graph):
        g = small_graph
        P = csr_transition(g).toarray()
        for target in (0, g.n // 2):
            profile = chain.hitting_to(g, target)
            others = np.arange(g.n) != target
            A = np.eye(g.n - 1) - P[np.ix_(others, others)]
            resid = np.abs(A @ profile.times[others] - 1.0).max()
            assert profile.residual == resid
            assert resid <= 1e-9 * g.n

    def test_hit_lower_bound_pi_min(self, small_graph):
        pi_min = chain.stationary(small_graph).min()
        assert chain.t_hit(small_graph) >= 2.0 / pi_min - 2.0 - 1e-9

    def test_binary_tree_10_matches_fundamental(self):
        # n = 1023: the per-target dense solve against the fundamental matrix
        g = generate(FamilySpec("binary_tree", levels=10))
        column = chain.hitting_matrix(g)[:, 0]
        profile = chain.hitting_to(g, 0)
        assert profile.method == "dense"
        assert np.abs(profile.times - column).max() <= 1e-9 * column.max()

    @pytest.mark.parametrize("target", [-1, 8, 2.5, np.float64(3.0)])
    def test_rejects_target_outside(self, cycle8, target):
        with pytest.raises(InvalidSpec):
            chain.hitting_to(cycle8, target)

    @pytest.mark.parametrize("source", ["named", "small", "family_grid"])
    def test_fundamental_matrix_matches_per_target(self, source, monkeypatch):
        """hitting_matrix's stacked solve gives hitting_to's columns bit
        for bit up to _PER_TARGET_LIMIT (K2 and path-128 are its two ends),
        and the fundamental-matrix route agrees to solver precision."""
        if source == "named":
            graphs = {s.label(): generate(s, seed=1) for s in (
                FamilySpec("cycle", n=24), FamilySpec("barbell", n=16),
                FamilySpec("star", n=20), FamilySpec("clique", n=2),
                FamilySpec("path", n=chain._PER_TARGET_LIMIT))}
        else:
            graphs = oracle_graphs(source)
        for name, g in graphs.items():
            assert g.n <= chain._PER_TARGET_LIMIT, name
            per_target = np.column_stack(
                [chain.hitting_to(g, v).times for v in range(g.n)])
            assert chain.hitting_matrix(g).tobytes() == per_target.tobytes(), \
                name
            with monkeypatch.context() as patch:
                patch.setattr(chain, "_PER_TARGET_LIMIT", 1)
                fundamental = chain.hitting_matrix(g)
            assert np.abs(per_target - fundamental).max() < 1e-7, name


class TestMeeting:
    def test_diagonal_zero(self, cycle8):
        result = chain.meeting_exact(cycle8)
        assert np.allclose(np.diag(result.pairwise), 0.0)

    def test_k2_exact(self, k2):
        result = chain.meeting_exact(k2)
        assert result.t_meet == pytest.approx(2.0, rel=1e-10)
        assert result.t_meet_pi == pytest.approx(1.0, rel=1e-10)

    def test_symmetric(self, cycle8):
        M = chain.meeting_exact(cycle8).pairwise
        assert np.abs(M - M.T).max() < 1e-8

    def test_cycle8_hit_sandwich(self, cycle8):
        t_meet = chain.meeting_exact(cycle8).t_meet
        hit = chain.t_hit(cycle8)
        assert hit / 2 - 1e-9 <= t_meet <= 2 * hit + 1e-9

    def test_meet_at_most_4_hit(self, small_graph):
        if small_graph.n > chain._MEETING_LIMIT:
            pytest.skip("beyond exact-meeting limit")
        t_meet = chain.meeting_exact(small_graph).t_meet
        assert t_meet <= 4.0 * chain.t_hit(small_graph) + 1e-9

    def test_too_large(self):
        g = generate(FamilySpec("cycle", n=chain._MEETING_LIMIT + 1))
        with pytest.raises(TooLarge):
            chain.meeting_exact(g)


@pytest.mark.parametrize("cls, fields", [
    (chain.HittingProfile, {"method", "residual"}),
    (chain.SpectralSummary, {"method", "residual"}),
    (chain.MeetingResult, {"method", "residual"}),
    (chain.MixingResult, {"method"}),
])
def test_results_keep_provenance_fields(cls, fields):
    # the benchmark tracer reads these fields off every solver result
    assert fields <= {f.name for f in dataclasses.fields(cls)}


class TestCollisionStats:
    def test_cmin_at_least_one(self, small_graph):
        stats = chain.collision_stats(
            small_graph, chain.mixing_time(small_graph).value)
        assert stats.c_min >= 1.0 - 1e-12
        assert stats.r_max >= 1.0 - 1e-12

    def test_clique16_rmax_frozen(self):
        # t_mix(K16) = 2, so r_max = p^0(u,u) + p^1(u,u) = 1 + 1/2
        k16 = generate(FamilySpec("clique", n=16))
        stats = chain.collision_stats(k16, chain.mixing_time(k16).value)
        assert stats.t_mix_used == 2
        assert stats.r_max == pytest.approx(1.5, rel=1e-12)

    def test_matches_direct_accumulation(self, cycle8):
        stats = chain.collision_stats(cycle8, chain.mixing_time(cycle8).value)
        rows = np.eye(8)
        c_u = np.zeros(8)
        r_u = np.zeros(8)
        for _ in range(stats.t_mix_used):
            c_u += (rows ** 2).sum(axis=1)
            r_u += np.diag(rows)
            rows = np.stack([chain.lazy_step(cycle8, row) for row in rows])
        assert stats.c_max == pytest.approx(c_u.max(), rel=1e-10)
        assert stats.c_min == pytest.approx(c_u.min(), rel=1e-10)
        assert stats.r_max == pytest.approx(r_u.max(), rel=1e-10)

    def test_torus_cmin_grows_like_log(self):
        values = {}
        for side in (4, 8, 12):
            g = generate(FamilySpec("torus", dim=2, side=side))
            values[side * side] = chain.collision_stats(
                g, chain.mixing_time(g).value).c_min
        # log-like growth: increasing, and clearly sublinear in n
        assert values[64] > values[16] and values[144] > values[64]
        assert values[144] / values[16] < (144 / 16) ** 0.5


def step_loop_collision(g, window):
    """Oracle for collision_stats: the rows of P^t stepped as rows @ P."""
    P = csr_transition(g)
    rows = np.eye(g.n)
    sq_sums = np.zeros(g.n)
    returns = np.zeros(g.n)
    for _ in range(window):
        sq_sums += np.einsum("ij,ij->i", rows, rows)
        returns += rows.diagonal()
        rows = rows @ P
    return sq_sums.max(), sq_sums.min(), returns.max()


@functools.lru_cache(maxsize=None)
def loop_sums(spec, window):
    """chain._collision_loop on generate(spec, seed=11), computed once per
    session: both collision tests below read binary_tree-9's and
    barbell-64's loops at their t_mix."""
    return chain._collision_loop(generate(spec, seed=11), window)


def takes_loop(g, window):
    """collision_stats' rule: the step loop within _LOOP_WORK multiply-adds,
    the closed form above it."""
    return window * (g.n + 2 * g.m) * g.n <= chain._LOOP_WORK


@pytest.mark.parametrize("spec", small_family_specs() + [
    FamilySpec("barbell", n=64),
    FamilySpec("binary_tree", levels=9),
], ids=lambda s: s.label())
def test_collision_stats_matches_step_loop(spec):
    """The serial step loop against the rows @ P oracle, bit for bit:
    through collision_stats where its rule takes the loop, and called
    directly where it takes the closed form."""
    g = generate(spec, seed=11)
    t_mix = chain.mixing_time(g).value
    for window in sorted({1, 2, t_mix}):
        want = [x.hex() for x in step_loop_collision(g, window)]
        if takes_loop(g, window):
            stats = chain.collision_stats(g, t_mix_value=window)
            got = [stats.c_max, stats.c_min, stats.r_max]
        else:
            sq_sums, returns = loop_sums(spec, window)
            got = [sq_sums.max(), sq_sums.min(), returns.max()]
        assert [float(x).hex() for x in got] == want, window


@pytest.mark.parametrize("spec", small_family_specs() + [
    FamilySpec("binary_tree", levels=9),  # bipartite: eigenvalue 0
    FamilySpec("lower_bound", n=340, alpha=4.0),
    FamilySpec("cycle", n=301),
    FamilySpec("star", n=300),
    FamilySpec("barbell", n=64),
    FamilySpec("barbell", n=128),
], ids=lambda s: s.label())
def test_collision_closed_form_matches_loop(spec):
    """The eigendecomposition sums against the step loop, start by start,
    within 1e-10 relative; collision_stats returns the loop's sums bit for
    bit within _LOOP_WORK and the closed form's above it."""
    g = generate(spec, seed=11)
    t_mix = chain.mixing_time(g).value
    for window in sorted({1, 2, t_mix}):
        loop = loop_sums(spec, window)
        closed = chain._collision_closed_form(g, window)
        for want, got in zip(loop, closed):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)
        taken = loop if takes_loop(g, window) else closed
        stats = chain.collision_stats(g, t_mix_value=window)
        assert (stats.c_max, stats.c_min, stats.r_max) == (
            taken[0].max(), taken[0].min(), taken[1].max())


@pytest.mark.parametrize("window, loop", [(1365, True), (1366, False)])
def test_collision_work_cap_boundary(window, loop):
    """cycle-64 costs (n + 2m) * n = 12288 multiply-adds per window step:
    16 773 120 <= 2^24 at window 1365 runs the loop, 16 785 408 at 1366
    the closed form, and collision_stats returns its sums bit for bit."""
    g = generate(FamilySpec("cycle", n=64))
    assert (g.n + 2 * g.m) * g.n == 12288
    assert takes_loop(g, window) == loop
    sums = chain._collision_loop if loop else chain._collision_closed_form
    sq_sums, returns = sums(g, window)
    stats = chain.collision_stats(g, t_mix_value=window)
    assert (stats.c_max, stats.c_min, stats.r_max) == (
        sq_sums.max(), sq_sums.min(), returns.max())


def kron_meeting_solve(g, solve):
    """Oracle for the dense meeting build: the gathered block of P (x) P,
    negated, +1 on the diagonal, solved as a C-ordered matrix."""
    n = g.n
    P = chain._dense_transition(g)
    states = np.arange(n * n)
    offdiag = np.flatnonzero(states // n != states % n)
    A = np.kron(P, P)[np.ix_(offdiag, offdiag)]
    np.subtract(0.0, A, out=A)
    A.reshape(-1)[::offdiag.size + 1] += 1.0
    full = np.zeros(n * n)
    full[offdiag] = solve(A, np.ones(offdiag.size))
    M = full.reshape(n, n)
    pi = chain.stationary(g)
    pair = np.unravel_index(int(np.argmax(M)), (n, n))
    return (float(M.max()), float((np.outer(pi, pi) * M).sum()),
            (int(pair[0]), int(pair[1])), M)


@pytest.mark.parametrize("spec", [
    s for s in small_family_specs() if s.family != "lower_bound"] + [
    FamilySpec("barbell", n=64),
    # the dense meeting systems of the benchmark sweep
    FamilySpec("cycle", n=16),
    FamilySpec("torus", dim=2, side=5),
    FamilySpec("star", n=16),
    FamilySpec("hypercube", dim=5),
    FamilySpec("lower_bound", n=16, alpha=4.0),
], ids=lambda s: s.label())
def test_dense_meeting_matches_kron_build(spec, monkeypatch):
    g = generate(spec, seed=11)
    solve = np.linalg.solve
    t_meet, t_meet_pi, pair, M = kron_meeting_solve(g, solve)
    f_order = []

    def recording_solve(a, b):
        f_order.append(a.flags.f_contiguous)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    result = chain.meeting_exact(g)
    assert result.method == "dense"
    assert f_order == [True]  # LAPACK's column order, no copy to make it
    assert result.t_meet.hex() == t_meet.hex()
    assert result.t_meet_pi.hex() == t_meet_pi.hex()
    assert result.pair == pair
    assert result.pairwise.tobytes() == M.tobytes()
