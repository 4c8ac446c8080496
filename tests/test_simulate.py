import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from coalwalk import chain, simulate
from coalwalk.errors import (AllCensored, BudgetExceeded, InvalidIds,
                             InvalidSpec)
from coalwalk.graphs import FamilySpec, Graph, generate, lower_bound_graph
from coalwalk.seeding import mix64
from coalwalk.simulate import (
    Estimate,
    _cells,
    _coalesce_batch,
    _cuts_of,
    _meeting_batch,
    _move_tables,
    _voter_batch,
    _walk_sums,
    default_cap,
    estimate,
    paired_batch_means,
    simulate_coalescence,
    simulate_immortal,
    simulate_meeting,
    simulate_voter,
)
from conftest import (RAW_ROWS, row_arrays, small_family_specs,
                      unchecked_graph)
from philox_reference import generator, step_uniforms


@pytest.fixture(scope="module")
def k2():
    return generate(FamilySpec("clique", n=2))


@pytest.fixture(scope="module")
def cycle16():
    return generate(FamilySpec("cycle", n=16))


@pytest.fixture(params=[(0, {"numpy"}), (None, {"numpy", "scalar", "meet"}),
                        (10 ** 9, {"scalar", "meet"})],
                ids=["numpy", "switch", "scalar"])
def wide(request, monkeypatch):
    """The coalescence kernel with ``_WIDE`` at 0 (numpy steps to the end),
    at its default (the switch falls mid-row) or at 10**9 (scalar only).

    Yields (reached, named): the paths the test has reached, "numpy" once
    the numpy step (``_lazy_moves``) ran, "scalar" once the scalar merge
    (``_survivors``) did and "meet" once the two-walk loop (``_meet``) did,
    and the paths the setting names. A run that has at least _WIDE walks
    alive at first and runs on below that, to two walks, reaches them.
    """
    width, named = request.param
    if width is not None:
        monkeypatch.setattr(simulate, "_WIDE", width)
    reached = set()
    for name, path in (("_lazy_moves", "numpy"), ("_survivors", "scalar"),
                       ("_meet", "meet")):
        def spy(*args, _run=getattr(simulate, name), _path=path):
            reached.add(_path)
            return _run(*args)
        monkeypatch.setattr(simulate, name, spy)
    yield reached, named


@pytest.fixture
def meets(monkeypatch):
    """The (j, x, y) that each call of the shared meeting loop returns."""
    calls = []

    def spy(*args, _run=simulate._meet):
        calls.append(_run(*args))
        return calls[-1]
    monkeypatch.setattr(simulate, "_meet", spy)
    return calls


class TestMeeting:
    def test_same_start_zero(self, cycle16):
        assert simulate_meeting(cycle16, 3, 3, seed=1).value == 0

    def test_k2_mean_near_two(self, k2):
        est = estimate("meeting", k2, {"u": 0, "v": 1}, 10_000, master_seed=42)
        assert 1.9 <= est.mean <= 2.1

    def test_deterministic(self, cycle16):
        a = simulate_meeting(cycle16, 0, 8, seed=77)
        b = simulate_meeting(cycle16, 0, 8, seed=77)
        assert a.value == b.value and not a.censored

    def test_censoring(self, cycle16):
        sample = simulate_meeting(cycle16, 0, 8, seed=5, cap=1)
        assert sample.censored and sample.value == 1

    @pytest.mark.parametrize("spec", [
        FamilySpec("cycle", n=16),
        FamilySpec("star", n=16),
        FamilySpec("hypercube", dim=4),
    ], ids=lambda s: s.label())
    def test_matches_exact_within_5pct(self, spec):
        g = generate(spec, seed=3)
        exact = chain.meeting_exact(g)
        u, v = exact.pair
        est = estimate("meeting", g, {"u": u, "v": v}, 10_000, master_seed=9)
        assert abs(est.mean - exact.t_meet) / exact.t_meet <= 0.05


class TestCoalescence:
    def test_singleton_start(self, cycle16):
        assert simulate_coalescence(cycle16, [5], seed=1).value == 0

    def test_active_count_nonincreasing(self, cycle16):
        sample = simulate_coalescence(cycle16, seed=8)
        counts = [count for _, count in sample.trajectory]
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert counts[0] == 16

    def test_mean_at_least_exact_meeting(self, small_graph):
        if small_graph.n > chain._MEETING_LIMIT:
            pytest.skip("beyond exact-meeting limit")
        t_meet = chain.meeting_exact(small_graph).t_meet
        est = estimate("coalescence", small_graph, {}, 400, master_seed=21)
        assert est.mean + 3 * est.stderr >= t_meet

    def test_cycle32_within_theorem_bracket(self):
        # harness constant 8 on the log factor; lower end is the exact
        # worst-case meeting time
        g = generate(FamilySpec("cycle", n=32))
        t_meet = chain.meeting_exact(g).t_meet
        est = estimate("coalescence", g, {}, 500, master_seed=13)
        assert t_meet - 3 * est.stderr <= est.mean
        assert est.mean <= 8.0 * t_meet * np.log(32)

    def test_star_log_growth(self):
        means = {}
        for n in (64, 256, 1024):
            g = generate(FamilySpec("star", n=n))
            means[n] = estimate("coalescence", g, {}, 500, master_seed=3).mean
        ratios = [means[n] / np.log(n) for n in (64, 256, 1024)]
        assert max(ratios) / min(ratios) <= 2.0


class TestVoter:
    def test_k2_mean_two(self, k2):
        est = estimate("voter", k2, {}, 5000, master_seed=11)
        assert 1.9 <= est.mean <= 2.1

    def test_duality_with_coalescence(self):
        g = generate(FamilySpec("cycle", n=16))
        voter = estimate("voter", g, {}, 800, master_seed=5)
        coal = estimate("coalescence", g, {}, 800, master_seed=6)
        assert voter.overlaps(coal)

    def test_eager_voter_rejected(self, k2):
        with pytest.raises(InvalidSpec):
            estimate("voter", k2, {"lazy": False}, 10, master_seed=1)
        assert estimate("voter", k2, {"lazy": True}, 10, master_seed=1) == (
            estimate("voter", k2, {}, 10, master_seed=1))


def exact_coalescence_time(g):
    """Oracle: E[T_coal] from every vertex, on the chain of occupied sets.

    A state is the bitmask of the occupied vertices. One step folds in the
    walks one at a time: each stays w.p. 1/2 or moves to each neighbour
    w.p. 1/(2 deg), and the next state is the union of the new positions,
    so walks that swap along an edge do not merge. (I - Q) x = 1 over the
    states reachable from V with two or more walks is one sparse LU.
    """
    size = 1 << g.n
    walks = []  # (bits of the next positions, their probabilities) per vertex
    for u in range(g.n):
        nbrs = g.indices[g.indptr[u]:g.indptr[u + 1]]
        walks.append((np.concatenate([[1 << u], np.left_shift(1, nbrs)]),
                      np.concatenate([[0.5], np.full(nbrs.size,
                                                     0.5 / nbrs.size)])))
    popcount = np.array([bin(s).count("1") for s in range(size)])
    index, states, rows, cols, vals = {size - 1: 0}, [size - 1], [], [], []
    for k, state in enumerate(states):  # breadth first; states grows
        dist = np.zeros(size)
        dist[0] = 1.0
        for u in range(g.n):
            if state >> u & 1:
                bits, probs = walks[u]
                held = np.flatnonzero(dist)
                dist = np.bincount(
                    (held[:, None] | bits[None, :]).ravel(),
                    weights=(dist[held][:, None] * probs[None, :]).ravel(),
                    minlength=size)
        for nxt in np.flatnonzero((dist > 0) & (popcount >= 2)).tolist():
            if nxt not in index:
                index[nxt] = len(states)
                states.append(nxt)
            rows.append(k)
            cols.append(index[nxt])
            vals.append(dist[nxt])
    count = len(states)
    A = (sp.identity(count, format="csr") - sp.csr_matrix(
        (vals, (rows, cols)), shape=(count, count))).tocsc()
    x = spla.spsolve(A, np.ones(count))
    assert np.abs(A @ x - 1.0).max() < 1e-10
    return float(x[0])


def test_exact_coalescence_oracle_k2(k2):
    # two walks meet at a step iff exactly one of them moves: mean 2
    assert exact_coalescence_time(k2) == pytest.approx(2.0, rel=1e-12)


# Fixed before the first run: 4000 trials each, master seed 77 for
# coalescence and 78 for the voter, accepted within 4 standard errors.
@pytest.mark.parametrize("spec", [
    FamilySpec("cycle", n=8),
    FamilySpec("path", n=8),
    FamilySpec("star", n=8),
    FamilySpec("hypercube", dim=3),
    FamilySpec("clique", n=6),
    FamilySpec("torus", dim=2, side=3),
    FamilySpec("binary_tree", levels=3),
], ids=lambda s: s.label())
def test_coalescence_and_voter_match_exact_oracle(spec):
    g = generate(spec)
    exact = exact_coalescence_time(g)
    assert exact >= chain.meeting_exact(g).t_meet
    for kind, seed in (("coalescence", 77), ("voter", 78)):
        est = estimate(kind, g, {}, 4000, master_seed=seed, workers=1)
        assert est.censored_count == 0
        assert abs(est.mean - exact) <= 4.0 * est.stderr, (
            kind, est.mean, est.stderr, exact)


@pytest.mark.usefixtures("wide")
class TestImmortal:
    def test_matches_standard_when_g1_is_min_id(self):
        g = generate(FamilySpec("cycle", n=8))
        for seed in range(10):
            std = simulate_coalescence(g, seed=seed)
            imm = simulate_immortal(g, range(8), [0], 1, seed=seed)
            assert std.value == imm.value

    def test_target_equal_start_count(self, cycle16):
        sample = simulate_immortal(cycle16, range(16), [0], 16, seed=1)
        assert sample.value == 0

    def test_invalid_ids(self, cycle16):
        with pytest.raises(InvalidIds):
            simulate_immortal(cycle16, range(16), [99], 4, seed=1)

    def test_mortal_mode_stops_on_g2_count(self, cycle16):
        sample = simulate_immortal(cycle16, range(16), [0, 1, 2, 3], 12,
                                   seed=4, mode="mortal")
        assert sample.value == 0  # 12 mortals at time zero already

    def test_paired_means_ordered(self, cycle16):
        std_mean, imm_mean, _ = paired_batch_means(
            cycle16, range(16), [0, 1, 2, 3], 4, 120, master_seed=31)
        assert std_mean <= imm_mean

    def test_paired_matches_per_trial_runs(self, wide):
        g = generate(FamilySpec("lower_bound", n=16, alpha=1.0), seed=3)
        got = paired_batch_means(g, range(g.n), [0, 5], 2, 40, master_seed=9)
        reached, named = wide  # 40 trials of 16 walks in one Philox call
        # target_k = 2 stops both processes at two walks, before the
        # two-walk loop
        assert reached == named - {"meet"}
        std, imm, excess = [], [], 0
        for i in range(40):
            seed = mix64(9, i)
            a, b = (simulate_immortal(g, range(g.n), group, 2, seed)
                    for group in ([0], [0, 5]))
            std.append(a.value)
            imm.append(b.value)
            counts = dict(b.trajectory)
            excess += sum(1 for t, c in a.trajectory
                          if t in counts and c > counts[t])
        assert got == (float(np.mean(std)), float(np.mean(imm)), excess)

    def test_immortal_pair_meets_and_survives(self, wide, meets):
        # walk 2 dies; then walks 0 and 1 co-locate, both survive, and the
        # two-walk loop runs on after each meeting to the cap
        g = generate(FamilySpec("cycle", n=16))
        seeds = [mix64(19, i) for i in range(45)]
        got = _coalesce_batch(g, [0, 3, 7], frozenset([0, 1]), 1, False,
                              seeds, 400)
        assert all(s.censored and s.trajectory[-1] == (256, 2) for s in got)
        reached, named = wide
        assert reached == named
        if "meet" in named:
            assert sum(j is not None for j, _, _ in meets) > len(seeds)

    def test_paired_censored_trial_raises(self):
        # a capped time is no sample: it must not be averaged in
        g = generate(FamilySpec("cycle", n=64))
        with pytest.raises(BudgetExceeded):
            paired_batch_means(g, range(64), [0, 1], 2, 4, 3, cap=5)

    @pytest.mark.parametrize("batch_trials", [0, -1, 3.5])
    def test_paired_rejects_empty_batch(self, cycle16, batch_trials):
        with pytest.raises(InvalidSpec):
            paired_batch_means(cycle16, range(16), [0, 1], 2, batch_trials,
                               master_seed=31)


class TestEstimate:
    def test_per_trial_seeds_distinct(self, k2):
        # identical trials would give zero spread on a geometric sample
        est = estimate("meeting", k2, {"u": 0, "v": 1}, 50, master_seed=1)
        assert est.stderr > 0

    def test_trials_floor(self, k2):
        with pytest.raises(InvalidSpec):
            estimate("meeting", k2, {"u": 0, "v": 1}, 1, master_seed=1)

    @pytest.mark.parametrize("trials", [3.5, 4.0])
    def test_trials_must_be_an_integer(self, k2, trials):
        with pytest.raises(InvalidSpec, match="trials must be an integer"):
            estimate("meeting", k2, {"u": 0, "v": 1}, trials, master_seed=1)

    def test_all_censored(self, cycle16):
        with pytest.raises(AllCensored):
            estimate("meeting", cycle16, {"u": 0, "v": 8}, 5, master_seed=2,
                     cap=1)

    def test_censored_counted_and_excluded(self, cycle16):
        est = estimate("meeting", cycle16, {"u": 0, "v": 8}, 200,
                       master_seed=3, cap=40)
        assert 0 < est.censored_count < 200
        assert est.mean < 40

    def test_ci_orders(self, cycle16):
        est = estimate("coalescence", cycle16, {}, 100, master_seed=5)
        assert est.ci95_lo <= est.mean <= est.ci95_hi

    @pytest.mark.parametrize("kind,params", [
        ("coalescence", {}),
        ("voter", {}),
        ("immortal", {"start_vertices": range(16), "immortal_ids": [1, 2],
                      "target_k": 3, "mode": "total"}),
        ("immortal", {"start_vertices": range(16), "immortal_ids": [1, 2],
                      "target_k": 2, "mode": "mortal"}),
    ], ids=["coalescence", "voter", "immortal-total", "immortal-mortal"])
    def test_worker_count_invariant(self, cycle16, kind, params):
        one = estimate(kind, cycle16, params, 120, master_seed=7, workers=1)
        two = estimate(kind, cycle16, params, 120, master_seed=7, workers=2)
        assert one == two

    @pytest.mark.parametrize("params", [{"stationary": True}, {"u": 0, "v": 8}],
                             ids=["stationary", "fixed"])
    def test_meeting_worker_count_invariant(self, cycle16, params):
        one = estimate("meeting", cycle16, params, 300, master_seed=7,
                       cap=60, workers=1)
        two = estimate("meeting", cycle16, params, 300, master_seed=7,
                       cap=60, workers=2)
        assert one == two and one.censored_count > 0

    def test_hypercube_linear_coalescence(self):
        ratios = []
        for dim in (6, 8, 10):
            g = generate(FamilySpec("hypercube", dim=dim))
            est = estimate("coalescence", g, {}, 200, master_seed=17)
            ratios.append(est.mean / g.n)
        assert max(ratios) / min(ratios) <= 2.0

    def test_default_cap_is_50_n_cubed(self, cycle16):
        assert default_cap(cycle16) == 50 * 16 ** 3

    @pytest.mark.parametrize("kind,params", [
        ("meeting", {"u": 0, "v": 8}),
        ("coalescence", {}),
        ("voter", {}),
        ("immortal", {"start_vertices": range(16), "immortal_ids": [1, 2],
                      "target_k": 3}),
    ], ids=["meeting", "coalescence", "voter", "immortal"])
    @pytest.mark.parametrize("cap", [0, -5])
    def test_cap_below_one_rejected(self, cycle16, kind, params, cap):
        with pytest.raises(InvalidSpec):
            estimate(kind, cycle16, params, 10, master_seed=1, cap=cap)


def test_stationary_meeting_start_draw():
    # golden: recorded from the per-step meeting loop the batched kernel
    # replaced; 400 trials span two trial chunks
    g = generate(FamilySpec("star", n=32))
    est = estimate("meeting", g, {"stationary": True}, 400, master_seed=23)
    assert (est.mean, est.stderr, est.censored_count, est.trials) == (
        2.84, 0.15980407804056812, 0, 400)


class TestStartRange:
    """Start vertices outside [0, n) are rejected before any draw."""

    @pytest.mark.parametrize("call", [
        lambda g: simulate_meeting(g, -1, 3, 5),
        lambda g: simulate_meeting(g, 0, 16, 5),
        lambda g: simulate_coalescence(g, [-1, 3], 5),
        lambda g: simulate_coalescence(g, [0, 20], 5),
        lambda g: simulate_immortal(g, [-2, 3, 5], [0], 1, 5),
        lambda g: simulate_immortal(g, [0, 3, 16], [0], 1, 5),
        lambda g: estimate("meeting", g, {"u": -1, "v": 3}, 10, 1),
        lambda g: estimate("meeting", g, {"u": 0, "v": 16}, 10, 1),
        lambda g: simulate_meeting(g, 0.5, 3, 5),
        lambda g: simulate_coalescence(g, [0, 3.7], 5),
        lambda g: simulate_immortal(g, [0, np.float64(3), 5], [0], 1, 5),
        lambda g: estimate("meeting", g, {"u": 0, "v": 3.0}, 10, 1),
    ], ids=["meeting-neg", "meeting-n", "coalescence-neg", "coalescence-big",
            "immortal-neg", "immortal-n", "estimate-neg", "estimate-n",
            "meeting-float", "coalescence-float", "immortal-float",
            "estimate-float"])
    def test_rejected(self, cycle16, monkeypatch, call):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew uniforms for an invalid start")
        monkeypatch.setattr(simulate, "philox_uniforms", no_draw)
        with pytest.raises(InvalidSpec):
            call(cycle16)


@pytest.mark.parametrize("kind, params, key", [
    ("meeting", {}, "u"),
    ("immortal", {"start_vertices": [0, 1]}, "target_k"),
], ids=["meeting-no-u", "immortal-no-target_k"])
def test_estimate_names_missing_param(monkeypatch, kind, params, key):
    """A param the kind needs is missing: InvalidSpec names it before any
    draw."""
    def no_draw(*args, **kwargs):
        raise AssertionError("drew uniforms for an incomplete spec")
    monkeypatch.setattr(simulate, "philox_uniforms", no_draw)
    monkeypatch.setattr(simulate, "philox_uniforms_ragged", no_draw)
    with pytest.raises(InvalidSpec, match=f"'{key}'"):
        estimate(kind, generate(FamilySpec("cycle", n=8)), params, 10, 1)


IMMORTAL = {"start_vertices": range(16), "immortal_ids": [1, 2],
            "target_k": 3}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind, params, cap, error, match", [
    ("meeting", {"u": 0, "v": 8, "w": 5}, None, InvalidSpec, "'w'"),
    ("meeting", {"stationary": True, "u": 0}, None, InvalidSpec, "'u'"),
    ("meeting", {"stationary": True, "v": 3}, None, InvalidSpec, "'v'"),
    ("coalescence", {"start_vertex": [0, 8]}, None, InvalidSpec,
     "'start_vertex'"),
    ("coalescence", {"record_trajectory": True}, None, InvalidSpec,
     "'record_trajectory'"),
    ("voter", {"lazy": True, "start_vertices": [0]}, None, InvalidSpec,
     "'start_vertices'"),
    ("immortal", {**IMMORTAL, "targetk": 3}, None, InvalidSpec, "'targetk'"),
    ("immortal", {**IMMORTAL, "immortal_ids": [16]}, None, InvalidIds,
     "immortal ids"),
    ("immortal", {**IMMORTAL, "immortal_ids": [-1]}, None, InvalidIds,
     "immortal ids"),
    ("coalescence", {"start_vertices": []}, None, InvalidSpec, "non-empty"),
    ("immortal", {**IMMORTAL, "start_vertices": []}, None, InvalidSpec,
     "non-empty"),
    ("meeting", {"u": 0, "v": 8}, 0, InvalidSpec, "cap"),
    ("meeting", {"stationary": True}, -1, InvalidSpec, "cap"),
    ("coalescence", {}, 0, InvalidSpec, "cap"),
    ("voter", {}, 0, InvalidSpec, "cap"),
    ("immortal", IMMORTAL, 0, InvalidSpec, "cap"),
    ("meeting", {"v": 3}, None, InvalidSpec, "'u'"),
    ("immortal", {"start_vertices": [0, 1]}, None, InvalidSpec, "'target_k'"),
    ("walk", {}, None, InvalidSpec, "'walk'"),
    ("meeting", {"u": 0.5, "v": 3}, None, InvalidSpec, "integers"),
    ("coalescence", {"start_vertices": [0, 3.7]}, None, InvalidSpec,
     "integers"),
    ("immortal", {**IMMORTAL, "target_k": 1.5}, None, InvalidSpec,
     "target_k"),
    ("immortal", {**IMMORTAL, "immortal_ids": [1.0]}, None, InvalidIds,
     "immortal ids"),
    ("meeting", {"u": 0, "v": 8}, 2.5, InvalidSpec, "cap"),
    ("coalescence", {}, 100.0, InvalidSpec, "cap"),
    ("coalescence", {"start_vertices": 3}, None, InvalidSpec, "collection"),
    ("immortal", {**IMMORTAL, "immortal_ids": 0}, None, InvalidIds,
     "immortal ids"),
    ("immortal", {**IMMORTAL, "immortal_ids": None}, None, InvalidIds,
     "immortal ids"),
    ("immortal", {**IMMORTAL, "mode": "all"}, None, InvalidSpec,
     "unknown stopping mode 'all'"),
])
def test_estimate_rejects_before_any_draw_or_worker(
        cycle16, monkeypatch, kind, params, cap, error, match, workers):
    """A bad kind, a params key the kind does not read or lacks, a bad start
    set, immortal id or cap: each raises in the caller's process, before any
    Philox draw and before any worker pool."""
    import concurrent.futures

    def fail(*args, **kwargs):
        raise AssertionError("drew uniforms or built a pool for a bad spec")
    monkeypatch.setattr(simulate, "philox_uniforms", fail)
    monkeypatch.setattr(simulate, "philox_uniforms_ragged", fail)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", fail)
    with pytest.raises(error, match=match):
        estimate(kind, cycle16, params, 10, 1, cap=cap, workers=workers)


@pytest.mark.parametrize("workers", [0, -2, 1.5, "2"])
def test_estimate_rejects_bad_workers_before_any_draw(
        cycle16, monkeypatch, workers):
    """An explicit ``workers`` follows the COALWALK_WORKERS rule: a value
    that is not an integer of at least 1 raises InvalidSpec before any
    Philox draw or worker pool."""
    import concurrent.futures

    def fail(*args, **kwargs):
        raise AssertionError("drew uniforms or built a pool for bad workers")
    monkeypatch.setattr(simulate, "philox_uniforms", fail)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", fail)
    with pytest.raises(InvalidSpec, match="workers="):
        estimate("meeting", cycle16, {"u": 0, "v": 8}, 10, 1, workers=workers)


def test_params_read_by_each_kind(cycle16):
    """The keys a kind reads keep their meaning: ``stationary: False`` reads
    ``u`` and ``v``, ``lazy: True`` is the default, and ``start_vertices``
    None is every vertex."""
    fixed = estimate("meeting", cycle16, {"u": 0, "v": 8}, 20, 4)
    assert estimate("meeting", cycle16, {"stationary": False, "u": 0, "v": 8},
                    20, 4) == fixed
    assert estimate("voter", cycle16, {"lazy": True}, 20, 4) == (
        estimate("voter", cycle16, {}, 20, 4))
    assert estimate("coalescence", cycle16, {"start_vertices": None}, 20,
                    4) == estimate("coalescence", cycle16, {}, 20, 4)
    assert estimate("immortal", cycle16, {**IMMORTAL, "mode": "total"}, 20,
                    4) == estimate("immortal", cycle16, IMMORTAL, 20, 4)


def _reference_meeting(g, u, v, seed, cap):
    """The per-step meeting loop on the ``step_uniforms`` oracle."""
    if u == v:
        return 0, False
    x, y = int(u), int(v)
    for t in range(1, cap + 1):
        a, b = step_uniforms(seed, t, 2).tolist()
        if a >= 0.5:
            nbrs = g.indices[g.indptr[x]:g.indptr[x + 1]]
            x = int(nbrs[min(int((a - 0.5) * 2.0 * len(nbrs)), len(nbrs) - 1)])
        if b >= 0.5:
            nbrs = g.indices[g.indptr[y]:g.indptr[y + 1]]
            y = int(nbrs[min(int((b - 0.5) * 2.0 * len(nbrs)), len(nbrs) - 1)])
        if x == y:
            return t, False
    return cap, True


def _assert_each_meeting_found_once(meets, samples):
    """A trial stops at its meeting, so the shared loop returns a cell
    index once per met sample (value > 0), at two equal vertices."""
    found = [(x, y) for j, x, y in meets if j is not None]
    assert len(found) == sum(s.value > 0 and not s.censored for s in samples)
    assert all(x == y for x, y in found)


def test_meet_returns_cell_index_of_first_co_location():
    """``_meet`` on cycle-8, where moves[x] holds x's two neighbours in
    ascending order, then x: cell 0 steps to the first, cell 1 to the
    second and the stay cell -1 to x itself."""
    _, rank_of, moves = _move_tables(generate(FamilySpec("cycle", n=8)))
    assert moves[0] == [1, 7, 0] and moves[2] == [1, 3, 2]

    def meet(x, y, xs, ys):
        return simulate._meet(moves, rank_of, x, y, xs, ys)
    # 0 and 2 go to (0, 3), (1, 2), (2, 2): the first co-location is at
    # cell 2, and the cells after it are not read
    assert meet(0, 2, [-1, 0, 1, 0, 1], [1, 0, -1, 1, 1]) == (2, 2, 2)
    # no co-location: None, with the walks' last vertices
    assert meet(0, 4, [0, -1], [-1, 1]) == (None, 1, 5)
    # a row where both walks stay throughout keeps no cell
    assert meet(0, 4, [], []) == (None, 0, 4)
    # a co-location on the last cell
    assert meet(0, 2, [0, -1], [-1, 0]) == (1, 1, 1)


def test_meeting_batch_matches_reference_loop(meets):
    # irregular degrees, same-vertex starts, censoring off a row boundary,
    # and more trials than one chunk
    g = generate(FamilySpec("lower_bound", n=64, alpha=1.0), seed=11)
    seeds = [mix64(5, i) for i in range(300)]
    starts = [generator(s, 1).choice(g.n, size=2) for s in seeds]
    samples = _meeting_batch(g, starts, seeds, cap=150)
    want = [_reference_meeting(g, u, v, s, 150)
            for (u, v), s in zip(starts, seeds)]
    assert [(s.value, s.censored) for s in samples] == want
    assert [s.seed for s in samples] == seeds
    assert any(c for _, c in want) and any(v == 0 for v, _ in want)
    _assert_each_meeting_found_once(meets, samples)


def _threshold_graph(n):
    """i < j adjacent when i + j >= n - 1: degrees 1..n-1, all distinct but
    one, so the rank cuts of many degrees interleave."""
    return Graph.from_edges(n, [(i, j) for j in range(n) for i in range(j)
                                if i + j >= n - 1])


@pytest.mark.parametrize("g, trials", [
    (generate(FamilySpec("star", n=1025), seed=11), 40),
    (generate(FamilySpec("clique", n=24), seed=11), 60),
    (_threshold_graph(41), 60),
], ids=["star-1025", "clique-24", "threshold-41"])
def test_meeting_batch_high_degree_matches_reference_loop(g, trials, meets):
    # the star's hub has degree 1024; on a clique every rank leads to a
    # distinct vertex; the threshold graph has 40 distinct degrees
    seeds = [mix64(31, i) for i in range(trials)]
    starts = [generator(s, 1).choice(g.n, size=2) for s in seeds]
    samples = _meeting_batch(g, starts, seeds, cap=200)
    assert [(s.value, s.censored) for s in samples] == [
        _reference_meeting(g, u, v, s, 200) for (u, v), s in zip(starts, seeds)]
    _assert_each_meeting_found_once(meets, samples)


def test_largest_uniform_rank_stays_below_degree():
    """The largest uniform, ((2**64 - 1) >> 11) * 2**-53, leaves a residual
    of 1 - 2**-52, and int(r * d) < d for it at every degree d: the lazy
    step needs no clip at deg - 1."""
    top = (np.uint64(2**64 - 1) >> np.uint64(11)) * 2.0 ** -53
    r = float((top - 0.5) * 2.0)
    assert r == 1.0 - 2.0 ** -52
    powers = [2**k + e for k in range(53) for e in (-1, 0, 1) if 2**k + e]
    degs = [*range(1, 2**20 + 1), *powers]
    assert ((r * np.array(degs)).astype(np.int64) < degs).all()
    assert all(int(r * d) < d for d in degs)


def _degree_set_rows(degrees):
    """Raw rows over max(degrees) vertices whose degrees are ``degrees``:
    vertex i has neighbours 0..degrees[i]-1, and the padding vertices past
    them the first degree."""
    return [list(range(d)) for d in degrees] + (
        [list(range(degrees[0]))] * (max(degrees) - len(degrees)))


DEGREE_SETS = {"degrees-1-64": range(1, 65), "degrees-1-4095": (1, 4095),
               "degrees-31-48": (31, 32, 33, 48)}

# the graphs of the benchmark's stationary meeting workload
PAPER_GRAPHS = {"torus3-12": generate(FamilySpec("torus", dim=3, side=12)),
                "lower_bound-1024": lower_bound_graph(1024, 4, seed=5)}


@pytest.mark.parametrize("g", [
    *(generate(spec, seed=11) for spec in small_family_specs()),
    *(unchecked_graph(*row_arrays(rows)) for rows in RAW_ROWS.values()),
    *(unchecked_graph(*row_arrays(_degree_set_rows(degrees)))
      for degrees in DEGREE_SETS.values()),
    *PAPER_GRAPHS.values(),
], ids=[*(s.label() for s in small_family_specs()), *RAW_ROWS, *DEGREE_SETS,
        *PAPER_GRAPHS])
def test_adjacency_lists_hold_degree_and_neighbours(g):
    """``_move_tables``: moves[x] is x's adjacency list and then x, and
    rank_of[x] holds int(a * deg) on every cell and deg in the stay cell;
    ``_cells`` finds every uniform's cell as a binary search over the cell
    bounds does."""
    table, rank_of, moves = _move_tables(g)
    cuts = np.unique(np.concatenate(
        [_cuts_of(d) for d in np.unique(g.degrees).tolist()]))
    assert moves == [[*g.neighbors(x).tolist(), x] for x in range(g.n)]
    grid = 2.0 ** -52
    assert (np.diff(cuts) > 0).all() and (0 < cuts).all() and (cuts < 1).all()
    assert (cuts / grid == np.floor(cuts / grid)).all()
    # the first and last grid residual of each cell
    first = [0.0, *cuts.tolist()]
    last = [*(cuts - grid).tolist(), 1.0 - grid]
    by_degree = {}
    for x, d in enumerate(g.degrees.tolist()):
        assert rank_of[x] is by_degree.setdefault(d, rank_of[x])
    assert len(cuts) <= sum(max(d - 1, 0) for d in by_degree)
    for d, ranks in by_degree.items():
        # fl(a * d) is monotone in a, so the ends bound the whole cell
        assert [int(a * d) for a in first] == ranks[:-1]
        assert [int(a * d) for a in last] == ranks[:-1]
        assert ranks[-1] == d  # the stay cell: moves[x][d] is x
        assert all(r < d for r in ranks[:-1]) or set(ranks) == {0}
    # uniforms u = (1 + a) / 2 land in the cell of their residual a
    cells = np.arange(len(first))
    assert (_cells(table, 0.5 + 0.5 * np.array(first)) == cells).all()
    assert (_cells(table, 0.5 + 0.5 * np.array(last)) == cells).all()
    assert (_cells(table, np.array([0.0, 0.25, 0.5 - 2.0 ** -53])) == -1).all()
    # K buckets, the least power of two of at least 4 per bound, and rows
    # that each hold a bound
    bounds = np.concatenate(([0.5], 0.5 + 0.5 * cuts))
    size = table[0].size
    assert size & (size - 1) == 0 and 4 * bounds.size <= size < 8 * bounds.size
    assert all((row < 2.0).any() for row in table[1])
    # the oracle: a binary search over the bounds, at every bound, both of
    # its float neighbours, the ends of [0, 1) and random uniforms
    probes = np.concatenate([
        bounds, np.nextafter(bounds, 0.0), np.nextafter(bounds, 1.0),
        [0.0, 0.5 - 2.0 ** -53, 1.0 - 2.0 ** -53],
        np.random.default_rng(7).random(4096)])
    probes = probes[probes < 1.0]
    assert (_cells(table, probes)
            == np.searchsorted(bounds, probes, "right") - 1).all()


@pytest.mark.parametrize("g", [
    *(generate(spec, seed=11) for spec in small_family_specs()),
    generate(FamilySpec("star", n=32)),
    *PAPER_GRAPHS.values(),
], ids=[*(s.label() for s in small_family_specs()), "star-n32",
        *PAPER_GRAPHS])
def test_stationary_starts_are_generator_choices(g, monkeypatch):
    """The start pairs that one Philox call draws for a whole batch are
    ``generator(seed, 1).choice(n, 2, p=pi)`` of each trial seed."""
    drawn = []
    monkeypatch.setattr(simulate, "_meeting_batch",
                        lambda g, starts, seeds, cap: drawn.append(starts))
    seeds = [mix64(41, i) for i in range(300)]
    simulate._batch("meeting", g, {"stationary": True}, None)(seeds)
    pi = chain.stationary(g)
    assert np.asarray(drawn[0]).tolist() == [
        generator(s, 1).choice(g.n, size=2, p=pi).tolist() for s in seeds]


def test_stationary_starts_read_pi_through_its_normalised_cdf(monkeypatch):
    """The start pairs depend on pi only through its cdf divided by its
    last entry, so 3 pi draws the same pairs as pi."""
    drawn = []
    monkeypatch.setattr(simulate, "_meeting_batch",
                        lambda g, starts, seeds, cap: drawn.append(
                            np.asarray(starts).tolist()))
    g = generate(FamilySpec("star", n=32))
    seeds = [mix64(43, i) for i in range(300)]
    simulate._meeting_pairs(g, None, seeds, 10)
    pi = chain.stationary(g)
    monkeypatch.setattr(simulate, "stationary", lambda _: 3.0 * pi)
    simulate._meeting_pairs(g, None, seeds, 10)
    assert drawn[0] == drawn[1]


def _reference_coalescence(g, start_vertices, immortal, target_k, mortal,
                           seed, cap):
    """The per-step numpy loop on the ``step_uniforms`` oracle.

    Every live id takes a vectorized lazy step, then a lexsort merge keeps
    the smallest id at each vertex (``immortal=None``) or, by the immortal
    rule, every immortal walk at a vertex and else its smallest id.
    Returns (value, censored, trajectory).
    """
    pos = np.unique(np.asarray(list(start_vertices), dtype=np.int64))
    ids = np.arange(pos.size)
    g1 = np.isin(ids, list(immortal or ()))

    def stopped():
        return (int((~g1[ids]).sum()) if mortal else ids.size) <= target_k

    trajectory = [(0, ids.size)]
    if stopped():
        return 0, False, trajectory
    for t in range(1, cap + 1):
        u = step_uniforms(seed, t, g1.size)[ids]
        moving = u >= 0.5
        at = pos[moving]
        ranks = (((u[moving] - 0.5) * 2.0) * g.degrees[at]).astype(np.int64)
        np.minimum(ranks, g.degrees[at] - 1, out=ranks)
        pos[moving] = g.indices[g.indptr[at] + ranks]
        if immortal is None:
            order = np.lexsort((ids, pos))
        else:
            order = np.lexsort((ids, ~g1[ids], pos))
        pos, ids = pos[order], ids[order]
        head = np.r_[True, pos[1:] != pos[:-1]]
        if immortal is None:
            keep = head
        else:
            is_g1 = g1[ids]  # immortals sort first within a vertex group
            keep = np.where(is_g1[head][np.cumsum(head) - 1], is_g1, head)
        pos, ids = pos[keep], ids[keep]
        if t & (t - 1) == 0:
            trajectory.append((t, ids.size))
        if stopped():
            return t, False, trajectory
    return cap, True, trajectory


# (case id, cap): the reference loop's (value, censored, trajectory) list
_REFERENCE_RUNS: dict = {}


# (cap, trials) runs per case: each is one batch call, and 300 trials at a
# small cap cross a trial-chunk boundary with trials stopping at mixed times
@pytest.mark.parametrize("label,spec,starts,immortal,target_k,mode,runs", [
    # 512 ids over 128 Philox blocks
    ("torus3-8", FamilySpec("torus", dim=3, side=8), None, None, 1, None,
     ((None, 3), (37, 300), (700, 3))),
    # sparse subsets whose ids cross block boundaries
    ("torus3-8", FamilySpec("torus", dim=3, side=8),
     [3, 40, 41, 100, 257, 300, 301, 420, 511], None, 1, None,
     ((None, 3), (300, 300))),
    ("lower_bound-64", FamilySpec("lower_bound", n=64, alpha=1.0), None,
     None, 1, None, ((None, 3), (37, 300), (700, 3))),
    ("lower_bound-64", FamilySpec("lower_bound", n=64, alpha=1.0),
     range(0, 64, 5), (2, 7), 3, "total", ((None, 3), (150, 300))),
    ("lower_bound-64", FamilySpec("lower_bound", n=64, alpha=1.0),
     range(0, 64, 5), (2, 7), 2, "mortal", ((None, 3), (100, 300))),
    ("star-32", FamilySpec("star", n=32), None, None, 1, None,
     ((None, 20), (8, 300))),
    ("star-32", FamilySpec("star", n=32), range(1, 32, 3), (1, 9), 2,
     "mortal", ((None, 20), (3, 300))),
    ("star-32", FamilySpec("star", n=32), None, (5, 6, 30), 4, "total",
     ((None, 20), (5, 300))),
    # 40 distinct degrees, whose rank cuts interleave
    ("threshold-41", _threshold_graph(41), None, None, 1, None,
     ((None, 3), (60, 300))),
    # walk 2 dies, then the immortal walks 0 and 1 meet and both survive,
    # over and over, to the cap
    ("cycle-16", FamilySpec("cycle", n=16), [0, 3, 7], (0, 1), 1, "total",
     ((400, 45),)),
], ids=["torus-all", "torus-sparse", "lb-all", "lb-immortal-total",
        "lb-immortal-mortal", "star-all", "star-immortal-mortal",
        "star-immortal-total", "threshold-all", "cycle-immortal-pair"])
def test_coalesce_matches_reference_loop(request, wide, label, spec, starts,
                                         immortal, target_k, mode, runs):
    g = spec if isinstance(spec, Graph) else generate(spec, seed=11)
    vertices = range(g.n) if starts is None else starts
    group = frozenset([0] if immortal is None else immortal)
    case = request.node.callspec.id.split("-", 1)[1]  # the id after wide's
    for cap, trials in runs:
        seeds = [mix64(19, i) for i in range(trials)]
        limit = default_cap(g) if cap is None else cap
        # the oracle's answers do not depend on _WIDE: each is run once
        if (case, cap) not in _REFERENCE_RUNS:
            _REFERENCE_RUNS[case, cap] = [_reference_coalescence(
                g, vertices, immortal, target_k, mode == "mortal", s, limit)
                for s in seeds]
        want = _REFERENCE_RUNS[case, cap]
        got = _coalesce_batch(g, sorted(set(vertices)), group, target_k,
                              mode == "mortal", seeds, limit)
        assert [(s.value, s.censored, list(s.trajectory))
                for s in got] == want
        assert [s.seed for s in got] == seeds
        if trials == 300 and cap != 37:
            assert 0 < sum(c for _, c, _ in want) < trials
        if cap == 37:  # 37 censors every all-vertex run, on either path
            assert all(s.censored for s in got)
        # the public entry points are batches of one
        if immortal is None:
            one = simulate_coalescence(g, starts, seeds[0], cap)
        else:
            one = simulate_immortal(g, vertices, immortal, target_k,
                                    seeds[0], cap, mode)
        assert one == got[0]
    reached, named = wide  # 300 trials put _WIDE walks in one Philox call
    # a trial that stops at two walks or more never runs the two-walk loop
    most = target_k + len(group) * (mode == "mortal")
    assert reached == (named if most < 2 else named - {"meet"})


def test_coalesce_last_merge_on_power_of_two_or_row_end(monkeypatch, wide):
    # among these trials one stops at step 64, a power of two inside a
    # row, and one at step 96, a row's last step; each ends the trajectory
    # there only when it is a power of two
    ends = set()

    def rows(end, blocks, _run=simulate._rows):
        for steps in _run(end, blocks):
            ends.add(steps[-1])
            yield steps
    monkeypatch.setattr(simulate, "_rows", rows)
    g = generate(FamilySpec("cycle", n=16))
    seeds = [mix64(28, i) for i in range(24)]
    cap = default_cap(g)
    got = _coalesce_batch(g, list(range(16)), frozenset([0]), 1, False,
                          seeds, cap)
    want = [_reference_coalescence(g, range(16), None, 1, False, s, cap)
            for s in seeds]
    assert [(s.value, s.censored, list(s.trajectory)) for s in got] == want
    stops = {v for v, _, _ in want}
    assert 64 in stops and 64 not in ends
    assert 96 in stops and 96 in ends
    reached, named = wide
    assert reached == named


def _reference_voter(g, seed, cap):
    """The per-step voter loop on the ``step_uniforms`` oracle."""
    opinions = np.arange(g.n)
    for t in range(1, cap + 1):
        uniforms = step_uniforms(seed, t, g.n)
        adopting = np.flatnonzero(uniforms >= 0.5)
        residual = (uniforms[adopting] - 0.5) * 2.0
        ranks = (residual * g.degrees[adopting]).astype(np.int64)
        np.minimum(ranks, g.degrees[adopting] - 1, out=ranks)
        sources = g.indices[g.indptr[adopting] + ranks]
        new_opinions = opinions.copy()
        new_opinions[adopting] = opinions[sources]
        opinions = new_opinions
        if np.all(opinions == opinions[0]):
            return t, False
    return cap, True


@pytest.mark.parametrize("spec", [
    FamilySpec("cycle", n=32),
    FamilySpec("star", n=32),
    FamilySpec("clique", n=8),
    FamilySpec("lower_bound", n=16, alpha=1.0),
], ids=["cycle-32", "star-32", "clique-8", "lower_bound-16"])
def test_voter_batch_matches_reference_loop(spec):
    # 300 capped trials span two trial chunks; trials leave the batch at
    # consensus, mid-row, while the rest run on to the cap
    g = generate(spec, seed=11)
    for cap, count in ((7, 300), (None, 12)):
        seeds = [mix64(23, i) for i in range(count)]
        limit = default_cap(g) if cap is None else cap
        samples = _voter_batch(g, seeds, limit)
        assert [(s.value, s.censored) for s in samples] == [
            _reference_voter(g, s, limit) for s in seeds]
        assert [s.seed for s in samples] == seeds


def test_voter_chunk_bounded_by_counter_budget():
    # star-1024 takes 256 counters per trial and step, so 32 trials share a
    # chunk; 256 trials in one chunk held about 14 MB of opinions and draws
    import tracemalloc

    g = generate(FamilySpec("star", n=1024))
    seeds = [mix64(29, i) for i in range(256)]
    tracemalloc.start()
    try:
        samples = _voter_batch(g, seeds, 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert samples == [simulate_voter(g, s, cap=40) for s in seeds]
    assert peak < 6 * 2 ** 20


# Trials i of mix64(31, i) whose path-8 consensus falls on a row edge: rows
# of 32, 64, 128 and 256 steps end at t = 32, 96, 224 and 480, and trials
# 88 and 210 agree at 32, 21 and 89 at 33, 409 and 3098 at 96, 986 and 1540
# at 97, 2880 at 229. Trials 0-11 agree at scattered steps of rows 1 and 2.
_ROW_EDGE_TRIALS = (*range(12), 21, 88, 89, 210, 409, 986, 1540, 2880, 3098)


@pytest.mark.parametrize("cap", [1, 32, 33, 96, 97, None])
@pytest.mark.parametrize("spec,salt,trials", [
    (FamilySpec("path", n=2), 37, range(64)),
    (FamilySpec("path", n=8), 31, _ROW_EDGE_TRIALS),
], ids=["path-2", "path-8"])
def test_voter_batch_row_edges(spec, salt, trials, cap):
    # path-2 agrees at t = 1 with probability 1/2, so many trials agree at
    # different steps of the first row; caps sit on and one past row ends
    g = generate(spec)
    seeds = [mix64(salt, i) for i in trials]
    limit = default_cap(g) if cap is None else cap
    want = [_reference_voter(g, s, limit) for s in seeds]
    samples = _voter_batch(g, seeds, limit)
    assert [(s.value, s.censored) for s in samples] == want
    if cap is None:  # the trials reach the edges they stand for
        ended = {value for value, _ in want}
        assert ({1, 2, 3} if g.n == 2 else {32, 33, 96, 97, 229}) <= ended


def _reference_walk_sums(g, start, steps, walks, seed, values):
    """The per-start walker loop on the ``step_uniforms`` oracle."""
    static = values.ndim == 1
    pos = np.full(walks, start, dtype=np.int64)
    sums = np.full(walks, values[start] if static else values[0, start])
    for t in range(1, steps):
        uniforms = step_uniforms(seed, t, walks)
        moving = uniforms >= 0.5
        residual = (uniforms[moving] - 0.5) * 2.0
        at = pos[moving]
        ranks = (residual * g.degrees[at]).astype(np.int64)
        np.minimum(ranks, g.degrees[at] - 1, out=ranks)
        pos[moving] = g.indices[g.indptr[at] + ranks]
        sums += values[pos] if static else values[t, pos]
    return sums


@pytest.mark.parametrize("static", [True, False], ids=["static", "timed"])
@pytest.mark.parametrize("steps,walks", [(1, 3), (40, 5), (300, 2000)])
def test_walk_sums_match_reference_loop(static, steps, walks):
    g = generate(FamilySpec("lower_bound", n=16, alpha=1.0), seed=11)
    f = generator(3, 4).random(g.n if static else (steps, g.n))
    starts = [0, 5, 5, g.n - 1]
    seeds = [mix64(29, s) for s in range(len(starts))]
    got = _walk_sums(g, starts, seeds, steps, walks,
                     np.broadcast_to(f, (steps, g.n)))
    want = [_reference_walk_sums(g, start, steps, walks, seed, f)
            for start, seed in zip(starts, seeds)]
    assert np.array_equal(got, np.stack(want))


class TestGoldenSamples:
    """Samples recorded from the per-step kernels; any rewrite of a kernel
    must reproduce them exactly."""

    FREE = [150, 12, 45, 32, 29, 122, 34, 228, 144, 51, 97, 24]
    CAPPED = [(40, True), (12, False), (40, True), (32, False), (29, False),
              (40, True), (34, False), (40, True), (40, True), (40, True),
              (40, True), (24, False)]

    def test_meeting_fixed_start(self, cycle16):
        got = [simulate_meeting(cycle16, 0, 8, seed) for seed in range(12)]
        assert [(s.value, s.censored) for s in got] == [
            (v, False) for v in self.FREE]

    def test_meeting_fixed_start_capped(self, cycle16):
        got = [simulate_meeting(cycle16, 0, 8, seed, cap=40)
               for seed in range(12)]
        assert [(s.value, s.censored) for s in got] == self.CAPPED

    @pytest.mark.parametrize("cap,want", [
        (None, (99.14, 5.555442779977609, 0)),
        (100, (39.675824175824175, 2.130550860270144, 118)),
    ], ids=["uncapped", "cap100"])
    def test_stationary_meeting_torus(self, cap, want):
        g = generate(FamilySpec("torus", dim=3, side=4))
        est = estimate("meeting", g, {"stationary": True}, 300, master_seed=5,
                       cap=cap)
        assert (est.mean, est.stderr, est.censored_count) == want

    def test_coalescence(self, cycle16):
        s = simulate_coalescence(cycle16, seed=8)
        assert (s.value, s.censored) == (200, False)
        assert s.trajectory == ((0, 16), (1, 11), (2, 10), (4, 8), (8, 4),
                                (16, 4), (32, 3), (64, 2), (128, 2))

    def test_voter(self, cycle16):
        s = simulate_voter(cycle16, seed=4)
        assert (s.value, s.censored) == (47, False)

    def test_immortal(self, cycle16):
        s = simulate_immortal(cycle16, range(16), [0, 1, 2, 3], 4, seed=6)
        assert (s.value, s.censored) == (15, False)
        assert s.trajectory == ((0, 16), (1, 13), (2, 12), (4, 9), (8, 7))
