"""Seeded Monte Carlo simulation of interacting lazy random walks.

Covers pairwise meetings, the coalescing process (walks merge on
co-location, smallest id survives), the synchronous voter model, the
immortal-group variant in which a designated id set cannot be eliminated,
and the visit-count walkers of the concentration checks in ``bounds``.
Every step consumes one uniform per walk id from a counter-based stream
keyed by (trial seed, step), so runs are bitwise reproducible, trials can
execute on any number of workers, and two processes sharing a trial seed
see identical per-(step, id) moves (the paired-seed coupling harness).
Meeting, voter, coalescence and immortal trials run in batches that make
one Philox call per row of steps and drop each trial as it stops; the
concentration walkers run as one batch. One row policy, ``_rows``, serves
every kernel: rows of 32 steps that double, capped by a counter budget.
The one coalescence and immortal kernel draws only the blocks of the ids
still alive in each live trial, and a paired run is two such batches over
the same seeds. A sample does not depend on its batch or its rows. The
voter checks consensus once per row of steps, which is exact because
consensus is absorbing.
The scalar kernels take the lazy step of the numpy ``_lazy_moves`` one walk
at a time with no float math: numpy turns each row's uniforms into cells of
the residual grid, on which every degree's neighbour rank is constant, and a
walk moves by two list lookups in tables cached on the graph
(``_move_tables``).
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .chain import stationary
from .errors import AllCensored, BudgetExceeded, InvalidIds, InvalidSpec
from .graphs import Graph
from .seeding import (generator, philox_keys, philox_uniforms,
                      philox_uniforms_ragged, trial_seed)

WORKERS_ENV = "COALWALK_WORKERS"


def default_cap(g: Graph) -> int:
    """Step budget 50 n^3: far above the worst-case coalescence scale."""
    return 50 * g.n ** 3


@dataclass(frozen=True)
class SimSample:
    """One simulated stopping time; ``censored`` means the cap was hit."""
    value: int
    censored: bool
    seed: int
    trajectory: tuple[tuple[int, int], ...] | None = None


@dataclass(frozen=True)
class Estimate:
    mean: float
    stderr: float
    ci95_lo: float
    ci95_hi: float
    trials: int
    censored_count: int

    def overlaps(self, other: "Estimate") -> bool:
        return self.ci95_lo <= other.ci95_hi and other.ci95_lo <= self.ci95_hi


def _step_cap(g: Graph, cap: int | None) -> int:
    """``cap``, or ``default_cap(g)`` when it is None; below 1 is rejected."""
    if cap is None:
        return default_cap(g)
    if cap < 1:
        raise InvalidSpec("cap must be >= 1")
    return cap


def _cuts_of(d: int) -> np.ndarray:
    """The residuals a = j * 2**-52 at which int(a * d) steps up to 1..d-1.

    Rank k's cut is j = (k << 52) // d or j + 1: j * d * 2**-52 <= k
    exactly, but the float product may round up to k; at j - 1 it stays
    more than d * 2**-52 below k, which is more than half a unit in the
    last place of k, since k < d.
    """
    k = np.arange(1, d)
    j = np.array([(r << 52) // d for r in range(1, d)], dtype=np.int64)
    j += (j * 2.0 ** -52 * d).astype(np.int64) < k
    return j * 2.0 ** -52


def _move_tables(g: Graph) -> tuple[np.ndarray, list[list[int]],
                                    list[list[int]]]:
    """``(cuts, rank_of, moves)`` of the scalar lazy step, cached on the graph.

    A moving walk's residual a = (u - 0.5) * 2.0 lies on the grid
    j * 2**-52, 0 <= j < 2**52, and picks neighbour rank int(a * deg).
    ``cuts`` is the sorted union, over the distinct degrees d, of the grid
    points at which int(a * d) steps up, so every degree's rank is constant
    on each cell q = searchsorted(cuts, a, "right"). ``rank_of[x]``, one
    list shared by all vertices of x's degree, holds that rank at index q,
    and the degree itself at the last index, the stay cell (a < 0).
    ``moves[x]`` lists x's neighbours, then x, so a walk at x in cell q
    steps to ``moves[x][rank_of[x][q]]``.

    The rank lists hold D * (len(cuts) + 2) entries for D distinct degrees,
    and len(cuts) <= sum(d - 1) over them.
    """
    tables = g._cache.get("move_tables")
    if tables is None:
        degrees = np.unique(g.degrees).tolist()
        cuts = np.unique(np.concatenate([_cuts_of(d) for d in degrees]))
        starts = np.concatenate(([0.0], cuts))  # each cell's first residual
        ranks = {d: [*(starts * d).astype(np.int64).tolist(), d]
                 for d in degrees}
        idx, ptr = g.indices.tolist(), g.indptr.tolist()
        moves = [idx[a:b] + [x] for x, (a, b) in enumerate(zip(ptr, ptr[1:]))]
        tables = (cuts, [ranks[d] for d in g.degrees.tolist()], moves)
        g._cache["move_tables"] = tables
    return tables


def _cells(cuts: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """The move-table cell of each uniform u: -1, the stay cell, at u < 0.5,
    else searchsorted(cuts, a, "right") of its residual a = (u - 0.5) * 2.0.

    Both u = (1 + a) / 2 and each (1 + c) / 2 of a cut c are exact doubles,
    so u >= (1 + c) / 2 exactly when a >= c.
    """
    bounds = np.concatenate(([0.5], 0.5 + 0.5 * cuts))
    return np.searchsorted(bounds, uniforms, "right") - 1


def _lazy_moves(g: Graph, pos, uniforms) -> np.ndarray:
    """Vertices of walks at ``pos`` after one lazy step on ``uniforms``.

    With r = (u - 0.5) * 2.0 a walk stays when r < 0 and else moves to
    neighbor rank int(r * deg) of its vertex; r <= 1 - 2**-52, so the rank
    stays below deg. ``pos`` broadcasts against ``uniforms``; a staying
    walk's rank is raised to 0 only to keep its unused index in range.
    """
    residual = (uniforms - 0.5) * 2.0
    ranks = np.maximum((residual * g.degrees[pos]).astype(np.int64), 0)
    return np.where(residual >= 0.0, g.indices[g.indptr[pos] + ranks], pos)


# Trials run in chunks of _TRIAL_CHUNK, or fewer when their walks would
# fill more than one step of a Philox call. A call covers one row of steps
# (``_rows``), so its memory stays flat whatever the trial count.
_TRIAL_CHUNK = 256
_PHILOX_COUNTERS = 8192
_FIRST_WIDTH = 32


def _trial_chunk(blocks: int) -> int:
    """Trials per chunk when each trial's step takes ``blocks`` counters."""
    return min(_TRIAL_CHUNK, max(1, _PHILOX_COUNTERS // blocks))


def _rows(end: int, blocks):
    """The steps of each Philox call, in order, up to step ``end``.

    Rows start at _FIRST_WIDTH steps and double, so short trials draw little
    past their end, but hold no more steps than fit in _PHILOX_COUNTERS
    counters (at least one) when a step takes ``blocks()`` of them. That is
    read before each row; at 0, nothing is live and the rows stop.
    """
    done, width = 0, _FIRST_WIDTH
    while done < end and (count := blocks()):
        width = min(width, end - done, max(1, _PHILOX_COUNTERS // count))
        yield range(done + 1, done + width + 1)
        done += width
        width *= 2


def _meeting_batch(g: Graph, starts, seeds, cap: int | None) -> list[SimSample]:
    """Meeting samples of many trials; trial i starts at ``starts[i]``.

    Trial i reads the same per-(step, id) uniforms as any other run keyed by
    ``seeds[i]``, so its sample does not depend on the rest of the batch.
    """
    cap = _step_cap(g, cap)
    cuts, rank_of, moves = _move_tables(g)
    keys = philox_keys(seeds)
    samples: list[SimSample | None] = [None] * len(seeds)
    chunk = _trial_chunk(1)  # two walks: one block of four ids per step
    for lo in range(0, len(seeds), chunk):
        live = []  # (trial, x, y) of each trial that has not met yet
        for i in range(lo, min(lo + chunk, len(seeds))):
            u, v = starts[i]
            if u == v:
                samples[i] = SimSample(0, False, seeds[i])
            else:
                live.append((i, int(u), int(v)))
        for steps in _rows(cap, lambda: len(live)):
            cells = _cells(cuts, philox_uniforms(
                keys[[i for i, _, _ in live]], steps, 2))
            still = []
            for (i, x, y), row_x, row_y in zip(live, cells[:, :, 0].tolist(),
                                               cells[:, :, 1].tolist()):
                for t, cx, cy in zip(steps, row_x, row_y):
                    x = moves[x][rank_of[x][cx]]
                    y = moves[y][rank_of[y][cy]]
                    if x == y:
                        samples[i] = SimSample(t, False, seeds[i])
                        break
                else:
                    still.append((i, x, y))
            live = still
        for i, _, _ in live:
            samples[i] = SimSample(cap, True, seeds[i])
    return samples


def simulate_meeting(g: Graph, u: int, v: int, seed: int,
                     cap: int | None = None) -> SimSample:
    """First time two synchronized lazy walks from u and v co-locate."""
    g.check_vertices((u, v))
    return _meeting_batch(g, [(u, v)], [seed], cap)[0]


def _start_list(g: Graph, vertices) -> list[int]:
    """Distinct start vertices, ascending: walk i starts at the i-th."""
    starts = sorted({int(v) for v in vertices})
    g.check_vertices(starts)
    return starts


def _survivors(ids, pos, immortal) -> list[int]:
    """Indices of the walks a merge keeps: every immortal walk, and at each
    vertex holding none the smallest id (``ids`` ascend, so the first)."""
    first = dict(zip(reversed(pos), reversed(range(len(pos)))))
    held = list(compress(range(len(ids)), map(immortal.__contains__, ids)))
    for x in {pos[j] for j in held}:
        del first[x]
    return sorted([*first.values(), *held])


def _coalesce_batch(g: Graph, starts: list[int], immortal: frozenset,
                    target_k: int, mortal: bool, seeds, cap: int | None,
                    record_trajectory: bool) -> list[SimSample]:
    """Coalescing walks of many trials; walk i starts at ``starts[i]``.

    Coalescence is the case ``immortal = {0}``, ``target_k = 1``: the
    immortal rule then keeps the smallest id at every vertex. Each row of
    steps makes one Philox call for the live ids of every live trial, so
    the long tail with a few walks left costs a few counters per step, not
    n. As in ``_meeting_batch``, trial i's sample depends on ``seeds[i]``
    only.
    """
    cap = _step_cap(g, cap)
    cuts, rank_of, moves = _move_tables(g)

    def stopped(ids):
        alive = [i for i in ids if i not in immortal] if mortal else ids
        return len(alive) <= target_k

    def sample(i, t, censored, trajectory):
        return SimSample(t, censored, seeds[i],
                         tuple(trajectory) if record_trajectory else None)

    # a start set that already meets the stopping rule takes no step
    end = 0 if stopped(range(len(starts))) else cap
    keys = philox_keys(seeds)
    samples: list[SimSample | None] = [None] * len(seeds)
    # no more trials than fill the first step's Philox call
    chunk = _trial_chunk((len(starts) + 3) // 4)
    for lo in range(0, len(seeds), chunk):
        # (trial, live ids, their vertices, (t, walks alive) at t = 0 and
        # at every power of two) of each trial still running
        live = [(i, list(range(len(starts))), list(starts), [(0, len(starts))])
                for i in range(lo, min(lo + chunk, len(seeds)))]
        for steps in _rows(end, lambda: sum(
                len({i >> 2 for i in ids}) for _, ids, _, _ in live)):
            uniforms = philox_uniforms_ragged(
                keys[[i for i, _, _, _ in live]], steps,
                [ids for _, ids, _, _ in live])
            rows = _cells(cuts, uniforms).tolist()
            still, offset = [], 0
            for i, ids, pos, trajectory in live:
                # column of each live walk in the rows
                cols = range(offset, offset + len(ids))
                offset += len(ids)
                for t, row in zip(steps, rows):
                    for j, c in enumerate(cols):
                        x = pos[j]
                        pos[j] = moves[x][rank_of[x][row[c]]]
                    merged = len(set(pos)) < len(pos)
                    if merged:
                        keep = _survivors(ids, pos, immortal)
                        ids = [ids[j] for j in keep]
                        pos = [pos[j] for j in keep]
                        cols = [cols[j] for j in keep]
                    if t & (t - 1) == 0:
                        trajectory.append((t, len(ids)))
                    if merged and stopped(ids):
                        samples[i] = sample(i, t, False, trajectory)
                        break
                else:
                    still.append((i, ids, pos, trajectory))
            live = still
        for i, _, _, trajectory in live:
            samples[i] = sample(i, end, end > 0, trajectory)
    return samples


def simulate_coalescence(g: Graph, start_vertices=None, seed: int = 0,
                         cap: int | None = None,
                         record_trajectory: bool = False) -> SimSample:
    """Coalescing walks from ``start_vertices`` (default: every vertex).

    All active walks take synchronized lazy steps; walks landing on one
    vertex merge with the smallest id surviving. Returns the first time a
    single walk remains.
    """
    params = {"start_vertices": start_vertices,
              "record_trajectory": record_trajectory}
    return _trial_batch_samples(("coalescence", g, params, [seed], cap))[0]


def _voter_batch(g: Graph, seeds, cap: int | None) -> list[SimSample]:
    """Voter consensus times of many trials; as in ``_meeting_batch``, the
    sample of the trial keyed by ``seeds[i]`` does not depend on the rest.

    Each step is one flat gather of the live opinions into a buffer of the
    row's steps; consensus is checked once, on the whole buffer, at the row's
    end. Equal opinions stay equal, so the first step of the row at which
    a trial's opinions are all equal is its consensus time.
    """
    cap = _step_cap(g, cap)
    if g.n == 1:
        return [SimSample(0, False, s) for s in seeds]
    samples: list[SimSample | None] = [None] * len(seeds)
    keys = philox_keys(seeds)
    blocks = (g.n + 3) // 4  # Philox counters per (trial, step)
    chunk = _trial_chunk(blocks)
    for lo in range(0, len(seeds), chunk):
        live = np.arange(lo, min(lo + chunk, len(seeds)))
        opinions = np.tile(np.arange(g.n), (live.size, 1))  # row per trial
        for steps in _rows(cap, lambda: live.size * blocks):
            uniforms = philox_uniforms(keys[live], steps, g.n)
            # at step j, node v of trial k adopts the previous-round opinion
            # at flat[k, j, v], an index into the flattened (live, n) opinions
            flat = _lazy_moves(g, np.arange(g.n), uniforms)
            flat += (np.arange(live.size) * g.n)[:, None, None]
            rounds = np.empty((len(steps), live.size, g.n), opinions.dtype)
            for j in range(len(steps)):
                # every index is in range; "clip" skips the copy "raise" makes
                opinions = opinions.take(flat[:, j], out=rounds[j],
                                         mode="clip")
            agreed = (rounds == rounds[:, :, :1]).all(axis=2)
            ended = agreed[-1]
            first = agreed.argmax(axis=0)
            for i, j in zip(live[ended].tolist(), first[ended].tolist()):
                samples[i] = SimSample(steps[j], False, seeds[i])
            live, opinions = live[~ended], opinions[~ended]
            del rounds  # free the row before the next row draws its uniforms
        for i in live.tolist():
            samples[i] = SimSample(cap, True, seeds[i])
    return samples


def simulate_voter(g: Graph, seed: int, cap: int | None = None) -> SimSample:
    """First consensus round of synchronous lazy voter dynamics from
    all-distinct opinions: each round every node keeps its opinion w.p. 1/2,
    else adopts a uniform neighbor's previous-round opinion. This is the
    exact dual of the lazy coalescing walks."""
    return _voter_batch(g, [seed], cap)[0]


def simulate_immortal(g: Graph, start_vertices, immortal_ids, target_k: int,
                      seed: int, cap: int | None = None, mode: str = "total",
                      record_trajectory: bool = False) -> SimSample:
    """Coalescing walks where the id group ``immortal_ids`` cannot die.

    Merge rule per vertex: if any immortal walk arrives, every arriving
    immortal survives and all mortal walks die; if only mortals arrive,
    the smallest id survives. Ids are 0..k-1 in sorted start-vertex order.

    Stopping: ``mode="total"`` stops when at most ``target_k`` walks
    remain; ``mode="mortal"`` when at most ``target_k`` mortal walks
    remain. ("Fewer than k remain" in the usual phrasing; at-most
    semantics make target_k = |S0| stop at time 0 and keep the immortal
    variant reachable when target_k = |G1|.)
    """
    params = {"start_vertices": start_vertices, "immortal_ids": immortal_ids,
              "target_k": target_k, "mode": mode,
              "record_trajectory": record_trajectory}
    return _trial_batch_samples(("immortal", g, params, [seed], cap))[0]


def _walk_sums(g: Graph, starts, seeds, steps: int, walks: int,
               values: np.ndarray) -> np.ndarray:
    """sum_{t < steps} values[t, X_t] over ``walks`` lazy walks per start:
    row i holds the walks from ``starts[i]``, and its walk j reads id j of
    the stream keyed by ``seeds[i]``."""
    pos = np.repeat(np.asarray(starts, dtype=np.int64)[:, None], walks, 1)
    sums = values[0, pos]
    keys = philox_keys(seeds)
    for row in _rows(steps - 1, lambda: len(keys) * ((walks + 3) // 4)):
        uniforms = philox_uniforms(keys, row, walks)
        for j, t in enumerate(row):
            pos = _lazy_moves(g, pos, uniforms[:, j])
            sums += values[t, pos]
    return sums


# ---------------------------------------------------------------------------
# Ensemble estimation
# ---------------------------------------------------------------------------

_KINDS = ("meeting", "coalescence", "voter", "immortal")


def _meeting_starts(g: Graph, params: dict, seeds) -> list:
    if params.get("stationary"):
        # starts drawn from pi per trial; independent of the step stream
        pi = stationary(g)
        return [generator(s, 1).choice(g.n, size=2, p=pi) for s in seeds]
    return [(params["u"], params["v"])] * len(seeds)


def _trial_batch_samples(args):
    kind, g, params, seeds, cap = args
    if kind == "meeting":
        return _meeting_batch(g, _meeting_starts(g, params, seeds), seeds, cap)
    if kind == "voter":
        return _voter_batch(g, seeds, cap)
    record = params.get("record_trajectory", False)
    if kind == "coalescence":
        vertices = params.get("start_vertices")
        starts = _start_list(g, range(g.n) if vertices is None else vertices)
        if not starts:
            raise InvalidSpec("start set must be non-empty")
        return _coalesce_batch(g, starts, frozenset([0]), 1, False, seeds, cap,
                               record)
    mode, target_k = params.get("mode", "total"), params["target_k"]
    if mode not in ("total", "mortal"):
        raise InvalidSpec(f"unknown stopping mode {mode!r}")
    if target_k < 1:
        raise InvalidSpec("target_k must be >= 1")
    starts = _start_list(g, params["start_vertices"])
    immortal = frozenset(int(i) for i in params["immortal_ids"])
    if not immortal or min(immortal) < 0 or max(immortal) >= len(starts):
        raise InvalidIds("immortal ids must be ids of the start ensemble")
    return _coalesce_batch(g, starts, immortal, target_k, mode == "mortal",
                           seeds, cap, record)


def estimate(kind: str, g: Graph, params: dict | None, trials: int,
             master_seed: int, cap: int | None = None,
             workers: int | None = None) -> Estimate:
    """Monte Carlo estimate over ``trials`` independent runs.

    Per-trial seeds are derived from (master_seed, trial index), so the
    result is identical for any worker count or scheduling; ``workers``
    defaults to the COALWALK_WORKERS variable, or 1 when it is unset.
    Censored trials are counted and excluded from the mean.
    """
    if kind not in _KINDS:
        raise InvalidSpec(f"unknown simulation kind {kind!r}")
    if trials < 2:
        raise InvalidSpec("trials must be >= 2")
    params = dict(params or {})
    needs = {"meeting": () if params.get("stationary") else ("u", "v"),
             "immortal": ("start_vertices", "target_k", "immortal_ids")}
    for key in needs.get(kind, ()):
        if key not in params:
            raise InvalidSpec(f"{kind} estimate needs params[{key!r}]")
    if kind == "meeting" and not params.get("stationary"):
        g.check_vertices((params["u"], params["v"]))
    if kind == "voter" and not params.get("lazy", True):
        raise InvalidSpec("the voter model is lazy only")
    seeds = [trial_seed(master_seed, i) for i in range(trials)]
    if workers is None:
        text = os.environ.get(WORKERS_ENV, "1")
        try:
            workers = int(text)
        except ValueError:
            workers = 0
        if workers < 1:
            raise InvalidSpec(f"{WORKERS_ENV}={text!r} is not an integer >= 1")
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, trials // (workers * 4))
        batches = [(kind, g, params, seeds[i:i + chunk], cap)
                   for i in range(0, trials, chunk)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = [s for batch in pool.map(_trial_batch_samples, batches)
                       for s in batch]
    else:
        results = _trial_batch_samples((kind, g, params, seeds, cap))
    values = np.array([float(s.value) for s in results])
    censored = np.array([s.censored for s in results])
    kept = values[~censored]
    if kept.size == 0:
        raise AllCensored(f"all {trials} trials hit the step cap")
    mean = float(np.mean(kept))
    stderr = float(np.std(kept, ddof=1) / np.sqrt(kept.size)) if kept.size > 1 else 0.0
    return Estimate(mean=mean, stderr=stderr,
                    ci95_lo=mean - 1.96 * stderr, ci95_hi=mean + 1.96 * stderr,
                    trials=trials, censored_count=int(censored.sum()))


def paired_batch_means(g: Graph, start_vertices, immortal_ids, target_k: int,
                       batch_trials: int, master_seed: int,
                       cap: int | None = None) -> tuple[float, float, int]:
    """Paired comparison of the standard and immortal processes.

    Runs ``batch_trials`` trials where both processes share each trial
    seed (identical per-(step, id) moves), as two trial batches over the
    same seeds, and returns (mean standard T^k, mean immortal T^k, count of
    steps where the standard process had strictly more walks alive than the
    immortal one). The last value is diagnostic: the distributional
    ordering guaranteed by theory does not force pathwise domination under
    this identity coupling. A trial of either process that hits ``cap``
    raises ``BudgetExceeded``: its capped time is no sample of T^k.
    """
    if batch_trials < 1:
        raise InvalidSpec("batch_trials must be >= 1")
    seeds = [trial_seed(master_seed, i) for i in range(batch_trials)]
    std, imm = (_trial_batch_samples(("immortal", g, {
        "start_vertices": start_vertices, "immortal_ids": group,
        "target_k": target_k, "record_trajectory": True}, seeds, cap))
        for group in ([0], immortal_ids))
    if any(s.censored for s in std + imm):
        raise BudgetExceeded("a paired trial hit the step cap")
    pathwise_excess = 0
    for a, b in zip(std, imm):
        imm_counts = dict(b.trajectory)
        pathwise_excess += sum(1 for t, count in a.trajectory
                               if t in imm_counts and count > imm_counts[t])
    return (float(np.mean([s.value for s in std])),
            float(np.mean([s.value for s in imm])), pathwise_excess)
