"""Seeded Monte Carlo simulation of interacting lazy random walks.

Covers pairwise meetings, the coalescing process (walks merge on
co-location, smallest id survives), the synchronous voter model, the
immortal-group variant in which a designated id set cannot be eliminated,
and the visit-count walkers of the concentration checks in ``bounds``.
Every step consumes one uniform per walk id from a counter-based stream
keyed by (trial seed, step), so runs are bitwise reproducible, trials can
execute on any number of workers, and two processes sharing a trial seed
see identical per-(step, id) moves (the paired-seed coupling harness).
Every kind reads ``philox_uniforms`` a row of steps per call. Meeting and
voter trials run as batches that drop each trial as it stops; coalescence
and immortal trials share one per-trial kernel that draws only the blocks
of the ids still alive. Either way a sample does not depend on its batch.
The scalar kernels and the numpy ``_lazy_moves`` share one rank arithmetic.
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import AllCensored, InvalidIds, InvalidSpec
from .graphs import Graph
from .seeding import generator, philox_keys, philox_uniforms, trial_seed

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

    @property
    def has_censoring(self) -> bool:
        return self.censored_count > 0

    def overlaps(self, other: "Estimate") -> bool:
        return self.ci95_lo <= other.ci95_hi and other.ci95_lo <= self.ci95_hi


def _step_cap(g: Graph, cap: int | None) -> int:
    """``cap``, or ``default_cap(g)`` when it is None; below 1 is rejected."""
    if cap is None:
        return default_cap(g)
    if cap < 1:
        raise InvalidSpec("cap must be >= 1")
    return cap


def _adjacency_lists(g: Graph) -> list[list[int]]:
    lists = g._cache.get("adj_lists")
    if lists is None:
        idx = g.indices.tolist()
        ptr = g.indptr.tolist()
        lists = [idx[ptr[u]:ptr[u + 1]] for u in range(g.n)]
        g._cache["adj_lists"] = lists
    return lists


def _lazy_moves(g: Graph, pos, uniforms) -> np.ndarray:
    """Vertices of walks at ``pos`` after one lazy step on ``uniforms``.

    With r = (u - 0.5) * 2.0 a walk stays when r < 0 and else moves to
    neighbor rank int(r * deg) of its vertex, or the last neighbor should
    rounding reach deg. ``pos`` broadcasts against ``uniforms``; a staying
    walk's rank is clipped to 0 only to keep its unused index in range.
    """
    residual = (uniforms - 0.5) * 2.0
    degs = g.degrees[pos]
    ranks = np.clip((residual * degs).astype(np.int64), 0, degs - 1)
    return np.where(residual >= 0.0, g.indices[g.indptr[pos] + ranks], pos)


# Meeting and voter trials run in chunks of _TRIAL_CHUNK; each Philox call
# covers at most _PHILOX_COUNTERS counters, one per trial, step and block of
# four ids, so a block's memory stays flat whatever the trial count. Row
# widths start at _FIRST_WIDTH steps and double, so short trials draw little
# past their end.
_TRIAL_CHUNK = 256
_PHILOX_COUNTERS = 8192
_FIRST_WIDTH = 32


def _meeting_batch(g: Graph, starts, seeds, cap: int | None) -> list[SimSample]:
    """Meeting samples of many trials; trial i starts at ``starts[i]``.

    Trial i reads the same per-(step, id) uniforms as any other run keyed by
    ``seeds[i]``, so its sample does not depend on the rest of the batch.
    """
    cap = _step_cap(g, cap)
    adj = _adjacency_lists(g)
    samples = []
    for lo in range(0, len(seeds), _TRIAL_CHUNK):
        samples += _meeting_chunk(adj, starts[lo:lo + _TRIAL_CHUNK],
                                  seeds[lo:lo + _TRIAL_CHUNK], cap)
    return samples


def _meeting_chunk(adj, starts, seeds, cap: int) -> list[SimSample]:
    samples: list[SimSample | None] = [None] * len(seeds)
    live = []  # [trial, x, y] of each trial that has not met yet
    for i, (u, v) in enumerate(starts):
        if u == v:
            samples[i] = SimSample(0, False, seeds[i])
        else:
            live.append([i, int(u), int(v)])
    keys = philox_keys(seeds)
    done, width = 0, _FIRST_WIDTH
    while live and done < cap:
        width = min(width, cap - done, max(1, _PHILOX_COUNTERS // len(live)))
        uniforms = philox_uniforms(keys[[i for i, _, _ in live]],
                                   range(done + 1, done + width + 1), 2)
        # the rank arithmetic of _lazy_moves, one walk at a time
        residual = (uniforms - 0.5) * 2.0
        still = []
        for trial, row_x, row_y in zip(live, residual[:, :, 0].tolist(),
                                       residual[:, :, 1].tolist()):
            i, x, y = trial
            t = done
            for a, b in zip(row_x, row_y):
                t += 1
                if a >= 0.0:
                    nbrs = adj[x]
                    rank = int(a * len(nbrs))
                    x = nbrs[rank] if rank < len(nbrs) else nbrs[-1]
                if b >= 0.0:
                    nbrs = adj[y]
                    rank = int(b * len(nbrs))
                    y = nbrs[rank] if rank < len(nbrs) else nbrs[-1]
                if x == y:
                    samples[i] = SimSample(t, False, seeds[i])
                    break
            else:
                still.append([i, x, y])
        live = still
        done += width
        width *= 2
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
    taken = {x for i, x in zip(ids, pos) if i in immortal}
    keep = []
    for j, (i, x) in enumerate(zip(ids, pos)):
        if i in immortal:
            keep.append(j)
        elif x not in taken:
            taken.add(x)
            keep.append(j)
    return keep


def _coalesce(g: Graph, starts: list[int], immortal: frozenset, target_k: int,
              mortal: bool, seed: int, cap: int | None,
              record_trajectory: bool) -> SimSample:
    """One trial of coalescing walks; walk i starts at ``starts[i]``.

    Coalescence is the case ``immortal = {0}``, ``target_k = 1``: the
    immortal rule then keeps the smallest id at every vertex. Each row of
    steps draws one Philox block for the live ids only, so the long tail
    with a few walks left costs a few counters per step, not n.
    """
    cap = _step_cap(g, cap)
    adj = _adjacency_lists(g)
    ids, pos = list(range(len(starts))), list(starts)
    # (t, walks alive) at t = 0 and at every power of two
    trajectory = [(0, len(ids))] if record_trajectory else None

    def stopped():
        alive = [i for i in ids if i not in immortal] if mortal else ids
        return len(alive) <= target_k

    def sample(t, censored):
        return SimSample(t, censored, seed,
                         None if trajectory is None else tuple(trajectory))

    if stopped():
        return sample(0, False)
    key = philox_keys([seed])
    done, width = 0, _FIRST_WIDTH
    while done < cap:
        blocks = len({i >> 2 for i in ids})
        width = min(width, cap - done, max(1, _PHILOX_COUNTERS // blocks))
        uniforms = philox_uniforms(key, range(done + 1, done + width + 1),
                                   ids=ids)[0]
        cols = range(len(ids))  # column of each live walk in the row
        for t, row in enumerate(((uniforms - 0.5) * 2.0).tolist(), done + 1):
            for j, c in enumerate(cols):
                a = row[c]
                if a >= 0.0:
                    nbrs = adj[pos[j]]
                    rank = int(a * len(nbrs))
                    pos[j] = nbrs[rank] if rank < len(nbrs) else nbrs[-1]
            merged = len(set(pos)) < len(pos)
            if merged:
                keep = _survivors(ids, pos, immortal)
                ids = [ids[j] for j in keep]
                pos = [pos[j] for j in keep]
                cols = [cols[j] for j in keep]
            if trajectory is not None and t & (t - 1) == 0:
                trajectory.append((t, len(ids)))
            if merged and stopped():
                return sample(t, False)
        done += width
        width *= 2
    return sample(cap, True)


def simulate_coalescence(g: Graph, start_vertices=None, seed: int = 0,
                         cap: int | None = None,
                         record_trajectory: bool = False) -> SimSample:
    """Coalescing walks from ``start_vertices`` (default: every vertex).

    All active walks take synchronized lazy steps; walks landing on one
    vertex merge with the smallest id surviving. Returns the first time a
    single walk remains.
    """
    starts = _start_list(g, range(g.n) if start_vertices is None
                         else start_vertices)
    if not starts:
        raise InvalidSpec("start set must be non-empty")
    return _coalesce(g, starts, frozenset([0]), 1, False, seed, cap,
                     record_trajectory)


def _voter_batch(g: Graph, seeds, cap: int | None) -> list[SimSample]:
    """Voter consensus times of many trials; as in ``_meeting_batch``, the
    sample of the trial keyed by ``seeds[i]`` does not depend on the rest."""
    cap = _step_cap(g, cap)
    if g.n == 1:
        return [SimSample(0, False, s) for s in seeds]
    samples: list[SimSample | None] = [None] * len(seeds)
    keys = philox_keys(seeds)
    blocks = (g.n + 3) // 4  # Philox counters per (trial, step)
    for lo in range(0, len(seeds), _TRIAL_CHUNK):
        live = np.arange(lo, min(lo + _TRIAL_CHUNK, len(seeds)))
        opinions = np.tile(np.arange(g.n), (live.size, 1))  # row per trial
        done, width = 0, _FIRST_WIDTH
        while live.size and done < cap:
            width = min(width, cap - done,
                        max(1, _PHILOX_COUNTERS // (live.size * blocks)))
            uniforms = philox_uniforms(keys[live],
                                       range(done + 1, done + width + 1), g.n)
            # node v adopts the previous-round opinion of sources[:, j, v]
            sources = _lazy_moves(g, np.arange(g.n), uniforms)
            for j in range(width):
                opinions = np.take_along_axis(opinions, sources[:, j], 1)
                agreed = (opinions == opinions[:, :1]).all(axis=1)
                if agreed.any():
                    for i in live[agreed].tolist():
                        samples[i] = SimSample(done + j + 1, False, seeds[i])
                    live, opinions = live[~agreed], opinions[~agreed]
                    sources = sources[~agreed]
            done += width
            width *= 2
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
    if mode not in ("total", "mortal"):
        raise InvalidSpec(f"unknown stopping mode {mode!r}")
    if target_k < 1:
        raise InvalidSpec("target_k must be >= 1")
    starts = _start_list(g, start_vertices)
    immortal = frozenset(int(i) for i in immortal_ids)
    if not immortal or min(immortal) < 0 or max(immortal) >= len(starts):
        raise InvalidIds("immortal ids must be ids of the start ensemble")
    return _coalesce(g, starts, immortal, target_k, mode == "mortal", seed,
                     cap, record_trajectory)


def _walk_sums(g: Graph, starts, seeds, steps: int, walks: int,
               values: np.ndarray) -> np.ndarray:
    """sum_{t < steps} values[t, X_t] over ``walks`` lazy walks per start:
    row i holds the walks from ``starts[i]``, and its walk j reads id j of
    the stream keyed by ``seeds[i]``."""
    pos = np.repeat(np.asarray(starts, dtype=np.int64)[:, None], walks, 1)
    sums = values[0, pos]
    keys = philox_keys(seeds)
    width = max(1, _PHILOX_COUNTERS // (len(keys) * ((walks + 3) // 4)))
    for lo in range(1, steps, width):
        uniforms = philox_uniforms(keys, range(lo, min(lo + width, steps)),
                                   walks)
        for t in range(lo, lo + uniforms.shape[1]):
            pos = _lazy_moves(g, pos, uniforms[:, t - lo])
            sums += values[t, pos]
    return sums


# ---------------------------------------------------------------------------
# Ensemble estimation
# ---------------------------------------------------------------------------

_KINDS = ("meeting", "coalescence", "voter", "immortal")


def _meeting_starts(g: Graph, params: dict, seeds) -> list:
    if params.get("stationary"):
        # starts drawn from pi per trial; independent of the step stream
        weights = g.degrees / (2.0 * g.m)
        return [generator(s, 1).choice(g.n, size=2, p=weights) for s in seeds]
    return [(params["u"], params["v"])] * len(seeds)


def _trial_batch_samples(args):
    kind, g, params, seeds, cap = args
    if kind == "meeting":
        return _meeting_batch(g, _meeting_starts(g, params, seeds), seeds, cap)
    if kind == "voter":
        return _voter_batch(g, seeds, cap)
    if kind == "coalescence":
        return [simulate_coalescence(g, params.get("start_vertices"), s, cap,
                                     params.get("record_trajectory", False))
                for s in seeds]
    return [simulate_immortal(g, params["start_vertices"],
                              params["immortal_ids"], params["target_k"], s,
                              cap, params.get("mode", "total"))
            for s in seeds]


def estimate(kind: str, g: Graph, params: dict | None, trials: int,
             master_seed: int, cap: int | None = None,
             workers: int | None = None) -> Estimate:
    """Monte Carlo estimate over ``trials`` independent runs.

    Per-trial seeds are derived from (master_seed, trial index), so the
    result is identical for any worker count or scheduling. Censored
    trials are counted and excluded from the mean.
    """
    if kind not in _KINDS:
        raise InvalidSpec(f"unknown simulation kind {kind!r}")
    if trials < 2:
        raise InvalidSpec("trials must be >= 2")
    params = dict(params or {})
    if kind == "meeting" and not params.get("stationary"):
        g.check_vertices((params["u"], params["v"]))
    if kind == "voter" and not params.get("lazy", True):
        raise InvalidSpec("the voter model is lazy only")
    seeds = [trial_seed(master_seed, i) for i in range(trials)]
    if workers is None:
        workers = int(os.environ.get(WORKERS_ENV, "1"))
    if workers > 1:
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
    seed (identical per-(step, id) moves) and returns (mean standard T^k,
    mean immortal T^k, count of steps where the standard process had
    strictly more walks alive than the immortal one). The last value is
    diagnostic: the distributional ordering guaranteed by theory does not
    force pathwise domination under this identity coupling.
    """
    if batch_trials < 1:
        raise InvalidSpec("batch_trials must be >= 1")
    std_vals, imm_vals = [], []
    pathwise_excess = 0
    min_id = [0]
    for i in range(batch_trials):
        seed_i = trial_seed(master_seed, i)
        std = simulate_immortal(g, start_vertices, min_id, target_k, seed_i,
                                cap, mode="total", record_trajectory=True)
        imm = simulate_immortal(g, start_vertices, immortal_ids, target_k,
                                seed_i, cap, mode="total",
                                record_trajectory=True)
        std_vals.append(std.value)
        imm_vals.append(imm.value)
        imm_counts = dict(imm.trajectory)
        for t, count in std.trajectory:
            if t in imm_counts and count > imm_counts[t]:
                pathwise_excess += 1
    return float(np.mean(std_vals)), float(np.mean(imm_vals)), pathwise_excess
