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
the same seeds. It runs in three stages. While ``_WIDE`` or more walks
are alive, it steps them all at once in numpy (``_lazy_moves``); the step
that leaves fewer hands the rest of the row to a scalar loop per trial: the
general loop while three walks or more are alive, and with two the meeting
loop that ``_meeting_batch`` runs (``_meet``). A sample does not depend on
its batch, its rows or these switches. The voter checks consensus once per
row of steps, which is exact because consensus is absorbing.
The scalar loops take the lazy step of ``_lazy_moves`` one walk at a time
with no float math: numpy turns each row's uniforms into cells of the
residual grid, on which every degree's neighbour rank is constant, by a
bucket table with a few gathers per uniform (``_cells``), and a walk moves
by two list lookups in tables cached on the graph (``_move_tables``).
Two lazy walks both stay on a quarter of the steps and cannot meet there,
so the meeting batch drops those steps of each row in numpy, and its trials
loop over the rest. ``_meet`` returns the index of the first co-location in
the cells it is given, and its caller maps that back to a step.
The start pairs of stationary meeting trials come from one Philox call for
the whole batch (``_meeting_pairs``).
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from itertools import compress, islice
from operator import length_hint

import numpy as np

from .chain import stationary
from .errors import (AllCensored, BudgetExceeded, InvalidIds, InvalidSpec,
                     is_integer)
from .graphs import Graph
from .seeding import (mix64, philox_keys, philox_uniforms,
                      philox_uniforms_ragged)

WORKERS_ENV = "COALWALK_WORKERS"


def default_cap(g: Graph) -> int:
    """Step budget 50 n^3: far above the worst-case coalescence scale."""
    return 50 * g.n ** 3


@dataclass(frozen=True)
class SimSample:
    """One simulated stopping time; ``censored`` means the cap was hit.
    Coalescence and immortal samples carry ``trajectory``, the walks alive
    at t = 0 and at every power of two; meeting and voter samples none."""
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

    def to_dict(self) -> dict:
        """The record ``coalwalk all`` and ``coalwalk simulate`` write."""
        return {"mean": self.mean, "stderr": self.stderr,
                "ci95": [self.ci95_lo, self.ci95_hi], "trials": self.trials,
                "censored": self.censored_count}


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


def _bucket_table(cuts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(first, rows)``, the bucket table that ``_cells`` reads.

    A uniform u's cell counts the bounds [0.5, 0.5 + 0.5 * cuts] at or
    below u, less one. K is the smallest power of two of at least four
    times their number; ``first[j]`` is the cell at the bucket start
    j / K, so it counts a bound on that edge, and the h rows hold the
    bounds strictly inside bucket j at column j, padded with 2.0.
    """
    bounds = np.concatenate(([0.5], 0.5 + 0.5 * cuts))
    size = 1 << (4 * bounds.size - 1).bit_length()
    first = np.searchsorted(bounds, np.arange(size) / size, "right") - 1
    scaled = bounds * size  # exact: size is a power of two
    inside = scaled != np.floor(scaled)
    bucket = scaled[inside].astype(np.intp)
    slot = np.arange(bucket.size) - np.searchsorted(bucket, bucket)
    rows = np.full((slot.max(initial=-1) + 1, size), 2.0)
    rows[slot, bucket] = bounds[inside]
    return first, rows


def _move_tables(g: Graph) -> tuple[tuple[np.ndarray, np.ndarray],
                                    list[list[int]], list[list[int]]]:
    """``(table, rank_of, moves)`` of the scalar lazy step, cached on the
    graph.

    A moving walk's residual a = (u - 0.5) * 2.0 lies on the grid
    j * 2**-52, 0 <= j < 2**52, and picks neighbour rank int(a * deg).
    The cuts are the sorted union, over the distinct degrees d, of the grid
    points at which int(a * d) steps up, so every degree's rank is constant
    on each cell q = searchsorted(cuts, a, "right"). ``table`` is the
    bucket table (``_bucket_table``) that ``_cells`` maps uniforms to cells
    with. ``rank_of[x]``, one list shared by all vertices of x's degree,
    holds that rank at index q, and the degree itself at the last index,
    the stay cell (a < 0). ``moves[x]`` lists x's neighbours, then x, so a
    walk at x in cell q steps to ``moves[x][rank_of[x][q]]``.

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
        tables = (_bucket_table(cuts), [ranks[d] for d in g.degrees.tolist()],
                  moves)
        g._cache["move_tables"] = tables
    return tables


def _cells(table, uniforms: np.ndarray) -> np.ndarray:
    """The move-table cell of each uniform u: -1, the stay cell, at u < 0.5,
    else searchsorted(cuts, a, "right") of its residual a = (u - 0.5) * 2.0.

    Both u = (1 + a) / 2 and each (1 + c) / 2 of a cut c are exact doubles,
    so u >= (1 + c) / 2 exactly when a >= c. u lies in [0, 1) and
    K = len(first) is a power of two, so u * K is exact and its floor j is
    u's bucket: the cell is ``first[j]`` plus the count of the bucket's
    inside bounds at or below u, one compare per row of ``_bucket_table``.
    """
    first, rows = table
    bucket = (uniforms * first.size).astype(np.intp)
    cells = first.take(bucket)
    for row in rows:
        cells += row.take(bucket) <= uniforms
    return cells


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


def _meet(moves, rank_of, x, y, xs, ys):
    """``(j, x, y)``: two walks from x and y step on the cells of the lists
    ``xs`` and ``ys`` until they first co-locate, on cell j, or j is None
    at the lists' end; x and y are then their vertices. j is read from what
    is left of ``ys``, so the loop keeps no counter."""
    rest = iter(ys)
    for cx, cy in zip(xs, rest):
        x = moves[x][rank_of[x][cx]]
        y = moves[y][rank_of[y][cy]]
        if x == y:
            return len(ys) - 1 - length_hint(rest), x, y
    return None, x, y


def _powers(trajectory, first: int, last: int, alive: int) -> None:
    """Append ``(t, alive)`` at each power of two t in [first, last]."""
    t = 1 << (first - 1).bit_length()
    while t <= last:
        trajectory.append((t, alive))
        t <<= 1


def _meeting_batch(g: Graph, starts, seeds, cap: int) -> list[SimSample]:
    """Meeting samples of many trials; trial i starts at ``starts[i]``.

    Trial i reads the same per-(step, id) uniforms as any other run keyed by
    ``seeds[i]``, so its sample does not depend on the rest of the batch.
    ``cap``, here and in the other batch kernels, is the step cap that
    ``_batch`` resolved.
    """
    table, rank_of, moves = _move_tables(g)
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
            cells = _cells(table, philox_uniforms(
                keys[[i for i, _, _ in live]], steps, 2))
            xs, ys = cells[:, :, 0], cells[:, :, 1]
            # both walks stay (cell -1) on a quarter of the steps, where
            # they cannot meet: trial k loops over the others only, at the
            # flat (trial, step) indices kept[cut[k]:cut[k + 1]]
            kept = np.flatnonzero(np.maximum(xs, ys) >= 0)
            cut = kept.searchsorted(
                np.arange(len(live) + 1) * len(steps)).tolist()
            xs, ys = xs.take(kept).tolist(), ys.take(kept).tolist()
            still = []
            for (i, x, y), a, b in zip(live, cut, cut[1:]):
                j, x, y = _meet(moves, rank_of, x, y, xs[a:b], ys[a:b])
                if j is None:
                    still.append((i, x, y))
                else:
                    samples[i] = SimSample(steps[kept[a + j] % len(steps)],
                                           False, seeds[i])
            live = still
        for i, _, _ in live:
            samples[i] = SimSample(cap, True, seeds[i])
    return samples


def simulate_meeting(g: Graph, u: int, v: int, seed: int,
                     cap: int | None = None) -> SimSample:
    """First time two synchronized lazy walks from u and v co-locate."""
    return _batch("meeting", g, {"u": u, "v": v}, cap)([seed])[0]


def _survivors(ids, pos, immortal) -> list[int]:
    """Indices of the walks a merge keeps: every immortal walk, and at each
    vertex holding none the smallest id (``ids`` ascend, so the first)."""
    first = dict(zip(reversed(pos), reversed(range(len(pos)))))
    held = list(compress(range(len(ids)), map(immortal.__contains__, ids)))
    for x in {pos[j] for j in held}:
        del first[x]
    return sorted([*first.values(), *held])


# A row's steps run in numpy, over every live walk of the chunk at once,
# while at least _WIDE walks are alive, and the rest in the scalar loop.
_WIDE = 128


def _coalesce_batch(g: Graph, starts: list[int], immortal: frozenset,
                    target_k: int, mortal: bool, seeds,
                    cap: int) -> list[SimSample]:
    """Coalescing walks of many trials; walk i starts at ``starts[i]``.

    Coalescence is the case ``immortal = {0}``, ``target_k = 1``: the
    immortal rule then keeps the smallest id at every vertex. Each row of
    steps makes one Philox call for the live ids of every live trial, so
    the long tail with a few walks left costs a few counters per step, not
    n. A row runs in up to three stages:

    - while the chunk has ``_WIDE`` or more walks alive, a step moves them
      all in numpy (``_lazy_moves``) and merges them by one sort of their
      (trial, vertex, mortal bit, index) keys;
    - the step that leaves fewer hands the rest of the row to a scalar
      loop per trial on the cell tables: with three walks or more alive,
      the general loop steps each walk and looks for a shared vertex;
    - with two alive, the meeting loop ``_meet`` steps them on their two
      cell columns.

    Each scalar loop runs to the next co-location, where ``_survivors``
    applies the merge rule, or to the row's end; the walk count holds in
    between, so the trajectory's powers of two are appended then. All
    stages keep the same walks, so as in ``_meeting_batch``, trial i's
    sample depends on ``seeds[i]`` only.
    """
    table, rank_of, moves = _move_tables(g)
    # immortal walks never die, so a trial stops at the merge that leaves at
    # most ``most`` walks alive
    most = target_k + len(immortal) * mortal
    # a start set that already meets the stopping rule takes no step
    end = 0 if len(starts) <= most else cap
    # a walk's key bit below its vertex's: 0 if immortal, else 1
    mortal_bit = np.isin(np.arange(len(starts)), list(immortal), invert=True)
    span = 2 * g.n  # key span of a trial
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
            # every live walk, in (trial, id) order: the order of its column
            count = np.array([len(ids) for _, ids, _, _ in live])
            ids = np.concatenate([ids for _, ids, _, _ in live])
            pos = np.concatenate([pos for _, _, pos, _ in live])
            base = np.repeat(np.arange(len(live)) * span, count)
            base += mortal_bit[ids]
            col, bits = np.arange(ids.size), ids.size.bit_length()
            head = 0  # the row's steps done in numpy
            while head < len(steps) and col.size >= _WIDE:
                t = steps[head]
                pos = _lazy_moves(g, pos, uniforms[head, col])
                head += 1
                # sorted (trial, vertex, mortal bit, index) keys
                key = np.sort((base + 2 * pos << bits) + np.arange(pos.size))
                at, index = key >> bits, key & (1 << bits) - 1
                # a mortal walk dies where another sorts before it at its
                # vertex: that key with the low bit set is its own
                lost = index[1:][at[1:] == at[:-1] | 1]
                if lost.size:
                    hit = np.bincount(base[lost] // span, minlength=count.size)
                    count -= hit
                if t & (t - 1) == 0:
                    for k in np.flatnonzero(count).tolist():
                        live[k][3].append((t, int(count[k])))
                if lost.size:
                    ended = np.flatnonzero((hit > 0) & (count <= most))
                    for k in ended.tolist():
                        i, _, _, trajectory = live[k]
                        samples[i] = SimSample(t, False, seeds[i],
                                               tuple(trajectory))
                    count[ended] = 0
                    keep = count[base // span] > 0
                    keep[lost] = False
                    base, pos, col = base[keep], pos[keep], col[keep]
            # back to lists, for the scalar loop and the next row
            cut = np.searchsorted(base // span, np.arange(count.size + 1))
            cut, ids, pos, col = (a.tolist() for a in (cut, ids[col], pos, col))
            running = np.flatnonzero(count).tolist()
            columns = [col[cut[k]:cut[k + 1]] for k in running]
            live = [(live[k][0], ids[cut[k]:cut[k + 1]], pos[cut[k]:cut[k + 1]],
                     live[k][3]) for k in running]
            # the scalar loops, each up to the next co-location
            tail = steps[head:]
            cells = _cells(table, uniforms[head:])
            rows = cells.tolist()
            still = []
            for (i, ids, pos, trajectory), cols in zip(live, columns):
                since, k = tail.start, 0  # first unlogged step, next index
                while k < len(tail):
                    if len(ids) == 2:
                        j, *pos = _meet(moves, rank_of, *pos,
                                        cells[k:, cols[0]].tolist(),
                                        cells[k:, cols[1]].tolist())
                        t = None if j is None else tail[k + j]
                    else:
                        for t, row in zip(tail[k:], islice(rows, k, None)):
                            for j, c in enumerate(cols):
                                x = pos[j]
                                pos[j] = moves[x][rank_of[x][row[c]]]
                            if len(set(pos)) < len(pos):
                                break
                        else:
                            t = None
                    if t is None:
                        k = len(tail)
                        continue
                    _powers(trajectory, since, t - 1, len(ids))
                    keep = _survivors(ids, pos, immortal)
                    ids = [ids[j] for j in keep]
                    pos = [pos[j] for j in keep]
                    cols = [cols[j] for j in keep]
                    since, k = t, t - tail.start + 1
                    if len(ids) <= most:
                        _powers(trajectory, t, t, len(ids))
                        samples[i] = SimSample(t, False, seeds[i],
                                               tuple(trajectory))
                        break
                else:
                    _powers(trajectory, since, tail.stop - 1, len(ids))
                    still.append((i, ids, pos, trajectory))
            live = still
        for i, _, _, trajectory in live:
            samples[i] = SimSample(end, end > 0, seeds[i], tuple(trajectory))
    return samples


def simulate_coalescence(g: Graph, start_vertices=None, seed: int = 0,
                         cap: int | None = None) -> SimSample:
    """Coalescing walks from ``start_vertices`` (default: every vertex).

    All active walks take synchronized lazy steps; walks landing on one
    vertex merge with the smallest id surviving. Returns the first time a
    single walk remains, with the walks alive at t = 0 and at every power
    of two as its trajectory.
    """
    return _batch("coalescence", g, {"start_vertices": start_vertices},
                  cap)([seed])[0]


def _voter_batch(g: Graph, seeds, cap: int) -> list[SimSample]:
    """Voter consensus times of many trials; as in ``_meeting_batch``, the
    sample of the trial keyed by ``seeds[i]`` does not depend on the rest.

    Each step is one flat gather of the live opinions into a buffer of the
    row's steps; consensus is checked once, on the whole buffer, at the row's
    end. Equal opinions stay equal, so the first step of the row at which
    a trial's opinions are all equal is its consensus time.
    """
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
    return _batch("voter", g, {}, cap)([seed])[0]


def simulate_immortal(g: Graph, start_vertices, immortal_ids, target_k: int,
                      seed: int, cap: int | None = None,
                      mode: str = "total") -> SimSample:
    """Coalescing walks where the id group ``immortal_ids`` cannot die.

    Merge rule per vertex: if any immortal walk arrives, every arriving
    immortal survives and all mortal walks die; if only mortals arrive,
    the smallest id survives. Ids are 0..k-1 in sorted start-vertex order.

    Stopping: ``mode="total"`` stops when at most ``target_k`` walks
    remain; ``mode="mortal"`` when at most ``target_k`` mortal walks
    remain. ("Fewer than k remain" in the usual phrasing; at-most
    semantics make target_k = |S0| stop at time 0 and keep the immortal
    variant reachable when target_k = |G1|.) The sample carries its
    trajectory, as in ``simulate_coalescence``.
    """
    params = {"start_vertices": start_vertices, "immortal_ids": immortal_ids,
              "target_k": target_k, "mode": mode}
    return _batch("immortal", g, params, cap)([seed])[0]


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

# The params keys each kind reads; ``_batch`` rejects any other key.
_PARAMS = {"meeting": ("u", "v", "stationary"),
           "coalescence": ("start_vertices",),
           "voter": ("lazy",),
           "immortal": ("start_vertices", "immortal_ids", "target_k", "mode")}


def _meeting_pairs(g: Graph, pair, seeds, cap: int) -> list[SimSample]:
    """Meeting samples from ``pair``, or, when it is None, from a pair drawn
    from pi by each trial seed, independent of the step stream.

    One Philox call draws the pairs of all seeds: ids 0 and 1 at step 0
    under the key ``mix64(seed, 1)``, mapped through the normalised cdf of
    pi as numpy's ``Generator.choice(g.n, 2, p=pi)`` maps them, so each
    pair has the bits that choice gives on a Philox generator of that key.
    """
    if pair is not None:
        return _meeting_batch(g, [pair] * len(seeds), seeds, cap)
    cdf = stationary(g).cumsum()
    cdf /= cdf[-1]
    keys = np.array([mix64(s, 1) for s in seeds], dtype=np.uint64)
    uniforms = philox_uniforms(keys, [0], 2)[:, 0]
    return _meeting_batch(g, cdf.searchsorted(uniforms, "right"), seeds, cap)


def _batch(kind: str, g: Graph, params: dict | None, cap: int | None):
    """The trials of ``kind`` on ``g``, as a picklable call ``(seeds)`` that
    returns a SimSample per seed. Every check of the kind, the params, the
    start set and the cap runs here, before any draw or worker: a params key
    the kind does not read (``_PARAMS``), or ``u``/``v`` beside a true
    ``stationary``, is an error. The cap, ``default_cap(g)`` when None, is
    resolved here once; the batch kernels take it as an int."""
    if kind not in _PARAMS:
        raise InvalidSpec(f"unknown simulation kind {kind!r}")
    params = params or {}
    drawn = kind == "meeting" and params.get("stationary")
    read = ("stationary",) if drawn else _PARAMS[kind]
    needs = {"meeting": () if drawn else ("u", "v"),
             "immortal": ("start_vertices", "target_k", "immortal_ids")}
    for key in params:
        if key not in read:
            raise InvalidSpec(f"{kind} trials do not read params[{key!r}]")
    for key in needs.get(kind, ()):
        if key not in params:
            raise InvalidSpec(f"{kind} trials need params[{key!r}]")
    cap = default_cap(g) if cap is None else cap
    if not is_integer(cap) or cap < 1:
        raise InvalidSpec("cap must be an integer >= 1")
    if kind == "meeting":
        pair = None if drawn else tuple(
            g.check_vertices((params["u"], params["v"])))
        return partial(_meeting_pairs, g, pair, cap=cap)
    if kind == "voter":
        if params.get("lazy", True) is not True:
            raise InvalidSpec("the voter model is lazy only")
        return partial(_voter_batch, g, cap=cap)
    if kind == "coalescence":
        vertices = params.get("start_vertices")
        vertices = range(g.n) if vertices is None else vertices
        immortal, target_k, mode = [0], 1, "total"
    else:
        vertices, immortal = params["start_vertices"], params["immortal_ids"]
        target_k, mode = params["target_k"], params.get("mode", "total")
        if mode not in ("total", "mortal"):
            raise InvalidSpec(f"unknown stopping mode {mode!r}")
        if not is_integer(target_k) or target_k < 1:
            raise InvalidSpec("target_k must be an integer >= 1")
    # walk i starts at the i-th distinct start vertex, ascending
    starts = sorted(set(g.check_vertices(vertices)))
    if not starts:
        raise InvalidSpec("start set must be non-empty")
    immortal = list(immortal) if np.iterable(immortal) else []
    if not immortal or not all(is_integer(i) and 0 <= i < len(starts)
                               for i in immortal):
        raise InvalidIds("immortal ids must be ids of the start ensemble")
    immortal = frozenset(int(i) for i in immortal)
    return partial(_coalesce_batch, g, starts, immortal, target_k,
                   mode == "mortal", cap=cap)


def estimate(kind: str, g: Graph, params: dict | None, trials: int,
             master_seed: int, cap: int | None = None,
             workers: int | None = None) -> Estimate:
    """Monte Carlo estimate over ``trials`` independent runs.

    Per-trial seeds are derived from (master_seed, trial index), so the
    result is identical for any worker count or scheduling; ``workers``
    defaults to the COALWALK_WORKERS variable, or 1 when it is unset.
    Censored trials are counted and excluded from the mean.
    """
    run = _batch(kind, g, params, cap)
    if not is_integer(trials) or trials < 2:
        raise InvalidSpec("trials must be an integer >= 2")
    seeds = [mix64(master_seed, i) for i in range(trials)]
    if workers is None:
        text = os.environ.get(WORKERS_ENV, "1")
        try:
            workers = int(text)
        except ValueError:
            workers = 0
        if workers < 1:
            raise InvalidSpec(f"{WORKERS_ENV}={text!r} is not an integer >= 1")
    elif not is_integer(workers) or workers < 1:
        raise InvalidSpec(f"workers={workers!r} is not an integer >= 1")
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, trials // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = [s for batch in pool.map(run, [
                seeds[i:i + chunk] for i in range(0, trials, chunk)])
                for s in batch]
    else:
        results = run(seeds)
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
    if not is_integer(batch_trials) or batch_trials < 1:
        raise InvalidSpec("batch_trials must be an integer >= 1")
    seeds = [mix64(master_seed, i) for i in range(batch_trials)]
    std, imm = [run(seeds) for run in [_batch("immortal", g, {
        "start_vertices": start_vertices, "immortal_ids": group,
        "target_k": target_k}, cap)
        for group in ([0], immortal_ids)]]
    if any(s.censored for s in std + imm):
        raise BudgetExceeded("a paired trial hit the step cap")
    pathwise_excess = 0
    for a, b in zip(std, imm):
        imm_counts = dict(b.trajectory)
        pathwise_excess += sum(1 for t, count in a.trajectory
                               if t in imm_counts and count > imm_counts[t])
    return (float(np.mean([s.value for s in std])),
            float(np.mean([s.value for s in imm])), pathwise_excess)
