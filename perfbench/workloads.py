"""The four benchmark workloads and the correctness ledger they report to.

Each workload has ``setup(seed)``, which builds its inputs (graphs, config),
and ``run_round(inputs, seed, rnd, ledger)``, which makes every call into
the package for one round. Every public call goes through ``Ledger.call``,
which times it, counts it as one op and checks its output.

Monte Carlo rounds draw fresh master seeds from (workload seed, round), so a
run averages over many trials; exact and sweep rounds repeat the same inputs
and must reproduce the first round's output exactly.
"""
from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import os
import shutil
import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from coalwalk import bounds, chain, cli, graphs, simulate
from coalwalk.graphs import FamilySpec

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
SWEEP_CONFIG = os.path.join(HERE, "sweep.ini")

# Relative tolerance for exact (linear-algebra) quantities against goldens;
# integers such as t_mix and t_sep must match exactly.
EXACT_RTOL = 1e-8
# For seeds without goldens: a Monte Carlo mean further than this many
# standard deviations of the golden means from their average fails. Means of
# a few skewed stopping times have heavy tails, so the band is wide.
STAT_SIGMAS = 8.0


def derive(*parts) -> int:
    """A 63-bit seed derived from the workload seed and labels."""
    digest = hashlib.blake2b(repr(parts).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


# Calibration: the machine this runs on changes speed by up to 2x within
# seconds (shared host), and not by the same factor for every kind of code:
# interpreter-bound work slows most, multi-threaded BLAS least. So each
# workload has a calibration task of its own kind that does not use coalwalk.
# The ledger runs it after every timed call (repeated for about 5% of the
# call's time) and divides the call's seconds by the machine's slowdown, the
# mean of the task's slowdowns measured just before and just after the call.
# Reported times are seconds on a machine that runs the task in its nominal
# time.

class Calibration:
    """A fixed task whose time, over its nominal time, is the slowdown."""

    def __init__(self, task, nominal_s: float):
        self.task = task
        self.nominal_s = nominal_s

    def slowdown(self) -> float:
        start = time.perf_counter()
        self.task()
        return (time.perf_counter() - start) / self.nominal_s


def interpreter_calibration() -> Calibration:
    """Interpreter work, small numpy ops and a little BLAS: the cost mix of
    the Monte Carlo step loops and of set-up."""
    vec = np.arange(64.0)
    mat = np.full((192, 192), 1.0 / 192)

    def task():
        rng = np.random.Generator(np.random.Philox(7))
        acc, prod = 0, mat
        for _ in range(2500):
            acc += int((rng.random(64) * vec).sum() > 16.0)
            acc += sum([j * j for j in range(20)]) & 1
        for _ in range(4):
            prod = prod @ prod
    return Calibration(task, 0.0135)


def linalg_calibration() -> Calibration:
    """Dense products, dense-by-sparse products, an LU solve and a sparse
    solve: the cost mix of the exact solvers."""
    rng = np.random.default_rng(3)
    dense = rng.random((384, 384))
    dense /= dense.sum(axis=1, keepdims=True)
    step = (sp.random(384, 384, density=4 / 384, random_state=3, format="csr")
            + sp.identity(384, format="csr"))
    system = np.eye(600) * 600 + rng.random((600, 600))
    banded = sp.diags([-np.ones(2999), 4 * np.ones(3000), -np.ones(2999)],
                      [-1, 0, 1], format="csc")

    def task():
        prod = dense
        for _ in range(3):
            prod = prod @ dense
        rows = dense
        for _ in range(8):
            rows = np.asarray(rows @ step)
        np.linalg.solve(system, np.ones(600))
        spla.spsolve(banded, np.ones(3000))
    return Calibration(task, 0.019)


class Ledger:
    """Times each public call, counts ops and checks outputs against goldens.

    ``raw_s`` and ``cpu_s`` sum the calls' wall and CPU seconds, ``wall_s``
    their calibrated seconds.
    """

    def __init__(self, goldens: dict, calibration: Calibration):
        self.goldens = goldens.get("ops", {})
        self.reference = goldens.get("reference", {})
        self.calibration = calibration
        self.records: list[dict] = []
        self.raw_s = 0.0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.work = 0
        self.golden_checked = 0
        calibration.slowdown()  # the first run also starts BLAS threads
        self._slowdown = calibration.slowdown()

    def timed(self, thunk):
        """``thunk()``, its seconds added to the ledger."""
        before = self._slowdown
        start, cpu = time.perf_counter(), time.process_time()
        try:
            return thunk()
        finally:
            raw = time.perf_counter() - start
            self.cpu_s += time.process_time() - cpu
            after, spent = [], time.perf_counter()
            while not after or time.perf_counter() - spent < 0.05 * raw:
                after.append(self.calibration.slowdown())
            self._slowdown = statistics.median(after)
            self.last_raw_s = raw
            self.last_s = raw / ((before + self._slowdown) / 2)
            self.raw_s += raw
            self.wall_s += self.last_s

    def call(self, key, thunk, summarize, rtol=0.0, label=None):
        """Run one public call; ``summarize(result)`` gives (out, problems, work)."""
        try:
            result = self.timed(thunk)
        except Exception as exc:  # a raising call is a failed op, not a crash
            self._record(key, None, [f"raised {type(exc).__name__}: {exc}"])
            return None
        out, problems, work = summarize(result)
        self.work += work
        problems = problems + self._compare(key, out, rtol)
        if label is not None:
            problems += self._statistical(label, out)
        self._record(key, out, problems, raw_s=self.last_raw_s,
                     wall_s=self.last_s)
        return result

    def check(self, key, out, problems):
        """An op whose output was produced by an earlier call."""
        self._record(key, out, problems + self._compare(key, out, 0.0))

    def _record(self, key, out, problems, **seconds):
        self.records.append({"op": key, "out": out, "problems": problems,
                             **seconds})

    def _compare(self, key, out, rtol):
        want = self.goldens.get(key)
        if want is None:
            return []
        self.golden_checked += 1
        bad = [name for name in want if not _same(want[name], out.get(name), rtol)]
        return [f"differs from golden in {', '.join(bad)}"] if bad else []

    def _statistical(self, label, out):
        ref = self.reference.get(label)
        if ref is None:
            return []
        if abs(out["mean"] - ref["mean"]) > STAT_SIGMAS * ref["sd"]:
            return [f"mean {out['mean']} is more than {STAT_SIGMAS} sd from "
                    f"the golden mean {ref['mean']} (sd {ref['sd']})"]
        return []

    @property
    def failed(self) -> int:
        return sum(bool(r["problems"]) for r in self.records)


def _same(want, got, rtol):
    if isinstance(want, list):
        return (isinstance(got, (list, tuple)) and len(want) == len(got)
                and all(_same(w, g, rtol) for w, g in zip(want, got)))
    if isinstance(want, float) and isinstance(got, float) and rtol:
        return abs(want - got) <= rtol * max(abs(want), 1.0)
    return want == got


# ---------------------------------------------------------------------------
# Output summaries: (golden-checked output, problems, walk-steps or op work)
# ---------------------------------------------------------------------------

def _estimate_summary(trials):
    def summarize(est):
        problems = ([f"{est.censored_count} censored trials"]
                    if est.censored_count else [])
        steps = round(est.mean * (trials - est.censored_count))
        return ({"mean": est.mean, "stderr": est.stderr,
                 "censored": est.censored_count}, problems, steps)
    return summarize


def _paired_summary(batch_trials):
    def summarize(result):
        std, imm, excess = result
        return ({"standard_mean": std, "immortal_mean": imm,
                 "pathwise_excess": excess}, [],
                round((std + imm) * batch_trials))
    return summarize


def _concentration_summary(steps):
    def summarize(rep):
        problems = [] if rep.ok else ["concentration inequality violated"]
        return ({"worst_mean": rep.worst_mean, "mean_bound": rep.mean_bound,
                 "tail_frequencies": [t.frequency for t in rep.tails],
                 "walks": rep.walks}, problems, rep.walks * (steps - 1))
    return summarize


def _plain(value):
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def _number_summary(value):
    return {"value": _plain(value)}, [], 1


def _solver_summary(fields, residual_limit=None):
    """Exact solver output; ``method`` and residual are reported, not golden."""
    def summarize(result):
        out = {name: _plain(getattr(result, name)) for name in fields}
        problems = []
        if residual_limit is not None and result.residual > residual_limit(result):
            problems.append(f"residual {result.residual:.3e} above limit")
        return out, problems, 1
    return summarize


def _verify_summary(report):
    failures = [c.name for c in report.failures()]
    problems = [f"explicit checks failed: {failures}"] if failures else []
    return {"explicit_failed": failures}, problems, 1


# ---------------------------------------------------------------------------
# meet_mc: two walks, thousands of steps per trial; width-2 uniforms dominate
# ---------------------------------------------------------------------------

# One round's estimate calls: (graph, trials, cap). Calls are kept short so
# the calibration between them follows the machine's speed. Caps are far
# above any stopping time seen while recording goldens (see README).
MEET_CALLS = (
    ("torus3-12", 32, 1_000_000),
    ("lower_bound-1024", 2, 4_000_000),
    ("torus3-12", 32, 1_000_000),
    ("lower_bound-1024", 2, 4_000_000),
    ("torus3-12", 32, 1_000_000),
)


def _mc_graph(seed, label):
    if label.startswith("lower_bound-"):
        return graphs.lower_bound_graph(int(label.split("-")[1]), 4,
                                        seed=derive(seed, label))
    family, size = label.split("-")
    if family.startswith("torus"):
        return graphs.generate(FamilySpec("torus", dim=int(family[5:]),
                                          side=int(size)))
    return graphs.generate(FamilySpec(family, n=int(size)))


def meet_setup(seed):
    return {label: _mc_graph(seed, label) for label, _, _ in MEET_CALLS}


def _estimate(ledger, kind, label, g, params, trials, master, cap):
    ledger.call(f"estimate.{kind}:{label}:T{trials}@{master}",
                lambda: simulate.estimate(kind, g, params, trials, master,
                                          cap=cap, workers=1),
                _estimate_summary(trials), label=f"{kind}:{label}:T{trials}")


def _fresh(graph_by_label):
    """New Graph objects, so no round reuses another's cached matrices."""
    return {label: graphs.Graph(g.indptr, g.indices, g.meta)
            for label, g in graph_by_label.items()}


def meet_round(inputs, seed, rnd, ledger):
    g = _fresh(inputs)
    for i, (label, trials, cap) in enumerate(MEET_CALLS):
        _estimate(ledger, "meeting", label, g[label], {"stationary": True},
                  trials, derive(seed, "meet_mc", rnd, i), cap)


# ---------------------------------------------------------------------------
# coal_mc: n-wide ensembles through every lazy-step copy
# ---------------------------------------------------------------------------

COAL_ESTIMATES = (
    # (kind, graph, params, trials, cap), called in this order each round
    ("coalescence", "torus3-8", {}, 8, 2_000_000),
    ("coalescence", "lower_bound-64", {}, 16, 1_000_000),
    ("meeting", "torus3-8", {"stationary": True}, 32, 1_000_000),
    ("coalescence", "torus3-8", {}, 8, 2_000_000),
    ("voter", "cycle-32", {"lazy": True}, 32, 1_000_000),
)
# (graph, start vertices, immortal ids, target_k, batch trials, cap)
PAIRED = ("cycle-16", range(16), (0, 1), 2, 32, 1_000_000)
# (graph, steps, trials); the target set is vertex 0
CONCENTRATION = (("cycle-64", 64, 640), ("star-64", 64, 640))


def coal_setup(seed):
    labels = {e[1] for e in COAL_ESTIMATES} | {PAIRED[0]} | {
        c[0] for c in CONCENTRATION}
    return {label: _mc_graph(seed, label) for label in sorted(labels)}


def coal_round(inputs, seed, rnd, ledger):
    g = _fresh(inputs)
    for i, (kind, label, params, trials, cap) in enumerate(COAL_ESTIMATES):
        _estimate(ledger, kind, label, g[label], params, trials,
                  derive(seed, "coal_mc", rnd, i), cap)
    label, starts, immortal, target_k, batch, cap = PAIRED
    master = derive(seed, "coal_mc", rnd, "paired", label)
    ledger.call(f"paired_batch_means:{label}:B{batch}@{master}",
                lambda: simulate.paired_batch_means(
                    g[label], starts, immortal, target_k, batch, master, cap=cap),
                _paired_summary(batch))
    for label, steps, trials in CONCENTRATION:
        master = derive(seed, "coal_mc", rnd, "concentration", label)
        ledger.call(f"check_concentration:{label}:S{steps}:T{trials}@{master}",
                    lambda: bounds.check_concentration(
                        g[label], [0], steps=steps, trials=trials, seed=master),
                    _concentration_summary(steps))


# ---------------------------------------------------------------------------
# exact_chain: every solver called directly, no Monte Carlo
# ---------------------------------------------------------------------------

# Size-selected branches and which graphs sit on each side of the cutoff:
#   mixing pairwise n <= 256: hypercube-6, torus2-8, barbell-64, lower_bound-64
#          bracket  n >  256: binary_tree-9 (511), lower_bound-340 (532)
#   _rows_at cached n <= 512: binary_tree-9; recomputed n > 512: lower_bound-340
#   hitting per-target n <= 128 / fundamental matrix n > 128: same split
#   meeting dense: barbell-64; sparse: lower_bound-64
EXACT_GRAPHS = (
    ("hypercube-6", FamilySpec("hypercube", dim=6)),
    ("torus2-8", FamilySpec("torus", dim=2, side=8)),
    ("barbell-64", FamilySpec("barbell", n=64)),
    ("lower_bound-64", FamilySpec("lower_bound", n=64, alpha=4)),
    ("binary_tree-9", FamilySpec("binary_tree", levels=9)),
    ("lower_bound-340", FamilySpec("lower_bound", n=340, alpha=4)),
)
MEETING_GRAPHS = ("barbell-64", "lower_bound-64")
COLLISION_SKIP = ("lower_bound-340",)  # collision_stats does not use _rows_at


def exact_setup(seed):
    return {label: graphs.generate(spec, seed=derive(seed, label))
            for label, spec in EXACT_GRAPHS}


def _graph_key(label, g):
    return f"{label}@{g.meta['seed']}" if "seed" in g.meta else label


def exact_round(inputs, seed, rnd, ledger):
    for label, g in _fresh(inputs).items():
        key = _graph_key(label, g)
        mix = ledger.call(f"mixing_time:{key}", lambda: chain.mixing_time(g),
                          _solver_summary(("value", "bracket")), EXACT_RTOL)
        sep = ledger.call(f"separation_time:{key}",
                          lambda: chain.separation_time(g), _number_summary)
        coll = None
        if label not in COLLISION_SKIP and mix is not None:
            coll = ledger.call(
                f"collision_stats:{key}",
                lambda: chain.collision_stats(g, t_mix_value=mix.value),
                _solver_summary(("c_max", "c_min", "r_max", "pi_norm_sq",
                                 "t_mix_used")), EXACT_RTOL)
        hit = ledger.call(f"t_hit:{key}", lambda: chain.t_hit(g),
                          _number_summary, EXACT_RTOL)
        spec = ledger.call(f"spectral:{key}", lambda: chain.spectral(g),
                           _solver_summary(("lambda2", "gap"),
                                           lambda r: 1e-8), EXACT_RTOL)
        meet = None
        if label in MEETING_GRAPHS:
            meet = ledger.call(
                f"meeting_exact:{key}", lambda: chain.meeting_exact(g),
                _solver_summary(("t_meet", "t_meet_pi", "pair"),
                                lambda r: 1e-8 * max(r.t_meet, 1.0)),
                EXACT_RTOL)
        if None in (mix, sep, coll, hit, spec):
            continue  # lower_bound-340 has no collision stats to verify

        def verify():
            pi = chain.stationary(g)
            mq = bounds.MeasuredQuantities(
                n=g.n, family=g.family, t_hit=hit, t_mix=mix.value,
                t_mix_method=mix.method, t_mix_bracket=mix.bracket, t_sep=sep,
                lambda2=spec.lambda2, pi_norm_sq=float(pi @ pi),
                pi_min=float(pi.min()), collision=coll,
                degree_ratio=g.deg_max / g.deg_min,
                t_meet=meet.t_meet if meet else None,
                t_meet_pi=meet.t_meet_pi if meet else None,
                vertex_transitive=g.family in graphs.VERTEX_TRANSITIVE)
            return bounds.verify_relations(g, mq)
        ledger.call(f"verify_relations:{key}", verify, _verify_summary)


# ---------------------------------------------------------------------------
# sweep_cli: cli.run on the checked-in sweep config
# ---------------------------------------------------------------------------

def sweep_setup(seed):
    config = cli.parse_config(SWEEP_CONFIG)
    config.master_seed = derive(seed, "sweep_cli")
    config.outdir = os.path.join(OUT_DIR, f"sweep-{os.getpid()}")
    return {"config": config, "csv": None}


def _sweep_summary(summary):
    """A point's CSV hash and walk-steps; problems from its JSON record."""
    with open(summary["csv"], "rb") as handle:
        data = handle.read()
    steps = sum(round(float(row["value"]) * (int(row["trials"]) - int(row["censored"])))
                for row in csv.DictReader(io.StringIO(data.decode()))
                if row["quantity"].endswith("_sim"))
    (path,) = summary["records"]
    with open(path) as handle:
        record = json.load(handle)
    problems = [f"explicit check {row['name']} failed"
                for row in record.get("bound_report", [])
                if row["explicit"] and not row["passed"]]
    problems += [f"{kind}: {est['censored']} censored trials"
                 for kind, est in record.get("estimates", {}).items()
                 if est["censored"]]
    return ({"csv_sha256": hashlib.sha256(data).hexdigest(),
             "explicit_ok": summary["explicit_ok"]}, problems, steps)


def sweep_round(inputs, seed, rnd, ledger):
    """One cli.run per sweep point, so calibration runs between them.

    Point seeds depend only on the master seed and the point's label, so the
    per-point CSVs joined in config order are the CSV of one full run.
    """
    config = inputs["config"]
    master = config.master_seed
    header, rows = b"", []
    for sweep in config.sweeps:
        for size in sweep.sizes:
            part = dataclasses.replace(
                config, sweeps=[dataclasses.replace(sweep, sizes=(size,))])
            label = sweep.spec_for(size).label()
            summary = ledger.call(f"cli.run:sweep.ini[{label}]@{master}",
                                  lambda: cli.run(part), _sweep_summary)
            if summary is None:
                continue
            with open(summary["csv"], "rb") as handle:
                header, _, body = handle.read().partition(b"\n")
            rows.append(body)
            shutil.rmtree(part.outdir, ignore_errors=True)
    data = header + b"\n" + b"".join(rows)
    problems = []
    if inputs["csv"] is not None and data != inputs["csv"]:
        problems.append("CSV bytes differ from the first round")
    inputs["csv"] = data
    ledger.check(f"results.csv:sweep.ini@{master}",
                 {"csv_sha256": hashlib.sha256(data).hexdigest()}, problems)


# name: (setup, run_round, calibration of the rounds)
WORKLOADS = {
    "meet_mc": (meet_setup, meet_round, interpreter_calibration),
    "coal_mc": (coal_setup, coal_round, interpreter_calibration),
    "exact_chain": (exact_setup, exact_round, linalg_calibration),
    "sweep_cli": (sweep_setup, sweep_round, interpreter_calibration),
}
