"""Bound expressions and explicit-constant inequality checks.

Two kinds of rows come out of here. Explicit-constant inequalities are
theorems with all constants pinned; they get hard pass/fail verdicts and a
failure means an implementation bug. Asymptotic expressions carry an
unknown constant; they are only ever reported as ratios for the scaling
harness, never converted into hard checks without a declared harness
constant. The concentration checks run their walks in ``simulate``.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import chain
from .chain import CollisionStats
from .errors import InvalidSpec, MissingQuantity, TooLarge, is_integer
from .graphs import Graph, VERTEX_TRANSITIVE
from .seeding import mix64
from .simulate import Estimate, _walk_sums

_E = math.e
_REL_TOL = 1e-9  # float slack on exact theorem comparisons
_LAMBDAS = (1, 2, 3)  # tail levels of the concentration checks


def _holds(lhs: float, relation: str, rhs: float) -> bool:
    """lhs <= rhs (or >=, by ``relation``) up to the _REL_TOL slack."""
    if relation == "<=":
        return lhs <= rhs * (1 + _REL_TOL) + _REL_TOL
    return lhs >= rhs * (1 - _REL_TOL) - _REL_TOL


# ---------------------------------------------------------------------------
# Bound expressions
# ---------------------------------------------------------------------------

def bound_coal_mixtradeoff(t_meet: float, t_mix: float, n: int) -> float:
    """t_meet * (1 + sqrt(t_mix/t_meet) * ln n); asymptotic, constant 1."""
    if t_meet <= 0 or t_mix < 0:
        raise ValueError("times must be positive")
    return t_meet * (1.0 + math.sqrt(t_mix / t_meet) * math.log(n))


def bound_meet_interval(cs: CollisionStats) -> tuple[float, float]:
    """Explicit two-sided collision bound.

    Lower end bounds the stationary-start meeting time from below, upper
    end bounds every pairwise meeting time from above.
    """
    lo = cs.c_min / (64.0 * cs.pi_norm_sq)
    hi = 5.0 * _E ** 2 * cs.c_max / cs.pi_norm_sq
    return lo, hi


def bound_meet_hit(t_hit_value: float) -> float:
    """Explicit bound: every meeting time is at most 4 * t_hit."""
    return 4.0 * t_hit_value


def bound_hit_spectral(n: int, degree_ratio: float, lambda2: float) -> float:
    """degree_ratio * n / sqrt(1 - lambda2); asymptotic (ratio only)."""
    if not 0 <= lambda2 < 1:
        raise ValueError("lambda2 must be in [0, 1)")
    return degree_ratio * n / math.sqrt(1.0 - lambda2)


def bound_coal_beer(t_meet: float, k: int) -> float:
    """t_meet * ln k for coalescence from k walks; asymptotic."""
    if k < 2:
        raise ValueError("k must be >= 2")
    return t_meet * math.log(k)


def sandwich_avgmeet(t_mix: float, t_meet_pi: float) -> tuple[float, float]:
    """Explicit sandwich between worst-case and stationary meeting times:

        max(t_mix / e, t_meet_pi) <= t_meet
                                  <= 2/(1-1/e)^2 * (4 t_mix + 2 t_meet_pi)

    Returns the (lower, upper) ends.
    """
    lower = max(t_mix / _E, t_meet_pi)
    upper = 2.0 / (1.0 - 1.0 / _E) ** 2 * (4.0 * t_mix + 2.0 * t_meet_pi)
    return lower, upper


# ---------------------------------------------------------------------------
# Measured quantities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasuredQuantities:
    """Everything the relation checks consume, for one graph."""
    n: int
    family: str | None
    t_hit: float
    t_mix: int
    t_mix_method: str
    t_sep: int
    lambda2: float
    pi_norm_sq: float
    pi_min: float
    collision: CollisionStats
    degree_ratio: float
    t_meet: float | None = None
    t_meet_pi: float | None = None
    t_mix_bracket: tuple[int, int] | None = None
    t_coal_estimate: Estimate | None = None
    vertex_transitive: bool = False

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name
               not in ("collision", "t_mix_bracket", "t_coal_estimate")}
        out.update(c_max=self.collision.c_max, c_min=self.collision.c_min,
                   r_max=self.collision.r_max,
                   t_mix_used_for_collisions=self.collision.t_mix_used)
        if self.t_mix_bracket is not None:
            out["t_mix_bracket"] = list(self.t_mix_bracket)
        if self.t_coal_estimate is not None:
            out["t_coal_mean"] = self.t_coal_estimate.mean
            out["t_coal_stderr"] = self.t_coal_estimate.stderr
        return out


def measure(g: Graph, *,
            t_coal_estimate: Estimate | None = None) -> MeasuredQuantities:
    """Compute every exact quantity the relation checks need.

    Meeting times are left None on graphs above the product-chain size
    cap, where ``chain.meeting_exact`` raises TooLarge. The graph's ladder
    of squarings is released once mixing and separation are found: no
    later solver reads it.
    """
    pi = chain.stationary(g)
    mix = chain.mixing_time(g)
    t_sep = chain.separation_time(g)
    g._cache.pop("pow2", None)
    cs = chain.collision_stats(g, t_mix_value=mix.value)
    try:
        meet = chain.meeting_exact(g)
        t_meet, t_meet_pi = meet.t_meet, meet.t_meet_pi
    except TooLarge:
        t_meet = t_meet_pi = None
    return MeasuredQuantities(
        n=g.n, family=g.family,
        t_hit=chain.t_hit(g),
        t_mix=mix.value, t_mix_method=mix.method, t_mix_bracket=mix.bracket,
        t_sep=t_sep,
        lambda2=chain.spectral(g).lambda2,
        pi_norm_sq=cs.pi_norm_sq, pi_min=float(pi.min()),
        collision=cs, degree_ratio=g.deg_max / g.deg_min,
        t_meet=t_meet, t_meet_pi=t_meet_pi,
        t_coal_estimate=t_coal_estimate,
        vertex_transitive=g.family in VERTEX_TRANSITIVE)


# ---------------------------------------------------------------------------
# Relation report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundCheck:
    name: str
    lhs: float
    relation: str
    rhs: float
    explicit: bool
    passed: bool | None  # None marks asymptotic ratio-only rows

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs if self.rhs else math.inf


@dataclass
class BoundReport:
    checks: list[BoundCheck] = field(default_factory=list)

    def add_explicit(self, name, lhs, relation, rhs):
        self.checks.append(BoundCheck(name, float(lhs), relation, float(rhs),
                                      True, bool(_holds(lhs, relation, rhs))))

    def add_ratio(self, name, lhs, rhs):
        self.checks.append(BoundCheck(name, float(lhs), "ratio", float(rhs),
                                      False, None))

    @property
    def all_explicit_passed(self) -> bool:
        return all(c.passed for c in self.checks if c.explicit)

    def failures(self) -> list[BoundCheck]:
        return [c for c in self.checks if c.explicit and not c.passed]

    def to_rows(self) -> list[dict]:
        return [{"name": c.name, "lhs": c.lhs, "rel": c.relation,
                 "rhs": c.rhs, "explicit": c.explicit, "passed": c.passed}
                for c in self.checks]

    def to_json(self) -> str:
        return json.dumps(self.to_rows(), indent=2, sort_keys=True)

    def to_csv(self) -> str:
        """``to_rows`` as CSV: floats by repr, a None ``passed`` empty."""
        buf = io.StringIO()
        writer = csv.DictWriter(buf, ["name", "lhs", "rel", "rhs", "explicit",
                                      "passed"], lineterminator="\n")
        writer.writeheader()
        writer.writerows(self.to_rows())
        return buf.getvalue()


def verify_relations(g: Graph, mq: MeasuredQuantities) -> BoundReport:
    """Run every explicit-constant inequality against measured values.

    Asymptotic expressions are appended as ratio rows when their inputs
    are available. When the mixing time was only bracketed, each check
    uses the bracket side that keeps it conservative (never a false
    failure).
    """
    report = BoundReport()
    mix_lo, mix_hi = ((mq.t_mix, mq.t_mix) if mq.t_mix_bracket is None
                      else mq.t_mix_bracket)

    report.add_explicit("hit_vs_pi_min", mq.t_hit, ">=",
                        2.0 / mq.pi_min - 2.0)
    report.add_explicit("sep_vs_mix", mq.t_sep, "<=", 4.0 * mix_hi)
    if mq.t_meet is not None:
        if mq.t_meet_pi is None:
            raise MissingQuantity("t_meet present but t_meet_pi missing")
        report.add_explicit("meet_vs_hit", mq.t_meet, "<=",
                            bound_meet_hit(mq.t_hit))
        report.add_explicit(
            "meet_sandwich_lower", sandwich_avgmeet(mix_lo, mq.t_meet_pi)[0],
            "<=", mq.t_meet)
        report.add_explicit(
            "meet_sandwich_upper", mq.t_meet, "<=",
            sandwich_avgmeet(mix_hi, mq.t_meet_pi)[1])
        coll_lo, coll_hi = bound_meet_interval(mq.collision)
        report.add_explicit("collision_lower", coll_lo, "<=", mq.t_meet_pi)
        report.add_explicit("collision_upper", mq.t_meet, "<=", coll_hi)
        if mq.vertex_transitive:
            report.add_explicit("vt_hit_lower", mq.t_hit / 2.0, "<=",
                                mq.t_meet)
            report.add_explicit("vt_hit_upper", mq.t_meet, "<=",
                                2.0 * mq.t_hit)
    report.add_ratio("hit_spectral_ratio", mq.t_hit,
                     bound_hit_spectral(mq.n, mq.degree_ratio, mq.lambda2))
    if mq.t_coal_estimate is not None and mq.t_meet is not None:
        coal = mq.t_coal_estimate.mean
        report.add_ratio("coal_mixtradeoff_ratio", coal,
                         bound_coal_mixtradeoff(mq.t_meet, mq.t_mix, mq.n))
        report.add_ratio("coal_beer_ratio", coal,
                         bound_coal_beer(mq.t_meet, mq.n))
    return report


# ---------------------------------------------------------------------------
# Concentration checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailCheck:
    lam: int
    threshold: float
    frequency: float
    limit: float
    ok: bool


@dataclass(frozen=True)
class ConcentrationReport:
    mean_bound: float
    worst_mean: float
    mean_ok: bool
    tails: tuple[TailCheck, ...]
    walks: int

    @property
    def ok(self) -> bool:
        return self.mean_ok and all(t.ok for t in self.tails)


def _report(sums: np.ndarray, bound: float,
            scale: float) -> ConcentrationReport:
    """The report on ``sums`` (a row of walks per start): the worst mean of
    a row against ``bound``, and the tail frequencies at lambda * (scale +
    1), lambda in _LAMBDAS, each required below 2^-lambda plus three
    binomial stderrs."""
    tails = []
    for lam in _LAMBDAS:
        threshold = lam * (scale + 1.0)
        freq = float((sums >= threshold).mean())
        stderr = math.sqrt(freq * (1 - freq) / sums.size)
        limit = 2.0 ** (-lam) + 3.0 * stderr
        tails.append(TailCheck(lam, threshold, freq, limit, freq <= limit))
    worst_mean = float(sums.mean(axis=-1).max())
    return ConcentrationReport(mean_bound=bound, worst_mean=worst_mean,
                               mean_ok=worst_mean <= bound,
                               tails=tuple(tails), walks=sums.size)


def _indicator(g: Graph, target_set, steps, trials, seed) -> np.ndarray:
    """The 0/1 indicator of ``target_set`` on V, once ``steps`` and
    ``trials`` are found integers >= 1, ``seed`` an integer and every
    target a vertex (``Graph.check_vertices``); InvalidSpec otherwise."""
    if not all(is_integer(x) and x >= 1 for x in (steps, trials)):
        raise InvalidSpec("steps and trials must be integers >= 1")
    if not is_integer(seed):
        raise InvalidSpec(f"a seed must be an integer, not {seed!r}")
    mask = np.zeros(g.n)
    mask[g.check_vertices(target_set, "target vertices")] = 1.0
    return mask


def check_concentration(g: Graph, target_set, steps: int, trials: int,
                        seed: int) -> ConcentrationReport:
    """Empirical check of the visit-count concentration inequality.

    For f the indicator of ``target_set``, walks of length ``steps`` are
    launched from every start vertex, max(trials // n, 2) from each, and
    the per-start empirical means of sum_t f(X_t) are all required to stay
    below 8 * max(t_hit, steps) * mean_pi(f). Pooled tail frequencies at
    lambda * (16 * max(t_hit, steps) * mean_pi(f) + 1), lambda = 1, 2, 3,
    must stay below 2^-lambda plus three binomial standard errors.
    t_hit is ``chain.t_hit(g)``, solved once the inputs are checked.
    ``steps`` and ``trials`` that are not integers >= 1, and a ``seed``
    that is not an integer, raise InvalidSpec.
    """
    f_values = _indicator(g, target_set, steps, trials, seed)
    t_plus = max(chain.t_hit(g), steps)
    f_bar = float(f_values @ chain.stationary(g))
    sums = _walk_sums(g, range(g.n), [mix64(seed, s) for s in range(g.n)],
                      steps, max(trials // g.n, 2),
                      np.broadcast_to(f_values, (steps, g.n)))
    return _report(sums, 8.0 * t_plus * f_bar, 16.0 * t_plus * f_bar)


def check_collision_concentration(g: Graph, start: int, target_set,
                                  steps: int, trials: int,
                                  seed: int) -> ConcentrationReport:
    """Time-dependent variant: f_t(v) = 1[v in S] * p^t(start, v).

    The statistic is the expected collision count of an unexposed second
    walk with the simulated one; its bound uses the in-set degree spread
    gamma: mean <= Upsilon = 16 gamma max(t_hit, steps) max_{w in S} pi(w),
    tails at lambda * (2 Upsilon + 1). As in ``check_concentration``,
    t_hit is ``chain.t_hit(g)``, solved once the inputs are checked.
    """
    mask = _indicator(g, target_set, steps, trials, seed)
    members = np.flatnonzero(mask)
    if not members.size:
        raise InvalidSpec("target set must be non-empty")
    start, = g.check_vertices((start,))
    t_plus = max(chain.t_hit(g), steps)
    degs = g.degrees[members]
    gamma = float(degs.max() / degs.min())
    pi = chain.stationary(g)
    upsilon = 16.0 * gamma * t_plus * float(pi[members].max())

    rows = np.zeros((steps, g.n))
    row = np.zeros(g.n)
    row[start] = 1.0
    for t in range(steps):
        rows[t] = row * mask
        row = chain.lazy_step(g, row)
    sums = _walk_sums(g, [start], [seed], steps, trials, rows)
    return _report(sums, upsilon, 2.0 * upsilon)
