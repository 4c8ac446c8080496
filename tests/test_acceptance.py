"""Acceptance suite: one test per criterion, each printing a verdict line.

Estimates produced anywhere in this module are logged so the worst-case
envelope / censoring criterion can sweep everything the suite measured.
Criterion 9 is expected to fail at its stated parameters; see the project
notes for the measured analysis.
"""
import math
import os
import time

import numpy as np
import pytest

from coalwalk import bounds, chain
from coalwalk.cli import fit_scaling, parse_config, run
from coalwalk.graphs import FamilySpec, generate, lower_bound_graph
from coalwalk.simulate import estimate, paired_batch_means

ESTIMATE_LOG = []  # (label, n, kind, Estimate)


def logged_estimate(label, kind, g, params, trials, seed, cap=None):
    est = estimate(kind, g, params, trials, seed, cap=cap)
    ESTIMATE_LOG.append((label, g.n, kind, est))
    return est


def verdict(num, ok, detail):
    line = f"[acceptance] criterion {num:2d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    return ok


# ---------------------------------------------------------------------------
# Shared measurements (module-scoped, computed once on first request)
# ---------------------------------------------------------------------------

def family_grid():
    """Nearest admissible instance of every family at sizes ~{8,16,32,64}."""
    grid = []
    for n in (8, 16, 32, 64):
        grid += [FamilySpec("path", n=n), FamilySpec("cycle", n=n),
                 FamilySpec("clique", n=n), FamilySpec("star", n=n),
                 FamilySpec("barbell", n=n),
                 FamilySpec("random_regular", n=n, degree=3)]
    grid += [FamilySpec("binary_tree", levels=lv) for lv in (3, 4, 5, 6)]
    grid += [FamilySpec("hypercube", dim=d) for d in (3, 4, 5, 6)]
    grid += [FamilySpec("torus", dim=2, side=s) for s in (3, 4, 6, 8)]
    grid += [FamilySpec("grid", dim=2, side=s) for s in (3, 4, 6, 8)]
    grid += [FamilySpec("lower_bound", n=64, alpha=1.0)]
    return grid


@pytest.fixture(scope="module")
def star_sweep():
    out = {}
    for n in (64, 256, 1024):
        g = generate(FamilySpec("star", n=n))
        out[n] = logged_estimate(f"star-{n}", "coalescence", g, {}, 2000,
                                 seed=5150)
    return out


@pytest.fixture(scope="module")
def torus3_sweep():
    out = {}
    for side in (4, 5, 6, 8):
        g = generate(FamilySpec("torus", dim=3, side=side))
        out[side] = logged_estimate(f"torus3-{side}", "coalescence", g, {},
                                    500, seed=5151)
    return out


@pytest.fixture(scope="module")
def lb_graph():
    return lower_bound_graph(1024, 4, seed=3)


@pytest.fixture(scope="module")
def lb_estimates(lb_graph):
    coal = logged_estimate("lower_bound-1024", "coalescence", lb_graph, {},
                           64, seed=9001)
    meet = logged_estimate("lower_bound-1024", "meeting", lb_graph,
                           {"stationary": True}, 400, seed=9002)
    return coal, meet


@pytest.fixture(scope="module")
def torus12_estimates():
    g = generate(FamilySpec("torus", dim=3, side=12))
    coal = logged_estimate("torus3-12", "coalescence", g, {}, 128, seed=9003)
    meet = logged_estimate("torus3-12", "meeting", g, {"stationary": True},
                           600, seed=9004)
    return coal, meet


@pytest.fixture(scope="module")
def cycle16_meeting():
    g = generate(FamilySpec("cycle", n=16))
    exact = chain.meeting_exact(g)
    u, v = exact.pair
    mc = logged_estimate("cycle-16", "meeting", g, {"u": u, "v": v}, 10_000,
                         seed=4242)
    return exact, mc


@pytest.fixture(scope="module")
def duality_estimates():
    g = generate(FamilySpec("cycle", n=32))
    voter = logged_estimate("cycle-32", "voter", g, {}, 2000, seed=6001)
    coal = logged_estimate("cycle-32", "coalescence", g, {}, 2000, seed=6002)
    return voter, coal


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_criterion_01_clique_hitting_time():
    start = time.perf_counter()
    worst = 0.0
    for n in (4, 8, 16, 32):
        g = generate(FamilySpec("clique", n=n))
        value = chain.t_hit(g)
        worst = max(worst, abs(value - 2 * (n - 1)) / (2 * (n - 1)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    assert verdict(1, ok, f"clique t_hit = 2(n-1), worst rel err "
                          f"{worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_explicit_inequality_suite():
    start = time.perf_counter()
    failures = []
    for spec in family_grid():
        g = generate(spec, seed=7)
        report = bounds.verify_relations(g, bounds.measure(g))
        if not report.all_explicit_passed:
            failures.append((spec.label(),
                             [c.name for c in report.failures()]))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 300.0
    assert verdict(2, ok, f"explicit suite on {len(family_grid())} instances, "
                          f"failures={failures}, {elapsed:.0f}s")


def test_criterion_03_monte_carlo_vs_exact(cycle16_meeting):
    exact, mc = cycle16_meeting
    rel_cycle = abs(mc.mean - exact.t_meet) / exact.t_meet
    k2 = generate(FamilySpec("clique", n=2))
    est = logged_estimate("clique-2", "meeting", k2, {"u": 0, "v": 1},
                          10_000, seed=4243)
    rel_k2 = abs(est.mean - 2.0) / 2.0
    ok = rel_cycle <= 0.05 and rel_k2 <= 0.05
    assert verdict(3, ok, f"worst-pair MC vs exact: cycle16 rel "
                          f"{rel_cycle:.3f}, K2 rel {rel_k2:.3f}")


def test_criterion_04_voter_duality(duality_estimates):
    voter, coal = duality_estimates
    ok = voter.overlaps(coal)
    assert verdict(4, ok, f"cycle32 voter {voter.mean:.1f} "
                          f"[{voter.ci95_lo:.1f},{voter.ci95_hi:.1f}] vs "
                          f"coalescence {coal.mean:.1f} "
                          f"[{coal.ci95_lo:.1f},{coal.ci95_hi:.1f}]")


def test_criterion_05_scaling_fits(star_sweep, torus3_sweep):
    start = time.perf_counter()
    cycle_fit = fit_scaling(
        [(n, chain.t_hit(generate(FamilySpec("cycle", n=n))))
         for n in (64, 128, 256, 512)])
    torus_fit = fit_scaling(
        [(side ** 3, torus3_sweep[side].mean) for side in (4, 5, 6, 8)])
    star_ratios = [star_sweep[n].mean / math.log(n) for n in (64, 256, 1024)]
    star_spread = max(star_ratios) / min(star_ratios)
    tree_fit = fit_scaling(
        [(2 ** lv - 1, chain.t_hit(generate(FamilySpec("binary_tree",
                                                       levels=lv))))
         for lv in (6, 7, 8, 9, 10)], model="n*log n")
    elapsed = time.perf_counter() - start
    ok = (1.9 <= cycle_fit.exponent <= 2.1
          and 0.85 <= torus_fit.exponent <= 1.15
          and star_spread <= 2.0
          and tree_fit.ratio_spread <= 2.0
          and elapsed < 1800.0)
    assert verdict(5, ok, f"cycle t_hit exp {cycle_fit.exponent:.3f}, "
                          f"torus3 t_coal exp {torus_fit.exponent:.3f}, "
                          f"star band {star_spread:.2f}, "
                          f"tree band {tree_fit.ratio_spread:.2f}, "
                          f"{elapsed:.0f}s")


def test_criterion_06_coupling_majorization():
    g = generate(FamilySpec("cycle", n=16))
    violations = 0
    means = []
    for batch in range(20):
        std_mean, imm_mean, _ = paired_batch_means(
            g, range(16), [0, 1, 2, 3], target_k=4, batch_trials=100,
            master_seed=7000 + batch)
        means.append((std_mean, imm_mean))
        if std_mean > imm_mean:
            violations += 1
    ok = violations <= 1  # 5% of 20 batches
    avg_std = float(np.mean([m[0] for m in means]))
    avg_imm = float(np.mean([m[1] for m in means]))
    assert verdict(6, ok, f"paired batches: mean T^k {avg_std:.1f} <= "
                          f"mean T_imm^k {avg_imm:.1f}, "
                          f"violations {violations}/20")


def test_criterion_07_concentration():
    results = []
    for spec, target in ((FamilySpec("cycle", n=64), 0),
                         (FamilySpec("star", n=64), 0)):
        g = generate(spec)
        report = bounds.check_concentration(
            g, [target], steps=int(chain.t_hit(g)), trials=10_000,
            seed=8100 + target)
        results.append((spec.label(), report))
    ok = all(rep.ok for _, rep in results)
    detail = "; ".join(
        f"{label}: mean {rep.worst_mean:.1f}<={rep.mean_bound:.1f}, tails "
        + ",".join(f"{t.frequency:.4f}<={t.limit:.4f}" for t in rep.tails)
        for label, rep in results)
    assert verdict(7, ok, detail)


def test_criterion_08_worst_case_envelope(star_sweep, torus3_sweep,
                                          lb_estimates, torus12_estimates,
                                          cycle16_meeting, duality_estimates):
    bad_envelope = []
    for label, n, kind, est in ESTIMATE_LOG:
        if kind == "coalescence" and n >= 64:
            lo, hi = 0.4 * math.log2(n), 50.0 * n ** 3
            if not lo <= est.mean <= hi:
                bad_envelope.append((label, est.mean))
    censored = [(label, est.censored_count)
                for label, _, _, est in ESTIMATE_LOG if est.censored_count]
    ok = not bad_envelope and not censored
    assert verdict(8, ok, f"{len(ESTIMATE_LOG)} logged estimates; envelope "
                          f"violations {bad_envelope}; censored {censored}")


def test_criterion_09_lower_bound_separation(lb_estimates, torus12_estimates):
    # Known-red at the stated parameters: the measured separation factor
    # is ~1.2-1.3 because full coalescence costs ~2x one meeting on the
    # torus as well; see the decisions ledger for the analysis.
    lb_coal, lb_meet = lb_estimates
    t_coal, t_meet = torus12_estimates
    ratio_lb = lb_coal.mean / lb_meet.mean
    ratio_torus = t_coal.mean / t_meet.mean
    factor = ratio_lb / ratio_torus
    ok = factor >= 1.5
    assert verdict(9, ok, f"lower_bound ratio {ratio_lb:.2f} vs torus ratio "
                          f"{ratio_torus:.2f}: factor {factor:.2f} (need 1.5)")


CONFIG = """
[experiment]
master_seed = 31415
trials = 30
quantities = exact,simulate,verify
outdir = {outdir}

[sweep:c]
family = cycle
sizes = 16 32
"""


def test_criterion_10_determinism(tmp_path):
    outputs = []
    for idx, workers in ((0, "1"), (1, "2")):
        cfg = tmp_path / f"exp{idx}.ini"
        cfg.write_text(CONFIG.format(outdir=tmp_path / f"out{idx}"))
        os.environ["COALWALK_WORKERS"] = workers
        try:
            result = run(parse_config(str(cfg)))
        finally:
            os.environ.pop("COALWALK_WORKERS", None)
        outputs.append(open(result["csv"], "rb").read())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    assert verdict(10, ok, f"pipeline CSVs byte-identical across worker "
                           f"counts ({len(outputs[0])} bytes)")
