import dataclasses
import math

import numpy as np
import pytest

from coalwalk import bounds, chain, simulate
from coalwalk.chain import CollisionStats
from coalwalk.errors import InvalidSpec, MissingQuantity
from coalwalk.graphs import FamilySpec, generate


@pytest.fixture(scope="module")
def k8_measured():
    g = generate(FamilySpec("clique", n=8))
    return g, bounds.measure(g)


class TestExpressions:
    def test_mixtradeoff_arithmetic(self):
        assert bounds.bound_coal_mixtradeoff(100, 100, math.e) == pytest.approx(200)

    def test_mixtradeoff_limit(self):
        assert bounds.bound_coal_mixtradeoff(50, 1e-12, 10) == pytest.approx(50)

    def test_meet_interval_arithmetic(self):
        cs = CollisionStats(c_max=1, c_min=1, r_max=1, pi_norm_sq=1 / 20,
                            t_mix_used=1)
        lo, hi = bounds.bound_meet_interval(cs)
        assert lo == pytest.approx(20 / 64)
        assert hi == pytest.approx(5 * math.e ** 2 * 20)

    def test_meet_hit(self):
        assert bounds.bound_meet_hit(14) == 56.0

    def test_hit_spectral(self):
        assert bounds.bound_hit_spectral(8, 1.0, 0.0) == 8.0

    def test_coal_beer(self):
        assert bounds.bound_coal_beer(10, round(math.e)) == pytest.approx(
            10 * math.log(3))
        assert bounds.bound_coal_beer(7, 2) == pytest.approx(7 * math.log(2))


class TestSpectralHitRatio:
    @pytest.mark.parametrize("family,sizes", [
        ("cycle", (64, 128, 256)),
        ("random_regular", (64, 128, 256)),
    ])
    def test_ratio_bounded_across_sizes(self, family, sizes):
        ratios = []
        for n in sizes:
            spec = (FamilySpec(family, n=n, degree=4)
                    if family == "random_regular" else FamilySpec(family, n=n))
            g = generate(spec, seed=2)
            expr = bounds.bound_hit_spectral(
                g.n, g.deg_max / g.deg_min, chain.spectral(g).lambda2)
            ratios.append(chain.t_hit(g) / expr)
        assert max(ratios) <= 4.0
        assert max(ratios) / min(ratios) <= 2.5


class TestSandwich:
    def test_k2_exact_values_pass(self):
        # t_mix = 1, t_meet_pi = 1, t_meet = 2 for the two-vertex clique
        lower, upper = bounds.sandwich_avgmeet(1.0, 1.0)
        assert bounds._holds(lower, "<=", 2.0)
        assert bounds._holds(2.0, "<=", upper)

    def test_synthetic_violation_detected(self):
        lower, upper = bounds.sandwich_avgmeet(1.0, 0.0)
        assert bounds._holds(lower, "<=", 1e6)
        assert not bounds._holds(1e6, "<=", upper)

    def test_all_small_families(self, small_graph):
        if small_graph.n > chain._MEETING_LIMIT:
            pytest.skip("beyond exact-meeting limit")
        report = bounds.verify_relations(small_graph,
                                         bounds.measure(small_graph))
        rows = {c.name: c for c in report.checks}
        for name in ("meet_sandwich_lower", "meet_sandwich_upper"):
            assert rows[name].passed, name


class TestVerifyRelations:
    def test_k8_all_explicit_pass(self, k8_measured):
        g, mq = k8_measured
        report = bounds.verify_relations(g, mq)
        assert report.all_explicit_passed
        names = {c.name for c in report.checks}
        assert {"hit_vs_pi_min", "sep_vs_mix", "meet_vs_hit",
                "meet_sandwich_lower", "meet_sandwich_upper",
                "collision_lower", "collision_upper"} <= names

    def test_vertex_transitive_applied_on_cycle(self):
        g = generate(FamilySpec("cycle", n=32))
        report = bounds.verify_relations(g, bounds.measure(g))
        names = [c.name for c in report.checks]
        assert "vt_hit_lower" in names and "vt_hit_upper" in names
        assert report.all_explicit_passed

    def test_vertex_transitive_skipped_on_barbell(self):
        g = generate(FamilySpec("barbell", n=32))
        report = bounds.verify_relations(g, bounds.measure(g))
        assert "vt_hit_lower" not in [c.name for c in report.checks]
        assert report.all_explicit_passed

    def test_live_failure_detection(self, k8_measured):
        g, mq = k8_measured
        poisoned = dataclasses.replace(mq, t_meet=1e6 * mq.t_mix,
                                       t_meet_pi=0.0)
        report = bounds.verify_relations(g, poisoned)
        assert not report.all_explicit_passed
        assert any(c.name == "meet_vs_hit" for c in report.failures())

    def test_bracketed_mixing_time_takes_the_conservative_side(
            self, k8_measured):
        # sep_vs_mix and the sandwich's upper end read the bracket's upper
        # end, its lower end the bracket's lower end; hi / e exceeds
        # t_meet_pi, so reading hi there would move the lower end
        g, mq = k8_measured
        lo, hi = 1, 10 ** 4
        assert hi / math.e > mq.t_meet_pi
        bracketed = dataclasses.replace(mq, t_mix=hi, t_mix_method="bracket",
                                        t_mix_bracket=(lo, hi))
        checks = {c.name: c for c in
                  bounds.verify_relations(g, bracketed).checks}
        assert checks["sep_vs_mix"].rhs == 4.0 * hi
        assert checks["meet_sandwich_upper"].rhs == bounds.sandwich_avgmeet(
            hi, mq.t_meet_pi)[1]
        assert checks["meet_sandwich_lower"].lhs == bounds.sandwich_avgmeet(
            lo, mq.t_meet_pi)[0]
        assert checks["meet_sandwich_lower"].lhs != bounds.sandwich_avgmeet(
            hi, mq.t_meet_pi)[0]
        assert checks["meet_sandwich_lower"].passed

    def test_missing_quantity(self, k8_measured):
        g, mq = k8_measured
        broken = dataclasses.replace(mq, t_meet_pi=None)
        with pytest.raises(MissingQuantity):
            bounds.verify_relations(g, broken)

    def test_asymptotic_rows_are_ratio_only(self, k8_measured):
        g, mq = k8_measured
        report = bounds.verify_relations(g, mq)
        for check in report.checks:
            if not check.explicit:
                assert check.passed is None
                assert check.relation == "ratio"

    def test_serialization(self, k8_measured):
        g, mq = k8_measured
        report = bounds.verify_relations(g, mq)
        text = report.to_csv()
        header = text.splitlines()[0]
        assert header == "name,lhs,rel,rhs,explicit,passed"
        assert len(text.splitlines()) == len(report.checks) + 1
        rows = report.to_rows()
        assert all(set(r) == {"name", "lhs", "rel", "rhs", "explicit",
                              "passed"} for r in rows)
        assert report.to_json().startswith("[")


    def test_csv_bytes_match_writer_loop(self):
        # the former csv.writer loop, kept as the oracle of to_csv's bytes
        import csv
        import io

        report = bounds.BoundReport()
        report.add_explicit("holds", 1e-05, "<=", 0.30000000000000004)
        report.add_explicit("fails", 0.30000000000000004, "<=", 1e-05)
        report.add_explicit("lower", 2.5, ">=", 1 / 3)
        report.add_ratio("ratio, quoted", 1e300, 7.0)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["name", "lhs", "rel", "rhs", "explicit", "passed"])
        for c in report.checks:
            writer.writerow([c.name, repr(c.lhs), c.relation, repr(c.rhs),
                             c.explicit, "" if c.passed is None else c.passed])
        assert [c.passed for c in report.checks] == [True, False, True, None]
        assert report.to_csv() == buf.getvalue()
        assert bounds.BoundReport().to_csv() == (
            "name,lhs,rel,rhs,explicit,passed\n")


class TestMeasure:
    def test_skips_meeting_above_limit(self, monkeypatch):
        monkeypatch.setattr(chain, "_MEETING_LIMIT", 10)
        g = generate(FamilySpec("cycle", n=40))
        mq = bounds.measure(g)
        assert mq.t_meet is None and mq.t_meet_pi is None
        report = bounds.verify_relations(g, mq)
        assert report.all_explicit_passed  # meeting rows skipped

    def test_vertex_transitive_flag(self):
        assert bounds.measure(generate(FamilySpec("torus", dim=2, side=3))
                              ).vertex_transitive
        assert not bounds.measure(generate(FamilySpec("path", n=8))
                                  ).vertex_transitive

    @pytest.mark.parametrize("spec", [FamilySpec("cycle", n=16),
                                      FamilySpec("barbell", n=16)],
                             ids=lambda s: s.label())
    def test_releases_ladder_and_matches_direct_calls(self, spec):
        g = generate(spec)
        mq = bounds.measure(g)
        assert "pow2" not in g._cache
        fresh = generate(spec)
        mix = chain.mixing_time(fresh)
        pi = chain.stationary(fresh)
        meet = chain.meeting_exact(fresh)
        assert mq == bounds.MeasuredQuantities(
            n=fresh.n, family=fresh.family, t_hit=chain.t_hit(fresh),
            t_mix=mix.value, t_mix_method=mix.method,
            t_sep=chain.separation_time(fresh),
            lambda2=chain.spectral(fresh).lambda2,
            pi_norm_sq=float(pi @ pi), pi_min=float(pi.min()),
            collision=chain.collision_stats(fresh, t_mix_value=mix.value),
            degree_ratio=fresh.deg_max / fresh.deg_min,
            t_meet=meet.t_meet, t_meet_pi=meet.t_meet_pi,
            t_mix_bracket=mix.bracket,
            vertex_transitive=spec.family == "cycle")

    def test_to_dict_roundtrips_to_json(self, k8_measured):
        import json
        _, mq = k8_measured
        assert json.loads(json.dumps(mq.to_dict()))["n"] == 8

    def test_to_dict_keys(self, k8_measured):
        _, mq = k8_measured
        keys = {"n", "family", "t_hit", "t_mix", "t_mix_method", "t_sep",
                "lambda2", "pi_norm_sq", "pi_min", "c_max", "c_min", "r_max",
                "t_mix_used_for_collisions", "degree_ratio", "t_meet",
                "t_meet_pi", "vertex_transitive"}
        plain = dataclasses.replace(mq, t_mix_bracket=None)
        assert len(keys) == 17 and set(plain.to_dict()) == keys
        est = simulate.estimate("coalescence", generate(FamilySpec(
            "clique", n=8)), {}, 4, 1)
        full = dataclasses.replace(mq, t_mix_bracket=(3, 5),
                                   t_coal_estimate=est).to_dict()
        assert set(full) == keys | {"t_mix_bracket", "t_coal_mean",
                                    "t_coal_stderr"}
        assert full["t_mix_bracket"] == [3, 5]
        assert (full["t_coal_mean"], full["t_coal_stderr"]) == (
            est.mean, est.stderr)
        assert full["c_max"] == mq.collision.c_max
        assert full["t_mix_used_for_collisions"] == mq.collision.t_mix_used


def _no_solve(g):
    raise AssertionError("t_hit was solved before the inputs were checked")


class TestConcentration:
    def test_zero_function_trivially_passes(self):
        g = generate(FamilySpec("cycle", n=16))
        report = bounds.check_concentration(g, [], steps=30, trials=64,
                                            seed=1)
        assert report.ok and report.worst_mean == 0.0

    def test_cycle_single_vertex_indicator(self):
        g = generate(FamilySpec("cycle", n=32))
        report = bounds.check_concentration(g, [0], int(chain.t_hit(g)),
                                            trials=2000, seed=3)
        assert report.mean_ok
        assert all(t.ok for t in report.tails)

    def test_star_center_stress(self):
        g = generate(FamilySpec("star", n=32))
        report = bounds.check_concentration(g, [0], int(chain.t_hit(g)),
                                            trials=2000, seed=4)
        assert report.ok

    @pytest.mark.parametrize("family, check, worst, bound", [
        ("cycle", "plain", "0x1.0e66666666666p+4", "0x1.7ffffffffffc2p+9"),
        ("cycle", "collision", "0x1.91e535f17b2bbp+1",
         "0x1.fffffffffffadp+8"),
        ("star", "plain", "0x1.699999999999ap+4", "0x1.03ffffffffffdp+10"),
        ("star", "collision", "0x1.57a23f42ac7bap+3",
         "0x1.f01fffffffffbp+16")])
    def test_reports_keep_their_bits(self, family, check, worst, bound):
        # float.hex of both checks as first recorded, before they shared
        # one report builder
        g = generate(FamilySpec(family, n=64))
        if check == "plain":
            report = bounds.check_concentration(g, [0, 1, 5], steps=40,
                                                trials=640, seed=11)
        else:
            report = bounds.check_collision_concentration(
                g, 0, [0, 1, 5], steps=40, trials=500, seed=11)
        assert (report.worst_mean.hex(), report.mean_bound.hex()) == (
            worst, bound)
        assert [t.frequency.hex() for t in report.tails] == ["0x0.0p+0"] * 3
        assert report.walks == (640 if check == "plain" else 500)

    @pytest.mark.parametrize("targets", [[-1], [0, 8], [2.5], [0, 1.0]])
    def test_rejects_target_outside(self, targets):
        g = generate(FamilySpec("cycle", n=8))
        with pytest.raises(InvalidSpec):
            bounds.check_concentration(g, targets, steps=10, trials=8,
                                       seed=1)

    @pytest.mark.parametrize("check", ["plain", "collision"])
    def test_rejects_a_target_set_that_is_no_collection(self, check):
        g = generate(FamilySpec("cycle", n=8))
        with pytest.raises(InvalidSpec, match="collection"):
            if check == "plain":
                bounds.check_concentration(g, 3, steps=10, trials=8, seed=1)
            else:
                bounds.check_collision_concentration(g, 0, 3, steps=10,
                                                     trials=8, seed=1)

    @pytest.mark.parametrize("start, targets", [(0, [-1]), (0, [1, 8]),
                                                (-1, [0]), (8, [0]),
                                                (0.5, [0]), (0, [1.5])])
    def test_collision_rejects_vertex_outside(self, start, targets):
        g = generate(FamilySpec("cycle", n=8))
        with pytest.raises(InvalidSpec):
            bounds.check_collision_concentration(
                g, start, targets, steps=10, trials=8, seed=1)

    @pytest.mark.parametrize("steps, trials, seed", [
        (0, 8, 1), (-3, 8, 1), (10, 0, 1), (10, -5, 1), (2.5, 8, 1),
        (10, 3.5, 1), (10, 8, 1.5)],
        ids=["steps-0", "steps--3", "trials-0", "trials--5", "steps-2.5",
             "trials-3.5", "seed-1.5"])
    def test_rejects_steps_or_trials_below_one(self, steps, trials, seed,
                                               monkeypatch):
        monkeypatch.setattr(chain, "t_hit", _no_solve)
        g = generate(FamilySpec("cycle", n=8))
        with pytest.raises(InvalidSpec):
            bounds.check_concentration(g, [0], steps=steps, trials=trials,
                                       seed=seed)

    @pytest.mark.parametrize("targets, steps, trials, seed", [
        ([], 10, 8, 1), ([0], 0, 8, 1), ([0], 10, 0, 1), ([0], 2.5, 8, 1),
        ([0], 10, 3.5, 1), ([0], 10, 8, 1.5)],
        ids=["empty-targets", "steps-0", "trials-0", "steps-2.5",
             "trials-3.5", "seed-1.5"])
    def test_collision_rejects_bad_spec(self, targets, steps, trials, seed,
                                        monkeypatch):
        monkeypatch.setattr(chain, "t_hit", _no_solve)
        g = generate(FamilySpec("cycle", n=8))
        with pytest.raises(InvalidSpec):
            bounds.check_collision_concentration(
                g, 0, targets, steps=steps, trials=trials, seed=seed)

    @pytest.mark.parametrize("targets, steps, seed, message", [
        ([], 0, 1, "steps and trials"), ([8], 10, 1.5, "seed")],
        ids=["counts-before-empty-set", "seed-before-bad-target"])
    def test_collision_checks_counts_before_targets(self, targets, steps,
                                                    seed, message,
                                                    monkeypatch):
        monkeypatch.setattr(chain, "t_hit", _no_solve)
        g = generate(FamilySpec("cycle", n=8))
        with pytest.raises(InvalidSpec, match=message):
            bounds.check_collision_concentration(
                g, 0, targets, steps=steps, trials=8, seed=seed)

    def test_collision_variant(self):
        g = generate(FamilySpec("cycle", n=32))
        report = bounds.check_collision_concentration(
            g, 0, [0, 1, 31], steps=256, trials=2000, seed=5)
        assert report.ok
