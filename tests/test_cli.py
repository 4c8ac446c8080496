import configparser
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coalwalk
from coalwalk import bounds, chain
from coalwalk.cli import (
    ExperimentConfig,
    SweepSpec,
    fit_scaling,
    main,
    parse_config,
    run,
)
from coalwalk.errors import ConfigError, InsufficientPoints, InvalidSpec
from coalwalk.graphs import (SEEDED_FAMILIES, FamilySpec, generate,
                             load_edge_list)


CONFIG_TEMPLATE = """
[experiment]
master_seed = 909
trials = 40
quantities = exact,simulate,verify
outdir = {outdir}

[sweep:cycles]
family = cycle
sizes = 8 16
"""

# One small sweep whose meeting rows move in the last digit with the BLAS
# thread count.
BLAS_SWEEP = """
[experiment]
master_seed = 5
trials = 8
cap = 1000000
quantities = exact,simulate,verify
sim_kinds = coalescence,meeting,voter

[sweep:cycle]
family = cycle
sizes = 16

[sweep:torus2]
family = torus
dim = 2
sizes = 4 5

[sweep:star]
family = star
sizes = 16

[sweep:lower_bound]
family = lower_bound
alpha = 4
sizes = 16
"""


def _failed_check(g, mq):
    """A ``verify_relations`` whose one explicit check fails."""
    report = bounds.BoundReport()
    report.add_explicit("synthetic", 2.0, "<=", 1.0)
    return report


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(CONFIG_TEMPLATE.format(outdir=tmp_path / "out"))
    return str(path)


class TestFitScaling:
    def test_exact_square_law(self):
        series = [(n, float(n * n)) for n in (8, 16, 32, 64)]
        fit = fit_scaling(series)
        assert fit.exponent == pytest.approx(2.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_nlogn_model_reports_spread(self):
        import math
        series = [(n, 3.0 * n * math.log(n)) for n in (8, 16, 32, 64)]
        fit = fit_scaling(series, model="n*log n")
        assert fit.exponent is None
        assert fit.ratio_min == pytest.approx(3.0)
        assert fit.ratio_spread == pytest.approx(1.0)

    def test_unknown_model(self):
        series = [(n, float(n * n)) for n in (8, 16, 32, 64)]
        with pytest.raises(ConfigError, match="unknown scaling model 'x'"):
            fit_scaling(series, model="x")

    def test_insufficient_points(self):
        with pytest.raises(InsufficientPoints):
            fit_scaling([(8, 1.0), (16, 2.0), (32, 3.0)])
        with pytest.raises(InsufficientPoints):
            fit_scaling([(8, 1.0), (16, 0.0), (32, 3.0), (64, 4.0)])
        for model in ("n^a", "n*log n"):
            with pytest.raises(InsufficientPoints):
                fit_scaling([(8, 1.0), (8, 1.0), (8, 2.0), (8, 3.0)],
                            model=model)

    @pytest.mark.parametrize("series, model, error", [
        ([(8.7, 1.0), (16, 2.0), (32, 3.0), (64, 4.0)], "n^a", InvalidSpec),
        ([(True, 1.0), (16, 2.0), (32, 3.0), (64, 4.0)], "n^a", InvalidSpec),
        ([(0, 1.0), (16, 2.0), (32, 3.0), (64, 4.0)], "n^a", InvalidSpec),
        ([(1, 1.0), (16, 2.0), (32, 3.0), (64, 4.0)], "n*log n",
         InvalidSpec),
        ([(8, math.inf), (16, 2.0), (32, 3.0), (64, 4.0)], "n^a",
         InsufficientPoints),
        ([(8, math.nan), (16, 2.0), (32, 3.0), (64, 4.0)], "n^a",
         InsufficientPoints),
    ], ids=["size-8.7", "size-true", "size-0", "size-1-nlogn", "value-inf",
            "value-nan"])
    def test_refuses_bad_points(self, series, model, error):
        with pytest.raises(error):
            fit_scaling(series, model=model)


class TestConfig:
    def test_parse(self, config_file):
        config = parse_config(config_file)
        assert config.master_seed == 909
        assert config.sweeps == [SweepSpec("cycle", (8, 16))]
        assert config.quantities == ("exact", "simulate", "verify")

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/exp.ini")

    def test_sizes_must_increase(self):
        config = ExperimentConfig(sweeps=[SweepSpec("cycle", (16, 8))])
        with pytest.raises(ConfigError):
            config.validate()

    def test_monte_carlo_needs_seed(self):
        config = ExperimentConfig(sweeps=[SweepSpec("cycle", (8,))],
                                  quantities=("simulate",), trials=10)
        with pytest.raises(ConfigError):
            config.validate()

    def test_unknown_family(self):
        config = ExperimentConfig(sweeps=[SweepSpec("mystery", (8,))])
        with pytest.raises(ConfigError):
            config.validate()

    @pytest.mark.parametrize("fields, message", [
        ({"sweeps": []}, "config defines no sweeps"),
        ({"quantities": ("exact", "plot")}, "unknown quantity group 'plot'"),
        ({"quantities": ("simulate",), "trials": 1, "master_seed": 1},
         "trials >= 2"),
    ], ids=["no-sweeps", "unknown-quantity", "one-trial"])
    def test_validate_rejects(self, fields, message):
        config = ExperimentConfig(
            **{"sweeps": [SweepSpec("cycle", (8,))], **fields})
        with pytest.raises(ConfigError, match=message):
            config.validate()

    @pytest.mark.parametrize("body", ["family = cycle\n", "sizes = 8 16\n"],
                             ids=["no-sizes", "no-family"])
    def test_sweep_needs_family_and_sizes(self, tmp_path, body):
        path = tmp_path / "exp.ini"
        path.write_text("[sweep:a]\n" + body)
        with pytest.raises(ConfigError,
                           match=r"\[sweep:a\] needs 'family' and 'sizes'"):
            parse_config(str(path))

    @pytest.mark.parametrize("kind", ["immortal", "coalesce", ""])
    def test_unknown_sim_kind(self, kind):
        config = ExperimentConfig(sweeps=[SweepSpec("cycle", (8,))],
                                  sim_kinds=("coalescence", kind))
        with pytest.raises(ConfigError):
            config.validate()

    def test_repeated_sweep_point(self, tmp_path, capsys):
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEMPLATE.format(outdir=tmp_path / "out")
                        + "\n[sweep:again]\nfamily = cycle\nsizes = 4 8\n")
        with pytest.raises(ConfigError,
                           match="sweep point cycle-n8 is repeated"):
            parse_config(str(path)).validate()
        assert main(["all", "--config", str(path)]) == 1
        assert "cycle-n8" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sweep, message", [
        ("family = cycle\ndegree = 5\nalpha = 9\nsizes = 8\n",
         "cycle: bad parameter degree"),
        ("family = hypercube\ndim = 4\nsizes = 3\n",
         "a hypercube sweep sets dim by sizes"),
        ("family = barbell\nsizes = 8 10\n", "barbell: bad parameter n"),
    ], ids=["unread-key", "size-field-key", "bad-late-point"])
    def test_bad_sweep_point_fails_before_any_point_runs(
            self, tmp_path, capsys, monkeypatch, sweep, message):
        # the bad sweep comes second: no point of the first is measured
        monkeypatch.setattr(bounds, "measure", None)
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEMPLATE.format(outdir=tmp_path / "out")
                        + "\n[sweep:bad]\n" + sweep)
        assert main(["all", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_sim_kind_in_config_fails_before_run(self, tmp_path, capsys):
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEMPLATE.format(outdir=tmp_path / "out")
                        .replace("outdir", "sim_kinds = immortal\noutdir"))
        assert main(["all", "--config", str(path)]) == 1
        assert "immortal" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empty_sweep_fails_before_run(self, tmp_path, capsys):
        path = tmp_path / "exp.ini"
        path.write_text(f"[experiment]\noutdir = {tmp_path / 'out'}\n"
                        "[sweep:a]\nfamily = cycle\nsizes =\n")
        with pytest.raises(ConfigError, match="cycle sweep has no sizes"):
            parse_config(str(path)).validate()
        assert main(["all", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: the cycle sweep has no sizes\n")
        assert not (tmp_path / "out").exists()

    def test_cap_below_one_fails_before_run(self, tmp_path, capsys):
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEMPLATE.format(outdir=tmp_path / "out")
                        .replace("outdir", "cap = 0\noutdir"))
        with pytest.raises(ConfigError, match="cap must be >= 1"):
            parse_config(str(path)).validate()
        assert main(["all", "--config", str(path)]) == 1
        assert capsys.readouterr().err == "error: cap must be >= 1\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("fields, message", [
        ({"trials": 2.5}, "integer trials >= 2"),
        ({"trials": 10, "cap": 2.5}, "cap must be >= 1"),
        ({"trials": 10, "cap": True}, "cap must be >= 1"),
    ], ids=["trials-2.5", "cap-2.5", "cap-true"])
    def test_counts_that_are_no_integers_fail_before_run(self, tmp_path,
                                                         fields, message):
        config = ExperimentConfig(
            sweeps=[SweepSpec("cycle", (8,))], master_seed=1,
            quantities=("simulate",), outdir=str(tmp_path / "out"), **fields)
        with pytest.raises(ConfigError, match=message):
            config.validate()
        with pytest.raises(ConfigError, match=message):
            run(config)
        assert not (tmp_path / "out").exists()

    def test_simulate_kinds_are_the_config_kinds(self, capsys):
        from coalwalk.cli import SIM_KINDS
        with pytest.raises(SystemExit):
            main(["simulate", "--help"])
        assert "{" + ",".join(SIM_KINDS) + "}" in capsys.readouterr().out
        ExperimentConfig(sweeps=[SweepSpec("cycle", (8,))], master_seed=1,
                         trials=2, quantities=("simulate",),
                         sim_kinds=SIM_KINDS).validate()

    @pytest.mark.parametrize("line", [
        "trials = 40", "cap = 1000", "sim_kinds = meeting"])
    def test_monte_carlo_key_without_simulate(self, tmp_path, capsys, line):
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nquantities = exact,verify\n"
                        f"{line}\noutdir = {tmp_path / 'out'}\n\n"
                        "[sweep:c]\nfamily = cycle\nsizes = 8\n")
        key = line.split()[0]
        with pytest.raises(ConfigError, match=rf"^\[experiment\] {key} "):
            parse_config(str(path)).validate()
        assert main(["all", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: [experiment] {key} is read only when quantities "
            "include simulate\n")
        assert not (tmp_path / "out").exists()

    def test_trials_flag_without_simulate(self, tmp_path, capsys):
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nquantities = exact\n"
                        f"outdir = {tmp_path / 'out'}\n\n"
                        "[sweep:c]\nfamily = cycle\nsizes = 8\n")
        assert main(["all", "--config", str(path), "--trials", "4"]) == 1
        assert "[experiment] trials" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", [
        "trials = 3\n",
        "[experiment]\ntrials = 3\ntrials = 4\n",
        "[sweep:a]\nfamily = cycle\n[sweep:a]\nsizes = 8\n"])
    def test_malformed_ini(self, tmp_path, capsys, text):
        path = tmp_path / "exp.ini"
        path.write_text(text)
        assert main(["all", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot parse")

    @pytest.mark.parametrize("outdir", ["out%1", "out%(trials)s", "100%"])
    def test_percent_in_value_is_literal(self, tmp_path, outdir):
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEMPLATE.format(outdir=outdir))
        assert parse_config(str(path)).outdir == outdir

    def test_readme_example_parses(self, tmp_path):
        readme = os.path.join(os.path.dirname(__file__), os.pardir,
                              "README.md")
        text = Path(readme).read_text()
        start = text.index("```ini\n") + len("```ini\n")
        path = tmp_path / "readme.ini"
        path.write_text(text[start:text.index("```", start)])
        config = parse_config(str(path))
        assert config.master_seed == 7
        assert [s.spec_for(s.sizes[-1]).label() for s in config.sweeps] == [
            "cycle-n64", "torus-dim3-side6"]

    @pytest.mark.parametrize("section,key,value", [
        ("sweep:tori", "dim", "2.5"),
        ("sweep:tori", "alpha", "one"),
        ("sweep:tori", "sizes", "3 x"),
        ("experiment", "trials", "many"),
        ("experiment", "master_seed", "0x10"),
        ("experiment", "cap", "1e6"),
        ("experiment", "meeting_limit", "big"),
        ("experiment", "meeting_limit", "500"),
    ])
    def test_malformed_number(self, tmp_path, capsys, section, key, value):
        sections = {
            "experiment": {"quantities": "exact",
                           "outdir": str(tmp_path / "out")},
            "sweep:tori": {"family": "torus", "sizes": "3 4"}}
        sections[section][key] = value
        parser = configparser.ConfigParser()
        parser.read_dict(sections)
        path = tmp_path / "exp.ini"
        with open(path, "w") as handle:
            parser.write(handle)
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key}"):
            parse_config(str(path))
        assert main(["all", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("text,where", [
        ("[experiment]\ntrails = 2000\nquantites = exact,simulate\n",
         r"\[experiment\] trails"),
        ("[sweep:c]\nfamily = cycle\nsizes = 8\nsides = 4\n",
         r"\[sweep:c\] sides"),
        ("[experment]\nmaster_seed = 3\ntrials = 10\n", r"\[experment\]")])
    def test_unknown_key_or_section(self, tmp_path, capsys, text, where):
        path = tmp_path / "exp.ini"
        path.write_text(text + "[sweep:a]\nfamily = cycle\nsizes = 8\n")
        with pytest.raises(ConfigError, match=where):
            parse_config(str(path))
        assert main(["all", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("default", ["trials = 5\n", ""])
    def test_default_section_is_unknown(self, tmp_path, default):
        # configparser would merge [DEFAULT] keys into every section
        path = tmp_path / "exp.ini"
        path.write_text("[DEFAULT]\n" + default
                        + "[sweep:a]\nfamily = cycle\nsizes = 8\n")
        with pytest.raises(ConfigError,
                           match=r"^\[DEFAULT\] is not a known section$"):
            parse_config(str(path))

    def test_benchmark_sweep_parses(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "sweep.ini"
        config = parse_config(str(path))
        assert config.master_seed == 1 and len(config.sweeps) == 5

    def test_meeting_limit_accepted_at_the_fixed_cap(self, tmp_path,
                                                     config_file):
        path = tmp_path / "limit.ini"
        path.write_text(Path(config_file).read_text().replace(
            "outdir", f"meeting_limit = {chain._MEETING_LIMIT}\noutdir"))
        assert parse_config(str(path)) == parse_config(config_file)


class TestRun:
    def test_pipeline_outputs(self, config_file, tmp_path):
        result = run(parse_config(config_file))
        assert result["explicit_ok"]
        assert len(result["records"]) == 2
        record = json.loads(Path(result["records"][0]).read_text())
        assert {"spec", "measured", "bound_report", "estimates"} <= set(record)
        with open(result["csv"]) as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0].keys() == {"family", "n", "m", "quantity", "value",
                                  "stderr", "trials", "censored", "seed"}
        quantities = {row["quantity"] for row in rows}
        assert {"t_hit", "t_mix", "t_meet", "t_coalescence_sim"} <= quantities

    def test_rerun_byte_identical_and_worker_invariant(self, tmp_path):
        outs = []
        for idx, workers in ((0, "1"), (1, "2")):
            outdir = tmp_path / f"out{idx}"
            path = tmp_path / f"exp{idx}.ini"
            path.write_text(CONFIG_TEMPLATE.format(outdir=outdir))
            os.environ["COALWALK_WORKERS"] = workers
            try:
                result = run(parse_config(str(path)))
            finally:
                os.environ.pop("COALWALK_WORKERS", None)
            outs.append(Path(result["csv"]).read_bytes())
        assert outs[0] == outs[1]

    def test_blas_thread_count_moves_exact_rows_only(self, tmp_path):
        """Bytes are fixed per BLAS thread count; across 1 and 2 threads
        Monte Carlo rows stay byte-equal and exact rows within 1e-12."""
        path = tmp_path / "exp.ini"
        path.write_text(BLAS_SWEEP)
        src = str(Path(coalwalk.__file__).resolve().parents[1])
        rows = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       COALWALK_WORKERS="1",
                       PYTHONPATH=os.pathsep.join(
                           [src, os.environ.get("PYTHONPATH", "")]))
            outdir = tmp_path / f"threads{threads}"
            done = subprocess.run(
                [sys.executable, "-m", "coalwalk", "all", "--config",
                 str(path), "--outdir", str(outdir)],
                env=env, capture_output=True, text=True)
            assert done.returncode == 0, done.stderr
            rows.append((outdir / "results.csv").read_text().splitlines())
        one, two = rows
        assert len(one) == len(two) > 1 and one[0] == two[0]
        for a, b in zip(one[1:], two[1:]):
            a, b = a.split(","), b.split(",")
            if a[3].endswith("_sim"):
                assert a == b
            else:
                assert a[:4] == b[:4] and a[5:] == b[5:]
                assert abs(float(a[4]) - float(b[4])) <= 1e-12 * abs(float(a[4]))

    def test_benchmark_sweep_bytes_pinned(self, tmp_path):
        """``perfbench/sweep.ini`` at master seed 12345, one BLAS thread and
        one worker: ``results.csv`` and its 14 JSON records, read in name
        order, keep these sha256 digests. The benchmark's own golden pins
        the CSV at two BLAS threads (``bfc127822d645f95...``). A change that
        moves a float on purpose re-records both digests here and lists the
        moved rows in ``CHANGES.md``."""
        root = Path(coalwalk.__file__).resolve().parents[2]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", COALWALK_WORKERS="1",
                   PYTHONPATH=os.pathsep.join(
                       [str(root / "src"), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-m", "coalwalk", "all", "--config",
             str(root / "perfbench" / "sweep.ini"), "--seed", "12345",
             "--outdir", str(tmp_path)],
            env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        records = sorted(tmp_path.glob("*.json"))
        assert len(records) == 14
        csv_bytes = (tmp_path / "results.csv").read_bytes()
        json_bytes = b"".join(path.read_bytes() for path in records)
        assert hashlib.sha256(csv_bytes).hexdigest() == (
            "199824bc599a2279df5bf1b7bc6c40a21d958c81cbc72c4083747a82f8177023")
        assert hashlib.sha256(json_bytes).hexdigest() == (
            "6c6dc01dfd99209f427f801d71571432c5723c2cb9ddd41fd518ea5f81b0ff3d")



class TestCommands:
    def test_gen_and_reload(self, capsys):
        assert main(["gen", "--family", "cycle", "--n", "6"]) == 0
        text = capsys.readouterr().out
        g = load_edge_list(text)
        assert g.n == 6 and g.m == 6

    def test_exact_json(self, capsys):
        assert main(["exact", "--family", "clique", "--n", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["measured"]["t_hit"] == pytest.approx(6.0)

    def test_gen_and_exact_write_their_output_files(self, tmp_path, capsys):
        edges, record = tmp_path / "cycle.txt", tmp_path / "clique.json"
        assert main(["gen", "--family", "cycle", "--n", "6",
                     "-o", str(edges)]) == 0
        assert main(["exact", "--family", "clique", "--n", "4",
                     "--output", str(record)]) == 0
        assert capsys.readouterr().out == ""
        assert edges.read_text() == generate(
            FamilySpec("cycle", n=6)).to_edge_list()
        assert json.loads(record.read_text())["measured"]["t_hit"] == (
            pytest.approx(6.0))
        assert sorted(os.listdir(tmp_path)) == ["clique.json", "cycle.txt"]

    def test_simulate_requires_seed(self, capsys):
        code = main(["simulate", "--family", "cycle", "--n", "8",
                     "--trials", "10"])
        assert code == 1
        assert "seed" in capsys.readouterr().err

    def test_simulate_runs(self, capsys):
        code = main(["simulate", "--family", "clique", "--n", "2",
                     "--kind", "meeting", "--u", "0", "--v", "1",
                     "--trials", "200", "--seed", "5"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert 1.5 <= payload["mean"] <= 2.5

    @pytest.mark.parametrize("vertex", [["--u", "0"], ["--v", "3"]])
    def test_simulate_meeting_needs_both_vertices(self, capsys, vertex):
        code = main(["simulate", "--family", "cycle", "--n", "8",
                     "--kind", "meeting", *vertex, "--trials", "20",
                     "--seed", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --u and --v must be given together\n"
        assert captured.out == ""

    @pytest.mark.parametrize("workers", ["two", "1.5", "", "0", "-2"])
    def test_simulate_bad_worker_variable(self, capsys, monkeypatch, workers):
        monkeypatch.setenv("COALWALK_WORKERS", workers)
        code = main(["simulate", "--family", "cycle", "--n", "8",
                     "--trials", "10", "--seed", "1"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: COALWALK_WORKERS=")

    @pytest.mark.parametrize("command", ["exact", "verify"])
    def test_meeting_limit_flag_is_gone(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--family", "cycle", "--n", "8",
                  "--meeting-limit", "200"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --meeting-limit" in (
            capsys.readouterr().err)

    def test_verify_exit_zero_on_pass(self, capsys, tmp_path):
        csv_path = str(tmp_path / "report.csv")
        code = main(["verify", "--family", "clique", "--n", "8",
                     "--csv", csv_path])
        assert code == 0
        with open(csv_path) as handle:
            assert handle.readline().startswith("name,lhs,rel")

    def test_all_command(self, config_file, capsys):
        assert main(["all", "--config", config_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["explicit_ok"]

    def test_scale_command(self, tmp_path, capsys):
        path = tmp_path / "scale.ini"
        path.write_text(
            "[experiment]\nquantities = exact\noutdir = %s\n\n"
            "[sweep:c]\nfamily = cycle\nsizes = 8 12 16 24\n"
            % (tmp_path / "out"))
        assert main(["scale", "--config", str(path)]) == 0
        fits = json.loads(capsys.readouterr().out)
        assert 1.7 <= fits["cycle:t_hit"]["exponent"] <= 2.2

    def test_scale_needs_two_sizes(self, tmp_path, capsys):
        # four distinct points, one family series, each with 25 vertices
        path = tmp_path / "scale.ini"
        path.write_text(
            "[experiment]\nquantities = exact\noutdir = %s\n" % (
                tmp_path / "out") + "".join(
                f"\n[sweep:a{a}]\nfamily = lower_bound\nalpha = {a}\n"
                "sizes = 16\n" for a in range(4, 8)))
        assert main(["scale", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: scaling fits need at least 2 distinct sizes\n")
        assert captured.out == ""

    def test_scale_with_no_series_to_fit(self, tmp_path, capsys):
        # three sizes: every series is one short of a fit
        path = tmp_path / "scale.ini"
        path.write_text(
            "[experiment]\nquantities = exact\noutdir = %s\n\n"
            "[sweep:c]\nfamily = cycle\nsizes = 8 16 32\n"
            % (tmp_path / "out"))
        assert main(["scale", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: scaling fits need at least 4 sizes\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flags", [
        ("exact", []), ("simulate", ["--seed", "1", "--trials", "10"]),
        ("verify", [])])
    def test_edge_list_without_family(self, tmp_path, capsys, command,
                                      flags):
        edges = tmp_path / "g.txt"
        edges.write_text("0 1\n1 2\n2 0\n")
        assert main([command, "--edge-list", str(edges), *flags]) == 0
        out = capsys.readouterr().out
        if command == "verify":
            assert all(row["passed"] is not False
                       for row in json.loads(out))
        else:
            assert json.loads(out)["n"] == 3
        assert main([command, *flags]) == 1
        assert capsys.readouterr().err == (
            "error: give --family or --edge-list\n")

    @pytest.mark.parametrize("flags", [
        ["--family", "clique"], ["--family", "cycle", "--n", "50"],
        ["--n", "50"], ["--alpha", "2"]])
    def test_edge_list_takes_no_family_flag(self, tmp_path, capsys, flags):
        edges = tmp_path / "g.txt"
        edges.write_text("0 1\n1 2\n2 0\n")
        assert main(["exact", "--edge-list", str(edges), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: --edge-list takes no --family or family flag\n")
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["exact", "verify"])
    def test_edge_list_takes_no_seed(self, tmp_path, capsys, command):
        # simulate reads --seed as its master seed; exact and verify would not
        edges = tmp_path / "g.txt"
        edges.write_text("0 1\n1 2\n2 0\n")
        assert main([command, "--edge-list", str(edges), "--seed", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {command} --edge-list takes no --seed\n")
        assert captured.out == ""

    @pytest.mark.parametrize("command, flags", [
        ("gen", ["--family", "cycle", "--n", "4"]),
        ("exact", ["--family", "cycle", "--n", "8"]),
        ("verify", ["--family", "torus", "--side", "3"])])
    def test_unseeded_family_takes_no_seed(self, capsys, command, flags):
        # only random_regular and lower_bound read --seed off simulate
        assert main([command, *flags, "--seed", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {command} {' '.join(flags[:2])} takes no --seed\n")
        assert captured.out == ""

    def test_unknown_family_named_before_seed(self, capsys):
        assert main(["exact", "--family", "foo", "--seed", "5"]) == 1
        assert capsys.readouterr().err == "error: unknown family 'foo'\n"

    def test_seeded_family_takes_seed(self, capsys):
        # gen and simulate with --seed are covered elsewhere
        assert main(["exact", "--family", "lower_bound", "--n", "16",
                     "--seed", "5"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command, family, flags", [
        ("gen", "cycle", ["--n", "8", "--degree", "5"]),
        ("exact", "torus", ["--side", "3", "--n", "9"]),
        ("simulate", "clique", ["--n", "4", "--alpha", "2", "--seed", "1"]),
        ("verify", "hypercube", ["--dim", "3", "--levels", "2"]),
    ])
    def test_family_flag_the_family_does_not_read(self, capsys, command,
                                                  family, flags):
        # the third flag is the one the family does not read
        assert main([command, "--family", family, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {family}: bad parameter {flags[2][2:]}\n")
        assert captured.out == ""

    @pytest.mark.parametrize("kind", ["voter", "coalescence"])
    def test_simulate_vertices_are_for_meeting_only(self, capsys, kind):
        code = main(["simulate", "--family", "cycle", "--n", "8",
                     "--kind", kind, "--u", "3", "--v", "5",
                     "--trials", "10", "--seed", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {kind} trials do not read params['u']\n")
        assert captured.out == ""

    def test_verify_exit_two_on_violation(self, capsys, monkeypatch):
        monkeypatch.setattr(bounds, "verify_relations", _failed_check)
        code = main(["verify", "--family", "clique", "--n", "4"])
        assert code == 2

    @pytest.mark.parametrize("command", ["all", "scale"])
    def test_config_commands_exit_two_on_violation(self, capsys, monkeypatch,
                                                   tmp_path, command):
        path = tmp_path / "verify.ini"
        path.write_text("[experiment]\nquantities = exact,verify\n"
                        f"outdir = {tmp_path / 'out'}\n\n"
                        "[sweep:c]\nfamily = cycle\nsizes = 8 10 12 16\n")
        assert main([command, "--config", str(path)]) == 0
        monkeypatch.setattr(bounds, "verify_relations", _failed_check)
        assert main([command, "--config", str(path)]) == 2
        if command == "all":
            assert '"explicit_ok": false' in capsys.readouterr().out

    @pytest.mark.parametrize("family,key,size", [
        ("torus", "side", 3), ("grid", "side", 4),
        ("random_regular", "n", 10), ("lower_bound", "n", 16)])
    def test_gen_flags_take_sweep_defaults(self, capsys, family, key, size):
        # The flags leave out dim, degree or alpha: gen fills it in as a
        # config sweep does, while generate itself still rejects the spec.
        with pytest.raises(InvalidSpec):
            generate(FamilySpec(family, **{key: size}))
        seed = ["--seed", "4"] if family in SEEDED_FAMILIES else []
        assert main(["gen", "--family", family, f"--{key}", str(size),
                     *seed]) == 0
        expected = generate(SweepSpec(family, (size,)).spec_for(size),
                            seed=4 if seed else 0)
        assert capsys.readouterr().out == expected.to_edge_list()

    def test_all_flags_fill_missing_seed_and_trials(self, tmp_path, capsys):
        # the overrides are applied before the config is checked
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEMPLATE.format(outdir=tmp_path / "out")
                        .replace("master_seed = 909\ntrials = 40\n", ""))
        config = parse_config(str(path))
        assert (config.master_seed, config.trials) == (None, None)
        assert main(["all", "--config", str(path), "--seed", "3",
                     "--trials", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        with open(payload["csv"]) as handle:
            rows = [row for row in csv.DictReader(handle)
                    if row["quantity"] == "t_coalescence_sim"]
        assert [(row["seed"], row["trials"]) for row in rows] == [
            ("3", "4"), ("3", "4")]

    def test_all_flag_overrides(self, config_file, tmp_path, capsys):
        override = str(tmp_path / "elsewhere")
        assert main(["all", "--config", config_file, "--trials", "10",
                     "--seed", "77", "--outdir", override]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["csv"].startswith(override)
