import configparser
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coalwalk
from coalwalk import chain
from coalwalk.cli import (
    ExperimentConfig,
    SweepSpec,
    fit_scaling,
    main,
    parse_config,
    run,
)
from coalwalk.errors import ConfigError, InsufficientPoints, InvalidSpec
from coalwalk.graphs import FamilySpec, generate, load_edge_list


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

    def test_insufficient_points(self):
        with pytest.raises(InsufficientPoints):
            fit_scaling([(8, 1.0), (16, 2.0), (32, 3.0)])
        with pytest.raises(InsufficientPoints):
            fit_scaling([(8, 1.0), (16, 0.0), (32, 3.0), (64, 4.0)])


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

    @pytest.mark.parametrize("kind", ["immortal", "coalesce", ""])
    def test_unknown_sim_kind(self, kind):
        config = ExperimentConfig(sweeps=[SweepSpec("cycle", (8,))],
                                  sim_kinds=("coalescence", kind))
        with pytest.raises(ConfigError):
            config.validate()

    def test_sim_kind_in_config_fails_before_run(self, tmp_path, capsys):
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEMPLATE.format(outdir=tmp_path / "out")
                        .replace("outdir", "sim_kinds = immortal\noutdir"))
        assert main(["all", "--config", str(path)]) == 1
        assert "immortal" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_simulate_kinds_are_the_config_kinds(self, capsys):
        from coalwalk.cli import SIM_KINDS
        with pytest.raises(SystemExit):
            main(["simulate", "--help"])
        assert "{" + ",".join(SIM_KINDS) + "}" in capsys.readouterr().out
        ExperimentConfig(sweeps=[SweepSpec("cycle", (8,))],
                         sim_kinds=SIM_KINDS).validate()

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
        text = open(readme).read()
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

    def test_meeting_limit_accepted_at_the_fixed_cap(self, tmp_path,
                                                     config_file):
        path = tmp_path / "limit.ini"
        path.write_text(open(config_file).read().replace(
            "outdir", f"meeting_limit = {chain._MEETING_LIMIT}\noutdir"))
        assert parse_config(str(path)) == parse_config(config_file)


class TestRun:
    def test_pipeline_outputs(self, config_file, tmp_path):
        result = run(parse_config(config_file))
        assert result["explicit_ok"]
        assert len(result["records"]) == 2
        record = json.loads(open(result["records"][0]).read())
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
            outs.append(open(result["csv"], "rb").read())
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
        assert open(csv_path).readline().startswith("name,lhs,rel")

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

    def test_edge_list_input(self, tmp_path, capsys):
        edges = tmp_path / "g.txt"
        edges.write_text("0 1\n1 2\n2 0\n")
        assert main(["exact", "--family", "clique",
                     "--edge-list", str(edges)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 3

    def test_verify_exit_two_on_violation(self, capsys, monkeypatch):
        import coalwalk.bounds as bounds_mod
        import coalwalk.cli as cli_mod

        def poisoned(g, mq):
            report = bounds_mod.BoundReport()
            report.add_explicit("synthetic", 2.0, "<=", 1.0)
            return report

        monkeypatch.setattr(cli_mod.bounds, "verify_relations", poisoned)
        code = main(["verify", "--family", "clique", "--n", "4"])
        assert code == 2

    @pytest.mark.parametrize("family,key,size", [
        ("torus", "side", 3), ("grid", "side", 4),
        ("random_regular", "n", 10), ("lower_bound", "n", 16)])
    def test_gen_flags_take_sweep_defaults(self, capsys, family, key, size):
        # The flags leave out dim, degree or alpha: gen fills it in as a
        # config sweep does, while generate itself still rejects the spec.
        with pytest.raises(InvalidSpec):
            generate(FamilySpec(family, **{key: size}))
        assert main(["gen", "--family", family, f"--{key}", str(size),
                     "--seed", "4"]) == 0
        expected = generate(SweepSpec(family, (size,)).spec_for(size), seed=4)
        assert capsys.readouterr().out == expected.to_edge_list()

    def test_all_flag_overrides(self, config_file, tmp_path, capsys):
        override = str(tmp_path / "elsewhere")
        assert main(["all", "--config", config_file, "--trials", "10",
                     "--seed", "77", "--outdir", override]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["csv"].startswith(override)
