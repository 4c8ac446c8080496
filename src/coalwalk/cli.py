"""Batch experiment runner and scaling fits.

Subcommands: ``gen`` (emit an edge list), ``exact`` (chain quantities),
``simulate`` (Monte Carlo estimates), ``verify`` (relation checks),
``scale`` (scaling-exponent fits across a sweep), ``all`` (full
pipeline). Configs are INI files (see ``parse_config``); flags override
config values, and a seed is mandatory for anything Monte Carlo.

Exit codes: 0 all explicit-constant checks passed, 2 at least one
explicit-constant violation, 1 runtime error.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import bounds, chain
from .errors import (CoalwalkError, ConfigError, InsufficientPoints,
                     InvalidSpec, is_integer)
from .graphs import (FAMILIES, SEEDED_FAMILIES, SPEC_PARAMS, FamilySpec,
                     generate, load_edge_list, validate)
from .seeding import mix64
from .simulate import estimate

CSV_COLUMNS = ("family", "n", "m", "quantity", "value", "stderr",
               "trials", "censored", "seed")

# The Monte Carlo kinds that ``run`` and ``coalwalk simulate`` serve.
SIM_KINDS = ("coalescence", "meeting", "voter")
# The ``MeasuredQuantities.to_dict`` keys that ``run`` writes as CSV rows,
# in row order; a None value writes no row.
EXACT_ROWS = ("t_hit", "t_mix", "t_sep", "lambda2", "t_meet", "t_meet_pi",
              "c_max", "c_min", "r_max", "pi_min", "pi_norm_sq")


@dataclass(frozen=True)
class SweepSpec:
    family: str
    sizes: tuple[int, ...]
    degree: int | None = None
    dim: int | None = None
    alpha: float | None = None

    def spec_for(self, size: int) -> FamilySpec:
        """The spec of point ``size``: degree, dim and alpha pass through to
        ``generate``, which rejects any the family does not read, and a key
        naming the size field that ``sizes`` sets is a ConfigError."""
        given = {"degree": self.degree, "dim": self.dim, "alpha": self.alpha}
        field = FAMILIES[self.family].size
        if given.get(field) is not None:
            raise ConfigError(f"a {self.family} sweep sets {field} by sizes")
        return _family_spec(self.family, {**given, field: size})


def _family_spec(family: str, given: dict) -> FamilySpec:
    """The spec of ``family`` with the given parameters that are not None;
    the family's ``FAMILIES`` defaults fill in the missing ones."""
    row = FAMILIES.get(family)
    kwargs = dict(row.defaults) if row else {}
    kwargs.update((key, val) for key, val in given.items() if val is not None)
    return FamilySpec(family, **kwargs)


@dataclass
class ExperimentConfig:
    sweeps: list[SweepSpec]
    master_seed: int | None = None
    trials: int | None = None
    cap: int | None = None
    quantities: tuple[str, ...] = ("exact",)
    sim_kinds: tuple[str, ...] | None = None  # None: coalescence alone
    outdir: str = "out"

    def validate(self) -> None:
        if not self.sweeps:
            raise ConfigError("config defines no sweeps")
        labels = set()
        for sweep in self.sweeps:
            if sweep.family not in FAMILIES:
                raise ConfigError(f"unknown family {sweep.family!r}")
            if not sweep.sizes:
                raise ConfigError(f"the {sweep.family} sweep has no sizes")
            if list(sweep.sizes) != sorted(set(sweep.sizes)):
                raise ConfigError("sweep sizes must be strictly increasing")
            for size in sweep.sizes:
                label = sweep.spec_for(size).label()
                if label in labels:
                    raise ConfigError(f"sweep point {label} is repeated")
                labels.add(label)
        for q in self.quantities:
            if q not in ("exact", "simulate", "verify"):
                raise ConfigError(f"unknown quantity group {q!r}")
        for kind in self.sim_kinds or ():
            if kind not in SIM_KINDS:
                raise ConfigError(f"unknown sim kind {kind!r}; "
                                  f"expected one of {', '.join(SIM_KINDS)}")
        if "simulate" not in self.quantities:
            for key in ("trials", "cap", "sim_kinds"):
                if getattr(self, key) is not None:
                    raise ConfigError(f"[experiment] {key} is read only when "
                                      "quantities include simulate")
        elif not (is_integer(self.trials) and self.trials >= 2):
            raise ConfigError("Monte Carlo runs need integer trials >= 2")
        elif not (self.cap is None or is_integer(self.cap) and self.cap >= 1):
            raise ConfigError("cap must be >= 1")
        elif self.master_seed is None:
            raise ConfigError("a master seed is mandatory for Monte Carlo runs")


def _names(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(","))


# Older configs carry meeting_limit; any value but the fixed cap is an error.
_EXPERIMENT_KEYS = {"master_seed": int, "trials": int, "cap": int,
                    "quantities": _names, "sim_kinds": _names, "outdir": str,
                    "meeting_limit": int}
_SWEEP_KEYS = {"family": str, "degree": int, "dim": int, "alpha": float,
               "sizes": lambda text: tuple(map(int, text.split()))}


def parse_config(path: str) -> ExperimentConfig:
    """Read an experiment config.

    Format: an optional ``[experiment]`` section with keys master_seed,
    trials, cap, quantities (comma list of exact/simulate/verify),
    sim_kinds (comma list of ``SIM_KINDS``, coalescence alone if left out)
    and outdir; trials, cap and sim_kinds only beside simulate. Plus one
    ``[sweep:NAME]`` section per family sweep with keys family, sizes
    (whitespace list), and the family's other fields among degree, dim and
    alpha. A missing key takes its dataclass default; an unknown section
    or key is an error. ``run`` checks the values after any command-line
    override, and ``generate`` the fields.
    """
    # '%' is literal; no header names "", so [DEFAULT] is an unknown section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path!r}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    exp, sweeps = {}, []
    for section in parser.sections():
        keys = (_EXPERIMENT_KEYS if section == "experiment" else
                _SWEEP_KEYS if section.startswith("sweep:") else {})
        if not keys:
            raise ConfigError(f"[{section}] is not a known section")
        values = {}
        for key, text in parser[section].items():
            if key not in keys:
                raise ConfigError(f"[{section}] {key} is not a known key; "
                                  f"expected one of {', '.join(keys)}")
            try:
                values[key] = keys[key](text)
            except ValueError:
                raise ConfigError(f"[{section}] {key} = {text!r} is not "
                                  "a valid number") from None
        if keys is _EXPERIMENT_KEYS:
            exp = values
        elif "family" not in values or "sizes" not in values:
            raise ConfigError(f"[{section}] needs 'family' and 'sizes'")
        else:
            sweeps.append(SweepSpec(**values))
    if exp.pop("meeting_limit", chain._MEETING_LIMIT) != chain._MEETING_LIMIT:
        raise ConfigError("[experiment] meeting_limit: the meeting size cap "
                          f"is fixed at {chain._MEETING_LIMIT}")
    return ExperimentConfig(sweeps=sweeps, **exp)


# ---------------------------------------------------------------------------
# Scaling fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalingFit:
    model: str
    exponent: float | None
    stderr: float | None
    r_squared: float | None
    ratio_min: float | None = None
    ratio_max: float | None = None

    @property
    def ratio_spread(self) -> float | None:
        if self.ratio_min is None:
            return None
        return self.ratio_max / self.ratio_min


def fit_scaling(series, model: str = "n^a") -> ScalingFit:
    """Least squares on the log-transformed model.

    ``"n^a"`` regresses ln T on ln n and reports the exponent with its
    standard error and R^2. ``"n*log n"`` has no free exponent, so the
    spread of T / (n ln n) over the sweep is reported instead. Either
    model needs 4 points or more, at 2 distinct sizes or more, and finite
    positive values (else InsufficientPoints); every size must be an
    integer >= 2 (else InvalidSpec).
    """
    pts = [(n, float(v)) for n, v in series]
    if not all(is_integer(n) and n >= 2 for n, _ in pts):
        raise InvalidSpec("scaling fit sizes must be integers >= 2")
    if len(pts) < 4:
        raise InsufficientPoints("scaling fits need at least 4 sizes")
    if len({n for n, _ in pts}) < 2:
        raise InsufficientPoints("scaling fits need at least 2 distinct sizes")
    if not all(0 < v < math.inf for _, v in pts):
        raise InsufficientPoints("scaling fits need finite positive values")
    ns = np.array([n for n, _ in pts], dtype=float)
    vals = np.array([v for _, v in pts])
    if model == "n*log n":
        ratios = vals / (ns * np.log(ns))
        return ScalingFit(model, None, None, None,
                          float(ratios.min()), float(ratios.max()))
    if model != "n^a":
        raise ConfigError(f"unknown scaling model {model!r}")
    x = np.log(ns)
    y = np.log(vals)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(((y - fitted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r_sq = 1.0 - ss_res / ss_tot if ss_tot else 1.0
    dof = len(pts) - 2
    slope_se = math.sqrt(ss_res / dof / float(((x - x.mean()) ** 2).sum()))
    return ScalingFit(model, float(slope), slope_se, min(max(r_sq, 0.0), 1.0))


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        handle.write(text)
    os.replace(tmp, path)


def run(config: ExperimentConfig) -> dict:
    """Execute every sweep point; write JSON records and one flat CSV.

    The config is checked and every point's graph built, in config order,
    before ``outdir`` is made, so a bad point fails with nothing written;
    each graph and its solver caches go once its record is written.

    Returns a summary dict with the CSV path, per-point record paths, and
    the explicit-check verdict. Numeric CSV fields are byte-identical
    across reruns with the same config and master seed, independent of
    worker count.
    """
    config.validate()
    master = config.master_seed
    specs = [sweep.spec_for(size)
             for sweep in config.sweeps for size in sweep.sizes]
    points = [(spec, generate(spec, seed=mix64(
        master or 0, hash_label(spec.label())))) for spec in specs]
    os.makedirs(config.outdir, exist_ok=True)
    rows = []  # CSV rows, one tuple in CSV_COLUMNS order each
    record_paths = []
    explicit_ok = True
    while points:
        spec, g = points.pop(0)
        record = {"spec": spec.to_dict(), "n": g.n, "m": g.m}
        estimates = {}
        if "simulate" in config.quantities:
            for kind in config.sim_kinds or ("coalescence",):
                params = {"stationary": True} if kind == "meeting" else {}
                est = estimate(kind, g, params, config.trials, mix64(
                    master, hash_label(spec.label()), hash_label(kind)),
                    cap=config.cap)
                estimates[kind] = est
                rows.append((spec.family, g.n, g.m, f"t_{kind}_sim",
                             est.mean, est.stderr, est.trials,
                             est.censored_count, master))
        if "exact" in config.quantities or "verify" in config.quantities:
            mq = bounds.measure(
                g, t_coal_estimate=estimates.get("coalescence"))
            measured = record["measured"] = mq.to_dict()
            rows.extend((spec.family, g.n, g.m, name,
                         float(measured[name]), None, None, None, None)
                        for name in EXACT_ROWS if measured[name] is not None)
        if "verify" in config.quantities:
            report = bounds.verify_relations(g, mq)
            record["bound_report"] = report.to_rows()
            if not report.all_explicit_passed:
                explicit_ok = False
        if estimates:
            record["estimates"] = {kind: est.to_dict()
                                   for kind, est in estimates.items()}
        path = os.path.join(config.outdir, f"{spec.label()}.json")
        _atomic_write(path, json.dumps(record, indent=2, sort_keys=True))
        record_paths.append(path)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(rows)  # None as an empty field, a float by repr
    csv_path = os.path.join(config.outdir, "results.csv")
    _atomic_write(csv_path, buf.getvalue())
    return {"csv": csv_path, "records": record_paths,
            "explicit_ok": explicit_ok}


def hash_label(label: str) -> int:
    acc = 0
    for ch in label:
        acc = (acc * 131 + ord(ch)) % (1 << 61)
    return acc


# ---------------------------------------------------------------------------
# Command-line interface
# ---------------------------------------------------------------------------

def _add_spec_args(sub, edge_list: bool = True):
    """The family spec flags and --seed; with ``edge_list`` also
    --edge-list, which stands in for --family and every family flag."""
    sub.add_argument("--family", required=not edge_list)
    for key in SPEC_PARAMS:
        sub.add_argument(f"--{key}", type=float if key == "alpha" else int)
    sub.add_argument("--seed", type=int, default=None)
    if edge_list:
        sub.add_argument("--edge-list")


def _load_graph(args):
    given = {key: getattr(args, key) for key in SPEC_PARAMS}
    edge_list = getattr(args, "edge_list", None)
    if edge_list and (args.family is not None
                      or any(v is not None for v in given.values())):
        raise ConfigError("--edge-list takes no --family or family flag")
    if not edge_list and args.family is None:
        raise ConfigError("give --family or --edge-list")
    # simulate reads --seed as its master seed; elsewhere a seeded family
    # alone reads it (an unknown family is generate's error)
    if (args.seed is not None and args.command != "simulate"
            and args.family not in SEEDED_FAMILIES
            and (edge_list or args.family in FAMILIES)):
        source = "--edge-list" if edge_list else f"--family {args.family}"
        raise ConfigError(f"{args.command} {source} takes no --seed")
    if edge_list:
        with open(edge_list) as handle:
            return load_edge_list(handle.read())
    return generate(_family_spec(args.family, given), seed=args.seed or 0)


def _cmd_gen(args) -> int:
    text = _load_graph(args).to_edge_list()
    if args.output:
        _atomic_write(args.output, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_exact(args) -> int:
    g = _load_graph(args)
    mq = bounds.measure(g)
    payload = {"n": g.n, "m": g.m, "diagnostics": vars(validate(g)),
               "measured": mq.to_dict()}
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.output:
        _atomic_write(args.output, text)
    else:
        print(text)
    return 0


def _cmd_simulate(args) -> int:
    if args.seed is None:
        raise ConfigError("--seed is mandatory for Monte Carlo runs")
    if (args.u is None) != (args.v is None):
        raise ConfigError("--u and --v must be given together")
    g = _load_graph(args)
    # a given pair goes to every kind, and estimate rejects it off meeting
    params = ({"u": args.u, "v": args.v} if args.u is not None else
              {"stationary": True} if args.kind == "meeting" else {})
    est = estimate(args.kind, g, params, args.trials, args.seed, cap=args.cap)
    print(json.dumps({"kind": args.kind, "n": g.n, **est.to_dict()},
                     indent=2))
    return 0


def _cmd_verify(args) -> int:
    g = _load_graph(args)
    mq = bounds.measure(g)
    report = bounds.verify_relations(g, mq)
    if args.csv:
        _atomic_write(args.csv, report.to_csv())
    print(report.to_json())
    return 0 if report.all_explicit_passed else 2


def _cmd_scale(args) -> int:
    config = parse_config(args.config)
    config.validate()  # a bad config is named before the count of points
    # a family's series has a point per size of every sweep of it
    points: dict[str, int] = {}
    for sweep in config.sweeps:
        points[sweep.family] = points.get(sweep.family, 0) + len(sweep.sizes)
    if max(points.values(), default=0) < 4:
        raise InsufficientPoints("scaling fits need at least 4 sizes")
    result = run(config)
    fits = {}
    by_sweep: dict[tuple[str, str], list] = {}
    with open(result["csv"]) as handle:
        for row in csv.DictReader(handle):
            by_sweep.setdefault((row["family"], row["quantity"]), []).append(
                (int(row["n"]), float(row["value"])))
    # skip a series fit_scaling rejects, and fail if it rejects all
    unfit = InsufficientPoints("the sweep has no series to fit")
    for (family, quantity), series in by_sweep.items():
        try:
            fits[f"{family}:{quantity}"] = vars(
                fit_scaling(series, model=args.model))
        except InsufficientPoints as exc:
            unfit = exc
    if not fits:
        raise unfit
    print(json.dumps(fits, indent=2, sort_keys=True))
    return 0 if result["explicit_ok"] else 2


def _cmd_all(args) -> int:
    config = parse_config(args.config)
    for flag, field in [("seed", "master_seed"), ("trials", "trials"),
                        ("outdir", "outdir")]:
        if getattr(args, flag) is not None:
            setattr(config, field, getattr(args, flag))
    result = run(config)
    print(json.dumps(result, indent=2))
    return 0 if result["explicit_ok"] else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coalwalk",
        description="random-walk coalescence measurements on graphs")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="emit an edge list for a family spec")
    _add_spec_args(gen, edge_list=False)
    gen.add_argument("--output", "-o")
    gen.set_defaults(func=_cmd_gen)

    exact = subs.add_parser("exact", help="exact chain quantities")
    _add_spec_args(exact)
    exact.add_argument("--output", "-o")
    exact.set_defaults(func=_cmd_exact)

    sim = subs.add_parser("simulate", help="Monte Carlo estimates")
    _add_spec_args(sim)
    sim.add_argument("--kind", default="coalescence",
                     choices=SIM_KINDS)
    sim.add_argument("--trials", type=int, default=1000)
    sim.add_argument("--cap", type=int)
    sim.add_argument("--u", type=int)
    sim.add_argument("--v", type=int)
    sim.set_defaults(func=_cmd_simulate)

    verify = subs.add_parser("verify", help="explicit-constant checks")
    _add_spec_args(verify)
    verify.add_argument("--csv")
    verify.set_defaults(func=_cmd_verify)

    scale = subs.add_parser("scale", help="scaling fits across a sweep")
    scale.add_argument("--config", required=True)
    scale.add_argument("--model", default="n^a", choices=["n^a", "n*log n"])
    scale.set_defaults(func=_cmd_scale)

    full = subs.add_parser("all", help="full pipeline from a config file")
    full.add_argument("--config", required=True)
    full.add_argument("--seed", type=int, help="override master_seed")
    full.add_argument("--trials", type=int, help="override trials")
    full.add_argument("--outdir", help="override output directory")
    full.set_defaults(func=_cmd_all)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CoalwalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
