"""coalwalk benchmark: one workload, one seed, timed rounds, checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload meet_mc --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` they
are its per-layer metrics, taken from traced rounds. A full record with
provenance and every op goes to ``perfbench/out/``.
"""
import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Pinned before numpy loads: thread counts read from the environment could
# otherwise make a run measure the machine rather than the code.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ["COALWALK_WORKERS"] = "1"  # cli.run reads it; direct calls pass workers=1

SETUPS = 5        # set-ups per run (import in a fresh interpreter, inputs,
                  # goldens); setup_s reports their median
MAX_ROUNDS = 64   # a run ends after this many rounds even with time left


def _parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def _git_commit():
    """The checked-out commit, read from .git without starting a process."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256():
    import hashlib

    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "coalwalk")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()


def _provenance(workload, seed):
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed,
        "git_commit": _git_commit(), "source_sha256": _source_sha256(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
        "coalwalk_workers": 1,
    }


def _import_seconds():
    """Seconds a fresh interpreter takes to import coalwalk, numpy and scipy."""
    child = subprocess.run(
        [sys.executable, "-c", "import time; start = time.perf_counter(); "
         "import coalwalk; print(time.perf_counter() - start)"],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True,
        check=True, timeout=120)
    return float(child.stdout)


def _load_goldens():
    with open(os.path.join(HERE, "goldens.json")) as handle:
        return json.load(handle)


def main():
    args = _parse_args()
    if not os.path.isfile(os.path.join(SRC, "coalwalk", "__init__.py")):
        sys.exit(f"error: no coalwalk package under {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    setup, run_round, calibration = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer(args.workload) if args.trace else None

    ledger = workloads.Ledger({}, workloads.interpreter_calibration())
    setup_times = []
    for k in range(SETUPS):
        # The calibration task does not follow a fresh interpreter's import
        # (file reads, dynamic linking, BLAS start-up), so it stays raw.
        import_s = _import_seconds()
        start = ledger.wall_s
        if tracer is not None and k == 0:
            with tracer.installed():
                inputs = ledger.timed(lambda: setup(args.seed))
        else:
            inputs = ledger.timed(lambda: setup(args.seed))
        goldens = ledger.timed(_load_goldens)
        setup_times.append(import_s + ledger.wall_s - start)
    setup_layers = tracing.layer_metrics(tracer.spans, 0) if tracer else None

    ledger = workloads.Ledger(goldens, calibration())
    walls, raw_walls, works, cpus = [], [], [], []
    traced_walls, traced_layers = [], []
    begin = time.perf_counter()
    for rnd in range(MAX_ROUNDS):
        wall_s, raw_s = ledger.wall_s, ledger.raw_s
        work, cpu_s = ledger.work, ledger.cpu_s
        run_round(inputs, args.seed, rnd, ledger)
        cpus.append(ledger.cpu_s - cpu_s)
        raw_walls.append(ledger.raw_s - raw_s)
        walls.append(ledger.wall_s - wall_s)
        works.append(ledger.work - work)
        if tracer is not None:
            first = tracer.mark()
            wall_s, raw_s = ledger.wall_s, ledger.raw_s
            with tracer.installed():
                run_round(inputs, args.seed, rnd, ledger)
            traced_walls.append(ledger.wall_s - wall_s)
            layers = tracing.layer_metrics(tracer.spans, first)
            layers["trace.top_span_coverage"] = (layers.pop("top_s")
                                                 / (ledger.raw_s - raw_s))
            traced_layers.append(layers)
        elapsed = time.perf_counter() - begin
        if elapsed + elapsed / (rnd + 1) > args.seconds:
            break

    # Means, not medians, over rounds: Monte Carlo rounds differ in work, and
    # the mean uses every trial of the run.
    wall_s = statistics.fmean(walls)
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (wall_s, "s"),
            "work_per_s": (sum(works) / sum(walls), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
    else:
        layers = tracing.median_metrics(traced_layers)
        layers["graphs.generate_s"] += setup_layers["graphs.generate_s"]
        layers["graphs.calls"] += setup_layers["graphs.calls"]
        traced = statistics.fmean(traced_walls)
        layers.update({
            "process.cpu_s": statistics.median(cpus),
            "process.blas_threads": BLAS_THREADS,
            "trace.wall_s": traced,
            "trace.overhead_s": traced - wall_s,
            "trace.overhead_frac": traced / wall_s - 1.0,
        })
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            unit_of = {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}
        metrics = {name: (layers[name], unit_of[name]) for name in unit_of}

    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    stem = os.path.join(workloads.OUT_DIR,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = {
        "provenance": _provenance(args.workload, args.seed),
        "rounds": len(walls), "round_wall_s": walls, "round_raw_wall_s": raw_walls,
        "round_work": works, "setup_times_s": setup_times,
        "traced_round_wall_s": traced_walls, "golden_checked": ledger.golden_checked,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "ops": ledger.records,
    }
    with open(stem + ".json", "w") as handle:
        json.dump(record, handle, indent=1)
    if tracer is not None:
        with open(stem + "-spans.json", "w") as handle:
            json.dump(tracer.dump(), handle)

    attempted, failed = len(ledger.records), ledger.failed
    for rec in ledger.records:
        if rec["problems"]:
            print(f"FAILED {rec['op']}: {'; '.join(rec['problems'])}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(walls)} rounds, "
          f"{attempted} ops, {failed} failed (ops_failed_frac "
          f"{failed / attempted:.4g}), {ledger.golden_checked} checked against "
          f"goldens; record {stem}.json")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
