"""Record perfbench/goldens.json from the current source tree.

Usage (from the repository root):

    python3 perfbench/record_goldens.py

Runs every workload for the default and the held-out seed, Monte Carlo
workloads for GOLDEN_ROUNDS rounds, exact and sweep workloads for one round
(their rounds repeat), and stores each op's output under its op key. It also
stores, per Monte Carlo input, the mean and spread of the recorded estimate
means (the statistical check for seeds without goldens) and the largest
stopping time seen against the cap given to that input.

Goldens pin the outputs of the commit they were recorded at; re-record only
when a change to the results is intended, and say so.
"""
import json
import os
import statistics
import sys

import run  # pins BLAS threads and COALWALK_WORKERS before numpy loads

DEFAULT_SEED = 1
HELDOUT_SEED = 7
GOLDEN_ROUNDS = 24
MC_WORKLOADS = ("meet_mc", "coal_mc")


def main():
    sys.path.insert(0, run.SRC)
    import tracing
    import workloads

    ops, caps = {}, {}
    for name, (setup, run_round, calibration) in workloads.WORKLOADS.items():
        rounds = GOLDEN_ROUNDS if name in MC_WORKLOADS else 1
        for seed in (DEFAULT_SEED, HELDOUT_SEED):
            inputs = setup(seed)
            ledger = workloads.Ledger({}, calibration())
            tracer = tracing.Tracer(name)
            with tracer.installed():
                for rnd in range(rounds):
                    run_round(inputs, seed, rnd, ledger)
            for rec in ledger.records:
                if rec["problems"]:
                    sys.exit(f"{rec['op']} failed: {rec['problems']}")
                ops[rec["op"]] = rec["out"]
            if name in MC_WORKLOADS:
                _max_stopping_times(tracer, ledger.records, caps)
            print(f"{name} seed {seed}: {len(ledger.records)} ops", flush=True)

    reference = {}
    by_label: dict[str, list[float]] = {}
    for key, out in ops.items():
        if key.startswith("estimate."):
            by_label.setdefault(key[len("estimate."):].split("@")[0], []).append(
                out["mean"])
    for label, means in sorted(by_label.items()):
        reference[label] = {"mean": statistics.fmean(means),
                            "sd": statistics.stdev(means), "count": len(means)}
    path = os.path.join(run.HERE, "goldens.json")
    with open(path, "w") as handle:
        json.dump({"seeds": [DEFAULT_SEED, HELDOUT_SEED],
                   "golden_rounds": GOLDEN_ROUNDS, "ops": ops,
                   "reference": reference, "max_stopping_time": caps},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(ops)} op goldens to {path}")


def _max_stopping_times(tracer, records, caps):
    """Largest stopping time per Monte Carlo input across traced trials.

    On Monte Carlo workloads each op is one top-level traced call, so the
    top-level spans line up with the ledger records.
    """
    from tracing import INFO, NAME, PARENT

    root, longest = {}, {}
    for i, span in enumerate(tracer.spans):
        root[i] = i if span[PARENT] < 0 else root[span[PARENT]]
        if span[NAME].startswith("simulate.trial."):
            longest[root[i]] = max(longest.get(root[i], 0), span[INFO]["steps"])
    tops = [i for i, span in enumerate(tracer.spans) if span[PARENT] < 0]
    for rec, top in zip(records, tops, strict=True):
        if top in longest:
            label = rec["op"].split("@")[0]
            caps[label] = max(caps.get(label, 0), longest[top])


if __name__ == "__main__":
    main()
