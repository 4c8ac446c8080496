"""Per-layer baseline rows (ROADMAP item 1) from traced runs' span files.

Usage, after traced runs of every workload (from the repository root):

    python3 perfbench/run.py --workload <name> --seed 1 --seconds 25 --trace 1
    python3 perfbench/baseline.py --seed 1

Prints a Markdown table with, per workload and graph:

- uniforms per call, by simulation kind;
- microseconds per trial-step, by simulation kind;
- the median seconds of each exact solver call.

Spans are raw seconds. They are not scaled by the run's calibration.
"""
import argparse
import json
import os
import statistics
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("meet_mc", "coal_mc", "exact_chain", "sweep_cli")


def _rows(spans):
    uniforms = defaultdict(lambda: [0, 0])   # (kind, graph) -> [calls, ns]
    steps = defaultdict(lambda: [0, 0])      # (kind, graph) -> [steps, ns]
    solver = defaultdict(list)               # (name, graph) -> [seconds]
    for span in spans:
        name, dur = span["name"], span["end_ns"] - span["start_ns"]
        if name.startswith("simulate.trial."):
            key = (name.rsplit(".", 1)[1], span.get("graph"))
            steps[key][0] += span["steps"]
            steps[key][1] += dur
        elif name.startswith("chain.") and not (
                span["parent"] >= 0
                and spans[span["parent"]]["name"].startswith("chain.")):
            solver[(name[len("chain."):], span.get("graph"))].append(dur / 1e9)
        if span.get("uniforms_calls"):
            kind = name.rsplit(".", 1)[1]
            uniforms[(kind, span.get("graph"))][0] += span["uniforms_calls"]
            uniforms[(kind, span.get("graph"))][1] += span["uniforms_ns"]
    for (kind, graph), (calls, ns) in sorted(uniforms.items()):
        yield "StepStream.uniforms", f"{kind} on {graph}", f"{ns / calls / 1e3:.2f} µs/call"
    for (kind, graph), (count, ns) in sorted(steps.items()):
        if count:
            yield f"{kind} trial-step", graph, f"{ns / count / 1e3:.2f} µs/step"
    for (name, graph), secs in sorted(solver.items()):
        yield name, graph, f"{statistics.median(secs):.3f} s"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    print("| workload | layer | input | time |\n|---|---|---|---|")
    for workload in WORKLOADS:
        path = os.path.join(HERE, "out", f"{workload}-seed{args.seed}-trace1-spans.json")
        if not os.path.exists(path):
            continue
        with open(path) as handle:
            spans = json.load(handle)
        for layer, graph, value in _rows(spans):
            print(f"| {workload} | {layer} | {graph} | {value} |")


if __name__ == "__main__":
    main()
