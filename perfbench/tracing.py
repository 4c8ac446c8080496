"""Spans around coalwalk's public functions, recorded from outside the package.

``Tracer.installed()`` swaps each traced function for a wrapper that records a
span ``[name, start_ns, end_ns, parent, info]`` in memory, and restores the
originals on exit. ``StepStream.uniforms`` runs millions of times per round,
so its calls are not kept as spans of their own: each call adds its count and
duration to the innermost open span (``info["uniforms_calls"]`` and
``info["uniforms_ns"]``), and self times subtract that duration like a child.

Workloads call the package through module attributes (``simulate.estimate``,
``chain.mixing_time``) so the swapped functions are the ones they reach.
"""
from __future__ import annotations

import os
import statistics
import time
from contextlib import contextmanager

from coalwalk import bounds, chain, cli, graphs, seeding, simulate

NAME, START, END, PARENT, INFO = range(5)

CHAIN_SOLVERS = ("mixing_time", "separation_time", "collision_stats", "t_hit",
                 "spectral", "meeting_exact")
SIM_KINDS = ("meeting", "coalescence", "voter", "immortal")
# Branches each solver can take, by the ``method`` field of its result; a
# method outside this table is counted under chain.method.other.
METHODS = {
    "mixing": ("pairwise", "bracket"),
    "spectral": ("dense", "iterative"),
    "hitting": ("dense", "gauss-seidel"),
    "hitting_matrix": ("per_target", "fundamental"),
    "meeting": ("dense", "sparse", "jacobi"),
}


def _trial_info(sample, args, kwargs):
    return {"steps": int(sample.value), "censored": bool(sample.censored)}


def _method_info(quantity):
    def info(result, args, kwargs):
        out = {"method": f"{quantity}.{result.method}"}
        if hasattr(result, "residual"):
            out["residual"] = float(result.residual)
        return out
    return info


def _report_info(report, args, kwargs):
    failed = len(report.failures())
    return {"explicit": sum(c.explicit for c in report.checks),
            "explicit_failed": failed}


def _concentration_info(report, args, kwargs):
    steps = kwargs["steps"] if "steps" in kwargs else args[2]
    checks = 1 + len(report.tails)
    return {"explicit": checks,
            "explicit_failed": checks - report.mean_ok
            - sum(t.ok for t in report.tails),
            "walk_steps": report.walks * (steps - 1)}


def _run_info(summary, args, kwargs):
    paths = [summary["csv"], *summary["records"]]
    return {"bytes_written": sum(os.path.getsize(p) for p in paths)}


def _graph_label(args):
    """``family-n`` of the graph a traced call works on, if it takes one."""
    for arg in args[:2]:  # estimate(kind, g, ...) takes it second
        if isinstance(arg, graphs.Graph):
            return f"{arg.family}-{arg.n}"
    return None


# (module, attribute, span name, function deriving span info from a result)
TARGETS = [
    (graphs, "generate", "graphs.generate", None),
    (cli, "generate", "graphs.generate", None),
    (graphs, "lower_bound_graph", "graphs.lower_bound_graph", None),
    (simulate, "estimate", "simulate.estimate", None),
    (cli, "estimate", "simulate.estimate", None),
    (simulate, "paired_batch_means", "simulate.paired_batch_means", None),
    *[(simulate, f"simulate_{kind}", f"simulate.trial.{kind}", _trial_info)
      for kind in SIM_KINDS],
    (chain, "mixing_time", "chain.mixing_time", _method_info("mixing")),
    (chain, "separation_time", "chain.separation_time", None),
    (chain, "collision_stats", "chain.collision_stats", None),
    (chain, "t_hit", "chain.t_hit", None),
    (chain, "hitting_matrix", "chain.hitting_matrix", None),
    (chain, "hitting_to", "chain.hitting_to", _method_info("hitting")),
    (chain, "spectral", "chain.spectral", _method_info("spectral")),
    (chain, "meeting_exact", "chain.meeting_exact", _method_info("meeting")),
    (bounds, "measure", "bounds.measure", None),
    (bounds, "verify_relations", "bounds.verify_relations", _report_info),
    (bounds, "check_concentration", "bounds.check_concentration",
     _concentration_info),
    (cli, "run", "cli.run", _run_info),
]


class Tracer:
    """In-memory span recorder for one workload."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn, describe):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, {}]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter_ns()
                stack.pop()
            graph = _graph_label(args)
            if graph is not None:
                span[INFO]["graph"] = graph
            if describe is not None:
                span[INFO].update(describe(result, args, kwargs))
            return result
        return traced

    def _wrap_uniforms(self, fn):
        spans, stack = self.spans, self._stack

        def uniforms(stream, step, count):
            start = time.perf_counter_ns()
            out = fn(stream, step, count)
            elapsed = time.perf_counter_ns() - start
            if stack:
                info = spans[stack[-1]][INFO]
                info["uniforms_calls"] = info.get("uniforms_calls", 0) + 1
                info["uniforms_ns"] = info.get("uniforms_ns", 0) + elapsed
            return out
        return uniforms

    @contextmanager
    def installed(self):
        """Route the traced functions through span-recording wrappers."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in TARGETS]
        saved.append((seeding.StepStream, "uniforms",
                      seeding.StepStream.uniforms))
        wrapped = {}
        try:
            for mod, attr, name, describe in TARGETS:
                fn = getattr(mod, attr)
                if fn not in wrapped:
                    wrapped[fn] = self._wrap(name, fn, describe)
                setattr(mod, attr, wrapped[fn])
            seeding.StepStream.uniforms = self._wrap_uniforms(
                seeding.StepStream.uniforms)
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def mark(self) -> int:
        return len(self.spans)

    def dump(self) -> list[dict]:
        return [{"name": s[NAME], "start_ns": s[START], "end_ns": s[END],
                 "parent": s[PARENT], "workload": self.workload, **s[INFO]}
                for s in self.spans]


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans: list[list], first: int) -> dict[str, float]:
    """Per-layer numbers from the spans recorded since index ``first``."""
    spans = spans[first:]
    dur = [(s[END] - s[START]) / 1e9 for s in spans]
    child_s = [0.0] * len(spans)
    for i, s in enumerate(spans):
        child_s[i] += s[INFO].get("uniforms_ns", 0) / 1e9
        if s[PARENT] >= first:
            child_s[s[PARENT] - first] += dur[i]

    def parent_layer(s):
        return _layer(spans[s[PARENT] - first][NAME]) if s[PARENT] >= first else None

    out: dict[str, float] = {}
    top = [i for i, s in enumerate(spans) if s[PARENT] < first]
    out["top_s"] = sum(dur[i] for i in top)

    outer_graphs = [i for i, s in enumerate(spans)
                    if _layer(s[NAME]) == "graphs" and parent_layer(s) != "graphs"]
    out["graphs.generate_s"] = sum(dur[i] for i in outer_graphs)
    out["graphs.calls"] = len(outer_graphs)

    calls = sum(s[INFO].get("uniforms_calls", 0) for s in spans)
    uni_s = sum(s[INFO].get("uniforms_ns", 0) for s in spans) / 1e9
    out["seeding.uniforms_calls"] = calls
    out["seeding.uniforms_s"] = uni_s
    out["seeding.uniforms_us_per_call"] = 1e6 * uni_s / calls if calls else 0.0

    trials = [i for i, s in enumerate(spans) if s[NAME].startswith("simulate.trial.")]
    steps = sum(spans[i][INFO]["steps"] for i in trials)
    out["simulate.trials"] = len(trials)
    out["simulate.walk_steps"] = steps
    out["simulate.censored_frac"] = (
        sum(spans[i][INFO]["censored"] for i in trials) / len(trials)
        if trials else 0.0)
    out["simulate.self_s"] = sum(dur[i] - child_s[i] for i, s in enumerate(spans)
                                 if _layer(s[NAME]) == "simulate")
    for kind in SIM_KINDS:
        mine = [i for i in trials if spans[i][NAME] == f"simulate.trial.{kind}"]
        kind_s = sum(dur[i] for i in mine)
        kind_steps = sum(spans[i][INFO]["steps"] for i in mine)
        out[f"simulate.{kind}_s"] = kind_s
        out[f"simulate.{kind}_us_per_step"] = (
            1e6 * kind_s / kind_steps if kind_steps else 0.0)

    for solver in CHAIN_SOLVERS:
        mine = [i for i, s in enumerate(spans) if s[NAME] == f"chain.{solver}"]
        out[f"chain.{solver}_s"] = sum(dur[i] for i in mine)
        out[f"chain.{solver}_calls"] = len(mine)
    for solver in ("meeting_exact", "spectral"):
        out[f"chain.{solver}_residual_max"] = max(
            (s[INFO]["residual"] for s in spans if s[NAME] == f"chain.{solver}"),
            default=0.0)
    for quantity, methods in METHODS.items():
        for method in methods:
            out[f"chain.method.{quantity}.{method}"] = 0
    out["chain.method.other"] = 0
    # The per-target branch of hitting_matrix solves one hitting_to per vertex.
    solved_per_target = {s[PARENT] - first for s in spans
                         if s[NAME] == "chain.hitting_to"}
    for i, s in enumerate(spans):
        method = s[INFO].get("method")
        if s[NAME] == "chain.hitting_matrix":
            method = "hitting_matrix." + ("per_target" if i in solved_per_target
                                          else "fundamental")
        if method is None:
            continue
        key = f"chain.method.{method}"
        out[key if key in out else "chain.method.other"] += 1

    for name in ("measure", "verify_relations"):
        out[f"bounds.{name}_s"] = sum(dur[i] for i, s in enumerate(spans)
                                      if s[NAME] == f"bounds.{name}")
    conc = [s for s in spans if s[NAME] == "bounds.check_concentration"]
    out["bounds.concentration_s"] = sum(
        (s[END] - s[START]) / 1e9 for s in conc)
    out["bounds.concentration_walk_steps"] = sum(s[INFO]["walk_steps"] for s in conc)
    out["bounds.explicit_checks"] = sum(s[INFO].get("explicit", 0) for s in spans)
    out["bounds.explicit_failed"] = sum(s[INFO].get("explicit_failed", 0)
                                        for s in spans)

    runs = [i for i, s in enumerate(spans) if s[NAME] == "cli.run"]
    out["cli.run_s"] = sum(dur[i] for i in runs)
    out["cli.self_s"] = sum(dur[i] - child_s[i] for i in runs)
    out["cli.bytes_written"] = sum(spans[i][INFO]["bytes_written"] for i in runs)
    return out


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
