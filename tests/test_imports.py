"""The Monte Carlo path, graph validation, the dense exact solvers and the
closed-form collision sums (above the step loop's work cap) run on numpy
alone; scipy loads for pairwise mixing, the collision step loop and the
sparse meeting branch. The names the benchmark tracer wraps all resolve."""
import json
import os
import subprocess
import sys
from pathlib import Path

import coalwalk
from coalwalk import chain
from coalwalk.graphs import (FamilySpec, generate, lower_bound_graph,
                             lower_bound_report)

CHILD = """
import contextlib, io, json, runpy, sys
import coalwalk
from coalwalk import chain, graphs, simulate

def loaded():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] in ("scipy", "multiprocessing"))

gs = [graphs.generate(graphs.FamilySpec("cycle", n=16)),
      graphs.generate(graphs.FamilySpec("torus", dim=3, side=4)),
      graphs.lower_bound_graph(64, 1.0, seed=3),
      graphs.generate(graphs.FamilySpec("random_regular", n=12, degree=5),
                      seed=4)]
params = {"meeting": {"stationary": True}, "coalescence": {}, "voter": {},
          "immortal": {"start_vertices": [0, 1, 2, 3, 4, 5],
                       "immortal_ids": [0, 1], "target_k": 2}}
for g in gs:
    for kind, p in params.items():
        simulate.estimate(kind, g, p, 4, 7)
for argv in (["gen", "--family", "torus", "--dim", "3", "--side", "4"],
             ["simulate", "--family", "lower_bound", "--n", "64",
              "--alpha", "1", "--kind", "coalescence", "--trials", "4",
              "--seed", "7"]):
    sys.argv = ["coalwalk", *argv]
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            runpy.run_module("coalwalk", run_name="__main__")
        except SystemExit as done:
            assert done.code == 0, done.code
monte_carlo = loaded()
lb, tree = gs[2], graphs.generate(graphs.FamilySpec("binary_tree", levels=9))
tree_mix = chain.mixing_time(tree)
coll = chain.collision_stats(tree, tree_mix.value)
barbell = graphs.generate(graphs.FamilySpec("barbell", n=64))
bar = chain.collision_stats(barbell, 8496)  # its t_mix: the closed form
numpy_only = {"collision": [coll.c_max.hex(), coll.c_min.hex(),
                            coll.r_max.hex()],
              "barbell": [bar.c_max.hex(), bar.c_min.hex(), bar.r_max.hex()],
              "lambda2": chain.spectral(lb).lambda2.hex(),
              "ok": graphs.validate(lb).ok,
              "g2_lambda2": graphs.lower_bound_report(lb)["g2_lambda2"].hex(),
              "t_hit": chain.t_hit(tree).hex(),
              "t_hit_per_target": chain.t_hit(gs[0]).hex(),
              "t_sep": chain.separation_time(tree),
              "tree_mix": [tree_mix.value, tree_mix.method,
                           tree_mix.bracket]}
dense = chain.meeting_exact(gs[0])
numpy_only["dense"] = [dense.method, dense.t_meet.hex()]
dense_exact = loaded()
mix = chain.mixing_time(gs[0]).value
sparse = chain.meeting_exact(gs[1])
print(json.dumps({"monte_carlo": monte_carlo, "dense_exact": dense_exact,
                  "exact": loaded(), "numpy_only": numpy_only, "mix": mix,
                  "sparse": [sparse.method, sparse.t_meet.hex()]}))
"""


def test_monte_carlo_path_loads_no_scipy():
    src = str(Path(coalwalk.__file__).resolve().parents[1])
    env = dict(os.environ, COALWALK_WORKERS="1", PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", CHILD], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["monte_carlo"] == []
    assert out["dense_exact"] == []
    assert "scipy.sparse" in out["exact"]
    assert not any(m.startswith("multiprocessing") for m in out["exact"])
    cycle = generate(FamilySpec("cycle", n=16))
    torus = generate(FamilySpec("torus", dim=3, side=4))
    lb = lower_bound_graph(64, 1.0, seed=3)
    tree = generate(FamilySpec("binary_tree", levels=9))
    tree_mix = chain.mixing_time(tree)
    # the exact_chain golden values of binary_tree-9
    assert (tree_mix.value, tree_mix.method, tree_mix.bracket) == (
        1992, "bracket", (872, 1992))
    coll = chain.collision_stats(tree, tree_mix.value)
    barbell = generate(FamilySpec("barbell", n=64))
    # window t_mix = 8496 is over the step loop's cap: the closed form runs
    assert 8496 * (barbell.n + 2 * barbell.m) * barbell.n > chain._LOOP_WORK
    bar = chain.collision_stats(barbell, 8496)
    assert out["numpy_only"] == {
        "collision": [coll.c_max.hex(), coll.c_min.hex(), coll.r_max.hex()],
        "barbell": [bar.c_max.hex(), bar.c_min.hex(), bar.r_max.hex()],
        "lambda2": chain.spectral(lb).lambda2.hex(),
        "ok": True,
        "g2_lambda2": lower_bound_report(lb)["g2_lambda2"].hex(),
        "t_hit": chain.t_hit(tree).hex(),
        "t_hit_per_target": chain.t_hit(cycle).hex(),
        "t_sep": 2023,
        "tree_mix": [1992, "bracket", [872, 1992]],
        "dense": ["dense", chain.meeting_exact(cycle).t_meet.hex()]}
    assert out["mix"] == chain.mixing_time(cycle).value
    assert out["sparse"] == ["sparse", chain.meeting_exact(torus).t_meet.hex()]


def test_benchmark_tracer_names_resolve(monkeypatch):
    # perfbench/tracing.py wraps these by name; a deleted one must fail here
    # rather than in a later traced benchmark run
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    import tracing
    from coalwalk import seeding

    assert tracing.TARGETS
    for module, attr, _, _ in tracing.TARGETS:
        assert callable(getattr(module, attr, None)), (module.__name__, attr)
    assert callable(getattr(seeding.StepStream, "uniforms", None))
