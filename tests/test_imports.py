"""The Monte Carlo path runs on numpy alone; scipy loads at the first
exact solve."""
import json
import os
import subprocess
import sys
from pathlib import Path

import coalwalk
from coalwalk import chain
from coalwalk.graphs import FamilySpec, generate

CHILD = """
import contextlib, io, json, runpy, sys
import coalwalk
from coalwalk import chain, graphs, simulate

def loaded():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] in ("scipy", "multiprocessing"))

gs = [graphs.generate(graphs.FamilySpec("cycle", n=16)),
      graphs.generate(graphs.FamilySpec("torus", dim=3, side=4)),
      graphs.lower_bound_graph(64, 1.0, seed=3)]
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
mix = chain.mixing_time(gs[0]).value
dense, sparse = chain.meeting_exact(gs[0]), chain.meeting_exact(gs[1])
print(json.dumps({"monte_carlo": monte_carlo, "exact": loaded(), "mix": mix,
                  "dense": [dense.method, dense.t_meet.hex()],
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
    assert "scipy.sparse" in out["exact"]
    assert not any(m.startswith("multiprocessing") for m in out["exact"])
    cycle = generate(FamilySpec("cycle", n=16))
    torus = generate(FamilySpec("torus", dim=3, side=4))
    assert out["mix"] == chain.mixing_time(cycle).value
    assert out["dense"] == ["dense", chain.meeting_exact(cycle).t_meet.hex()]
    assert out["sparse"] == ["sparse", chain.meeting_exact(torus).t_meet.hex()]
