"""Generated graphs against a recorded golden, byte for byte.

Each case hashes a graph's ``indptr``, ``indices`` and ``meta``: the
conftest families, every point of ``perfbench/sweep.ini`` built through
``SweepSpec.spec_for`` (with its label and the seed ``run`` derives from
it), and a few invalid specs with the exception type each raises.

Re-record ``graph_golden.json`` only for a deliberate change of the
generators: ``PYTHONPATH=src python tests/test_graph_golden.py``.
"""
import hashlib
import json
import os

import numpy as np
import pytest

from coalwalk.cli import hash_label, parse_config
from coalwalk.graphs import FamilySpec, generate
from coalwalk.seeding import mix64

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "graph_golden.json")
SWEEP_INI = os.path.join(HERE, os.pardir, "perfbench", "sweep.ini")

FAMILY_SPECS = [
    FamilySpec("path", n=12),
    FamilySpec("cycle", n=12),
    FamilySpec("clique", n=8),
    FamilySpec("star", n=10),
    FamilySpec("binary_tree", levels=4),
    FamilySpec("hypercube", dim=4),
    FamilySpec("torus", dim=2, side=4),
    FamilySpec("grid", dim=2, side=4),
    FamilySpec("barbell", n=16),
    FamilySpec("random_regular", n=12, degree=3),
    FamilySpec("lower_bound", n=64, alpha=1.0),
    FamilySpec("path", n=2),
    FamilySpec("cycle", n=3),
    FamilySpec("binary_tree", levels=2),
    FamilySpec("hypercube", dim=1),
    FamilySpec("torus", dim=1, side=3),
    FamilySpec("torus", dim=3, side=3),
    FamilySpec("grid", dim=1, side=2),
    FamilySpec("grid", dim=3, side=3),
    FamilySpec("barbell", n=8),
    FamilySpec("random_regular", n=4, degree=3),
    FamilySpec("random_regular", n=30, degree=4),
    FamilySpec("lower_bound", n=16, alpha=4.0),
    FamilySpec("lower_bound", n=256, alpha=8.0),
]

INVALID_SPECS = [
    FamilySpec("nonsense", n=4),
    FamilySpec("path", n=1),
    FamilySpec("path"),
    FamilySpec("cycle", n=2),
    FamilySpec("binary_tree", levels=1),
    FamilySpec("hypercube", dim=0),
    FamilySpec("torus", side=3),
    FamilySpec("torus", dim=2, side=2),
    FamilySpec("torus", dim=0, side=4),
    FamilySpec("grid", dim=2, side=1),
    FamilySpec("barbell", n=10),
    FamilySpec("barbell", n=4),
    FamilySpec("random_regular", n=9, degree=3),
    FamilySpec("random_regular", n=12, degree=2),
    FamilySpec("random_regular", n=6, degree=6),
    FamilySpec("random_regular", n=16, degree=8),
    FamilySpec("random_regular", n=12),
    FamilySpec("lower_bound", n=64),
    FamilySpec("lower_bound", n=64, alpha=0.5),
    FamilySpec("lower_bound", n=8, alpha=1.0),
    FamilySpec("path", n="8"),
    FamilySpec("random_regular", n=12, degree="3"),
]


def graph_digest(g) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(g.indptr, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(g.indices, dtype=np.int64).tobytes())
    h.update(repr(sorted(g.meta.items())).encode())
    return h.hexdigest()


def family_cases():
    return {f"{spec.label()}@{seed}": graph_digest(generate(spec, seed=seed))
            for spec in FAMILY_SPECS for seed in (0, 11)}


def sweep_cases():
    config = parse_config(SWEEP_INI)
    out = {}
    for sweep in config.sweeps:
        for size in sweep.sizes:
            label = sweep.spec_for(size).label()
            seed = mix64(config.master_seed, hash_label(label))
            out[f"{sweep.family}:{size}"] = {
                "label": label, "seed": seed,
                "graph": graph_digest(generate(sweep.spec_for(size), seed))}
    return out


def invalid_cases():
    out = {}
    for spec in INVALID_SPECS:
        try:
            generate(spec, seed=0)
        except Exception as exc:  # the type is what the golden records
            out[spec.label()] = type(exc).__name__
        else:
            out[spec.label()] = None
    return out


def record() -> dict:
    return {"families": family_cases(), "sweep": sweep_cases(),
            "invalid": invalid_cases()}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


def test_family_graphs_match_golden(golden):
    assert family_cases() == golden["families"]


def test_sweep_points_match_golden(golden):
    assert sweep_cases() == golden["sweep"]


def test_invalid_specs_raise_golden_types(golden):
    assert invalid_cases() == golden["invalid"]


if __name__ == "__main__":
    with open(GOLDEN, "w") as handle:
        json.dump(record(), handle, indent=1, sort_keys=True)
        handle.write("\n")
