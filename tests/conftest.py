import numpy as np
import pytest

from coalwalk.graphs import FamilySpec, Graph, generate


def small_family_specs():
    """One modest instance per family, for property-style sweeps."""
    return [
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
    ]


@pytest.fixture(params=small_family_specs(), ids=lambda s: s.label())
def small_graph(request):
    return generate(request.param, seed=11)


# Neighbour rows handed straight to the graph arrays, past from_edges; the
# first five are the cases of test_flags_of_raw_rows.
RAW_ROWS = {
    "repeated": [[1, 1], [0, 0, 2], [1]],
    "self-loops": [[0, 1], [0, 1, 2], [1]],
    "unsorted": [[3, 1], [0, 2], [1, 3], [0, 2]],
    "asymmetric": [[1, 3], [0, 2], [1, 3], [2, 4], [3, 5], [2, 4]],
    "asymmetric-odd": [[1, 2], [0, 2], [1, 3], [1, 2]],
    "pull-only-misses": [[1], [2], [1]],  # 0 -> 1 only; 1 reaches 0 backwards
    "directed-cycle": [[1], [2], [3], [0]],
    "two-pairs": [[1], [0], [3], [2]],  # two components
    "own-row-only": [[2], [2], [0]],  # 1 is reached only along its own row
    "empty-row-reached": [[1], []],  # degree-0 row reached by a reversed row
    "empty-row-alone": [[1], [0], []],  # degree-0 row nobody reaches
    "all-empty": [[], [], []],
    "single": [[]],  # one vertex
}


def row_arrays(rows):
    """``indptr`` and ``indices`` of a list of neighbour rows."""
    return (np.cumsum([0] + [len(r) for r in rows]),
            np.concatenate([np.array(r, dtype=np.int64) for r in rows]))


def unchecked_graph(indptr, indices):
    """A Graph over the rows as given, built the way unpickling builds one:
    no connectivity check runs."""
    g = Graph.__new__(Graph)
    g.__setstate__({"indptr": indptr, "indices": indices, "meta": None})
    return g
