import math

import numpy as np
import pytest

from coalwalk.errors import (
    DisconnectedGraph,
    GenerationFailure,
    InvalidSpec,
    ParseError,
    SelfLoop,
)
from coalwalk.graphs import (
    FAMILIES,
    FamilySpec,
    Graph,
    generate,
    load_edge_list,
    lower_bound_graph,
    lower_bound_report,
    subgraph,
    validate,
)
from conftest import small_family_specs


def bfs_reaches_all(g):
    seen = np.zeros(g.n, dtype=bool)
    seen[0] = True
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in g.neighbors(u):
                if not seen[v]:
                    seen[v] = True
                    nxt.append(int(v))
        frontier = nxt
    return bool(seen.all())


class TestGenerators:
    def test_cycle4(self):
        g = generate(FamilySpec("cycle", n=4))
        assert g.n == 4 and g.m == 4
        assert set(g.degrees.tolist()) == {2}

    def test_hypercube3(self):
        g = generate(FamilySpec("hypercube", dim=3))
        assert g.n == 8 and g.m == 12
        assert set(g.degrees.tolist()) == {3}

    def test_barbell16_two_k4_and_path8(self):
        g = generate(FamilySpec("barbell", n=16))
        assert g.n == 16
        # two K4 blocks, an 8-vertex path chain, and two joining edges
        assert g.m == 2 * 6 + 7 + 2
        report = validate(g)
        assert report.deg_max == 4 and report.deg_min == 2
        # all 8 path vertices have degree 2
        assert (g.degrees[8:] == 2).sum() == 8

    def test_binary_tree_counts(self):
        g = generate(FamilySpec("binary_tree", levels=5))
        assert g.n == 2 ** 5 - 1
        assert g.m == g.n - 1
        assert sorted(set(g.degrees.tolist())) == [1, 2, 3]

    def test_torus_and_grid(self):
        torus = generate(FamilySpec("torus", dim=3, side=3))
        assert torus.n == 27 and set(torus.degrees.tolist()) == {6}
        grid = generate(FamilySpec("grid", dim=2, side=3))
        assert grid.n == 9 and grid.m == 12

    def test_random_regular_degrees(self):
        g = generate(FamilySpec("random_regular", n=20, degree=3), seed=2)
        assert set(g.degrees.tolist()) == {3}

    def test_generator_invariants(self, small_graph):
        g = small_graph
        report = validate(g)
        assert report.ok
        assert int(g.degrees.sum()) == 2 * g.m
        assert bfs_reaches_all(g)

    @pytest.mark.parametrize("spec", [
        FamilySpec("cycle", n=9),
        FamilySpec("clique", n=7),
        FamilySpec("hypercube", dim=4),
        FamilySpec("torus", dim=2, side=5),
    ], ids=lambda s: s.label())
    def test_vertex_transitive_families_regular(self, spec):
        g = generate(spec)
        assert g.deg_min == g.deg_max

    def test_pairing_model_retry_budget(self):
        from coalwalk.graphs import _random_regular_edges
        rng = np.random.default_rng(0)
        with pytest.raises(GenerationFailure):
            _random_regular_edges(8, 3, rng, retries=0)

    def test_determinism_byte_identical(self):
        spec = FamilySpec("random_regular", n=30, degree=4)
        a = generate(spec, seed=9)
        b = generate(spec, seed=9)
        assert a.indices.tobytes() == b.indices.tobytes()
        assert a.indptr.tobytes() == b.indptr.tobytes()
        c = generate(spec, seed=10)
        assert c.indices.tobytes() != a.indices.tobytes()

    @pytest.mark.parametrize("spec", [
        FamilySpec("cycle", n=2),
        FamilySpec("path", n=1),
        FamilySpec("torus", dim=2, side=2),
        FamilySpec("barbell", n=10),
        FamilySpec("random_regular", n=9, degree=3),
        FamilySpec("random_regular", n=12, degree=2),
        FamilySpec("nonsense", n=4),
    ], ids=str)
    def test_invalid_specs(self, spec):
        with pytest.raises(InvalidSpec):
            generate(spec, seed=0)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_family_table_least_size(self, family):
        row = FAMILIES[family]
        g = generate(FamilySpec(family, **row.defaults, **{row.size: row.least}),
                     seed=1)
        assert validate(g).ok
        with pytest.raises(InvalidSpec):
            generate(FamilySpec(family, **row.defaults,
                                **{row.size: row.least - 1}), seed=1)


class TestLowerBoundFamily:
    def test_component_counts_1024(self):
        g = lower_bound_graph(1024, 4, seed=3)
        meta = g.meta
        assert meta["kappa"] == 32 and meta["clique_size"] == 32
        assert meta["g2_side"] == 256 and meta["g2_degree"] == 32
        assert g.n == 32 * 32 + 512 + 1
        hub_degree = int(g.degrees[meta["hub"]])
        assert hub_degree == 32 + math.isqrt(256)

    def test_smallest_admitted_instance(self):
        g = lower_bound_graph(64, 1, seed=5)
        assert validate(g).ok

    def test_determinism(self):
        a = lower_bound_graph(256, 2, seed=17)
        b = lower_bound_graph(256, 2, seed=17)
        assert a.indices.tobytes() == b.indices.tobytes()

    @pytest.mark.parametrize("n,alpha", [(64, 1), (256, 4), (256, 16),
                                         (1024, 1), (1024, 16)])
    def test_almost_regular(self, n, alpha):
        g = lower_bound_graph(n, alpha, seed=1)
        assert g.deg_max / g.deg_min <= 4.0

    def test_too_small_rejected(self):
        with pytest.raises(InvalidSpec):
            lower_bound_graph(8, 1, seed=0)

    def test_report_includes_expander_eigenvalue(self):
        g = lower_bound_graph(64, 1, seed=5)
        report = lower_bound_report(g)
        assert 0.5 <= report["g2_lambda2"] < 1.0  # lazy walk: >= 1/2
        assert report["degree_ratio"] <= 4.0


class TestEdgeList:
    def test_triangle(self):
        g = load_edge_list("0 1\n1 2\n2 0")
        assert g.n == 3 and g.m == 3

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop):
            load_edge_list("0 0")

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraph):
            load_edge_list("0 1\n2 3")

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            load_edge_list("0 x")
        with pytest.raises(ParseError):
            load_edge_list("0 1 2")
        with pytest.raises(ParseError):
            load_edge_list("")

    def test_duplicate_edges_merged(self):
        g = load_edge_list("0 1\n1 0\n0 1\n1 2\n2 0")
        assert g.m == 3

    def test_roundtrip(self):
        g = generate(FamilySpec("torus", dim=2, side=3))
        again = load_edge_list(g.to_edge_list())
        assert again.indices.tobytes() == g.indices.tobytes()


class TestValidate:
    def test_star_diagnostics(self):
        report = validate(generate(FamilySpec("star", n=5)))
        assert report.deg_max == 4 and report.deg_min == 1
        assert report.degree_ratio == 4.0
        assert report.bipartite

    def test_cycle8_diagnostics(self):
        report = validate(generate(FamilySpec("cycle", n=8)))
        assert report.deg_max == report.deg_min == 2
        assert report.degree_ratio == 1.0
        assert report.bipartite

    def test_odd_cycle_not_bipartite(self):
        assert not validate(generate(FamilySpec("cycle", n=9))).bipartite

    @pytest.mark.parametrize("rows, flags", [
        # neighbour rows -> (connected, bipartite, symmetric, simple)
        ([[1, 1], [0, 0, 2], [1]], (True, True, True, False)),
        ([[0, 1], [0, 1, 2], [1]], (True, False, True, False)),
        ([[3, 1], [0, 2], [1, 3], [0, 2]], (True, True, True, False)),
        ([[1, 3], [0, 2], [1, 3], [2, 4], [3, 5], [2, 4]],
         (True, True, False, True)),
        ([[1, 2], [0, 2], [1, 3], [1, 2]], (True, False, False, True)),
    ], ids=["repeated", "self-loops", "unsorted", "asymmetric",
            "asymmetric-odd"])
    def test_flags_of_raw_rows(self, rows, flags):
        """Rows given straight to Graph(indptr, indices), past from_edges."""
        g = Graph(np.cumsum([0] + [len(r) for r in rows]), np.concatenate(rows))
        report = validate(g)
        assert (report.connected, report.bipartite, report.symmetric,
                report.simple) == flags
        assert not report.ok

    @pytest.mark.parametrize("spec", small_family_specs() + [
        FamilySpec("cycle", n=8), FamilySpec("cycle", n=9)],
        ids=lambda s: s.label())
    def test_bipartite_matches_two_colouring(self, spec):
        g = generate(spec, seed=11)
        colour = {0: 0}
        queue = [0]
        for u in queue:  # BFS, colouring each vertex when first reached
            for v in g.neighbors(u).tolist():
                if v not in colour:
                    colour[v] = 1 - colour[u]
                    queue.append(v)
        proper = all(colour[u] != colour[v] for u, v in g.edge_array().tolist())
        assert validate(g).bipartite == proper


def test_subgraph_relabels():
    g = generate(FamilySpec("cycle", n=6))
    sub = subgraph(g, [0, 1, 2, 3])
    assert sub.n == 4 and sub.m == 3


def test_family_spec_dict_roundtrip():
    spec = FamilySpec("random_regular", n=20, degree=3)
    assert FamilySpec.from_dict(spec.to_dict()) == spec
    lb = FamilySpec("lower_bound", n=64, alpha=2.0)
    again = FamilySpec.from_dict(lb.to_dict())
    assert again.alpha == 2.0 and again.alpha_floor == 4.0


def test_from_edges_rejects_out_of_range():
    with pytest.raises(ParseError):
        Graph.from_edges(3, [(0, 5)])


def test_pickle_round_trip_skips_validation(monkeypatch):
    import pickle

    from coalwalk import graphs

    g = generate(FamilySpec("lower_bound", n=64, alpha=1.0), seed=3)
    g.adjacency()  # fill the cache; it must not travel
    data = pickle.dumps(g)

    def fail(_):
        raise AssertionError("_is_connected ran on an unpickled graph")

    monkeypatch.setattr(graphs, "_is_connected", fail)
    again = pickle.loads(data)
    assert np.array_equal(again.indptr, g.indptr)
    assert np.array_equal(again.indices, g.indices)
    assert again.meta == g.meta
    assert again._cache == {}
    assert (again.n, again.m, again.deg_min, again.deg_max, again.deg_avg) == (
        g.n, g.m, g.deg_min, g.deg_max, g.deg_avg)
    assert not again.indices.flags.writeable
