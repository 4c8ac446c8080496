import itertools
import math
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chisquare

from coalwalk import chain
from coalwalk.errors import (
    DisconnectedGraph,
    GenerationFailure,
    InvalidSpec,
    ParseError,
    SelfLoop,
)
from coalwalk.graphs import (
    FAMILIES,
    SPEC_PARAMS,
    FamilySpec,
    Graph,
    generate,
    load_edge_list,
    lower_bound_graph,
    lower_bound_report,
    subgraph,
    validate,
)
from coalwalk.seeding import mix64
from conftest import RAW_ROWS, row_arrays, small_family_specs, unchecked_graph


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

    def test_pairing_model_retry_budget(self, monkeypatch):
        # one pairing, not simple at degree 6 on 20 vertices here
        from coalwalk import graphs
        monkeypatch.setattr(graphs, "_RANDOM_REGULAR_TRIES", 1)
        rng = np.random.default_rng(0)
        with pytest.raises(GenerationFailure, match="in 1 tries$"):
            graphs._random_regular_edges(20, 6, rng)

    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_random_regular_builds_where_1000_pairings_failed(self, n):
        # about half these seeds draw 1000 5-regular pairings without a
        # simple one (seeds 0, 1, 3 at n = 8; 2, 3 at 10; 1, 2 at 12); the
        # graph is the complement of a 2- or 4-regular pairing at n = 8 and
        # 10, and a later 5-regular pairing at n = 12
        spec = FamilySpec("random_regular", n=n, degree=5)
        built = [generate(spec, seed=seed) for seed in range(4)]
        for seed, g in enumerate(built):
            assert validate(g).ok and g.deg_min == g.deg_max == 5
            assert g.indices.tobytes() == (
                generate(spec, seed=seed).indices.tobytes())
        assert len({g.indices.tobytes() for g in built}) == 4

    def test_random_regular_redraws_a_disconnected_pairing(self):
        # seed 183's first simple pairing at (8, 3) is two disjoint K4
        g = generate(FamilySpec("random_regular", n=8, degree=3), seed=183)
        assert validate(g).ok and g.deg_min == g.deg_max == 3

    @pytest.mark.parametrize("n, seed", [(9, 1), (11, 0), (14, 3)])
    def test_random_regular_at_degree_n_minus_1_is_the_clique(self, n, seed):
        # the complement of the empty pairing (d = 0)
        g = generate(FamilySpec("random_regular", n=n, degree=n - 1),
                     seed=seed)
        clique = generate(FamilySpec("clique", n=n))
        assert g.indptr.tobytes() == clique.indptr.tobytes()
        assert g.indices.tobytes() == clique.indices.tobytes()

    @pytest.mark.parametrize("n, seed", [(32, 2), (36, 0), (36, 2), (40, 0),
                                         (40, 1), (40, 2)])
    def test_random_regular_at_degree_n_minus_2(self, n, seed):
        # the complement of a perfect matching (d = 1)
        spec = FamilySpec("random_regular", n=n, degree=n - 2)
        g = generate(spec, seed=seed)
        assert validate(g).ok and g.deg_min == g.deg_max == n - 2
        again = generate(spec, seed=seed)
        assert g.indptr.tobytes() == again.indptr.tobytes()
        assert g.indices.tobytes() == again.indices.tobytes()

    @pytest.mark.parametrize("n, r, admissible", [
        (16, 7, "3..6 and 9..15"), (16, 8, "3..6 and 9..15"),
        (22, 14, "3..6 and 15..21")])
    def test_random_regular_refuses_degrees_it_cannot_sample(self, n, r,
                                                             admissible):
        # min(r, n - 1 - r) >= 7: a pairing is simple too rarely to draw
        with pytest.raises(InvalidSpec,
                           match=f"admissible degrees are {admissible}$"):
            generate(FamilySpec("random_regular", n=n, degree=r), seed=0)

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

    @pytest.mark.parametrize("spec, key", [
        (FamilySpec("cycle", n=8.5), "n"),
        (FamilySpec("path", n=6.0), "n"),
        (FamilySpec("torus", dim=2, side=4.5), "side"),
        (FamilySpec("grid", dim=2.0, side=3), "dim"),
        (FamilySpec("hypercube", dim=3.0), "dim"),
        (FamilySpec("binary_tree", levels=np.float64(3)), "levels"),
        (FamilySpec("random_regular", n=12, degree=3.0), "degree"),
        (FamilySpec("lower_bound", n=16.5, alpha=1.0), "n"),
        (FamilySpec("lower_bound", n=16, alpha="4"), "alpha"),
    ], ids=lambda v: v.label() if isinstance(v, FamilySpec) else v)
    def test_rejects_non_integer_fields(self, spec, key):
        with pytest.raises(InvalidSpec,
                           match=rf"^{spec.family}: bad parameter {key}$"):
            generate(spec, seed=0)

    def test_numpy_integer_fields_accepted(self):
        g = generate(FamilySpec("torus", dim=np.int64(2), side=np.int32(4)))
        assert g.indices.tobytes() == generate(
            FamilySpec("torus", dim=2, side=4)).indices.tobytes()

    @pytest.mark.parametrize("spec, key", [
        (FamilySpec("cycle", n=8, degree=5), "degree"),
        (FamilySpec("cycle", n=8, alpha=9.0), "alpha"),
        (FamilySpec("hypercube", dim=3, n=8), "n"),
        (FamilySpec("torus", dim=2, side=4, n=16), "n"),
        (FamilySpec("random_regular", n=10, degree=3, dim=2), "dim"),
        (FamilySpec("lower_bound", n=16, alpha=4.0, levels=3), "levels"),
    ], ids=lambda v: v.label() if isinstance(v, FamilySpec) else v)
    def test_rejects_fields_the_family_does_not_read(self, spec, key):
        with pytest.raises(InvalidSpec,
                           match=rf"^{spec.family}: bad parameter {key}$"):
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
                                         (1024, 1), (1024, 16), (9, 1),
                                         (16, 1), (36, 12)])
    def test_almost_regular(self, n, alpha):
        # n = 9 is the least size lower_bound_graph admits and 16 the least
        # generate admits; at (36, 12) the expander degree kappa equals its
        # side. The hub's fan-out lies in [1, 2 * side] at every admitted n.
        g = lower_bound_graph(n, alpha, seed=1)
        assert g.deg_max / g.deg_min <= 4.0
        meta = g.meta
        assert 1 <= meta["hub_g2_fanout"] <= 2 * meta["g2_side"]
        assert g.degrees[meta["hub"]] == meta["kappa"] + meta["hub_g2_fanout"]

    def test_too_small_rejected(self):
        with pytest.raises(InvalidSpec):
            lower_bound_graph(8, 1, seed=0)

    def test_expander_degree_above_side_rejected(self):
        # n = 64, alpha = 64: kappa = 8 cliques, expander side 4 < degree 8
        with pytest.raises(InvalidSpec, match="expander degree exceeds side"):
            lower_bound_graph(64, 64, seed=0)

    def test_report_needs_a_lower_bound_graph(self):
        with pytest.raises(InvalidSpec, match="not a lower_bound graph"):
            lower_bound_report(generate(FamilySpec("cycle", n=8)))

    def test_report_includes_expander_eigenvalue(self):
        g = lower_bound_graph(64, 1, seed=5)
        report = lower_bound_report(g)
        assert 0.5 <= report["g2_lambda2"] < 1.0  # lazy walk: >= 1/2
        assert report["degree_ratio"] <= 4.0


@pytest.mark.parametrize("make", [
    *[lambda s, n=n, r=r: generate(FamilySpec("random_regular", n=n,
                                              degree=r), seed=s)
      for n, r in [(12, 5), (6, 3), (20, 17)]],
    lambda s: generate(FamilySpec("random_regular", n=8, degree=3),
                       seed=183 + s),
    lambda s: lower_bound_graph(64, 4, seed=s)],
    ids=["rr-12-5-direct", "rr-6-3-complement", "rr-20-17-complement",
         "rr-8-3-redraw", "lower_bound-64-4"])
@pytest.mark.parametrize("seed", range(3))
def test_one_graph_built_per_generated_graph(monkeypatch, make, seed):
    # connectivity is judged on the drawn edges (graphs._joins), so the
    # returned graph is the only Graph built, and it is still validated;
    # seed 183 at (8, 3) redraws a disconnected pairing first
    built, init = [], Graph.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(Graph, "__init__", spy)
    g = make(seed)
    assert built == [g]


def _spec_dict_loop(spec):
    out = {"family": spec.family}
    for key in SPEC_PARAMS:
        val = getattr(spec, key)
        if val is not None:
            out[key] = val
    if spec.family == "lower_bound":
        out["alpha_floor"] = 4.0
    return out


def _spec_label_loop(spec):
    parts = [spec.family]
    for key in SPEC_PARAMS:
        val = getattr(spec, key)
        if val is not None:
            parts.append(f"{key}{val}")
    return "-".join(parts)


@pytest.mark.parametrize("spec", [
    *[FamilySpec(family, **row.defaults, **{row.size: row.least})
      for family, row in FAMILIES.items()],
    FamilySpec("lower_bound", n=1024, alpha=16.0)], ids=lambda s: s.label())
def test_spec_label_and_dict_match_field_loops(spec):
    assert spec.label() == _spec_label_loop(spec)
    assert list(spec.to_dict().items()) == list(
        _spec_dict_loop(spec).items())


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

    def test_blank_lines_skipped(self):
        g = load_edge_list("\n0 1\n\n   \n1 2\n\t\n2 0\n\n")
        assert (g.n, g.m) == (3, 3)

    def test_negative_id_rejected(self):
        with pytest.raises(ParseError, match="line 2: negative vertex id"):
            load_edge_list("0 1\n-1 2\n")

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

    # RAW_ROWS case -> (connected, bipartite, symmetric, simple)
    RAW_FLAGS = {
        "repeated": (True, True, True, False),
        "self-loops": (True, False, True, False),
        "unsorted": (True, True, True, False),
        "asymmetric": (True, True, False, True),
        "asymmetric-odd": (True, False, False, True),
    }

    @pytest.mark.parametrize("name", list(RAW_FLAGS))
    def test_flags_of_raw_rows(self, name):
        """Rows set straight into the graph arrays, as unpickling does;
        Graph(indptr, indices) refuses every one of them."""
        report = validate(unchecked_graph(*row_arrays(RAW_ROWS[name])))
        assert (report.connected, report.bipartite, report.symmetric,
                report.simple) == self.RAW_FLAGS[name]
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


@pytest.mark.parametrize("build", [
    lambda: Graph(np.array([0, 0]), np.array([], dtype=np.int64)),
    lambda: Graph.from_edges(1, []),
    lambda: subgraph(generate(FamilySpec("cycle", n=6)), [0]),
], ids=["rows", "from_edges", "subgraph"])
def test_one_vertex_graph_rejected(build):
    with pytest.raises(InvalidSpec, match="at least two vertices"):
        build()


@pytest.mark.parametrize("indptr, indices", [
    ([0, 1, 2], [1.7, 0.2]),
    ([0, 1, 2], [True, False]),
    ([0, 1, 2], [1, -2]),
    ([0, 1, 2], [1, 5]),
    ([0, 1, 2], [1, 0, 1, 0]),
    ([0, 2, 1, 2], [1, 2]),
    ([1, 2, 3], [1, 0]),
], ids=["float-ids", "bool-ids", "negative-id", "id-past-n",
        "indices-past-indptr", "indptr-descends", "indptr-not-from-0"])
def test_raw_arrays_refused(indptr, indices):
    with pytest.raises(InvalidSpec, match="indptr must be integers"):
        Graph(np.array(indptr), np.array(indices))


@pytest.mark.parametrize("indptr, indices", [
    ([0, 1, 2, 3], [1, 2, 0]),
    ([0, 2, 4, 6], [0, 1, 0, 2, 1, 2]),
    ([0, 2, 3, 4], [1, 1, 0, 0]),
    ([0, 2, 3, 4], [2, 1, 0, 0]),
], ids=["directed-3-cycle", "self-loops", "repeated-neighbour", "unsorted"])
def test_rows_not_simple_and_symmetric_refused(indptr, indices):
    """Rows in range but not those of a simple undirected graph: the
    directed 3-cycle would have pi summing to 1.5."""
    with pytest.raises(InvalidSpec, match="sorted, simple and symmetric"):
        Graph(np.array(indptr), np.array(indices))


def test_from_edges_rejects_out_of_range():
    with pytest.raises(ParseError):
        Graph.from_edges(3, [(0, 5)])


CYCLE6 = generate(FamilySpec("cycle", n=6))


@pytest.mark.parametrize("error, call", [
    (InvalidSpec, lambda: subgraph(CYCLE6, [-1, 0])),
    (InvalidSpec, lambda: subgraph(CYCLE6, [0.9, 1.2])),
    (InvalidSpec, lambda: subgraph(CYCLE6, [0, 7])),
    (ParseError, lambda: Graph.from_edges(3, [(0, 1.7), (1, 2)])),
    (ParseError, lambda: Graph.from_edges(3, np.array([[0.0, 1.0],
                                                       [1.0, 2.0]]))),
    (ParseError, lambda: Graph.from_edges(2, np.array([[False, True]]))),
    (InvalidSpec, lambda: Graph.from_edges(3.0, [(0, 1), (1, 2)])),
    (InvalidSpec, lambda: Graph.from_edges(2.5, [(0, 1)])),
    (InvalidSpec, lambda: Graph.from_edges(True, [(0, 1)])),
    (InvalidSpec, lambda: chain.collision_stats(CYCLE6, 2.9)),
    (InvalidSpec, lambda: chain.collision_stats(CYCLE6, True)),
    (InvalidSpec, lambda: chain.collision_stats(CYCLE6, -5)),
    (InvalidSpec, lambda: chain.collision_stats(CYCLE6, 0)),
    (InvalidSpec, lambda: lower_bound_graph(64.5, 4, 0)),
    (InvalidSpec, lambda: lower_bound_graph(0, 4, 0)),
    (InvalidSpec, lambda: lower_bound_graph(64, True, 0)),
    (InvalidSpec, lambda: lower_bound_graph(64, math.nan, 0)),
], ids=["subgraph-negative", "subgraph-float", "subgraph-above-n",
        "from_edges-float-pair", "from_edges-float-array",
        "from_edges-bool-array", "from_edges-float-n", "from_edges-n-2.5",
        "from_edges-bool-n", "window-float", "window-bool",
        "window-negative", "window-zero", "lower_bound-float-n",
        "lower_bound-zero-n", "lower_bound-bool-alpha",
        "lower_bound-nan-alpha"])
def test_ids_windows_and_sizes_are_checked_not_coerced(error, call):
    """A vertex id, vertex count, collision window or lower_bound size that
    is not an integer in range is refused, never truncated, wrapped or
    clamped."""
    with pytest.raises(error):
        call()


def test_pickle_round_trip_skips_validation(monkeypatch):
    import pickle

    from coalwalk import chain, graphs

    g = generate(FamilySpec("lower_bound", n=64, alpha=1.0), seed=3)
    chain._dense_transition(g)  # fill the cache; it must not travel
    assert g._cache
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


@pytest.mark.parametrize("spec", [
    FamilySpec("torus", dim=3, side=4),
    FamilySpec("random_regular", n=20, degree=3),
    FamilySpec("lower_bound", n=64, alpha=1.0),
], ids=lambda s: s.label())
def test_from_edges_list_and_array_agree(spec):
    """An (m, 2) array is read as is; a list of pairs, also reversed and
    repeated, gives the same rows."""
    g = generate(spec, seed=4)
    edges = g.edge_array()
    pairs = [tuple(e) for e in edges.tolist()]
    pairs += [(v, u) for u, v in pairs[::3]]
    for given in (edges, edges.astype(np.int32), pairs, iter(pairs)):
        again = Graph.from_edges(g.n, given)
        assert again.indptr.tobytes() == g.indptr.tobytes()
        assert again.indices.tobytes() == g.indices.tobytes()


# The formulas the grid builder and the pairing loop replaced, kept as
# oracles: each family's CSR bytes must equal those of its old edge list.

def _path_oracle(n):
    i = np.arange(n - 1)
    return np.column_stack([i, i + 1])


def _cycle_oracle(n):
    i = np.arange(n)
    return np.column_stack([i, (i + 1) % n])


def _hypercube_oracle(dim):
    ids = np.arange(2 ** dim)
    edges = np.concatenate([np.column_stack([ids, ids ^ (1 << b)])
                            for b in range(dim)])
    return edges[edges[:, 0] < edges[:, 1]]


def _binary_tree_oracle(levels):
    # the left children, then the right children
    parents = np.arange((2 ** levels - 2) // 2)
    return np.concatenate([np.column_stack([parents, 2 * parents + 1]),
                           np.column_stack([parents, 2 * parents + 2])])


def _barbell_oracle(n):
    k = n // 4
    path_ids = np.arange(2 * k, n)
    clique = np.column_stack(np.triu_indices(k, k=1))
    return np.concatenate([
        clique, clique + k, np.column_stack([path_ids[:-1], path_ids[1:]]),
        [[0, path_ids[0]], [k, path_ids[-1]]]])


def _lattice_oracle(dim, side, wrap):
    # most significant coordinate first, a branch each for wrap and not
    n = side ** dim
    ids = np.arange(n)
    coords = np.empty((dim, n), dtype=np.int64)
    rem = ids.copy()
    for d in range(dim - 1, -1, -1):
        coords[d] = rem % side
        rem //= side
    strides = side ** np.arange(dim - 1, -1, -1)
    chunks = []
    for d in range(dim):
        if wrap:
            nxt = ids + strides[d] * (((coords[d] + 1) % side) - coords[d])
            chunks.append(np.column_stack([ids, nxt]))
        else:
            keep = coords[d] + 1 < side
            chunks.append(np.column_stack([ids[keep], ids[keep] + strides[d]]))
    return np.concatenate(chunks)


def _lattice_specs(family, least):
    return [FamilySpec(family, dim=dim, side=side)
            for dim, top in ((1, 60), (2, 16), (3, 7))
            for side in range(least, top + 1)]


@pytest.mark.parametrize("specs, oracle", [
    ([FamilySpec("path", n=n) for n in range(2, 201)],
     lambda s: (s.n, _path_oracle(s.n))),
    ([FamilySpec("cycle", n=n) for n in range(3, 201)],
     lambda s: (s.n, _cycle_oracle(s.n))),
    ([FamilySpec("hypercube", dim=d) for d in range(1, 12)],
     lambda s: (2 ** s.dim, _hypercube_oracle(s.dim))),
    ([FamilySpec("binary_tree", levels=k) for k in range(2, 13)],
     lambda s: (2 ** s.levels - 1, _binary_tree_oracle(s.levels))),
    ([FamilySpec("barbell", n=n) for n in range(8, 401, 4)],
     lambda s: (s.n, _barbell_oracle(s.n))),
    (_lattice_specs("grid", 2),
     lambda s: (s.side ** s.dim, _lattice_oracle(s.dim, s.side, False))),
    (_lattice_specs("torus", 3),
     lambda s: (s.side ** s.dim, _lattice_oracle(s.dim, s.side, True))),
], ids=["path", "cycle", "hypercube", "binary_tree", "barbell", "grid",
        "torus"])
def test_generators_match_earlier_formulas(specs, oracle):
    for spec in specs:
        g = generate(spec)
        want = Graph.from_edges(*oracle(spec))
        assert g.indptr.tobytes() == want.indptr.tobytes(), spec.label()
        assert g.indices.tobytes() == want.indices.tobytes(), spec.label()


def _pairing_oracle(n, r, rng):
    """The pairing loop at d = min(r, n - 1 - r) with its three
    hand-written checks (a loop, a repeated edge, a split graph), the
    complement read from a dense adjacency matrix when d < r; True beside
    the edges when they are a complement."""
    from coalwalk import graphs

    d = min(r, n - 1 - r)
    stubs = np.repeat(np.arange(n), d)
    for _ in range(graphs._RANDOM_REGULAR_TRIES):
        pairs = rng.permutation(stubs).reshape(-1, 2)
        if np.any(pairs[:, 0] == pairs[:, 1]):
            continue
        canon = np.sort(pairs, axis=1)
        keyed = canon[:, 0] * n + canon[:, 1]
        if np.unique(keyed).size != keyed.size:
            continue
        if d < r:
            adj = ~np.eye(n, dtype=bool)
            adj[canon[:, 0], canon[:, 1]] = False
            canon = np.argwhere(np.triu(adj))
        try:
            Graph.from_edges(n, canon)
        except DisconnectedGraph:
            continue
        return canon, d < r
    raise AssertionError(f"no simple connected pairing at ({n}, {r})")


@pytest.mark.parametrize("n, r, seed, path", [
    (12, 3, 0, "pairing"), (12, 3, 5, "pairing"), (30, 4, 0, "pairing"),
    (30, 4, 7, "pairing"), (8, 3, 183, "pairing"), (8, 5, 0, "complement"),
    (32, 30, 2, "complement"), (16, 8, 0, "refused"),
])
def test_random_regular_matches_three_check_loop(n, r, seed, path):
    spec = FamilySpec("random_regular", n=n, degree=r)
    if path == "refused":
        with pytest.raises(InvalidSpec):
            generate(spec, seed=seed)
        return
    edges, complement = _pairing_oracle(n, r, np.random.default_rng(
        mix64(seed, n, r)))
    assert complement == (path == "complement")
    g = generate(spec, seed=seed)
    want = Graph.from_edges(n, edges)
    assert g.indptr.tobytes() == want.indptr.tobytes()
    assert g.indices.tobytes() == want.indices.tobytes()


def _adjacency(g):
    adj = np.zeros((g.n, g.n), dtype=np.int64)
    adj[np.repeat(np.arange(g.n), g.degrees), g.indices] = 1
    return adj


# Uniformity: every p-value must exceed this, fixed before any run.
_P_MIN = 1e-3


def test_random_regular_6_3_is_uniform():
    # complement path (d = 2): the 70 labelled cubic graphs on 6 vertices
    # (10 copies of K33 and 60 prisms), each about 40 times in 2800 seeds
    spec = FamilySpec("random_regular", n=6, degree=3)
    seen = Counter(generate(spec, seed=seed).indices.tobytes()
                   for seed in range(2800))
    assert len(seen) == 70
    assert chisquare(list(seen.values())).pvalue > _P_MIN


def test_random_regular_8_3_is_uniform():
    # rejection path (d = 3): the 5 connected cubic graphs on 8 vertices,
    # told apart by their adjacency spectra. Five distinct spectra are five
    # pairwise non-isomorphic graphs; their labelled counts 8!/|Aut| sum to
    # 19320, all the labelled connected cubic graphs on 8 vertices, so they
    # are every class and each spectrum holds exactly one
    spec = FamilySpec("random_regular", n=8, degree=3)
    adjs = np.array([_adjacency(generate(spec, seed=seed))
                     for seed in range(1600)])
    spectra = [tuple(row) for row in np.round(np.linalg.eigvalsh(adjs), 6)]
    seen = Counter(spectra)
    assert len(seen) == 5
    perms = np.array(list(itertools.permutations(range(8))))
    labelled = []
    for key in seen:
        adj = adjs[spectra.index(key)]
        aut = np.all(adj[perms[:, :, None], perms[:, None, :]] == adj,
                     axis=(1, 2)).sum()
        labelled.append(math.factorial(8) // int(aut))
    assert sorted(labelled) == [840, 2520, 2520, 3360, 10080]
    expected = 1600 * np.array(labelled) / 19320
    assert chisquare(list(seen.values()), expected).pvalue > _P_MIN


def _raw_rows(n, edges):
    """Sorted symmetric rows of an undirected edge array, unchecked."""
    u, v = np.asarray(edges, dtype=np.int64).reshape(-1, 2).T
    keys = np.unique(np.concatenate([u * n + v, v * n + u]))
    return np.searchsorted(keys, np.arange(n + 1) * n), keys % n


def _two_paths(k):
    i = np.arange(k - 1)
    path = np.column_stack([i, i + 1])
    return 2 * k, np.concatenate([path, path + k])


def _two_cliques(k, joined):
    iu = np.column_stack(np.triu_indices(k, 1))
    edges = [iu, iu + k] + ([np.array([[k - 1, k]])] if joined else [])
    return 2 * k, np.concatenate(edges)


def _random_sparse(n, m, seed):
    edges = np.random.default_rng(seed).integers(0, n, size=(m, 2))
    return n, edges[edges[:, 0] != edges[:, 1]]


class TestConnectivity:
    """graphs._is_connected against scipy's connected_components."""

    @staticmethod
    def check(indptr, indices):
        import scipy.sparse as sp
        from scipy.sparse.csgraph import connected_components, shortest_path

        from coalwalk import graphs

        raw = unchecked_graph(indptr, indices)
        n, indptr, indices = raw.n, raw.indptr, raw.indices
        adj = sp.csr_matrix((np.ones(indices.size), indices, indptr),
                            shape=(n, n))
        expect = connected_components(adj, directed=False)[0] == 1
        assert graphs._is_connected(raw) == expect
        report = validate(raw)
        assert report.connected == expect
        assert report.symmetric == ((adj != adj.T).nnz == 0)
        if expect:  # bipartite iff a BFS two-colouring, both ways, is proper
            depth = shortest_path(adj, directed=False, unweighted=True,
                                  indices=0) % 2
            src = np.repeat(np.arange(n), raw.degrees)
            assert report.bipartite == bool(
                np.all(depth[src] != depth[indices]))
        else:
            assert not report.bipartite
        if n < 2:
            with pytest.raises(InvalidSpec, match="at least two vertices"):
                Graph(indptr, indices)
        elif not (report.symmetric and report.simple):
            with pytest.raises(InvalidSpec, match="simple and symmetric"):
                Graph(indptr, indices)
        elif raw.deg_min < 1 or not expect:
            with pytest.raises(DisconnectedGraph):
                Graph(indptr, indices)
        else:
            Graph(indptr, indices)
        return expect

    @pytest.mark.parametrize("spec", small_family_specs() + [
        FamilySpec("path", n=4096), FamilySpec("cycle", n=4097),
        FamilySpec("binary_tree", levels=12)], ids=lambda s: s.label())
    def test_families(self, spec):
        g = generate(spec, seed=11)
        assert self.check(g.indptr, g.indices)

    def test_family_grid(self):
        from test_acceptance import family_grid

        for spec in family_grid():
            g = generate(spec, seed=11)
            assert self.check(g.indptr, g.indices), spec.label()

    @pytest.mark.parametrize("n, edges, expect", [
        (*_two_paths(2000), False),
        (*_two_cliques(40, joined=False), False),
        (*_two_cliques(40, joined=True), True),
        *[(*_random_sparse(300, m, seed), None)
          for m in (150, 300, 600, 1200) for seed in (1, 2)],
    ], ids=["two-paths-2000", "two-cliques", "joined-cliques",
            *[f"random-m{m}-s{s}" for m in (150, 300, 600, 1200)
              for s in (1, 2)]])
    def test_edge_sets(self, n, edges, expect):
        got = self.check(*_raw_rows(n, edges))
        assert expect is None or got == expect

    def test_path_in_random_order(self):
        order = np.random.default_rng(5).permutation(5000)
        edges = np.column_stack([order[:-1], order[1:]])
        assert self.check(*_raw_rows(5000, edges))
        assert not self.check(*_raw_rows(5000, edges[edges[:, 0] != 7]))

    @pytest.mark.parametrize("name", list(RAW_ROWS))
    def test_raw_rows(self, name):
        self.check(*row_arrays(RAW_ROWS[name]))

    def test_joins_matches_from_edges(self):
        # 10^4 random edge arrays on 2..9 vertices: repeated edges, rows
        # given one way only (u < v) or both, and the last vertex isolated
        from coalwalk import graphs

        rng = np.random.default_rng(32)
        seen = Counter()
        for _ in range(10**4):
            n = int(rng.integers(2, 10))
            isolated = rng.random() < 0.2
            edges = rng.integers(0, n - isolated,
                                 size=(int(rng.integers(0, 3 * n)), 2))
            edges = edges[edges[:, 0] != edges[:, 1]]
            one_way = rng.random() < 0.5
            if one_way:
                edges = np.sort(edges, axis=1)
            try:
                Graph.from_edges(n, edges)
                joined = True
            except DisconnectedGraph:
                joined = False
            assert graphs._joins(n, edges) == joined
            repeated = len(np.unique(np.sort(edges, axis=1), axis=0)) < len(
                edges)
            seen[joined, repeated, one_way, isolated] += 1
        assert all(seen[joined, repeated, one_way, False]
                   for joined in (True, False) for repeated in (True, False)
                   for one_way in (True, False))
        assert sum(seen[False, r, w, True] for r in (True, False)
                   for w in (True, False)) > 1000
