"""Graph construction, topology generators, and validation.

Graphs are immutable, simple, undirected, connected, and stored in
compressed-row adjacency form (``indptr``/``indices`` with sorted neighbor
lists). Generators cover the standard families (path, cycle, clique, star,
complete binary tree, hypercube, torus, grid, barbell, random regular) and
the composite clique/expander family whose coalescence time is much larger
than its meeting time. The path, cycle, hypercube, torus and grid are one
grid builder's graphs, wrapped or not, as is the barbell's path. All
generators are pure functions of (spec, seed) with byte-identical output
for identical inputs.

Building, checking and validating a graph needs numpy alone: connectivity
and bipartiteness are found by label propagation over the rows, and
symmetry by comparing the sorted keys of the entries both ways.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .errors import (
    DisconnectedGraph,
    GenerationFailure,
    InvalidSpec,
    ParseError,
    SelfLoop,
    is_integer,
)
from .seeding import mix64

# Families whose automorphism group acts transitively on vertices.
VERTEX_TRANSITIVE = frozenset({"cycle", "clique", "hypercube", "torus"})
# Families whose graph depends on the seed; the others ignore it.
SEEDED_FAMILIES = frozenset({"random_regular", "lower_bound"})
# lower_bound_graph builds with alpha' = max(alpha, _ALPHA_FLOOR).
_ALPHA_FLOOR = 4.0
# Pairings random_regular draws before GenerationFailure. At the largest
# admitted d = min(degree, n - 1 - degree), 6, a pairing is simple about
# once in 33 000 tries at n = 13 (the least n with d = 6), 23 500 at n = 15
# and 9 500 at n = 40, so 10**6 tries all fail with probability about
# e^-30 = 1e-13. At d = 7 a try would be about 25 times rarer again.
_RANDOM_REGULAR_TRIES = 10**6
# Sweeps of random transpositions that repair one bipartite matching.
_REPAIR_SWEEPS = 500


class Graph:
    """Immutable simple undirected connected graph (compressed rows) on
    n >= 2 vertices, so m >= 1 and every degree is at least 1. Rows that
    are unsorted, not simple or not symmetric are InvalidSpec.

    Attributes
    ----------
    n : int
        Vertex count; vertex ids are 0..n-1.
    m : int
        Edge count (undirected edges).
    indptr : ndarray, shape (n+1,)
        Row pointers; neighbors of u are ``indices[indptr[u]:indptr[u+1]]``.
    indices : ndarray, shape (2m,)
        Concatenated sorted neighbor lists.
    degrees : ndarray, shape (n,)
        Vertex degrees.
    meta : dict
        Generator metadata (family name, parameters, component layout).
    """

    __slots__ = ("n", "m", "indptr", "indices", "degrees",
                 "deg_min", "deg_max", "deg_avg", "meta", "_cache")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 meta: dict | None = None):
        if len(indptr) < 3:
            raise InvalidSpec("graph needs at least two vertices")
        indptr, indices = np.asarray(indptr), np.asarray(indices)
        if (indptr.dtype.kind not in "iu" or indices.dtype.kind not in "iu"
                or indptr[0] != 0 or indptr[-1] != indices.size
                or np.any(indptr[1:] < indptr[:-1]) or indices.size and not
                0 <= indices.min() <= indices.max() < indptr.size - 1):
            raise InvalidSpec("indptr must be integers ascending from 0 to "
                              "len(indices), indices integers in [0, n)")
        self.__setstate__({"indptr": indptr, "indices": indices,
                           "meta": meta})
        if not all(_row_flags(self)):
            raise InvalidSpec("rows must be sorted, simple and symmetric")
        if self.deg_min < 1:
            raise DisconnectedGraph("graph has an isolated vertex")
        if not _is_connected(self):
            raise DisconnectedGraph("graph is not connected")

    @classmethod
    def from_edges(cls, n: int,
                   edges: np.ndarray | Iterable[tuple[int, int]],
                   meta: dict | None = None) -> "Graph":
        """Build a graph from an (m, 2) integer array or (u, v) pairs.

        Duplicate edges and orientations are merged. A float, bool or out of
        range id is a ParseError; a self-loop is a SelfLoop, never dropped.
        """
        if not is_integer(n):
            raise InvalidSpec(f"n must be an integer, not {n!r}")
        arr = np.asarray(edges if isinstance(edges, np.ndarray)
                         else list(edges))
        if arr.size and (arr.dtype.kind not in "iu" or arr.min() < 0
                         or arr.max() >= n):
            raise ParseError("vertex ids must be integers in 0..n-1")
        arr = arr.astype(np.int64, copy=False).reshape(-1, 2)
        if arr.size and np.any(arr[:, 0] == arr[:, 1]):
            raise SelfLoop("edge list contains a self-loop")
        # each edge both ways as the key u * n + v, sorted, duplicates
        # dropped; row u holds the keys in [u * n, (u + 1) * n). np.unique
        # would do it, but takes over 20x longer on 50k keys (numpy 2.4).
        u, v = arr.T
        keys = np.sort(np.concatenate([u * n + v, v * n + u]))
        keys = keys[np.diff(keys, prepend=-1) > 0]
        indptr = np.searchsorted(keys, np.arange(n + 1) * n)
        return cls(indptr, keys % n, meta=meta)

    @property
    def family(self) -> str | None:
        return self.meta.get("family")

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    def check_vertices(self, vertices,
                       what: str = "start vertices") -> list[int]:
        """``vertices`` as a list of ints; InvalidSpec unless every vertex is
        an integer (``errors.is_integer``: no float, no bool) in [0, n)."""
        if not np.iterable(vertices):
            raise InvalidSpec(f"{what} must be a collection of vertex ids")
        vertices = list(vertices)
        if not all(is_integer(v) and 0 <= v < self.n for v in vertices):
            raise InvalidSpec(f"{what} must be integers in [0, {self.n})")
        return [int(v) for v in vertices]

    def edge_array(self) -> np.ndarray:
        """All undirected edges as an (m, 2) array with u < v."""
        src = np.repeat(np.arange(self.n), self.degrees)
        mask = src < self.indices
        return np.column_stack([src[mask], self.indices[mask]])

    def to_edge_list(self) -> str:
        return "\n".join(f"{u} {v}" for u, v in self.edge_array()) + "\n"

    def __repr__(self) -> str:
        fam = self.meta.get("family", "graph")
        return f"Graph({fam}, n={self.n}, m={self.m})"

    def __getstate__(self):
        return {"indptr": self.indptr, "indices": self.indices,
                "meta": self.meta}

    def __setstate__(self, state):
        """Set the fields from compressed rows; no validation runs, so an
        unpickled graph is trusted as the validated graph it was."""
        indptr = np.ascontiguousarray(state["indptr"], dtype=np.int64)
        indices = np.ascontiguousarray(state["indices"], dtype=np.int64)
        self.n = indptr.shape[0] - 1
        self.m = indices.shape[0] // 2
        self.indptr = indptr
        self.indices = indices
        self.degrees = np.diff(indptr)
        self.deg_min = int(self.degrees.min())
        self.deg_max = int(self.degrees.max())
        self.deg_avg = 2.0 * self.m / self.n
        self.meta = dict(state["meta"] or {})
        self._cache = {}
        indptr.setflags(write=False)
        indices.setflags(write=False)
        self.degrees.setflags(write=False)


def _labels(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Least vertex id of each vertex's component, reading each row as
    undirected edges both ways.

    Every vertex starts as its own label, the root of a forest whose
    parents are smaller ids. Each pass takes, per non-empty row, the least
    and greatest label among its entries; the row's root is hooked under
    the least, and the greatest label's root under the row's own, so
    labels flow along reversed rows too. Pointer jumping then points every
    vertex at its root. A pass hooks every root whose rows see a smaller
    label, so the passes grow like log n: 14 on a path of 10^6 vertices
    labelled in random order.
    """
    rows = np.flatnonzero(np.diff(indptr))
    starts = indptr[rows]
    label = np.arange(indptr.size - 1)
    while rows.size:
        seen, own = label[indices], label[rows]
        lo = np.minimum.reduceat(seen, starts)
        hi = np.maximum.reduceat(seen, starts)
        if np.array_equal(lo, own) and np.array_equal(hi, own):
            break
        np.minimum.at(label, own, lo)
        np.minimum.at(label, hi, own)
        while not np.array_equal(jump := label[label], label):
            label = jump
    return label


def _is_connected(g: Graph) -> bool:
    """One component when each row is read as undirected edges both ways."""
    return not _labels(g.indptr, g.indices).any()


def _joins(n: int, edges: np.ndarray) -> bool:
    """Whether the (m, 2) ``edges``, read both ways, join all n vertices into
    one component: ``_labels`` on their rows sorted by the first column."""
    edges = edges[np.argsort(edges[:, 0])]
    return not _labels(np.searchsorted(edges[:, 0], np.arange(n + 1)),
                       edges[:, 1]).any()


@dataclass(frozen=True)
class DiagnosticsReport:
    n: int
    m: int
    deg_max: int
    deg_min: int
    deg_avg: float
    degree_ratio: float
    connected: bool
    bipartite: bool
    symmetric: bool
    simple: bool

    @property
    def ok(self) -> bool:
        return self.connected and self.symmetric and self.simple


def _row_flags(g: Graph) -> tuple[bool, bool]:
    """(symmetric, simple) of the rows, from the keys u * n + v of their
    entries u -> v: sorted rows without repeats make the keys ascend
    strictly, and each entry needs its v -> u, repeats counted."""
    src = np.repeat(np.arange(g.n), g.degrees)
    keys = src * g.n + g.indices
    simple = bool(np.all(keys[1:] > keys[:-1]) and np.all(src != g.indices))
    symmetric = np.array_equal(keys if simple else np.sort(keys),
                               np.sort(g.indices * g.n + src))
    return symmetric, simple


def validate(g: Graph) -> DiagnosticsReport:
    """Recompute structural diagnostics from the raw arrays.

    Never raises; failures are carried in the report flags.
    """
    symmetric, simple = _row_flags(g)
    connected = _is_connected(g)
    # a connected graph is bipartite iff its bipartite double cover, u and
    # u + n for each vertex u and an edge u - (v + n) for each edge u - v,
    # falls into two components
    bipartite = connected and bool(_labels(
        np.concatenate([g.indptr, g.indptr[1:] + g.indices.size]),
        np.concatenate([g.indices + g.n, g.indices])).any())
    return DiagnosticsReport(
        n=g.n, m=g.m, deg_max=g.deg_max, deg_min=g.deg_min, deg_avg=g.deg_avg,
        degree_ratio=g.deg_max / g.deg_min if g.deg_min else math.inf,
        connected=connected, bipartite=bipartite,
        symmetric=symmetric, simple=simple)


def load_edge_list(text: str) -> Graph:
    """Parse whitespace-separated "u v" pairs (0-based ids) into a Graph."""
    edges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: non-integer vertex id") from exc
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: negative vertex id")
        if u == v:
            raise SelfLoop(f"line {lineno}: self-loop at vertex {u}")
        edges.append((u, v))
    if not edges:
        raise ParseError("edge list is empty")
    n = int(max(max(u, v) for u, v in edges)) + 1
    return Graph.from_edges(n, edges, meta={"family": "edge_list"})


# ---------------------------------------------------------------------------
# Family specs and generators
# ---------------------------------------------------------------------------

# The FamilySpec fields that name an instance, in label order.
SPEC_PARAMS = ("n", "levels", "dim", "side", "degree", "alpha")


@dataclass(frozen=True)
class FamilySpec:
    """Parameters of one graph family instance.

    ``FAMILIES`` gives each family's size parameter and the other fields
    it needs. ``to_dict`` of a lower_bound spec also records the floor
    ``alpha_floor`` (4.0) that its construction applies to ``alpha``.
    """
    family: str
    n: int | None = None
    levels: int | None = None
    dim: int | None = None
    side: int | None = None
    degree: int | None = None
    alpha: float | None = None

    def _given(self) -> dict:
        """The SPEC_PARAMS fields that are set, in label order."""
        return {key: getattr(self, key) for key in SPEC_PARAMS
                if getattr(self, key) is not None}

    def to_dict(self) -> dict:
        out = {"family": self.family, **self._given()}
        if self.family == "lower_bound":
            out["alpha_floor"] = _ALPHA_FLOOR
        return out

    def label(self) -> str:
        return "-".join([self.family, *(f"{key}{val}" for key, val
                                        in self._given().items())])


def _clique_edges(n):
    iu = np.triu_indices(n, k=1)
    return np.column_stack(iu)


def _star_edges(n):
    i = np.arange(1, n)
    return np.column_stack([np.zeros(n - 1, dtype=np.int64), i])


def _binary_tree_edges(levels):
    # each vertex c >= 1 joins its parent (c - 1) // 2
    c = np.arange(1, 2 ** levels - 1)
    return np.column_stack([(c - 1) // 2, c])


def _lattice_edges(dim, side, wrap):
    """Edges of the grid of side ** dim vertices: vertex sum_d c_d * side**d
    joins the vertex one step up each axis d, and with ``wrap`` the last
    vertex of an axis joins its first. The grid families: path (1, n),
    cycle (1, n) wrapped, hypercube (dim, 2), torus (wrapped) and grid."""
    ids = np.arange(side ** dim)
    chunks = []
    for d in range(dim):
        coord = ids // side ** d % side
        keep = wrap | (coord + 1 < side)
        nxt = ids + side ** d * ((coord + 1) % side - coord)
        chunks.append(np.column_stack([ids, nxt])[keep])
    return np.concatenate(chunks, axis=0)


def _barbell_edges(n):
    # Two cliques of n/4 vertices each, joined by a path of n/2 fresh
    # vertices; the path end vertices attach to one vertex per clique, so
    # every path vertex has degree 2.
    k = n // 4
    left = _clique_edges(k)
    right = _clique_edges(k) + k
    chain = _lattice_edges(1, n - 2 * k, wrap=False) + 2 * k
    joins = np.array([[0, 2 * k], [k, n - 1]])
    return np.concatenate([left, right, chain, joins], axis=0)


def _random_regular_edges(n, r, rng):
    # Pairing (configuration) model at d = min(r, n - 1 - r): a pairing of
    # the n * d stubs with no loop and no repeated edge is uniform over the
    # simple d-regular graphs, since each has (d!)^n pairings, and taking
    # the complement when d < r maps them one to one onto the r-regular
    # graphs (d = 0 gives K_n). A try that is not simple, or whose r-regular
    # edges do not join all n vertices (``_joins``: no Graph is built for
    # it), is drawn again: uniform over the simple connected ones.
    d = min(r, n - 1 - r)
    stubs = np.repeat(np.arange(n), d)
    for _ in range(_RANDOM_REGULAR_TRIES):
        pairs = rng.permutation(stubs).reshape(-1, 2)
        x, y = pairs.T
        keys = np.sort(np.minimum(x, y) * n + np.maximum(x, y))
        if np.any(x == y) or np.any(np.diff(keys) == 0):
            continue
        if d < r:
            every = _clique_edges(n)
            pairs = every[~np.isin(every[:, 0] * n + every[:, 1], keys)]
        if _joins(n, pairs):
            return pairs
    raise GenerationFailure(f"random_regular(n={n}, degree={r}): no simple "
                            f"connected pairing in {_RANDOM_REGULAR_TRIES} "
                            f"tries")


def _bipartite_regular_edges(s, r, rng):
    """Union of r random perfect matchings between two sides of size s.

    Each new permutation is repaired by random transpositions until it
    reuses no (left, right) pair from earlier matchings.
    """
    used = np.zeros((s, s), dtype=bool)
    rows = np.arange(s)
    chunks = []
    for _ in range(r):
        sigma = rng.permutation(s)
        for _ in range(_REPAIR_SWEEPS):
            bad = np.flatnonzero(used[rows, sigma])
            if bad.size == 0:
                break
            swaps = rng.integers(0, s, size=bad.size)
            for i, j in zip(bad, swaps):
                sigma[i], sigma[j] = sigma[j], sigma[i]
        else:
            raise GenerationFailure("bipartite matching repair did not settle")
        used[rows, sigma] = True
        chunks.append(np.column_stack([rows, s + sigma]))
    return np.concatenate(chunks, axis=0)


def lower_bound_graph(n: int, alpha: float, seed: int) -> Graph:
    """Composite clique/expander graph with slow coalescence.

    Layout: kappa = ceil(sqrt(n)) cliques of ceil(sqrt(n)) vertices each,
    then a random bipartite ceil(sqrt(n))-regular expander on roughly
    n/sqrt(alpha') vertices, then a single hub vertex. The hub is wired to
    one designated vertex per clique and to ceil(sqrt(n/alpha')) distinct
    expander vertices. alpha' = max(alpha, _ALPHA_FLOOR) with the floor
    fixed at 4: the theoretical floor constant is far too conservative at
    these sizes. All fractional sizes round up, making the construction
    reproducible bit for bit. The cliques, their hub edges and the meta are
    built once; an attempt draws the expander, accepted when its own edges
    join all its vertices (``_joins``): a connected expander makes the whole
    graph connected. Then it draws the hub's expander vertices.
    """
    if not (is_integer(n) and is_integer(alpha, Real)
            and n >= 1 and alpha >= 1):  # NaN fails alpha >= 1
        raise InvalidSpec("lower_bound: n must be an integer and alpha a "
                          "real, both >= 1")
    alpha_eff = max(float(alpha), _ALPHA_FLOOR)
    kappa = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
    clique_size = kappa
    g2_target = math.ceil(n / math.sqrt(alpha_eff))
    side = math.ceil(g2_target / 2)
    r = kappa
    hub_fanout = math.ceil(math.sqrt(n / alpha_eff))  # in [1, 2 * side]
    if clique_size < 3 or side < 3:
        raise InvalidSpec("lower_bound: n too small, a component collapsed")
    if r > side:
        raise InvalidSpec("lower_bound: expander degree exceeds side size")

    g2_base = kappa * clique_size
    hub = g2_base + 2 * side
    proto = _clique_edges(clique_size)
    cliques = [proto + i * clique_size for i in range(kappa)]
    clique_hub = np.column_stack([np.arange(kappa) * clique_size,
                                  np.full(kappa, hub, dtype=np.int64)])
    meta = {
        "family": "lower_bound", "n_param": n, "alpha": float(alpha),
        "alpha_effective": alpha_eff, "kappa": kappa,
        "clique_size": clique_size, "g2_side": side, "g2_degree": r,
        "g2_range": (g2_base, g2_base + 2 * side), "hub": hub,
        "hub_g2_fanout": hub_fanout, "seed": seed,
    }
    for attempt in range(50):
        rng = np.random.default_rng(mix64(seed, attempt))
        g2_edges = _bipartite_regular_edges(side, r, rng)
        if not _joins(2 * side, g2_edges):
            continue
        g2_hub = g2_base + np.sort(rng.choice(2 * side, size=hub_fanout,
                                              replace=False))
        edges = np.concatenate([*cliques, g2_edges + g2_base, clique_hub,
                                np.column_stack([g2_hub, np.full(
                                    hub_fanout, hub, dtype=np.int64)])])
        return Graph.from_edges(hub + 1, edges, meta=meta)
    raise GenerationFailure("lower_bound: no connected instance in 50 attempts")


def subgraph(g: Graph, vertices: np.ndarray) -> Graph:
    """Induced subgraph on the given vertices, relabeled 0..k-1."""
    vertices = np.asarray(sorted(set(g.check_vertices(vertices, "vertices"))),
                          dtype=np.int64)
    lookup = -np.ones(g.n, dtype=np.int64)
    lookup[vertices] = np.arange(vertices.size)
    edges = g.edge_array()
    keep = (lookup[edges[:, 0]] >= 0) & (lookup[edges[:, 1]] >= 0)
    sub = lookup[edges[keep]]
    return Graph.from_edges(vertices.size, sub, meta={"family": "subgraph"})


def lower_bound_report(g: Graph) -> dict:
    """Component stats for a lower_bound graph, including the realized
    second eigenvalue of the expander block (reported, never assumed)."""
    if g.meta.get("family") != "lower_bound":
        raise InvalidSpec("not a lower_bound graph")
    from .chain import spectral  # local import to avoid a cycle

    lo, hi = g.meta["g2_range"]
    g2 = subgraph(g, np.arange(lo, hi))
    summary = spectral(g2)
    report = dict(g.meta)
    report["g2_lambda2"] = summary.lambda2
    report["degree_ratio"] = g.deg_max / g.deg_min
    return report


class Family(NamedTuple):
    """One row of ``FAMILIES``."""
    size: str        # the FamilySpec field a sweep's size list feeds
    least: int       # the least admitted value of that field
    defaults: dict   # the other fields it needs, as a CLI sweep fills them
    # (spec, seed) -> (vertex count, edges); None for lower_bound, which
    # lower_bound_graph builds with its own layout meta.
    build: Callable | None


def _random_regular(spec, seed):
    rng = np.random.default_rng(mix64(seed, spec.n, spec.degree))
    return spec.n, _random_regular_edges(spec.n, spec.degree, rng)


FAMILIES = {
    "path": Family("n", 2, {}, lambda s, _: (
        s.n, _lattice_edges(1, s.n, wrap=False))),
    "cycle": Family("n", 3, {}, lambda s, _: (
        s.n, _lattice_edges(1, s.n, wrap=True))),
    "clique": Family("n", 2, {}, lambda s, _: (s.n, _clique_edges(s.n))),
    "star": Family("n", 2, {}, lambda s, _: (s.n, _star_edges(s.n))),
    "binary_tree": Family("levels", 2, {}, lambda s, _: (
        2 ** s.levels - 1, _binary_tree_edges(s.levels))),
    "hypercube": Family("dim", 1, {}, lambda s, _: (
        2 ** s.dim, _lattice_edges(s.dim, 2, wrap=False))),
    "torus": Family("side", 3, {"dim": 2}, lambda s, _: (
        s.side ** s.dim, _lattice_edges(s.dim, s.side, wrap=True))),
    "grid": Family("side", 2, {"dim": 2}, lambda s, _: (
        s.side ** s.dim, _lattice_edges(s.dim, s.side, wrap=False))),
    "barbell": Family("n", 8, {}, lambda s, _: (s.n, _barbell_edges(s.n))),
    "random_regular": Family("n", 4, {"degree": 3}, _random_regular),
    "lower_bound": Family("n", 16, {"alpha": 1.0}, None),
}


def generate(spec: FamilySpec, seed: int = 0) -> Graph:
    """Build the graph described by ``spec``.

    The one check of a spec: an unknown family, a set field that is not
    the family's size field or a key of its ``FAMILIES`` defaults, a field
    that fails ``errors.is_integer`` (for ``alpha``, of kind ``Real``), and
    a missing or out-of-range field are each InvalidSpec.
    ``seed`` only matters for the families in ``SEEDED_FAMILIES``; the
    others ignore it.
    """
    row = FAMILIES.get(spec.family)
    if row is None:
        raise InvalidSpec(f"unknown family {spec.family!r}")

    def need(name, ok):
        if not ok:
            raise InvalidSpec(f"{spec.family}: bad parameter {name}")

    for key in SPEC_PARAMS:
        val = getattr(spec, key)
        kind = Real if key == "alpha" else Integral
        ok = is_integer(val, kind) and (key == row.size or key in row.defaults)
        need(key, val is None or ok)
    if "dim" in row.defaults:
        need("dim", spec.dim is not None and spec.dim >= 1)
    size = getattr(spec, row.size)
    need(row.size, size is not None and size >= row.least
         and (spec.family != "barbell" or size % 4 == 0))
    if spec.family == "random_regular":
        need("degree", spec.degree is not None and 3 <= spec.degree < spec.n)
        if (spec.n * spec.degree) % 2 != 0:
            raise InvalidSpec("random_regular: n*degree must be even")
        if min(spec.degree, spec.n - 1 - spec.degree) > 6:
            raise InvalidSpec(
                f"random_regular: degree {spec.degree} on {spec.n} vertices "
                f"is not sampled; the admissible degrees are 3..6 and "
                f"{spec.n - 7}..{spec.n - 1}")
    if spec.family == "lower_bound":
        need("alpha", spec.alpha is not None and spec.alpha >= 1)
        return lower_bound_graph(spec.n, spec.alpha, seed)
    n, edges = row.build(spec, seed)
    return Graph.from_edges(n, edges, meta=spec.to_dict())
