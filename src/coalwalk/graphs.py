"""Graph construction, topology generators, and validation.

Graphs are immutable, simple, undirected, connected, and stored in
compressed-row adjacency form (``indptr``/``indices`` with sorted neighbor
lists). Generators cover the standard families (path, cycle, clique, star,
complete binary tree, hypercube, torus, grid, barbell, random regular) and
the composite clique/expander family whose coalescence time is much larger
than its meeting time. All generators are pure functions of (spec, seed)
with byte-identical output for identical inputs.

Building, checking and validating a graph needs numpy alone: connectivity
and bipartiteness are found by label propagation over the rows, and
symmetry by comparing the sorted keys of the entries both ways.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .errors import (
    DisconnectedGraph,
    GenerationFailure,
    InvalidSpec,
    ParseError,
    SelfLoop,
)
from .seeding import mix64

# Families whose automorphism group acts transitively on vertices.
VERTEX_TRANSITIVE = frozenset({"cycle", "clique", "hypercube", "torus"})


class Graph:
    """Immutable simple undirected connected graph (compressed rows).

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
        if len(indptr) < 2:
            raise InvalidSpec("graph needs at least one vertex")
        self.__setstate__({"indptr": indptr, "indices": indices,
                           "meta": meta})
        if self.n > 1:
            if self.deg_min < 1:
                raise DisconnectedGraph("graph has an isolated vertex")
            if not _is_connected(self):
                raise DisconnectedGraph("graph is not connected")

    @classmethod
    def from_edges(cls, n: int,
                   edges: np.ndarray | Iterable[tuple[int, int]],
                   meta: dict | None = None) -> "Graph":
        """Build a graph from an (m, 2) integer array or (u, v) pairs.

        Duplicate edges and orientations are merged; self-loops are
        rejected rather than silently dropped.
        """
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise ParseError("vertex id out of range 0..n-1")
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

    def check_vertices(self, vertices, what: str = "start vertices") -> None:
        """Raise InvalidSpec unless every vertex lies in [0, n)."""
        if any(not 0 <= v < self.n for v in vertices):
            raise InvalidSpec(f"{what} must lie in [0, {self.n})")

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


def validate(g: Graph) -> DiagnosticsReport:
    """Recompute structural diagnostics from the raw arrays.

    Never raises; failures are carried in the report flags.
    """
    src = np.repeat(np.arange(g.n), g.degrees)
    keys = src * g.n + g.indices
    # each entry u -> v needs an entry v -> u, repeats counted
    symmetric = np.array_equal(np.sort(keys),
                               np.sort(g.indices * g.n + src))
    # sorted rows without repeats make the keys u * n + v strictly ascend
    simple = bool(np.all(np.diff(keys) > 0) and not np.any(src == g.indices))
    connected = _is_connected(g)
    # a connected graph is bipartite iff its bipartite double cover, u and
    # u + n for each vertex u and an edge u - (v + n) for each edge u - v,
    # falls into two components
    bipartite = connected and bool(_labels(
        np.concatenate([g.indptr, g.indptr[1:] + g.indices.size]),
        np.concatenate([g.indices + g.n, g.indices])).any())
    deg_min = int(g.degrees.min())
    deg_max = int(g.degrees.max())
    return DiagnosticsReport(
        n=g.n, m=g.m, deg_max=deg_max, deg_min=deg_min,
        deg_avg=2.0 * g.m / g.n,
        degree_ratio=deg_max / deg_min if deg_min else math.inf,
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
    it needs; lower_bound also reads ``alpha_floor`` (default 4).
    """
    family: str
    n: int | None = None
    levels: int | None = None
    dim: int | None = None
    side: int | None = None
    degree: int | None = None
    alpha: float | None = None
    alpha_floor: float = 4.0

    def to_dict(self) -> dict:
        out = {"family": self.family}
        for key in SPEC_PARAMS:
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        if self.family == "lower_bound":
            out["alpha_floor"] = self.alpha_floor
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FamilySpec":
        return cls(**data)

    def label(self) -> str:
        parts = [self.family]
        for key in SPEC_PARAMS:
            val = getattr(self, key)
            if val is not None:
                parts.append(f"{key}{val}")
        return "-".join(parts)


def _path_edges(n):
    i = np.arange(n - 1)
    return np.column_stack([i, i + 1])


def _cycle_edges(n):
    i = np.arange(n)
    return np.column_stack([i, (i + 1) % n])


def _clique_edges(n):
    iu = np.triu_indices(n, k=1)
    return np.column_stack(iu)


def _star_edges(n):
    i = np.arange(1, n)
    return np.column_stack([np.zeros(n - 1, dtype=np.int64), i])


def _binary_tree_edges(levels):
    n = 2 ** levels - 1
    parents = np.arange((n - 1) // 2)
    left = np.column_stack([parents, 2 * parents + 1])
    right = np.column_stack([parents, 2 * parents + 2])
    return np.concatenate([left, right], axis=0)


def _hypercube_edges(dim):
    n = 2 ** dim
    ids = np.arange(n)
    chunks = [np.column_stack([ids, ids ^ (1 << b)]) for b in range(dim)]
    edges = np.concatenate(chunks, axis=0)
    return edges[edges[:, 0] < edges[:, 1]]


def _lattice_edges(dim, side, wrap):
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
    return np.concatenate(chunks, axis=0)


def _barbell_edges(n):
    # Two cliques of n/4 vertices each, joined by a path of n/2 fresh
    # vertices; the path end vertices attach to one vertex per clique, so
    # every path vertex has degree 2.
    k = n // 4
    plen = n - 2 * k
    left = _clique_edges(k)
    right = _clique_edges(k) + k
    path_ids = np.arange(2 * k, 2 * k + plen)
    chain = np.column_stack([path_ids[:-1], path_ids[1:]])
    joins = np.array([[0, path_ids[0]], [k, path_ids[-1]]])
    return np.concatenate([left, right, chain, joins], axis=0)


def _random_regular_edges(n, r, rng, retries=1000):
    # Pairing (configuration) model with whole-sample rejection of loops
    # and parallel edges.
    stubs = np.repeat(np.arange(n), r)
    for _ in range(retries):
        perm = rng.permutation(stubs)
        pairs = perm.reshape(-1, 2)
        if np.any(pairs[:, 0] == pairs[:, 1]):
            continue
        canon = np.sort(pairs, axis=1)
        keyed = canon[:, 0] * n + canon[:, 1]
        if np.unique(keyed).size != keyed.size:
            continue
        return canon
    raise GenerationFailure(f"random_regular(n={n}, r={r}) failed after {retries} tries")


def _bipartite_regular_edges(s, r, rng, sweeps=500):
    """Union of r random perfect matchings between two sides of size s.

    Each new permutation is repaired by random transpositions until it
    reuses no (left, right) pair from earlier matchings.
    """
    used = np.zeros((s, s), dtype=bool)
    rows = np.arange(s)
    chunks = []
    for _ in range(r):
        sigma = rng.permutation(s)
        for _ in range(sweeps):
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


def lower_bound_graph(n: int, alpha: float, seed: int,
                      alpha_floor: float = 4.0) -> Graph:
    """Composite clique/expander graph with slow coalescence.

    Layout: kappa = ceil(sqrt(n)) cliques of ceil(sqrt(n)) vertices each,
    then a random bipartite ceil(sqrt(n))-regular expander on roughly
    n/sqrt(alpha') vertices, then a single hub vertex. The hub is wired to
    one designated vertex per clique and to ceil(sqrt(n/alpha')) distinct
    expander vertices. alpha' = max(alpha, alpha_floor); the theoretical
    floor constant is far too conservative at these sizes, so the floor is
    configurable with default 4. All fractional sizes round up, making the
    construction reproducible bit for bit.
    """
    if alpha < 1:
        raise InvalidSpec("lower_bound: alpha must be >= 1")
    alpha_eff = max(float(alpha), float(alpha_floor))
    kappa = math.isqrt(n - 1) + 1 if math.isqrt(n) ** 2 != n else math.isqrt(n)
    clique_size = kappa
    g2_target = math.ceil(n / math.sqrt(alpha_eff))
    side = math.ceil(g2_target / 2)
    r = kappa
    hub_fanout = math.ceil(math.sqrt(n / alpha_eff))
    if clique_size < 3 or side < 3 or r < 3:
        raise InvalidSpec("lower_bound: n too small, a component collapsed")
    if r > side:
        raise InvalidSpec("lower_bound: expander degree exceeds side size")
    if hub_fanout < 1 or hub_fanout > 2 * side:
        raise InvalidSpec("lower_bound: hub fanout out of range")

    for attempt in range(50):
        rng = np.random.default_rng(mix64(seed, attempt))
        clique_base = 0
        g2_base = kappa * clique_size
        hub = g2_base + 2 * side
        total = hub + 1

        chunks = []
        proto = _clique_edges(clique_size)
        for i in range(kappa):
            chunks.append(proto + clique_base + i * clique_size)
        g2_edges = _bipartite_regular_edges(side, r, rng) + g2_base
        chunks.append(g2_edges)
        designated = clique_base + np.arange(kappa) * clique_size
        chunks.append(np.column_stack(
            [designated, np.full(kappa, hub, dtype=np.int64)]))
        g2_hub = g2_base + np.sort(rng.choice(2 * side, size=hub_fanout,
                                              replace=False))
        chunks.append(np.column_stack(
            [g2_hub, np.full(hub_fanout, hub, dtype=np.int64)]))
        edges = np.concatenate(chunks, axis=0)

        meta = {
            "family": "lower_bound", "n_param": n, "alpha": float(alpha),
            "alpha_effective": alpha_eff, "kappa": kappa,
            "clique_size": clique_size, "g2_side": side, "g2_degree": r,
            "g2_range": (g2_base, g2_base + 2 * side), "hub": hub,
            "hub_g2_fanout": hub_fanout, "seed": seed,
        }
        try:
            g2_check = Graph.from_edges(
                2 * side, (g2_edges - g2_base), meta={"family": "g2"})
            graph = Graph.from_edges(total, edges, meta=meta)
        except DisconnectedGraph:
            continue
        del g2_check
        return graph
    raise GenerationFailure("lower_bound: no connected instance in 50 attempts")


def subgraph(g: Graph, vertices: np.ndarray) -> Graph:
    """Induced subgraph on the given vertices, relabeled 0..k-1."""
    vertices = np.asarray(sorted(set(int(v) for v in vertices)), dtype=np.int64)
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
    "path": Family("n", 2, {}, lambda s, _: (s.n, _path_edges(s.n))),
    "cycle": Family("n", 3, {}, lambda s, _: (s.n, _cycle_edges(s.n))),
    "clique": Family("n", 2, {}, lambda s, _: (s.n, _clique_edges(s.n))),
    "star": Family("n", 2, {}, lambda s, _: (s.n, _star_edges(s.n))),
    "binary_tree": Family("levels", 2, {}, lambda s, _: (
        2 ** s.levels - 1, _binary_tree_edges(s.levels))),
    "hypercube": Family("dim", 1, {}, lambda s, _: (
        2 ** s.dim, _hypercube_edges(s.dim))),
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

    ``seed`` only matters for the random families (random_regular and
    lower_bound); deterministic families ignore it.
    """
    row = FAMILIES.get(spec.family)
    if row is None:
        raise InvalidSpec(f"unknown family {spec.family!r}")

    def need(name, ok):
        if not ok:
            raise InvalidSpec(f"{spec.family}: bad parameter {name}")

    if "dim" in row.defaults:
        need("dim", spec.dim is not None and spec.dim >= 1)
    size = getattr(spec, row.size)
    need(row.size, size is not None and size >= row.least
         and (spec.family != "barbell" or size % 4 == 0))
    if spec.family == "random_regular":
        need("degree", spec.degree is not None and 3 <= spec.degree < spec.n)
        if (spec.n * spec.degree) % 2 != 0:
            raise InvalidSpec("random_regular: n*degree must be even")
    if spec.family == "lower_bound":
        need("alpha", spec.alpha is not None and spec.alpha >= 1)
        return lower_bound_graph(spec.n, spec.alpha, seed,
                                 alpha_floor=spec.alpha_floor)
    n, edges = row.build(spec, seed)
    return Graph.from_edges(n, edges, meta=spec.to_dict())
