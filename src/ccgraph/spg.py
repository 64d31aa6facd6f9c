"""Single-source shortest paths and the tight-edge subgraph.

An edge (u, v) is tight when dist(u) + w(u, v) == dist(v). The subgraph of
tight edges contains every shortest path from the source; it is acyclic
exactly when no zero-weight cycle sits on shortest paths, and its spanning
arborescences rooted at the source are precisely the shortest-path trees of
the original graph. Zero-weight cycles are therefore detected when the tight
subgraph is built, not during distance computation. Around any cycle of
tight edges the weights sum to zero, so with non-negative weights every
edge of such a cycle weighs zero: when no tight edge weighs zero, the
tight subgraph is acyclic and no sort runs at all.

Witness cycles are reported as (vertices, edge_ids) where edge_ids[i] is the
edge vertices[i] -> vertices[(i+1) % k].
"""

from __future__ import annotations

import heapq
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    NegativeCycleReachable,
    NonPositiveCycle,
    NotAcyclic,
    UnreachableVertex,
)
from .graph import (INT64_MAX, ColoredDigraph, _ids_by_vertex, _int_array,
                    _integers, _magnitude, _stable_order, _vertex)

UNREACHABLE = None


class DistanceTable:
    """Distances from `source`, stored once in exact form.

    `values` is an int64 array, or an object array of Python ints when a
    distance does not fit int64, with 0 at the vertices the source does
    not reach; `reached` is the bool mask of the vertices it reaches.
    `dist` is the same table as a list, with None (UNREACHABLE) for an
    unreachable vertex. The constructor takes that list; an entry other
    than None or an integer, such as a bool, a float or a string, raises
    ValueError, as `distance` and `reachable` do for a bad vertex id.
    """

    __slots__ = ("source", "values", "reached")

    def __init__(self, source: int, dist: Sequence[int | None]):
        dist = list(dist)
        try:
            values = _integers([0 if d is None else d for d in dist])
        except TypeError as exc:
            raise ValueError(f"distance table: {exc}") from None
        self.source = source
        self.values = values
        self.reached = np.array([d is not None for d in dist], dtype=bool)

    @classmethod
    def _of_arrays(cls, source: int, values: np.ndarray,
                   reached: np.ndarray) -> "DistanceTable":
        """A table of arrays already in the stored form, not copied."""
        table = cls.__new__(cls)
        table.source, table.values, table.reached = source, values, reached
        return table

    @property
    def dist(self) -> list[int | None]:
        out = self.values.tolist()
        for v in np.flatnonzero(~self.reached).tolist():
            out[v] = UNREACHABLE
        return out

    def distance(self, v: int) -> int | None:
        v = _vertex("vertex", v, len(self.values))
        return int(self.values[v]) if self.reached[v] else UNREACHABLE

    def reachable(self, v: int) -> bool:
        return bool(self.reached[_vertex("vertex", v, len(self.values))])

    def __eq__(self, other) -> bool:
        if not isinstance(other, DistanceTable):
            return NotImplemented
        return (self.source == other.source
                and np.array_equal(self.reached, other.reached)
                and np.array_equal(self.values, other.values))

    __hash__ = None

    def __repr__(self) -> str:
        return f"DistanceTable(source={self.source!r}, dist={self.dist!r})"


def sssp(g: ColoredDigraph, source: int) -> DistanceTable:
    """Shortest-path distances from `source`.

    Runs Bellman-Ford when some weight is negative, raising
    NegativeCycleReachable when a negative cycle is reachable from the
    source, and the bucketed routine otherwise. A source other than an
    integer vertex id of g, such as a bool or a float, raises ValueError.

    Cost: the bucketed routine sorts the edges by tail once (one radix
    pass over 16-bit tails up to 2^16 vertices, a quicksort above) and then
    relaxes the out-edges of a vertex about once per distance it settles
    at, with numpy gathers over each bucket's frontier, or with a Python
    loop when that frontier has few out-edges (a long chain takes the loop
    in every bucket). A numpy round sorts its frontier in place, drops
    repeats with one comparison, and files the vertices it improved with
    one mask per bucket when they lie within a few buckets, and with one
    sort otherwise; with delta 1 a distance is its own bucket, and the
    round divides nothing. Bellman-Ford is O(n m) in Python.
    """
    source = _vertex("source", source, g.n)
    if g.m and int(g.columns()[3].min()) < 0:
        return _sssp_bellman_ford(g, source)
    return DistanceTable._of_arrays(source, *_delta_stepping(g, source))


# A frontier with fewer out-edges than this is relaxed by a Python loop:
# below it, the fixed cost of a numpy round (some 40 calls) outweighs its
# per-edge gain. A long chain has a one-edge frontier in every bucket; on
# layered DAGs of 800 to 6400 vertices the two ways cost about the same
# anywhere from 128 to 256 edges.
_SCALAR_EDGES = 160

# A numpy round whose improved vertices lie within this many consecutive
# buckets files them with one mask per bucket, not with a sort and a
# split. With delta = max_w * n / m they span at most about m / n + 1
# buckets: 4 on the layered DAGs and 5 on the grids measured; on the
# layered n=20k DAG the masks make sssp 12 % faster than the sort. Denser
# graphs with wide weights take the sort in most rounds: on random graphs
# with m / n from 20 to 500 and weights 1..10^6 it costs the same as the
# masks within noise, and masks alone were 10 % slower at m / n = 500,
# where one round may span 500 buckets.
_FEW_BUCKETS = 8


def _out_csr(n: int, tails: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edges grouped by tail, as (order, start, degree).

    order[start[v]:start[v+1]] are the ids of v's degree[v] out-edges, in
    no set order within a vertex: no distance depends on it. Up to 2^16
    vertices a uint16 copy of the tails takes one radix pass, which beats
    numpy's quicksort of the int64 tails (1.3-1.4 ms for 60k tails). The
    quicksort stays above, where two passes lost on the n=160k layered DAG
    (19.9 against 16.4 ms), the size the tree pipeline is also measured at.
    """
    degree = np.bincount(tails, minlength=n)
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degree, out=start[1:])
    order = _stable_order(tails) if n <= 1 << 16 else np.argsort(tails)
    return order, start, degree


def _out_positions(start: np.ndarray, frontier: np.ndarray, deg: np.ndarray,
                   total: int) -> np.ndarray:
    """The CSR positions of the out-edges of `frontier`, vertex by vertex:
    `deg` is their degrees and `total` the sum of them."""
    return np.arange(total) + np.repeat(
        start[frontier] - (np.cumsum(deg) - deg), deg)


def _delta_stepping(g: ColoredDigraph, source: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Distances from `source` under non-negative weights, as the
    `values` and `reached` arrays of a DistanceTable.

    Delta-stepping (Meyer & Sanders, J. Algorithms 49(1), 2003): bucket b
    holds the vertices whose tentative distance lies in [b*delta,
    (b+1)*delta), and buckets are settled in increasing order from a heap
    of the non-empty ones. A bucket is relaxed in rounds until no vertex
    in it improves, which also settles zero-weight edges and cycles. The
    out-edges come from one sort of the tail column (`_out_csr`); each
    round gathers them with numpy, or walks them in Python when there are
    fewer than _SCALAR_EDGES.
    """
    n, m = g.n, g.m
    tails, heads, _, weights = g.columns()
    if m == 0:
        reached = np.zeros(n, dtype=bool)
        reached[source] = True
        return np.zeros(n, dtype=np.int64), reached
    max_w = int(weights.max())
    # above every simple-path distance, so it marks "not reached"; every
    # tentative distance is a simple-path length, so sums stay below it
    inf = n * max_w + 1
    dtype = np.int64 if inf <= INT64_MAX else object
    order, start, out_deg = _out_csr(n, tails)
    max_deg = int(out_deg.max())
    head = heads[order]
    wt = weights[order].astype(dtype, copy=False)
    delta = max(1, max_w * n // m)
    dist = np.full(n, inf, dtype=dtype)
    # distance at which each vertex last had its out-edges relaxed; a
    # vertex needs relaxing exactly when its distance is below this
    relaxed = np.full(n, inf, dtype=dtype)
    dist[source] = 0
    # scalar views read and write Python ints
    D, R, S, H, W = (a if a.dtype == object else memoryview(a)
                     for a in (dist, relaxed, start, head, wt))
    # bucket index -> vertices filed one by one, and arrays of vertices;
    # a bucket is on the heap while it has an entry in either
    loose_at: dict[int, list[int]] = {0: [source]}
    packed_at: dict[int, list[np.ndarray]] = {}
    heap = [0]
    while heap:
        b = heapq.heappop(heap)
        loose = loose_at.pop(b, ())
        packed = packed_at.pop(b, ())
        while loose or packed:
            # loose may hold repeats and vertices already relaxed at their
            # distance, so its edge count is an upper bound; it is counted
            # only when it could reach the cut
            edges = 0
            if not packed and len(loose) * max_deg >= _SCALAR_EDGES:
                for v in loose:
                    edges += S[v + 1] - S[v]
            if packed or edges >= _SCALAR_EDGES:
                if loose:
                    packed = [*packed, np.array(loose, dtype=np.int64)]
                f = packed[0] if len(packed) == 1 else np.concatenate(packed)
                f = f[dist[f] < relaxed[f]]
                f.sort()
                # the first of each run of repeats
                keep = np.empty(len(f), dtype=bool)
                keep[:1] = True
                np.not_equal(f[1:], f[:-1], out=keep[1:])
                f = f[keep]
                deg = out_deg[f]
                edges = int(deg.sum())
                if edges < _SCALAR_EDGES:
                    loose = f.tolist()
            packed = ()
            if edges < _SCALAR_EDGES:
                frontier, loose = loose, []
                for u in frontier:
                    du = D[u]
                    if du >= R[u]:
                        continue
                    R[u] = du
                    for j in range(S[u], S[u + 1]):
                        v = H[j]
                        nd = du + W[j]
                        if nd < D[v]:
                            D[v] = nd
                            nb = nd // delta
                            if nb == b:
                                loose.append(v)
                            elif nb in loose_at:
                                loose_at[nb].append(v)
                            else:
                                loose_at[nb] = [v]
                                if nb not in packed_at:
                                    heapq.heappush(heap, nb)
                continue
            loose = ()
            df = dist[f]
            relaxed[f] = df
            idx = _out_positions(start, f, deg, edges)
            v = head[idx]
            nd = np.repeat(df, deg)
            nd += wt[idx]
            better = nd < dist[v]
            # v may repeat; the bucket's next round drops repeats
            v = v[better]
            if not len(v):
                continue
            np.minimum.at(dist, v, nd[better])
            nb = dist[v] if delta == 1 else dist[v] // delta
            # every nb is at least b, since no weight is negative
            lo, hi = int(nb.min()), int(nb.max())
            if hi - lo < _FEW_BUCKETS:
                # one mask per bucket costs less than a sort and a split
                parts = ((v[nb == k], k) for k in range(lo, hi + 1))
            else:
                o = np.argsort(nb)
                v, nb = v[o], nb[o]
                cuts = np.flatnonzero(nb[1:] != nb[:-1]) + 1
                parts = zip(np.split(v, cuts), nb[np.r_[0, cuts]].tolist())
            for part, k in parts:
                if not len(part):
                    continue
                if k == b:
                    packed = (part,)
                elif k in packed_at:
                    packed_at[k].append(part)
                else:
                    packed_at[k] = [part]
                    if k not in loose_at:
                        heapq.heappush(heap, k)
    reached = dist != inf
    dist[~reached] = 0
    if dtype is object:
        # int64 unless some distance does not fit it
        dist = _int_array(dist)
    return dist, reached


def _sssp_bellman_ford(g: ColoredDigraph, source: int) -> DistanceTable:
    # n rounds of edge relaxation; an improvement in round n proves a
    # negative cycle reachable from the source (only reachable vertices
    # ever hold finite labels).
    n = g.n
    # Python ints, exact also when a column is an object array
    t, h, _, w = g.columns()
    tails, heads, weights = t.tolist(), h.tolist(), w.tolist()
    dist: list[int | None] = [None] * n
    pred_edge = [-1] * n
    dist[source] = 0
    last_improved = -1
    for _ in range(n):
        last_improved = -1
        for j, t, v, w in zip(range(g.m), tails, heads, weights):
            du = dist[t]
            if du is None:
                continue
            nd = du + w
            if dist[v] is None or nd < dist[v]:
                dist[v] = nd
                pred_edge[v] = j
                last_improved = v
        if last_improved < 0:
            break
    if last_improved >= 0:
        cyc_v, cyc_e = _pred_cycle(tails, pred_edge, last_improved)
        raise NegativeCycleReachable(cyc_v, cyc_e)
    return DistanceTable(source, dist)


def _pred_cycle(tails: list[int], pred_edge: list[int], improved: int
                ) -> tuple[list[int], list[int]]:
    # A vertex improved in round n has a provenance chain of >= n edges;
    # n predecessor hops land inside a cycle of the predecessor graph.
    n = len(pred_edge)
    x = improved
    for _ in range(n):
        x = tails[pred_edge[x]]
    walk = [x]
    u = tails[pred_edge[x]]
    while u != x:
        walk.append(u)
        u = tails[pred_edge[u]]
        assert len(walk) <= n, "predecessor walk failed to close"
    # walk is in reverse edge direction; re-orient and align edges so that
    # edge i goes vertices[i] -> vertices[i+1], wrapping at the end.
    verts = [walk[0]] + walk[1:][::-1]
    edges = [pred_edge[verts[(i + 1) % len(verts)]] for i in range(len(verts))]
    return verts, edges


class AcyclicityResult(NamedTuple):
    acyclic: bool
    topo_order: list[int] | None
    cycle_vertices: list[int] | None
    cycle_edges: list[int] | None


def _kahn(n: int, edge_ids, tails, heads) -> AcyclicityResult:
    """Topological sort by repeated removal of in-degree-0 vertices.

    Ties are broken by ascending vertex id so the order is canonical. On
    failure, returns a directed cycle found by walking predecessors inside
    the unprocessed set. Callers pass the edge ids and columns as lists.
    """
    indeg = [0] * n
    out: list[list[int]] = [[] for _ in range(n)]
    in_by_head: list[list[int]] = [[] for _ in range(n)]
    for j in edge_ids:
        t, h = tails[j], heads[j]
        indeg[h] += 1
        out[t].append(h)
        in_by_head[h].append(j)
    heap = [v for v in range(n) if indeg[v] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        u = heapq.heappop(heap)
        order.append(u)
        for h in out[u]:
            indeg[h] -= 1
            if indeg[h] == 0:
                heapq.heappush(heap, h)
    if len(order) == n:
        return AcyclicityResult(True, order, None, None)
    # every unprocessed vertex keeps an unprocessed in-neighbor, so a
    # predecessor walk must revisit a vertex
    remaining = {v for v in range(n) if indeg[v] > 0}
    trail: list[int] = []
    trail_edges: list[int] = []
    pos: dict[int, int] = {}
    v = min(remaining)
    while v not in pos:
        pos[v] = len(trail)
        trail.append(v)
        for j in in_by_head[v]:
            if tails[j] in remaining:
                trail_edges.append(j)
                v = tails[j]
                break
    k = pos[v]
    # trail[k:] walks predecessors from v back to v; flip to edge direction
    cyc_v = [trail[k]] + trail[k + 1:][::-1]
    cyc_e = trail_edges[k:][::-1]
    return AcyclicityResult(False, None, cyc_v, cyc_e)


def is_acyclic(g: ColoredDigraph) -> AcyclicityResult:
    """Test acyclicity; gives a topological order or a witness cycle."""
    return _kahn(g.n, range(g.m), g.tails.tolist(), g.heads.tolist())


class SpgGraph:
    """The tight subgraph of a graph, rooted at the shortest-path source.

    Stores the owning graph plus the ordinals of surviving edges, so edge
    ids seen by solvers always refer to the original edge sequence. The
    solvers take the subgraph to be acyclic, so the constructor checks it:
    the root must be an integer vertex id, the edge ids integer ordinals
    of the graph's edges (ValueError otherwise), kept once each in
    ascending order, as the solvers' tie-breaks need, and the edges must
    form no directed cycle (NotAcyclic with `_kahn`'s witness otherwise); the
    order `_kahn` found is kept as `topo_order`. `build_spg` and
    `from_dag`, which have checked their edges already, go through
    `_of_arrays` and pay for no second check; there `topo_order` is the
    order they checked, or `_kahn`'s computed on first read (no solver
    needs it).
    """

    __slots__ = ("graph", "root", "edge_ids", "_topo_order", "_in_ids")

    def __init__(self, graph: ColoredDigraph, root: int,
                 edge_ids: np.ndarray):
        try:
            ids = _integers(edge_ids)
        except TypeError as exc:
            raise ValueError(f"edge_ids: {exc}") from None
        if len(ids) and not 0 <= ids.min() <= ids.max() < graph.m:
            raise ValueError("edge_ids out of range")
        ids = np.unique(ids)
        root = _vertex("root", root, graph.n)
        res = _kahn(graph.n, ids.tolist(), graph.tails.tolist(),
                    graph.heads.tolist())
        if not res.acyclic:
            raise NotAcyclic(res.cycle_vertices, res.cycle_edges)
        self.graph, self.root, self.edge_ids = graph, root, ids
        self._topo_order = res.topo_order
        self._in_ids = None

    @classmethod
    def _of_arrays(cls, graph: ColoredDigraph, root: int, edge_ids: np.ndarray,
                   topo_order: list[int] | None = None) -> "SpgGraph":
        """A subgraph whose int64 edge ids and root are known valid and
        acyclic, not checked again; `topo_order`, when given, is an order
        already checked."""
        spg = cls.__new__(cls)
        spg.graph, spg.root, spg.edge_ids = graph, root, edge_ids
        spg._topo_order = topo_order
        spg._in_ids = None
        return spg

    @property
    def topo_order(self) -> list[int]:
        if self._topo_order is None:
            self._topo_order = _kahn(
                self.n, self.edge_ids.tolist(), self.graph.tails.tolist(),
                self.graph.heads.tolist()).topo_order
        return self._topo_order

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def q(self) -> int:
        return self.graph.q

    @property
    def edge_count(self) -> int:
        return len(self.edge_ids)

    @classmethod
    def from_dag(cls, graph: ColoredDigraph, root: int,
                 topo_order: Sequence[int] | None = None) -> "SpgGraph":
        """Treat a DAG as its own tight subgraph (all edges kept).

        A caller that knows a topological order may pass it; it is checked
        in one vectorized pass. Raises NotAcyclic on cyclic input.
        """
        root = _vertex("root", root, graph.n)
        if topo_order is not None:
            order = list(topo_order)
            if sorted(order) != list(range(graph.n)):
                raise ValueError("topo_order is not a permutation of vertices")
            pos = np.empty(graph.n, dtype=np.int64)
            pos[np.asarray(order)] = np.arange(graph.n)
            t, h, _, _ = graph.columns()
            if graph.m and not bool((pos[t] < pos[h]).all()):
                raise ValueError("topo_order is not topological for the graph")
        else:
            res = is_acyclic(graph)
            if not res.acyclic:
                raise NotAcyclic(res.cycle_vertices, res.cycle_edges)
            order = res.topo_order
        return cls._of_arrays(graph, root, np.arange(graph.m, dtype=np.int64),
                              order)

    def in_edge_ids(self) -> list[list[int]]:
        """Per-vertex incoming subgraph edge ordinals, ascending."""
        if self._in_ids is None:
            ids = self.edge_ids
            heads = self.graph.columns()[1]
            self._in_ids = _ids_by_vertex(self.n, heads[ids], ids)
        return self._in_ids

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                               np.ndarray, np.ndarray]:
        """(tails, heads, colors, weights, edge_ids) restricted to the subgraph."""
        t, h, c, w = self.graph.columns()
        ids = self.edge_ids
        if len(ids) == self.graph.m:
            return t, h, c, w, ids
        return t[ids], h[ids], c[ids], w[ids], ids


def build_spg(g: ColoredDigraph, source: int, d: DistanceTable) -> SpgGraph:
    """Keep exactly the tight edges.

    The source must be an integer vertex id of g, and the table must be
    for it and have one entry per vertex (ValueError otherwise). Every
    vertex must be reachable from the source (UnreachableVertex naming
    the first one otherwise). Raises
    NonPositiveCycle with a witness when the tight subgraph is cyclic; the
    witness cycle always sums to weight zero and is the one `_kahn` finds
    among all tight edges. With non-negative weights and no zero-weight
    tight edge the subgraph is acyclic and is not sorted.
    """
    source = _vertex("source", source, g.n)
    if d.source != source:
        raise ValueError("distance table was computed for a different source")
    if len(d.values) != g.n:
        raise ValueError(f"distance table has {len(d.values)} entries "
                         f"for {g.n} vertices")
    if not d.reached.all():
        raise UnreachableVertex(int(np.argmin(d.reached)))
    via, at = _relaxations(g, d.values)
    tight = np.flatnonzero(via == at)
    w = g.columns()[3]
    order = None
    if g.m and (w.min() < 0 or (w[tight] == 0).any()):
        res = _kahn(g.n, tight.tolist(), g.tails.tolist(), g.heads.tolist())
        if not res.acyclic:
            raise NonPositiveCycle(res.cycle_vertices, res.cycle_edges)
        order = res.topo_order
    return SpgGraph._of_arrays(g, source, tight, order)


def _relaxations(g: ColoredDigraph, dist: Sequence[int]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """dist(u) + w(u, v) and dist(v) for every edge (u, v), exactly.

    `dist` must hold an integer for every vertex. The arrays are int64
    when no sum can pass it, else object arrays of Python ints.
    """
    t, h, _, w = g.columns()
    dist = _int_array(dist)
    if _magnitude(dist) + _magnitude(w) > INT64_MAX:
        # dist(u) + w(u, v) could wrap in int64; compare Python ints
        dist, w = dist.astype(object), w.astype(object)
    return dist[t] + w, dist[h]
