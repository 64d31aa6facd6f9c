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
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    NegativeCycleReachable,
    NonPositiveCycle,
    NotAcyclic,
    UnreachableVertex,
)
from .graph import (INT64_MAX, ColoredDigraph, InDegreeByColor,
                    _in_degree_matrix, _int_array, _magnitude)

UNREACHABLE = None


@dataclass
class DistanceTable:
    """Distances from `source`; None marks unreachable vertices."""

    source: int
    dist: list[int | None]

    def distance(self, v: int) -> int | None:
        return self.dist[v]

    def reachable(self, v: int) -> bool:
        return self.dist[v] is not None


def sssp(g: ColoredDigraph, source: int, mode: str = "auto") -> DistanceTable:
    """Shortest-path distances from `source`.

    mode: "auto" picks bfs for uniform non-negative weights, dijkstra for
    non-negative weights, bellman_ford otherwise. Explicit "bfs" requires all
    weights equal and non-negative; explicit "dijkstra" requires non-negative
    weights. Raises NegativeCycleReachable from bellman_ford when a negative
    cycle is reachable from the source.
    """
    if not (0 <= source < g.n):
        raise ValueError(f"source {source} out of range")
    if mode == "auto":
        mode = _pick_mode(g)
    if mode == "bfs":
        return _sssp_bfs(g, source)
    if mode == "dijkstra":
        return _sssp_dijkstra(g, source)
    if mode == "bellman_ford":
        return _sssp_bellman_ford(g, source)
    raise ValueError(f"unknown sssp mode {mode!r}")


def _pick_mode(g: ColoredDigraph) -> str:
    if g.m == 0:
        return "bfs"
    w = g.columns()[3]
    lo, hi = int(w.min()), int(w.max())
    if lo == hi and lo >= 0:
        return "bfs"
    if lo >= 0:
        return "dijkstra"
    return "bellman_ford"


def _sssp_bfs(g: ColoredDigraph, source: int) -> DistanceTable:
    _, heads, _, w = g.columns()
    w0 = int(w[0]) if g.m else 0
    if bool((w != w0).any()):
        raise ValueError("bfs mode requires all weights equal")
    if w0 < 0:
        raise ValueError("bfs mode requires non-negative weights")
    out = g.out_edge_ids()
    heads = heads.tolist()
    hops: list[int | None] = [None] * g.n
    hops[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for j in out[u]:
            v = heads[j]
            if hops[v] is None:
                hops[v] = hops[u] + 1
                queue.append(v)
    dist = [None if h is None else h * w0 for h in hops]
    return DistanceTable(source, dist)


def _sssp_dijkstra(g: ColoredDigraph, source: int) -> DistanceTable:
    _, heads, _, weights = g.columns()
    if bool((weights < 0).any()):
        raise ValueError("dijkstra mode requires non-negative weights")
    out = g.out_edge_ids()
    # Python ints, exact also when the column is an object array
    heads, weights = heads.tolist(), weights.tolist()
    dist: list[int | None] = [None] * g.n
    done = [False] * g.n
    heap: list[tuple[int, int]] = [(0, source)]
    dist[source] = 0
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for j in out[u]:
            v = heads[j]
            nd = d + weights[j]
            if dist[v] is None or nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return DistanceTable(source, dist)


def _sssp_bellman_ford(g: ColoredDigraph, source: int) -> DistanceTable:
    # n rounds of edge relaxation; an improvement in round n proves a
    # negative cycle reachable from the source (only reachable vertices
    # ever hold finite labels).
    n, m = g.n, g.m
    tails, heads, weights = g.tails, g.heads, g.weights
    dist: list[int | None] = [None] * n
    pred_edge = [-1] * n
    dist[source] = 0
    last_improved = -1
    for _ in range(n):
        last_improved = -1
        for j in range(m):
            du = dist[int(tails[j])]
            if du is None:
                continue
            v = int(heads[j])
            nd = du + int(weights[j])
            if dist[v] is None or nd < dist[v]:
                dist[v] = nd
                pred_edge[v] = j
                last_improved = v
        if last_improved < 0:
            break
    if last_improved >= 0:
        cyc_v, cyc_e = _pred_cycle(g, pred_edge, last_improved)
        raise NegativeCycleReachable(cyc_v, cyc_e)
    return DistanceTable(source, dist)


def _pred_cycle(g: ColoredDigraph, pred_edge: list[int], improved: int
                ) -> tuple[list[int], list[int]]:
    # A vertex improved in round n has a provenance chain of >= n edges;
    # n predecessor hops land inside a cycle of the predecessor graph.
    x = improved
    for _ in range(g.n):
        x = int(g.tails[pred_edge[x]])
    walk = [x]
    u = int(g.tails[pred_edge[x]])
    while u != x:
        walk.append(u)
        u = int(g.tails[pred_edge[u]])
        assert len(walk) <= g.n, "predecessor walk failed to close"
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
    the unprocessed set.
    """
    indeg = [0] * n
    out: list[list[int]] = [[] for _ in range(n)]
    in_by_head: list[list[int]] = [[] for _ in range(n)]
    for j in edge_ids:
        j = int(j)
        t, h = int(tails[j]), int(heads[j])
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
            if int(tails[j]) in remaining:
                trail_edges.append(j)
                v = int(tails[j])
                break
    k = pos[v]
    # trail[k:] walks predecessors from v back to v; flip to edge direction
    cyc_v = [trail[k]] + trail[k + 1:][::-1]
    cyc_e = trail_edges[k:][::-1]
    return AcyclicityResult(False, None, cyc_v, cyc_e)


def is_acyclic(g: ColoredDigraph) -> AcyclicityResult:
    """Test acyclicity; gives a topological order or a witness cycle."""
    return _kahn(g.n, range(g.m), g.tails, g.heads)


class SpgGraph:
    """The tight subgraph of a graph, rooted at the shortest-path source.

    Stores the owning graph plus the ordinals of surviving edges, so edge
    ids seen by solvers always refer to the original edge sequence.
    `topo_order` is a valid topological order of the subgraph, the
    canonical one of `_kahn`; it is computed on first read (no solver
    needs it) unless the constructor was given one.
    """

    __slots__ = ("graph", "root", "edge_ids", "_topo_order", "_in_ids")

    def __init__(self, graph: ColoredDigraph, root: int,
                 edge_ids: np.ndarray, topo_order: list[int] | None = None):
        self.graph = graph
        self.root = root
        self.edge_ids = edge_ids
        self._topo_order = topo_order
        self._in_ids = None

    @property
    def topo_order(self) -> list[int] | None:
        if self._topo_order is None:
            self._topo_order = _kahn(self.n, self.edge_ids, self.graph.tails,
                                     self.graph.heads).topo_order
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
        if not (0 <= root < graph.n):
            raise ValueError(f"root {root} out of range")
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
        return cls(graph, root, np.arange(graph.m, dtype=np.int64), order)

    def in_edge_ids(self) -> list[list[int]]:
        """Per-vertex incoming subgraph edge ordinals, ascending."""
        if self._in_ids is None:
            ids: list[list[int]] = [[] for _ in range(self.n)]
            heads = self.graph.heads
            for j in self.edge_ids:
                j = int(j)
                ids[int(heads[j])].append(j)
            self._in_ids = ids
        return self._in_ids

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                               np.ndarray, np.ndarray]:
        """(tails, heads, colors, weights, edge_ids) restricted to the subgraph."""
        t, h, c, w = self.graph.columns()
        ids = self.edge_ids
        if len(ids) == self.graph.m:
            return t, h, c, w, ids
        return t[ids], h[ids], c[ids], w[ids], ids

    def in_degree_by_color(self) -> InDegreeByColor:
        _, h, c, _, _ = self.columns()
        return InDegreeByColor(_in_degree_matrix(self.n, self.q, h, c))


def build_spg(g: ColoredDigraph, source: int, d: DistanceTable) -> SpgGraph:
    """Keep exactly the tight edges.

    Requires every vertex reachable from the source (UnreachableVertex
    otherwise). Raises NonPositiveCycle with a witness when the tight
    subgraph is cyclic; the witness cycle always sums to weight zero and
    is the one `_kahn` finds among all tight edges. With non-negative
    weights and no zero-weight tight edge the subgraph is acyclic and is
    not sorted.
    """
    if d.source != source:
        raise ValueError("distance table was computed for a different source")
    dist = d.dist[:g.n]
    if None in dist:
        raise UnreachableVertex(dist.index(None))
    if len(dist) < g.n:
        # what reading the table vertex by vertex would raise
        raise IndexError("list index out of range")
    via, at = _relaxations(g, d.dist)
    tight = np.flatnonzero(via == at)
    w = g.columns()[3]
    if g.m == 0 or (w.min() >= 0 and not (w[tight] == 0).any()):
        return SpgGraph(g, source, tight)
    res = _kahn(g.n, tight, g.tails, g.heads)
    if not res.acyclic:
        raise NonPositiveCycle(res.cycle_vertices, res.cycle_edges)
    return SpgGraph(g, source, tight, res.topo_order)


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
