"""Flow networks over the tight subgraph.

The arborescence network has a super source, one node per color, one node
per non-root vertex, and a super sink: source->color arcs carry the color
budgets, color->vertex arcs (capacity 1) exist exactly where that vertex
has an incoming edge of that color, and vertex->sink arcs have capacity 1.
A flow of value n-1 selects one in-edge color per vertex within budget.

Residual arcs are stored as paired slots: arc k occupies slots 2k (forward)
and 2k+1 (reverse), so slot ^ 1 is always the partner. Adjacency lists are
scanned in insertion order with a current-arc pointer, which makes every
run deterministic for a given network.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from .graph import ColorConstraint, InDegreeByColor
from .spg import SpgGraph


class FlowNetwork:
    """Integer-capacity flow network with optional integer arc costs."""

    __slots__ = ("num_nodes", "source", "sink",
                 "arc_tails", "arc_heads", "arc_caps", "arc_costs",
                 "graph_n", "q", "root", "color_arc_range")

    def __init__(self, num_nodes: int, source: int, sink: int):
        self.num_nodes = num_nodes
        self.source = source
        self.sink = sink
        self.arc_tails: list[int] = []
        self.arc_heads: list[int] = []
        self.arc_caps: list[int] = []
        self.arc_costs: list[int] = []
        # set by build_arb_network
        self.graph_n = None
        self.q = None
        self.root = None
        self.color_arc_range = None

    @property
    def num_arcs(self) -> int:
        return len(self.arc_tails)

    def add_arc(self, u: int, v: int, capacity: int, cost: int = 0) -> int:
        if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
            raise ValueError("arc endpoint out of range")
        if capacity < 0:
            raise ValueError("arc capacity must be non-negative")
        self.arc_tails.append(u)
        self.arc_heads.append(v)
        self.arc_caps.append(capacity)
        self.arc_costs.append(cost)
        return self.num_arcs - 1

    def vertex_node(self, v: int) -> int:
        """Network node for graph vertex v (v != root)."""
        return self.q + 1 + v - (1 if v > self.root else 0)

    def node_vertex(self, u: int) -> int:
        """Graph vertex for a vertex-layer network node."""
        v = u - self.q - 1
        return v if v < self.root else v + 1


@dataclass
class FlowAssignment:
    """A feasible flow plus the instrumentation of the run that found it."""

    flow: list[int]
    value: int
    phases_executed: int
    total_cost: int
    advances: int = 0
    retreats: int = 0
    augments: int = 0


def build_arb_network(spg: SpgGraph, alpha, pi: InDegreeByColor | None = None,
                      arc_cost_matrix: np.ndarray | None = None
                      ) -> FlowNetwork:
    """Build the arborescence network for the tight subgraph and budgets.

    Node layout: 0 is the super source, 1..q the color nodes, then the
    non-root vertices in id order, and n+q the super sink. Color->vertex
    arc costs come from `arc_cost_matrix[v, color]` when given, else 0.
    """
    alpha = ColorConstraint.of(alpha)
    alpha.require_length(spg.q)
    n, q, root = spg.n, spg.q, spg.root
    if pi is None:
        pi = spg.in_degree_by_color()
    H = FlowNetwork(n + q + 1, 0, q + n)
    H.graph_n, H.q, H.root = n, q, root
    caps = alpha.clamped(max(n - 1, 0))
    for i in range(1, q + 1):
        H.add_arc(0, i, caps[i - 1])
    vs, cs = np.nonzero(pi.matrix)
    keep = vs != root
    vs, cs = vs[keep], cs[keep]
    vnodes = q + 1 + vs - (vs > root)
    start = H.num_arcs
    H.arc_tails.extend(cs.tolist())
    H.arc_heads.extend(vnodes.tolist())
    H.arc_caps.extend([1] * len(vs))
    if arc_cost_matrix is None:
        H.arc_costs.extend([0] * len(vs))
    else:
        H.arc_costs.extend(arc_cost_matrix[vs, cs].tolist())
    H.color_arc_range = (start, H.num_arcs)
    sink = q + n
    for v in range(n):
        if v != root:
            H.add_arc(H.vertex_node(v), sink, 1)
    return H


def _residual(H: FlowNetwork, with_costs: bool):
    m = H.num_arcs
    to = [0] * (2 * m)
    cap = [0] * (2 * m)
    adj: list[list[int]] = [[] for _ in range(H.num_nodes)]
    for k in range(m):
        t, h = H.arc_tails[k], H.arc_heads[k]
        to[2 * k] = h
        to[2 * k + 1] = t
        cap[2 * k] = H.arc_caps[k]
        adj[t].append(2 * k)
        adj[h].append(2 * k + 1)
    if not with_costs:
        return to, cap, adj, None
    cost = [0] * (2 * m)
    for k in range(m):
        cost[2 * k] = H.arc_costs[k]
        cost[2 * k + 1] = -H.arc_costs[k]
    return to, cap, adj, cost


def dinitz_max_flow(H: FlowNetwork) -> FlowAssignment:
    """Maximum flow by blocking flows on level graphs.

    Counts one phase per level graph on which the sink was reachable, plus
    every advance, retreat, and augmenting path of the depth-first blocking
    flow search. Requires all arc costs zero.
    """
    if any(c != 0 for c in H.arc_costs):
        raise ValueError("dinitz_max_flow requires all arc costs zero")
    to, cap, adj, _ = _residual(H, False)
    src, snk = H.source, H.sink
    num_nodes = H.num_nodes
    phases = advances = retreats = augments = 0
    total = 0
    while True:
        level = [-1] * num_nodes
        level[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            lu = level[u] + 1
            for k in adj[u]:
                v = to[k]
                if cap[k] > 0 and level[v] < 0:
                    level[v] = lu
                    queue.append(v)
        if level[snk] < 0:
            break
        phases += 1
        ptr = [0] * num_nodes
        path_nodes = [src]
        path_arcs: list[int] = []
        while True:
            u = path_nodes[-1]
            if u == snk:
                bottleneck = min(cap[k] for k in path_arcs)
                for k in path_arcs:
                    cap[k] -= bottleneck
                    cap[k ^ 1] += bottleneck
                total += bottleneck
                augments += 1
                # back up to the tail of the first saturated arc
                cut = 0
                while cap[path_arcs[cut]] > 0:
                    cut += 1
                del path_nodes[cut + 1:]
                del path_arcs[cut:]
                continue
            arcs = adj[u]
            p = ptr[u]
            lu = level[u] + 1
            while p < len(arcs):
                k = arcs[p]
                if cap[k] > 0 and level[to[k]] == lu:
                    break
                p += 1
            ptr[u] = p
            if p < len(arcs):
                advances += 1
                path_nodes.append(to[arcs[p]])
                path_arcs.append(arcs[p])
            else:
                retreats += 1
                if u == src:
                    break
                level[u] = -1  # dead for the rest of the phase
                path_nodes.pop()
                path_arcs.pop()
    flows = [cap[2 * k + 1] for k in range(H.num_arcs)]
    return FlowAssignment(flow=flows, value=total, phases_executed=phases,
                          total_cost=0, advances=advances, retreats=retreats,
                          augments=augments)


def _reachable_forward(adj, to, cap, start: int) -> list[bool]:
    seen = [False] * len(adj)
    seen[start] = True
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for k in adj[u]:
            v = to[k]
            if cap[k] > 0 and not seen[v]:
                seen[v] = True
                queue.append(v)
    return seen


def _reachable_backward(adj, to, cap, start: int) -> list[bool]:
    # walk positive arcs against their direction via the paired slots
    seen = [False] * len(adj)
    seen[start] = True
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for k in adj[u]:
            if (k & 1) and cap[k ^ 1] > 0 and not seen[to[k]]:
                seen[to[k]] = True
                queue.append(to[k])
    return seen


def min_cost_max_flow(H: FlowNetwork) -> FlowAssignment:
    """Minimum-cost maximum flow by successive shortest augmenting paths.

    Costs may be negative; the first potentials come from Bellman-Ford and
    every later search is Dijkstra on reduced costs. The network must not
    contain a negative-cost cycle of positive capacity (the arborescence
    networks are layered, so they never do).
    """
    to, cap, adj, cost = _residual(H, True)
    src, snk = H.source, H.sink
    num_nodes = H.num_nodes
    INF = float("inf")
    fwd = _reachable_forward(adj, to, cap, src)
    if not fwd[snk]:
        return FlowAssignment(flow=[0] * H.num_arcs, value=0,
                              phases_executed=0, total_cost=0)
    bwd = _reachable_backward(adj, to, cap, snk)
    alive = [f and b for f, b in zip(fwd, bwd)]
    # Bellman-Ford potentials over the arcs that can ever carry flow
    alive_nodes = [u for u in range(num_nodes) if alive[u]]
    dist = [INF] * num_nodes
    dist[src] = 0
    for round_no in range(len(alive_nodes) + 1):
        changed = False
        for u in alive_nodes:
            du = dist[u]
            if du == INF:
                continue
            for k in adj[u]:
                v = to[k]
                if cap[k] > 0 and alive[v] and du + cost[k] < dist[v]:
                    dist[v] = du + cost[k]
                    changed = True
        if not changed:
            break
    else:
        raise ValueError("negative-cost cycle in flow network")
    phi = dist
    total = 0
    total_cost = 0
    augments = 0
    pred_slot = [-1] * num_nodes
    while True:
        dist = [INF] * num_nodes
        dist[src] = 0
        heap = [(0, src)]
        while heap:
            d, u = heappop(heap)
            if d > dist[u]:
                continue
            for k in adj[u]:
                v = to[k]
                if cap[k] <= 0 or not alive[v]:
                    continue
                nd = d + cost[k] + phi[u] - phi[v]
                if nd < dist[v]:
                    dist[v] = nd
                    pred_slot[v] = k
                    heappush(heap, (nd, v))
        if dist[snk] == INF:
            break
        ds = dist[snk]
        for v in alive_nodes:
            phi[v] += min(dist[v], ds)
        bottleneck = None
        v = snk
        while v != src:
            k = pred_slot[v]
            if bottleneck is None or cap[k] < bottleneck:
                bottleneck = cap[k]
            v = to[k ^ 1]
        v = snk
        while v != src:
            k = pred_slot[v]
            cap[k] -= bottleneck
            cap[k ^ 1] += bottleneck
            v = to[k ^ 1]
        total += bottleneck
        augments += 1
    flows = [cap[2 * k + 1] for k in range(H.num_arcs)]
    total_cost = sum(c * f for c, f in zip(H.arc_costs, flows))
    return FlowAssignment(flow=flows, value=total, phases_executed=0,
                          total_cost=total_cost, augments=augments)


def min_cut(H: FlowNetwork, assignment: FlowAssignment
            ) -> tuple[frozenset[int], int]:
    """Source side of the residual cut left by a maximum flow, and its capacity."""
    to, cap, adj, _ = _residual(H, False)
    for k, f in enumerate(assignment.flow):
        cap[2 * k] -= f
        cap[2 * k + 1] += f
    seen = _reachable_forward(adj, to, cap, H.source)
    side = frozenset(u for u in range(H.num_nodes) if seen[u])
    capacity = sum(H.arc_caps[k] for k in range(H.num_arcs)
                   if H.arc_tails[k] in side and H.arc_heads[k] not in side)
    return side, capacity
