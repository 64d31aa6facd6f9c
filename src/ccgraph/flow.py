"""Flow networks over the tight subgraph.

The arborescence network works on vertex classes, not on vertices. It is
built from one sorted list of the tight (head, color) pairs, each with
the edge it takes (`_choice`), so its memory follows the tight edges and
no table of n * (q+1) cells is built. Two non-root vertices are in one
class when their runs in that list agree: the same set of in-colors and,
for the minimum-weight question, the same cost for each of them; such
vertices are interchangeable. The network has a super source, one node
per color, one node per class, and a super sink: source->color arcs
carry the color budgets, a color->class arc exists exactly where the
class has that in-color, and both it and the class->sink arc have the
class size as capacity. A flow of value n-1 then says how many vertices
of each class take their in-edge from each color, within budget; this is
a transportation problem with q supply nodes and one demand node per class
(Tokuyama & Nakano, SIAM J. Comput. 24(3), 1995, treat the few-source
case).

Residual arcs are stored as paired slots: arc k occupies slots 2k (forward)
and 2k+1 (reverse), so slot ^ 1 is always the partner. Adjacency lists are
scanned in insertion order with a current-arc pointer, which makes every
run deterministic for a given network.

One blocking-flow core (`_dinitz`) serves both questions. The maximum
flow is a single run of it; the minimum-cost maximum flow runs it once per
primal-dual round, on the arcs whose reduced cost a Dijkstra has just
brought to zero (Ahuja, Magnanti & Orlin, *Network Flows*, 1993, 9.8).
Its costs must be non-negative, so zero potentials start it (ibid., ch.
9). The rounds are at most the distinct lengths of a shortest augmenting
path, which never shrink. The minimum-weight network subtracts the least
pair cost lo from every color->class cost, so they lie in [0, hi-lo]; the
first shortest path is source->color->class->sink, of length >= 0, and a
simple residual path enters each of the q color nodes at most once (from
the source, or back along a used color->class arc), so its length is at
most q*(hi-lo): at most q*(hi-lo) + 1 rounds, whatever the flow value.
Capacities above one do not change this count, since it bounds path
lengths, not paths.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from .graph import INT64_MAX, ColorConstraint, _vertex
from .spg import SpgGraph


class FlowNetwork:
    """Integer-capacity flow network with optional integer arc costs."""

    __slots__ = ("num_nodes", "source", "sink",
                 "arc_tails", "arc_heads", "arc_caps", "arc_costs",
                 "color_arc_range", "class_members", "choice", "cost_shift")

    def __init__(self, num_nodes: int, source: int, sink: int):
        self.num_nodes = num_nodes
        self.source = source
        self.sink = sink
        self.arc_tails: list[int] = []
        self.arc_heads: list[int] = []
        self.arc_caps: list[int] = []
        self.arc_costs: list[int] = []
        # set by build_arb_network
        self.color_arc_range = None
        self.class_members = None
        self.choice = None
        # added to the total cost once per unit of flow
        self.cost_shift = 0

    @property
    def num_arcs(self) -> int:
        return len(self.arc_tails)

    def add_arc(self, u: int, v: int, capacity: int, cost: int = 0) -> int:
        u = _vertex("arc tail", u, self.num_nodes)
        v = _vertex("arc head", v, self.num_nodes)
        for what, x in (("capacity", capacity), ("cost", cost)):
            if type(x) is not int and not isinstance(x, np.integer):
                raise ValueError(f"arc {what} {x!r} is not an integer")
        if capacity < 0:
            raise ValueError("arc capacity must be non-negative")
        self.arc_tails.append(u)
        self.arc_heads.append(v)
        self.arc_caps.append(int(capacity))
        self.arc_costs.append(int(cost))
        return self.num_arcs - 1


@dataclass
class FlowAssignment:
    """A feasible flow plus the instrumentation of the run that found it.

    From `dinitz_max_flow`, phases_executed counts the level graphs on
    which the sink was reachable. From `min_cost_max_flow`, it counts the
    primal-dual rounds, that is the Dijkstra searches that reached the
    sink. In both, advances, retreats and augments are the steps and
    augmenting paths of the depth-first blocking-flow search, summed over
    every run of it. On an arborescence network all of these count work on
    its class nodes, so one augment may route a whole class.
    """

    flow: list[int]
    value: int
    phases_executed: int
    total_cost: int
    advances: int = 0
    retreats: int = 0
    augments: int = 0


def _choice(spg: SpgGraph, minimize: bool) -> tuple[np.ndarray, np.ndarray]:
    """The in-edge each tight (head, color) pair takes, as a sorted pair list.

    Returns (keys, edges), one entry per pair that has an edge: keys are
    head * (q+1) + color, ascending, so a vertex's pairs form one run in
    color order; edges[i] is the smallest-id edge of that color into that
    head or, with minimize, the lightest such edge and then the smallest
    id. This is the one place where the solvers break ties.
    """
    _, h, c, w, ids = spg.columns()
    key = h.astype(np.int64) * (spg.q + 1) + c
    order = np.lexsort((ids, w, key) if minimize else (ids, key))
    key = key[order]
    first = np.ones(len(key), dtype=bool)
    first[1:] = np.diff(key) != 0
    return key[first], ids[order[first]]


def build_arb_network(spg: SpgGraph, alpha, minimize: bool = False
                      ) -> FlowNetwork:
    """Build the arborescence network for the tight subgraph and budgets.

    Node layout: 0 is the super source, 1..q the color nodes, q+1..q+K the
    K vertex classes numbered by their smallest members, and q+K+1 the
    super sink. The network keeps the pair list of `_choice(spg,
    minimize)` as `choice`. A vertex's row is its run of pairs: its
    in-colors and, with minimize, the dense rank of each pair's cost, the
    weight of its chosen edge; vertices with equal rows form a class.
    Color->class arcs come class by class in color order. They cost 0 for
    the feasibility question; with minimize each costs the class's cost
    for that color less `cost_shift`, the least cost of any pair, so that
    every cost is >= 0 (an object array of Python ints takes a spread past
    int64). `class_members` lists the non-root vertices class by class,
    ascending within each. A flow run on this network counts its phases,
    augments and steps on the classes, not on the vertices.
    """
    alpha = ColorConstraint.of(alpha)
    alpha.require_length(spg.q)
    n, q = spg.n, spg.q
    keys, edges = choice = _choice(spg, minimize)
    heads, colors = np.divmod(keys, q + 1)
    costs, lo = np.zeros(len(keys), dtype=np.int64), 0
    code = colors
    if minimize and len(keys):
        costs = spg.graph.columns()[3][edges]
        # every augmenting path crosses one more color->class arc forward
        # than back, so taking lo off each cost changes no flow
        lo = int(costs.min())
        if int(costs.max()) - lo > INT64_MAX:
            costs = costs.astype(object)
        costs = costs - lo
        # np.unique sorts Python ints too, so object costs stay exact
        rank = np.unique(costs, return_inverse=True)[1]
        code = rank * (q + 1) + colors
    # in the narrowest unsigned type, which numpy sorts by radix up to 16 bits
    code = code.astype(np.min_scalar_type(int(code.max(initial=0))))
    counts = np.bincount(heads, minlength=n)
    starts = np.cumsum(counts) - counts
    vertices = np.flatnonzero(np.arange(n) != spg.root)
    lengths = counts[vertices]
    # equal rows side by side, ids ascending within each run of them; rows
    # of one length at a time, so each is a dense block of its pairs
    order = np.argsort(lengths, kind="stable")
    new_row = np.ones(len(order), dtype=bool)
    a = 0
    for length, b in enumerate(np.cumsum(np.bincount(lengths)).tolist()):
        at = order[a:b]
        rows = code[starts[vertices[at], None] + np.arange(length)]
        by_row = np.lexsort((at, *rows.T))
        order[a:b] = at[by_row]
        rows = rows[by_row]
        new_row[a + 1:b] = (rows[1:] != rows[:-1]).any(axis=1)
        a = b
    smallest = vertices[order[new_row]]
    # classes numbered by their smallest members
    cls = np.argsort(np.argsort(smallest))[np.cumsum(new_row) - 1]
    sizes = np.bincount(cls, minlength=len(smallest))
    first = np.sort(smallest)
    num_classes = len(first)
    # the pairs of each class's smallest member, class by class
    is_first = np.zeros(n, dtype=bool)
    is_first[first] = True
    pair = np.flatnonzero(is_first[heads])
    ks = np.repeat(np.arange(num_classes), counts[first])
    H = FlowNetwork(q + num_classes + 2, 0, q + num_classes + 1)
    H.class_members = vertices[order[np.argsort(cls, kind="stable")]]
    H.choice, H.cost_shift = choice, lo
    H.color_arc_range = (q, q + len(ks))
    H.arc_tails = ([0] * q + colors[pair].tolist()
                   + list(range(q + 1, q + num_classes + 1)))
    H.arc_heads = (list(range(1, q + 1)) + (q + 1 + ks).tolist()
                   + [H.sink] * num_classes)
    H.arc_caps = (list(alpha.clamped(max(n - 1, 0))) + sizes[ks].tolist()
                  + sizes.tolist())
    H.arc_costs = [0] * q + costs[pair].tolist() + [0] * num_classes
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
    total, phases, advances, retreats, augments = _dinitz(
        to, cap, adj, H.source, H.sink)
    flows = [cap[2 * k + 1] for k in range(H.num_arcs)]
    return FlowAssignment(flow=flows, value=total, phases_executed=phases,
                          total_cost=0, advances=advances, retreats=retreats,
                          augments=augments)


def _dinitz(to, cap, adj, src: int, snk: int):
    """Push a maximum flow from src to snk over the slots listed in adj.

    Updates cap in place and returns (value, phases, advances, retreats,
    augments), counted as `dinitz_max_flow` documents them.
    """
    num_nodes = len(adj)
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
    return total, phases, advances, retreats, augments


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


def min_cost_max_flow(H: FlowNetwork) -> FlowAssignment:
    """Minimum-cost maximum flow by the primal-dual method.

    Arc costs must be non-negative (ValueError otherwise), so the first
    potentials are all zero: every reduced cost is then >= 0. Each
    round runs one Dijkstra on reduced costs, raises the potentials by the
    distances (capped at the sink's), and pushes a maximum flow with
    `_dinitz` over the residual arcs whose reduced cost is now zero: every
    augmenting path of that round is a shortest one. Each round lengthens
    the shortest augmenting path, so the rounds are at most the number of
    its distinct lengths, not the flow value. The total cost is that of
    the arcs plus `H.cost_shift` per unit of flow.
    """
    if any(c < 0 for c in H.arc_costs):
        raise ValueError("min_cost_max_flow requires non-negative arc costs")
    to, cap, adj, cost = _residual(H, True)
    src, snk = H.source, H.sink
    num_nodes = H.num_nodes
    INF = float("inf")
    phi = [0] * num_nodes
    # a node other than the sink that no arc leaves can pass on no flow,
    # so no arc into it is ever worth entering (a color no class has)
    onward = [False] * num_nodes
    for t in H.arc_tails:
        onward[t] = True
    onward[snk] = True
    total = 0
    rounds = advances = retreats = augments = 0
    while True:
        dist = [INF] * num_nodes
        dist[src] = 0
        heap = [(0, src)]
        while heap:
            d, u = heappop(heap)
            if d > dist[u]:
                continue
            for k in adj[u]:
                if cap[k] <= 0:
                    continue
                v = to[k]
                nd = d + cost[k] + phi[u] - phi[v]
                if nd < dist[v]:
                    dist[v] = nd
                    heappush(heap, (nd, v))
        if dist[snk] == INF:
            break
        ds = dist[snk]
        # capped at ds, so no zero-reduced-cost arc leads from the source
        # to a node farther than the sink: the Dinitz run never enters one
        for v in range(num_nodes):
            phi[v] += min(dist[v], ds)
        # every s-t path of zero reduced cost is now a shortest one; slot
        # k ^ 1 has the opposite reduced cost of k, so pushing flow here
        # leaves no residual slot with a negative one
        admissible = [[k for k in ks if onward[to[k]]
                       and cost[k] + pu == phi[to[k]]]
                      for ks, pu in zip(adj, phi)]
        value, _, adv, ret, aug = _dinitz(to, cap, admissible, src, snk)
        rounds += 1
        total += value
        advances += adv
        retreats += ret
        augments += aug
    flows = [cap[2 * k + 1] for k in range(H.num_arcs)]
    total_cost = (sum(c * f for c, f in zip(H.arc_costs, flows))
                  + H.cost_shift * total)
    return FlowAssignment(flow=flows, value=total, phases_executed=rounds,
                          total_cost=total_cost, advances=advances,
                          retreats=retreats, augments=augments)


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
