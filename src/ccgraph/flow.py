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
The rounds may start from any flow under potentials that keep every
residual arc's reduced cost >= 0 (ibid., ch. 9). A plain network starts
from zero flow and zero potentials, its costs being non-negative. The
arborescence network starts from its cheapest assignment, every class on
its cheapest color, which is of least cost but may overfill colors; the
rounds then route only the overflow (`_cheapest_assignment`), and a
return arc of cost -M lets them drop the units that no budget admits.

The rounds are at most the distinct lengths of a shortest augmenting
path, which never shrink. The minimum-weight network subtracts the least
pair cost lo from every color->class cost, so they lie in [0, hi-lo]. A
simple residual path enters each of the q color nodes at most once (from
the source, or back along a used color->class arc). From zero flow a
path is source->color->class->sink at first, of length >= 0, and at most
q*(hi-lo) long, so there are at most q*(hi-lo) + 1 rounds. From the
cheapest assignment a path that moves vertices between colors has its
length in [0, q*(hi-lo)], and one over the return arc, with M =
q*(hi-lo) + 1, in [1, M + (q-1)*(hi-lo)], so there are at most
(2q-1)*(hi-lo) + 2 rounds. Both bounds hold whatever the flow value;
capacities above one do not change them, since they bound path lengths,
not paths.

The final potentials phi give the q color prices pi_c = max(phi(c) -
phi(source), 0) of the transportation dual: every vertex's color attains
the least w(v, c) + pi_c over its tight in-colors c, and pi_c > 0 only on
a color used to its budget. They prove a tree of least weight without a
residual graph (McConnell et al., "Certifying algorithms", Comput. Sci.
Rev. 5(2), 2011).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import mul

import numpy as np

from .graph import (INT64_MAX, ColorConstraint, _int_array, _magnitude,
                    _stable_order, _vertex)
from .spg import SpgGraph

INF = float("inf")


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
    primal-dual rounds, that is the Dijkstra searches that reached their
    target, the sink or, on an arborescence network, the overflow node;
    it is 0 when the cheapest assignment fits the budgets. In both,
    advances, retreats and augments are the steps and augmenting paths of
    the depth-first blocking-flow search, summed over every run of it. On
    an arborescence network all of these count work on its class nodes,
    so one augment may route a whole class. `prices` holds the color
    prices pi_1..pi_q that `min_cost_max_flow` returns for an arborescence
    network, as the module docstring defines them, and is empty otherwise.
    """

    flow: list[int]
    value: int
    phases_executed: int
    total_cost: int
    advances: int = 0
    retreats: int = 0
    augments: int = 0
    prices: tuple[int, ...] = ()


def _choice(spg: SpgGraph, minimize: bool) -> tuple[np.ndarray, np.ndarray]:
    """The in-edge each tight (head, color) pair takes, as a sorted pair list.

    Returns (keys, edges), one entry per pair that has an edge: keys are
    head * (q+1) + color, ascending, so a vertex's pairs form one run in
    color order; edges[i] is the smallest-id edge of that color into that
    head or, with minimize, the lightest such edge and then the smallest
    id. This is the one place where the solvers break ties.

    The tight ids ascend, so a stable sort of the keys puts the smallest id
    first in each pair's run. With minimize, a stable sort of the combined
    key key * (hi-lo+1) + (w - lo), lo and hi the least and the greatest
    weight, puts the lightest edge first, where the combined keys fit
    int64, and a lexsort by key, weight and id does so elsewhere.
    """
    _, h, c, w, ids = spg.columns()
    key = h.astype(np.int64) * (spg.q + 1) + c
    if not minimize:
        order = _stable_order(key)
    else:
        lo, hi = (int(w.min()), int(w.max())) if len(w) else (0, 0)
        if spg.n * (spg.q + 1) * (hi - lo + 1) <= INT64_MAX:
            order = _stable_order(
                key * (hi - lo + 1) + np.asarray(w - lo, dtype=np.int64))
        else:
            order = np.lexsort((ids, w, key))
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
    order = _stable_order(lengths)
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
    first = np.sort(smallest)
    num_classes = len(first)
    number = np.full(n, -1, dtype=np.int64)
    number[first] = np.arange(num_classes)
    cls = number[smallest][np.cumsum(new_row) - 1]
    sizes = np.bincount(cls, minlength=num_classes)
    # the pairs of each class's smallest member, class by class
    pair = np.flatnonzero(number[heads] >= 0)
    ks = np.repeat(np.arange(num_classes), counts[first])
    H = FlowNetwork(q + num_classes + 2, 0, q + num_classes + 1)
    H.class_members = vertices[order[_stable_order(cls)]]
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


def _slots(num_nodes: int, tails: np.ndarray, heads: np.ndarray,
           caps: np.ndarray, flow: np.ndarray):
    """The residual network of arcs carrying `flow`, as paired slots.

    Returns (to, cap, adj, slot_to, slot_tail, by_tail): the head and
    residual capacity of every slot and each node's slots in slot order
    as lists, the head and tail of every slot as arrays, and all slots
    grouped by tail in that order.
    """
    to = np.empty(2 * len(tails), dtype=np.int64)
    to[0::2], to[1::2] = heads, tails
    slot_tail = to.reshape(-1, 2)[:, ::-1].ravel()
    cap = np.empty(len(to), dtype=caps.dtype)
    cap[0::2], cap[1::2] = caps - flow, flow
    by_tail = np.argsort(slot_tail, kind="stable")
    return (to.tolist(), cap.tolist(), _by_tail(by_tail, slot_tail, num_nodes),
            to, slot_tail, by_tail)


def _by_tail(slots: np.ndarray, slot_tail: np.ndarray, num_nodes: int
             ) -> list[list[int]]:
    """Per node, the slots that leave it: `slots` must come grouped by
    tail, in ascending node order and in slot order within a node."""
    flat = slots.tolist()
    ends = np.cumsum(np.bincount(slot_tail[slots],
                                 minlength=num_nodes)).tolist()
    return [flat[a:b] for a, b in zip([0] + ends, ends)]


def _arcs(H: FlowNetwork):
    """H's arc tails, heads, capacities and costs as exact arrays."""
    return (np.asarray(H.arc_tails, dtype=np.int64),
            np.asarray(H.arc_heads, dtype=np.int64),
            _int_array(H.arc_caps), _int_array(H.arc_costs))


def _residual(H: FlowNetwork, flow=None):
    """(to, cap, adj) of H's residual network under `flow`, or zero flow."""
    flow = np.zeros(H.num_arcs, dtype=np.int64) if flow is None else flow
    return _slots(H.num_nodes, *_arcs(H)[:3], _int_array(flow))[:3]


def dinitz_max_flow(H: FlowNetwork) -> FlowAssignment:
    """Maximum flow by blocking flows on level graphs.

    Counts one phase per level graph on which the sink was reachable, plus
    every advance, retreat, and augmenting path of the depth-first blocking
    flow search. Requires all arc costs zero.
    """
    if any(c != 0 for c in H.arc_costs):
        raise ValueError("dinitz_max_flow requires all arc costs zero")
    to, cap, adj = _residual(H)
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


def _cheapest_assignment(H: FlowNetwork, tails, heads, caps, costs):
    """The start of an arborescence network: its cheapest assignment.

    Every class puts its whole size on its cheapest color arc, the first
    in color order among equal costs, and each source arc carries what its
    color's budget admits of that load. Under the potentials phi (each
    class its cheapest cost, the sink and any class with no color arc the
    largest of these, 0 elsewhere) every residual arc then costs >= 0.

    Two kinds of arc join the network, each carrying its whole capacity.
    An overflow node X feeds every color loaded past its budget with the
    excess: a unit routed from the source to X moves one vertex off that
    color, onto one with budget to spare. A return arc sink->source of
    cost -M, with M = q * (hi - lo) + 1, carries the assigned flow: its
    residual arc source->sink lets a unit that no reroute can place leave
    the flow, at a price above every reroute. Returns the arc arrays with
    the new arcs appended, the flow on them, phi, X and the overflow.
    """
    q, hi = H.color_arc_range
    src, snk, x = H.source, H.sink, H.num_nodes
    rank = costs[q:hi]
    if rank.dtype == object:
        rank = np.unique(rank, return_inverse=True)[1]
    # the color arcs come class by class in color order, and lexsort is
    # stable, so each class's run starts with its first cheapest arc
    order = np.lexsort((rank, heads[q:hi]))
    first = np.flatnonzero(np.diff(heads[q:hi], prepend=-1) != 0)
    cheapest = q + order[first]
    classes = heads[cheapest]
    # class node q+1+i leaves by the sink arc hi+i, of the class's size
    to_sink = hi + classes - (q + 1)
    size = caps[to_sink]
    flow = np.zeros(len(tails), dtype=np.int64)
    flow[cheapest] = flow[to_sink] = size
    # float sums of sizes, exact: they total at most n - 1
    load = np.bincount(tails[cheapest], weights=size, minlength=q + 1)
    load = load[1:].astype(np.int64)
    flow[:q] = np.minimum(load, caps[:q])
    over = np.flatnonzero(load > caps[:q])
    least = costs[cheapest]
    top = costs[q:hi].max() if hi > q else 0
    phi = np.zeros(x + 1, dtype=costs.dtype)
    phi[q + 1:snk + 1] = least.max() if len(least) else 0
    phi[classes] = least
    assigned = int(size.sum())
    excess = load[over] - flow[over]
    arcs = (np.concatenate([tails, [snk], np.full(len(over), x)]),
            np.concatenate([heads, [src], over + 1]),
            np.concatenate([caps, [assigned], excess]),
            np.concatenate([costs, _int_array([-(q * int(top) + 1)]),
                            np.zeros(len(over), dtype=np.int64)]),
            np.concatenate([flow, [assigned], excess]))
    return arcs, phi, x, int(excess.sum())


def min_cost_max_flow(H: FlowNetwork) -> FlowAssignment:
    """Minimum-cost maximum flow by the primal-dual method.

    Arc costs must be non-negative (ValueError otherwise). A plain network
    starts from zero flow under zero potentials, and its rounds run to
    the sink. An arborescence network starts from its cheapest assignment
    (`_cheapest_assignment`), and its rounds run to the overflow node X
    until every unit of overflow has reached it, which always happens: a
    unit can always leave the flow over the return arc. The result is a
    minimum-cost circulation, and the return arc's -M per unit outweighs
    every reroute, so the flow it leaves is maximum and of least cost.

    Each round runs one Dijkstra on reduced costs up to the target, raises
    the potentials by the distances (capped at the target's), and pushes a
    maximum flow with `_dinitz` over the residual arcs whose reduced cost
    is now zero: every augmenting path of that round is a shortest one.
    Each round lengthens the shortest augmenting path, so the rounds are
    at most the number of its distinct lengths, not the flow value. The
    total cost is that of the arcs plus `H.cost_shift` per unit of flow.
    On an arborescence network the final potentials give the color
    prices: pi_c = max(phi(c) - phi(source), 0).
    """
    if min(H.arc_costs, default=0) < 0:
        raise ValueError("min_cost_max_flow requires non-negative arc costs")
    m, src = H.num_arcs, H.source
    arcs = *_arcs(H), np.zeros(m, dtype=np.int64)
    phi = np.zeros(H.num_nodes, dtype=np.int64)
    target, left = H.sink, INF
    if H.color_arc_range is not None:
        arcs, phi, target, left = _cheapest_assignment(H, *arcs[:4])
    tails, heads, caps, costs, flow = arcs
    num_nodes = len(phi)
    to, cap, adj, slot_to, slot_tail, by_tail = _slots(num_nodes, tails,
                                                       heads, caps, flow)
    top = _magnitude(costs)
    if top > INT64_MAX:
        # -M may be -2^63, whose negation wraps in int64
        costs = costs.astype(object)
    slot_cost = np.empty(len(to), dtype=costs.dtype)
    slot_cost[0::2], slot_cost[1::2] = costs, -costs
    cost = slot_cost.tolist()
    # a node other than the target that no arc leaves can pass on no flow,
    # so no arc into it is ever worth entering (a color no class has)
    onward = np.zeros(num_nodes, dtype=bool)
    onward[tails] = True
    onward[target] = True
    into_onward = onward[slot_to]
    phi = phi.tolist()
    total = 0
    rounds = advances = retreats = augments = 0
    while total < left:
        dist = [INF] * num_nodes
        dist[src] = 0
        heap = [(0, src)]
        while heap:
            d, u = heappop(heap)
            if u == target:
                break
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
        ds = dist[target]
        if ds == INF:
            break
        # capped at ds, so no zero-reduced-cost arc leads from the source
        # to a node farther than the target: the Dinitz run never enters
        # one; every node still on the heap lies at ds or beyond
        phi = [p + (d if d < ds else ds) for p, d in zip(phi, dist)]
        # every path of zero reduced cost is now a shortest one; slot k ^ 1
        # has the opposite reduced cost of k, so pushing flow here leaves
        # no residual slot with a negative one
        p = _int_array(phi)
        if top + _magnitude(p) > INT64_MAX:
            # a sum could wrap in int64; compare Python ints
            slot_cost, p = slot_cost.astype(object), p.astype(object)
        zero = into_onward & (slot_cost + p[slot_tail] == p[slot_to])
        admissible = _by_tail(by_tail[zero[by_tail]], slot_tail, num_nodes)
        value, _, adv, ret, aug = _dinitz(to, cap, admissible, src, target)
        rounds += 1
        total += value
        advances += adv
        retreats += ret
        augments += aug
    flows = cap[1:2 * m:2]
    prices = ()
    if H.color_arc_range is not None:
        # the return arc, slot pair 2m and 2m+1, carries the flow's value
        total = cap[2 * m + 1]
        prices = tuple(max(phi[c] - phi[src], 0)
                       for c in range(1, H.color_arc_range[0] + 1))
    total_cost = sum(map(mul, H.arc_costs, flows)) + H.cost_shift * total
    return FlowAssignment(flow=flows, value=total, phases_executed=rounds,
                          total_cost=total_cost, advances=advances,
                          retreats=retreats, augments=augments,
                          prices=prices)


def min_cut(H: FlowNetwork, assignment: FlowAssignment
            ) -> tuple[frozenset[int], int]:
    """Source side of the residual cut left by a maximum flow, and its capacity."""
    to, cap, adj = _residual(H, assignment.flow)
    seen = _reachable_forward(adj, to, cap, H.source)
    side = frozenset(u for u in range(H.num_nodes) if seen[u])
    capacity = sum(H.arc_caps[k] for k in range(H.num_arcs)
                   if H.arc_tails[k] in side and H.arc_heads[k] not in side)
    return side, capacity
