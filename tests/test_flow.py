import math
from collections import deque
from random import Random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ccgraph import (ColoredDigraph, FlowNetwork, SpgGraph,
                     build_arb_network, build_spg, cc_arb_flow,
                     dinitz_max_flow, min_cost_max_flow, min_cut,
                     solve_cc_arb, sssp)
from ccgraph.flow import _choice
from ccgraph.testkit import BipartiteGraph, gen_layered_dag, hopcroft_karp


def edmonds_karp_value(H):
    # independent reference: BFS augmenting paths on adjacency matrices
    n = H.num_nodes
    cap = [[0] * n for _ in range(n)]
    for k in range(H.num_arcs):
        cap[H.arc_tails[k]][H.arc_heads[k]] += H.arc_caps[k]
    total = 0
    while True:
        prev = [-1] * n
        prev[H.source] = H.source
        queue = deque([H.source])
        while queue:
            u = queue.popleft()
            for v in range(n):
                if prev[v] < 0 and cap[u][v] > 0:
                    prev[v] = u
                    queue.append(v)
        if prev[H.sink] < 0:
            return total
        bottleneck = None
        v = H.sink
        while v != H.source:
            u = prev[v]
            bottleneck = cap[u][v] if bottleneck is None else min(
                bottleneck, cap[u][v])
            v = u
        v = H.sink
        while v != H.source:
            u = prev[v]
            cap[u][v] -= bottleneck
            cap[v][u] += bottleneck
            v = u
        total += bottleneck


def check_flow_is_valid(H, assignment):
    excess = [0] * H.num_nodes
    for k, f in enumerate(assignment.flow):
        assert 0 <= f <= H.arc_caps[k]
        excess[H.arc_tails[k]] -= f
        excess[H.arc_heads[k]] += f
    for u in range(H.num_nodes):
        if u == H.source:
            assert excess[u] == -assignment.value
        elif u == H.sink:
            assert excess[u] == assignment.value
        else:
            assert excess[u] == 0


def random_network(seed):
    rng = Random(seed)
    n = rng.randint(2, 8)
    H = FlowNetwork(n, 0, n - 1)
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < 0.45:
                H.add_arc(u, v, rng.randint(0, 4))
    return H


def test_arb_network_layout(diamond_spg):
    # vertices 1, 2 and 3 have the in-colors {1}, {2} and {1, 2}: three
    # classes of one vertex each, numbered by their members
    H = build_arb_network(diamond_spg, (2, 1))
    assert (H.num_nodes, H.source, H.sink) == (7, 0, 6)
    arcs = list(zip(H.arc_tails, H.arc_heads, H.arc_caps))
    assert arcs == [(0, 1, 2), (0, 2, 1),
                    (1, 3, 1), (2, 4, 1), (1, 5, 1), (2, 5, 1),
                    (3, 6, 1), (4, 6, 1), (5, 6, 1)]
    assert H.color_arc_range == (2, 6)
    assert H.class_members.tolist() == [1, 2, 3]


def test_arb_network_merges_vertices_with_equal_rows():
    # a star whose 4 leaves each have tight in-edges of colors 1 and 2
    g = ColoredDigraph(5, 2, [(0, v, c, 1) for v in range(1, 5)
                              for c in (1, 2)])
    spg = build_spg(g, 0, sssp(g, 0))
    H = build_arb_network(spg, (4, 4))
    assert (H.num_nodes, H.source, H.sink) == (5, 0, 4)
    assert list(zip(H.arc_tails, H.arc_heads, H.arc_caps)) == [
        (0, 1, 4), (0, 2, 4), (1, 3, 4), (2, 3, 4), (3, 4, 4)]
    assert H.class_members.tolist() == [1, 2, 3, 4]


def test_arb_network_clamps_budgets(diamond_spg):
    H = build_arb_network(diamond_spg, (50, 50))
    assert H.arc_caps[0] == 3 and H.arc_caps[1] == 3


def test_arb_network_single_edge():
    g = ColoredDigraph(2, 1, [(0, 1, 1, 1)])
    spg = build_spg(g, 0, sssp(g, 0))
    H = build_arb_network(spg, (1,))
    assert list(zip(H.arc_tails, H.arc_heads, H.arc_caps)) == [
        (0, 1, 1), (1, 2, 1), (2, 3, 1)]


def test_arb_network_one_arc_per_vertex_color_pair():
    # vertex 2 has two tight color-1 in-edges, vertex 1 one: both have the
    # in-colors {1}, so they share one class and one color-1 arc
    g = ColoredDigraph(3, 2, [(0, 1, 1, 1), (1, 2, 1, 1), (0, 2, 1, 2)])
    spg = build_spg(g, 0, sssp(g, 0))
    H = build_arb_network(spg, (2, 0))
    assert (H.num_nodes, H.source, H.sink) == (5, 0, 4)
    assert list(zip(H.arc_tails, H.arc_heads, H.arc_caps)) == [
        (0, 1, 2), (0, 2, 0), (1, 3, 2), (3, 4, 2)]
    assert H.color_arc_range == (2, 3)
    assert H.class_members.tolist() == [1, 2]


def test_dinitz_diamond_values(diamond_spg):
    H = build_arb_network(diamond_spg, (2, 1))
    a = dinitz_max_flow(H)
    assert a.value == 3
    assert a.total_cost == 0
    check_flow_is_valid(H, a)
    side, capacity = min_cut(H, a)
    assert capacity == 3 and H.source in side and H.sink not in side

    short = dinitz_max_flow(build_arb_network(diamond_spg, (2, 0)))
    assert short.value == 2
    assert dinitz_max_flow(build_arb_network(diamond_spg, (0, 0))).value == 0


def test_dinitz_counts_productive_phases_only():
    H = FlowNetwork(2, 0, 1)
    a = dinitz_max_flow(H)
    assert a.value == 0 and a.phases_executed == 0

    H2 = FlowNetwork(2, 0, 1)
    H2.add_arc(0, 1, 5)
    b = dinitz_max_flow(H2)
    assert b.value == 5 and b.phases_executed == 1
    assert b.augments >= 1 and b.advances >= b.augments


def test_dinitz_phase_bound_on_arb_networks():
    rng = Random(11)
    for i in range(40):
        g = gen = None
        from ccgraph.testkit import gen_random_dag
        g = gen_random_dag(rng.randint(2, 12), rng.randint(1, 4),
                           rng.random(), 500 + i)
        spg = SpgGraph.from_dag(g, 0)
        H = build_arb_network(spg, [g.n] * g.q)
        a = dinitz_max_flow(H)
        assert a.phases_executed <= 3 * math.isqrt(g.n - 1) + 6


def test_dinitz_rejects_costed_networks():
    H = FlowNetwork(2, 0, 1)
    H.add_arc(0, 1, 1, cost=3)
    with pytest.raises(ValueError):
        dinitz_max_flow(H)


def test_dinitz_matches_reference_on_random_networks():
    for seed in range(200):
        H = random_network(seed)
        a = dinitz_max_flow(H)
        assert a.value == edmonds_karp_value(H)
        check_flow_is_valid(H, a)
        side, capacity = min_cut(H, a)
        assert capacity == a.value
        assert H.source in side and H.sink not in side


def test_mcmf_diamond_min_costs(diamond_min_dag):
    # the chosen in-edges cost 1 (vertex 1, color 1), 1 (vertex 2, color 2),
    # and 1 or 5 (vertex 3, color 1 or 2)
    cheap = min_cost_max_flow(
        build_arb_network(diamond_min_dag, (2, 1), minimize=True))
    assert (cheap.value, cheap.total_cost) == (3, 3)
    forced = min_cost_max_flow(
        build_arb_network(diamond_min_dag, (1, 2), minimize=True))
    assert (forced.value, forced.total_cost) == (3, 7)


def test_mcmf_agrees_with_dinitz_on_zero_costs():
    for seed in range(60):
        H = random_network(seed)
        a = min_cost_max_flow(H)
        assert a.value == edmonds_karp_value(H)
        assert a.total_cost == 0
        check_flow_is_valid(H, a)


def test_mcmf_ignores_arcs_behind_zero_capacity():
    # the cheap arc hides behind a dead arc; potentials must not see it
    H = FlowNetwork(4, 0, 3)
    H.add_arc(0, 1, 0, cost=0)
    H.add_arc(1, 2, 1, cost=0)
    H.add_arc(0, 2, 1, cost=2)
    H.add_arc(2, 3, 1, cost=0)
    a = min_cost_max_flow(H)
    assert (a.value, a.total_cost) == (1, 2)
    check_flow_is_valid(H, a)


def test_mcmf_handles_negative_costs_without_cycles():
    # zero potentials need costs >= 0, so a negative one is rejected
    # even on a network without cycles
    H = FlowNetwork(4, 0, 3)
    H.add_arc(0, 1, 1, cost=-4)
    H.add_arc(1, 2, 1, cost=-4)
    H.add_arc(0, 2, 1, cost=1)
    H.add_arc(2, 3, 2, cost=0)
    with pytest.raises(ValueError, match="non-negative"):
        min_cost_max_flow(H)


def test_mcmf_rejects_negative_cost_cycle():
    H = FlowNetwork(4, 0, 3)
    H.add_arc(0, 1, 1, cost=1)
    H.add_arc(1, 2, 1, cost=-3)
    H.add_arc(2, 1, 1, cost=-3)
    H.add_arc(2, 3, 1, cost=0)
    with pytest.raises(ValueError):
        min_cost_max_flow(H)


@st.composite
def acyclic_costed_networks(draw):
    # arcs only go up in node id, so the network itself has no cycle;
    # parallel arcs are allowed
    n = draw(st.integers(2, 8))
    H = FlowNetwork(n, 0, n - 1)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for u, v in draw(st.lists(st.sampled_from(pairs), max_size=24)):
        H.add_arc(u, v, draw(st.integers(0, 4)),
                  cost=draw(st.integers(0, 10)))
    return H


def residual_has_negative_cycle(H, flow):
    # Bellman-Ford from a virtual source joined to every node at cost 0:
    # a relaxation in round n means a negative-cost residual cycle
    arcs = []
    for k, f in enumerate(flow):
        t, h, c = H.arc_tails[k], H.arc_heads[k], H.arc_costs[k]
        if f < H.arc_caps[k]:
            arcs.append((t, h, c))
        if f > 0:
            arcs.append((h, t, -c))
    dist = [0] * H.num_nodes
    for _ in range(H.num_nodes):
        changed = False
        for u, v, c in arcs:
            if dist[u] + c < dist[v]:
                dist[v] = dist[u] + c
                changed = True
        if not changed:
            return False
    return True


@given(acyclic_costed_networks())
def test_mcmf_is_optimal_by_residual_certificate(H):
    # a maximum flow whose residual network has no negative-cost cycle is
    # a minimum-cost maximum flow
    a = min_cost_max_flow(H)
    assert a.value == edmonds_karp_value(H)
    check_flow_is_valid(H, a)
    assert a.total_cost == sum(c * f for c, f in zip(H.arc_costs, a.flow))
    assert not residual_has_negative_cycle(H, a.flow)


def test_min_cost_rounds_do_not_grow_with_the_flow():
    # 799 units of flow, but with q = 8 colors and weights in 1..3 a
    # shortest augmenting path has one of at most 8 * (3 - 1) + 1 = 17
    # lengths, one Dijkstra round each (12 on this instance, the number
    # of distinct marginal costs, which any primal-dual run shares)
    g = gen_layered_dag(800, 2400, 8, seed=7)
    t, h, c, _ = g.columns()
    w = np.random.default_rng(7).integers(1, 4, g.m).astype(np.int64)
    spg = SpgGraph.from_dag(ColoredDigraph.from_columns(800, 8, t, h, c, w),
                            0)
    budgets = cc_arb_flow(spg, (799,) * 8).color_counts
    tree, stats = solve_cc_arb(spg, budgets, minimize=True)
    assert stats.value == 799
    assert 1 <= stats.phases_executed <= 17
    assert stats.augments >= stats.phases_executed
    assert tree.total_weight == stats.total_cost


def test_arb_networks_stay_class_sized(monkeypatch):
    # one node per distinct row of the non-root vertices, not per vertex:
    # a set of in-colors for the maximum flow, the cheapest weight of each
    # in-color for the minimum-cost flow (weights redrawn from 1..3 so
    # that the two groupings differ)
    from ccgraph import arborescence
    built = []

    def build(*args, **kwargs):
        built.append(build_arb_network(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(arborescence, "build_arb_network", build)
    g = gen_layered_dag(20000, 60000, 8, seed=7)
    t, h, c, _ = g.columns()
    w = np.random.default_rng(7).integers(1, 4, g.m).astype(np.int64)
    g = ColoredDigraph.from_columns(g.n, 8, t, h, c, w)
    spg = SpgGraph.from_dag(g, 0)
    cheapest = [{} for _ in range(g.n)]
    for v, color, weight in zip(h.tolist(), c.tolist(), w.tolist()):
        cheapest[v][color] = min(weight, cheapest[v].get(color, weight))
    signatures = {tuple(sorted(row)) for row in cheapest[1:]}
    cost_rows = {tuple(sorted(row.items())) for row in cheapest[1:]}
    assert 8 < len(signatures) < len(cost_rows) < g.n // 2
    solve_cc_arb(spg, (g.n,) * 8)
    solve_cc_arb(spg, (g.n,) * 8, minimize=True)
    assert [H.num_nodes for H in built] == [8 + len(signatures) + 2,
                                            8 + len(cost_rows) + 2]


def choice_oracle(spg, minimize):
    """`_choice` as it was with one lexsort of key, weight and edge id."""
    _, h, c, w, ids = spg.columns()
    key = h.astype(np.int64) * (spg.q + 1) + c
    order = np.lexsort((ids, w, key) if minimize else (ids, key))
    key = key[order]
    first = np.ones(len(key), dtype=bool)
    first[1:] = np.diff(key) != 0
    return key[first], ids[order[first]]


def check_choice(spg):
    for minimize in (False, True):
        keys, edges = _choice(spg, minimize)
        ref_keys, ref_edges = choice_oracle(spg, minimize)
        assert keys.dtype == ref_keys.dtype and edges.dtype == ref_edges.dtype
        assert keys.tolist() == ref_keys.tolist()
        assert edges.tolist() == ref_edges.tolist()


CHOICE_WEIGHTS = [
    st.integers(-3, 3),
    st.integers((1 << 62) - 2, (1 << 62) + 2),
    st.integers(1 << 63, (1 << 63) + 3),
    # a spread too wide for one combined key
    st.sampled_from([-(1 << 62), 1 << 62, 0, -5, (1 << 63) + 1]),
]


@st.composite
def tight_subgraphs(draw):
    """Small DAGs with many parallel edges per (head, color), taken whole
    or as a subset of their edge ids, in any order and with repeats."""
    n = draw(st.integers(1, 10))
    q = draw(st.sampled_from([1, 2, 3, 5, 512]))
    weight = draw(st.sampled_from(CHOICE_WEIGHTS))
    color = st.one_of(st.integers(1, min(q, 3)), st.integers(1, q))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    ends = draw(st.lists(pair.filter(lambda p: p[0] < p[1]),
                         max_size=40)) if n > 1 else []
    edges = [(t, h, draw(color), draw(weight)) for t, h in ends]
    g = ColoredDigraph(n, q, edges)
    if draw(st.booleans()) or not edges:
        return SpgGraph.from_dag(g, 0)
    ids = draw(st.lists(st.integers(0, len(edges) - 1), max_size=50))
    return SpgGraph(g, 0, ids)


@given(tight_subgraphs())
def test_choice_matches_the_lexsort(spg):
    check_choice(spg)


def test_choice_matches_the_lexsort_on_layered_dags():
    # the keys take two 16-bit digits; with weights 1..10^6 the
    # combined key takes three
    for n, q, top in ((20000, 8, 3), (20000, 8, 10 ** 6), (5000, 512, 3)):
        g = gen_layered_dag(n, 3 * n, q, seed=7)
        t, h, c, _ = g.columns()
        w = np.random.default_rng(7).integers(1, top + 1, g.m)
        check_choice(SpgGraph.from_dag(
            ColoredDigraph.from_columns(n, q, t, h, c, w), 0))


def test_bipartite_graph_validation():
    with pytest.raises(ValueError):
        BipartiteGraph(["a"], [0], [[0], [0]])
    with pytest.raises(ValueError):
        BipartiteGraph(["a"], [0], [[1]])


def test_hopcroft_karp_empty():
    assert hopcroft_karp(BipartiteGraph([], [], [])) == {}


def test_hopcroft_karp_complete():
    b = BipartiteGraph(["x", "y", "z"], [0, 1, 2],
                       [[0, 1, 2], [0, 1, 2], [0, 1, 2]])
    m = hopcroft_karp(b)
    assert sorted(m.keys()) == [0, 1, 2]
    assert sorted(m.values()) == ["x", "y", "z"]


def test_hopcroft_karp_forced_shape():
    b = BipartiteGraph(["a", "b"], ["p", "q"], [[0, 1], [0]])
    m = hopcroft_karp(b)
    assert m == {"p": "b", "q": "a"}


def kuhn_matching_size(L, R, adj):
    match_r = [-1] * R

    def visit(u, seen):
        for r in adj[u]:
            if r not in seen:
                seen.add(r)
                if match_r[r] < 0 or visit(match_r[r], seen):
                    match_r[r] = u
                    return True
        return False

    return sum(1 for u in range(L) if visit(u, set()))


def test_hopcroft_karp_matches_reference_on_random_graphs():
    rng = Random(7)
    for _ in range(300):
        L = rng.randint(0, 6)
        R = rng.randint(0, 6)
        adj = [[r for r in range(R) if rng.random() < 0.4] for _ in range(L)]
        m = hopcroft_karp(BipartiteGraph(list(range(L)), list(range(R)), adj))
        # well-formed: each arc exists, left labels used at most once
        assert len(set(m.values())) == len(m)
        for r, u in m.items():
            assert r in adj[u]
        assert len(m) == kuhn_matching_size(L, R, adj)
