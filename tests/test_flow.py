import math
from collections import deque
from random import Random

import numpy as np
import pytest

from ccgraph import (ColoredDigraph, FlowNetwork, SpgGraph,
                     build_arb_network, build_spg, dinitz_max_flow,
                     min_cost_max_flow, min_cut, sssp)
from ccgraph.testkit import BipartiteGraph, hopcroft_karp


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
    H = build_arb_network(diamond_spg, (2, 1))
    assert (H.num_nodes, H.source, H.sink) == (7, 0, 6)
    assert (H.graph_n, H.q, H.root) == (4, 2, 0)
    arcs = list(zip(H.arc_tails, H.arc_heads, H.arc_caps))
    assert arcs == [(0, 1, 2), (0, 2, 1),
                    (1, 3, 1), (2, 4, 1), (1, 5, 1), (2, 5, 1),
                    (3, 6, 1), (4, 6, 1), (5, 6, 1)]
    assert H.color_arc_range == (2, 6)
    assert H.vertex_node(1) == 3 and H.vertex_node(3) == 5
    assert all(H.node_vertex(H.vertex_node(v)) == v for v in (1, 2, 3))


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
    # vertex 2 has two tight color-1 in-edges but still gets a single unit arc
    g = ColoredDigraph(3, 2, [(0, 1, 1, 1), (1, 2, 1, 1), (0, 2, 1, 2)])
    spg = build_spg(g, 0, sssp(g, 0))
    H = build_arb_network(spg, (2, 0))
    color_arcs = [(H.arc_tails[k], H.arc_heads[k])
                  for k in range(*H.color_arc_range)]
    assert color_arcs == [(1, 3), (1, 4)]
    assert all(H.arc_caps[k] == 1 for k in range(*H.color_arc_range))


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
    costs = np.zeros((4, 3), dtype=np.int64)
    costs[1, 1] = 1
    costs[2, 2] = 1
    costs[3, 1] = 1
    costs[3, 2] = 5
    cheap = min_cost_max_flow(
        build_arb_network(diamond_min_dag, (2, 1), arc_cost_matrix=costs))
    assert (cheap.value, cheap.total_cost) == (3, 3)
    forced = min_cost_max_flow(
        build_arb_network(diamond_min_dag, (1, 2), arc_cost_matrix=costs))
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
    H.add_arc(1, 2, 1, cost=-5)
    H.add_arc(0, 2, 1, cost=2)
    H.add_arc(2, 3, 1, cost=0)
    a = min_cost_max_flow(H)
    assert (a.value, a.total_cost) == (1, 2)
    check_flow_is_valid(H, a)


def test_mcmf_handles_negative_costs_without_cycles():
    H = FlowNetwork(4, 0, 3)
    H.add_arc(0, 1, 1, cost=-4)
    H.add_arc(1, 2, 1, cost=-4)
    H.add_arc(0, 2, 1, cost=1)
    H.add_arc(2, 3, 2, cost=0)
    a = min_cost_max_flow(H)
    assert (a.value, a.total_cost) == (2, -7)
    check_flow_is_valid(H, a)


def test_mcmf_rejects_negative_cost_cycle():
    H = FlowNetwork(4, 0, 3)
    H.add_arc(0, 1, 1, cost=1)
    H.add_arc(1, 2, 1, cost=-3)
    H.add_arc(2, 1, 1, cost=-3)
    H.add_arc(2, 3, 1, cost=0)
    with pytest.raises(ValueError):
        min_cost_max_flow(H)


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
