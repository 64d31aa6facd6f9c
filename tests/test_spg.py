import heapq
from random import Random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ccgraph import (ColoredDigraph, DistanceTable, NegativeCycleReachable,
                     NonPositiveCycle, NotAcyclic, SpgGraph,
                     UnreachableVertex, build_spg, is_acyclic, sssp)
from ccgraph import spg as spg_module
from ccgraph.graph import _int_array
from ccgraph.spg import _kahn
from ccgraph.testkit import gen_layered_dag, gen_random_positive_cycle_digraph


def cycle_weight(g, edge_ids):
    return sum(int(g.weights[e]) for e in edge_ids)


def check_cycle_stitching(g, vertices, edge_ids):
    k = len(vertices)
    assert k == len(edge_ids) and k >= 2
    for i, e in enumerate(edge_ids):
        assert int(g.tails[e]) == vertices[i]
        assert int(g.heads[e]) == vertices[(i + 1) % k]


def test_single_vertex():
    g = ColoredDigraph(1, 0, [])
    d = sssp(g, 0)
    assert d.dist == [0]
    assert d.reachable(0) and d.distance(0) == 0


def test_two_edge_path():
    g = ColoredDigraph(3, 1, [(0, 1, 1, 1), (1, 2, 1, 1)])
    assert sssp(g, 0).dist == [0, 1, 2]


def test_diamond_distances(diamond):
    d = sssp(diamond, 0)
    assert d.dist == [0, 1, 1, 2]


def test_unreachable_is_none():
    g = ColoredDigraph(3, 1, [(0, 1, 1, 4)])
    d = sssp(g, 0)
    assert d.dist == [0, 4, None]
    assert not d.reachable(2)


def test_negative_cycle_raises_with_witness():
    g = ColoredDigraph(2, 1, [(0, 1, 1, -1), (1, 0, 1, -1)])
    with pytest.raises(NegativeCycleReachable) as info:
        sssp(g, 0)
    exc = info.value
    check_cycle_stitching(g, exc.vertices, exc.edge_ids)
    assert cycle_weight(g, exc.edge_ids) < 0


def test_negative_cycle_not_reached_is_fine():
    g = ColoredDigraph(4, 1, [(0, 1, 1, 2), (2, 3, 1, -1), (3, 2, 1, -1)])
    d = sssp(g, 0)
    assert d.dist == [0, 2, None, None]


def test_modes_agree_on_nonnegative_graphs():
    rng = Random(3)
    for i in range(30):
        g = gen_random_positive_cycle_digraph(rng.randint(2, 9), 2,
                                              rng.random() * 0.5, 100 + i)
        ref = spg_module._sssp_bellman_ford(g, 0).dist
        assert dijkstra_reference(g, 0).dist == ref
        assert sssp(g, 0).dist == ref


def test_bfs_mode_on_uniform_weights():
    g = ColoredDigraph(4, 1, [(0, 1, 1, 3), (1, 2, 1, 3), (0, 2, 1, 3),
                              (2, 3, 1, 3)])
    assert dijkstra_reference(g, 0).dist == [0, 3, 3, 6]
    assert sssp(g, 0).dist == [0, 3, 3, 6]


def test_auto_uses_bellman_ford_for_negative_dag():
    g = ColoredDigraph(3, 1, [(0, 1, 1, -2), (1, 2, 1, -2), (0, 2, 1, 0)])
    assert sssp(g, 0).dist == [0, -2, -4]


def dijkstra_reference(g, source):
    """The heapq Dijkstra that `sssp` ran before its bucketed routine."""
    _, heads, _, weights = g.columns()
    if bool((weights < 0).any()):
        raise ValueError("dijkstra mode requires non-negative weights")
    out = g.out_edge_ids()
    # Python ints, exact also when the column is an object array
    heads, weights = heads.tolist(), weights.tolist()
    dist = [None] * g.n
    done = [False] * g.n
    heap = [(0, source)]
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


NONNEG_WEIGHTS = {
    # zero-weight edges, and so zero-weight cycles, come up often
    "0..5": st.one_of(st.just(0), st.integers(0, 5)),
    "1..10^6": st.integers(1, 10 ** 6),
    "2^62": st.integers((1 << 62) - 3, 1 << 62),
    "2^63+k": st.integers(1 << 63, (1 << 63) + 5),
}


@st.composite
def nonneg_graphs(draw):
    n = draw(st.integers(1, 8))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    ends = draw(st.lists(pair.filter(lambda p: p[0] != p[1]), max_size=20)
                ) if n > 1 else []
    m = len(ends)
    kind = draw(st.sampled_from([*NONNEG_WEIGHTS, "uniform"]))
    if kind == "uniform":
        w0 = draw(st.sampled_from([0, 1, 7, 1 << 62, (1 << 63) + 1]))
        weights = [w0] * m
    else:
        weights = draw(st.lists(NONNEG_WEIGHTS[kind], min_size=m,
                                max_size=m))
    cols = [[t for t, _ in ends], [h for _, h in ends], [1] * m, weights]
    if draw(st.booleans()):
        cols = [_int_array(c) for c in cols]
    return (ColoredDigraph.from_columns(n, 1, *cols),
            draw(st.integers(0, n - 1)))


@pytest.mark.parametrize("cut", ["vector", "default", "scalar"])
@given(case=nonneg_graphs())
def test_sssp_matches_heapq_dijkstra(cut, case):
    # the cut sends every frontier to the numpy round, leaves it as it is,
    # or sends every frontier to the Python loop
    g, source = case
    ref = dijkstra_reference(g, source).dist
    assert spg_module._sssp_bellman_ford(g, source).dist == ref
    with pytest.MonkeyPatch.context() as mp:
        if cut != "default":
            mp.setattr(spg_module, "_SCALAR_EDGES",
                       0 if cut == "vector" else g.m + 1)
        assert sssp(g, source).dist == ref


def test_sssp_switches_between_relaxations_on_one_graph():
    # frontiers of these graphs fall on both sides of the cut in one run
    dag = gen_layered_dag(3000, 9000, 4, seed=7)
    t, h, c, _ = dag.columns()
    rng = np.random.default_rng(7)
    graphs = [ColoredDigraph.from_columns(dag.n, 4, t, h, c,
                                          rng.integers(lo, hi + 1, dag.m))
              for lo, hi in ((0, 2), (1, 10 ** 6))]
    graphs.append(gen_random_positive_cycle_digraph(400, 2, 0.02, 7))
    for g in graphs:
        assert sssp(g, 0).dist == dijkstra_reference(g, 0).dist


def test_distance_table_takes_integers_and_none_only():
    for bad in (1.5, True, "7"):
        with pytest.raises(ValueError, match="distance table"):
            DistanceTable(0, [0, bad])
    d = DistanceTable(0, [np.int64(0), np.int32(4), None, np.uint8(2)])
    assert d.values.dtype == np.int64
    assert d.reached.tolist() == [True, True, False, True]
    assert d.dist == [0, 4, None, 2]
    assert [type(x) for x in d.dist] == [int, int, type(None), int]
    assert (d.distance(1), d.distance(2)) == (4, None)
    assert type(d.distance(3)) is int
    assert d.reachable(3) and not d.reachable(2)
    assert d == DistanceTable(0, [0, 4, None, 2])
    assert d != DistanceTable(0, [0, 4, 0, 2])
    assert d != DistanceTable(1, [0, 4, None, 2])


def test_distances_past_int64_stay_exact():
    # the 2^62 weights: a chain whose second distance passes int64
    g = ColoredDigraph(3, 1, [(0, 1, 1, 1 << 62), (1, 2, 1, 1 << 62)])
    d = sssp(g, 0)
    assert d.values.dtype == object
    assert d.dist == [0, 1 << 62, 1 << 63]
    assert [type(x) for x in d.dist] == [int, int, int]
    assert d.distance(2) == 1 << 63
    assert d == DistanceTable(0, [0, 1 << 62, 1 << 63])
    # delta-stepping sums in Python ints here, but every distance fits
    g = ColoredDigraph(4, 1, [(0, 1, 1, 1 << 62), (0, 2, 1, 1)])
    d = sssp(g, 0)
    assert d.values.dtype == np.int64
    assert d.dist == [0, 1 << 62, 1, None]


def test_sssp_on_a_long_chain_is_the_prefix_sum():
    n = 5000
    t = np.arange(n - 1, dtype=np.int64)
    w = np.random.default_rng(7).integers(0, 4, n - 1)
    g = ColoredDigraph.from_columns(n, 1, t, t + 1, np.ones(n - 1, np.int64),
                                    w)
    assert sssp(g, 0).dist == [0] + np.cumsum(w).tolist()


def test_bad_source_rejected(diamond):
    with pytest.raises(ValueError):
        sssp(diamond, 7)


def test_spg_keeps_all_diamond_edges(diamond, diamond_spg):
    assert diamond_spg.edge_count == 4
    assert diamond_spg.root == 0
    assert sorted(diamond_spg.edge_ids.tolist()) == [0, 1, 2, 3]


def test_spg_drops_slack_parallel_edge():
    g = ColoredDigraph(2, 1, [(0, 1, 1, 1), (0, 1, 1, 5)])
    spg = build_spg(g, 0, sssp(g, 0))
    assert spg.edge_ids.tolist() == [0]


def test_zero_cycle_on_shortest_paths_rejected():
    g = ColoredDigraph(3, 1, [(0, 1, 1, 1), (1, 2, 1, 0), (2, 1, 1, 0)])
    d = sssp(g, 0)
    assert d.dist == [0, 1, 1]
    with pytest.raises(NonPositiveCycle) as info:
        build_spg(g, 0, d)
    exc = info.value
    check_cycle_stitching(g, exc.vertices, exc.edge_ids)
    assert cycle_weight(g, exc.edge_ids) == 0


def test_unreachable_vertex_rejected():
    g = ColoredDigraph(3, 1, [(0, 1, 1, 1)])
    with pytest.raises(UnreachableVertex):
        build_spg(g, 0, sssp(g, 0))


def test_distance_table_source_mismatch(diamond):
    d = sssp(diamond, 0)
    with pytest.raises(ValueError):
        build_spg(diamond, 1, d)


def test_stale_distance_table_detected(diamond):
    bogus = DistanceTable(0, [0, 1, 1, 99])
    spg = None
    try:
        spg = build_spg(diamond, 0, bogus)
    except NonPositiveCycle:
        pass
    # distances that tighten no edge into t leave t without in-edges
    if spg is not None:
        assert spg.in_edge_ids()[3] == []


def test_is_acyclic_empty():
    res = is_acyclic(ColoredDigraph(3, 0, []))
    assert res.acyclic and sorted(res.topo_order) == [0, 1, 2]


def test_is_acyclic_two_cycle_witness():
    g = ColoredDigraph(2, 1, [(0, 1, 1, 1), (1, 0, 1, 1)])
    res = is_acyclic(g)
    assert not res.acyclic
    check_cycle_stitching(g, res.cycle_vertices, res.cycle_edges)
    assert sorted(res.cycle_vertices) == [0, 1]


def test_topo_order_is_topological(diamond_spg):
    pos = {v: i for i, v in enumerate(diamond_spg.topo_order)}
    t, h, _, _, ids = diamond_spg.columns()
    for i in range(len(ids)):
        assert pos[int(t[i])] < pos[int(h[i])]


def test_random_positive_spgs_are_acyclic():
    # tight subgraphs of positive-weight digraphs can have no cycles
    for i in range(100):
        rng = Random(1000 + i)
        g = gen_random_positive_cycle_digraph(rng.randint(2, 10),
                                              rng.randint(1, 3),
                                              rng.random() * 0.6, 2000 + i)
        spg = build_spg(g, 0, sssp(g, 0))
        sub = ColoredDigraph(g.n, g.q,
                             [tuple(int(x) for x in (g.tails[e], g.heads[e],
                                                     g.colors[e],
                                                     g.weights[e]))
                              for e in spg.edge_ids.tolist()])
        assert is_acyclic(sub).acyclic


def test_from_dag_keeps_everything(diamond_min):
    spg = SpgGraph.from_dag(diamond_min, 0)
    assert spg.edge_count == 4
    assert spg.in_edge_ids()[3] == [2, 3]


def test_from_dag_rejects_cycle():
    g = ColoredDigraph(2, 1, [(0, 1, 1, 1), (1, 0, 1, 1)])
    with pytest.raises(NotAcyclic) as info:
        SpgGraph.from_dag(g, 0)
    check_cycle_stitching(g, info.value.vertices, info.value.edge_ids)


def test_from_dag_validates_supplied_order(diamond_min):
    spg = SpgGraph.from_dag(diamond_min, 0, topo_order=[0, 1, 2, 3])
    assert spg.topo_order == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        SpgGraph.from_dag(diamond_min, 0, topo_order=[3, 2, 1, 0])
    with pytest.raises(ValueError):
        SpgGraph.from_dag(diamond_min, 0, topo_order=[0, 0, 2, 3])


def test_spg_in_degree_by_color(diamond_spg):
    pi = diamond_spg.in_degree_by_color()
    assert pi.count(3, 1) == 1 and pi.count(3, 2) == 1
    assert pi.count(1, 1) == 1 and pi.count(1, 2) == 0


@st.composite
def distance_cases(draw):
    """A small graph with weights 0..3 or -3..5, often with a ring of
    zero-weight edges, and a distance table for it: the one sssp computes
    (Dijkstra's or Bellman-Ford's), or a bogus one, sometimes cut short or
    padded past n."""
    n = draw(st.integers(1, 7))
    weight = draw(st.sampled_from([st.sampled_from([0, 0, 0, 1, 2, 3]),
                                   st.integers(-3, 5)]))
    edges = []
    if draw(st.booleans()):
        # an edge into each vertex from a lower one: all are reachable
        edges = [(draw(st.integers(0, v - 1)), v, 1, draw(weight))
                 for v in range(1, n)]
    edges += draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                  st.integers(1, 2), weight)
        .filter(lambda e: e[0] != e[1]), max_size=3 * n))
    if n > 1 and draw(st.booleans()):
        ring = draw(st.lists(st.integers(0, n - 1), min_size=2,
                             max_size=n, unique=True))
        edges += [(u, ring[(i + 1) % len(ring)], 2, 0)
                  for i, u in enumerate(ring)]
    edges = draw(st.permutations(edges))
    if draw(st.booleans()) or not edges:
        g = ColoredDigraph(n, 2, edges)
    else:
        g = ColoredDigraph.from_columns(
            n, 2, *(np.array(col, dtype=np.int64) for col in zip(*edges)))
    dist = None
    if draw(st.booleans()):
        try:
            dist = sssp(g, 0).dist
        except NegativeCycleReachable:
            pass
    if dist is None:
        dist = [0] + draw(st.lists(
            st.sampled_from([*range(-1, 4), None]),
            min_size=n - 1, max_size=n - 1))
    resize = draw(st.sampled_from(["keep", "keep", "cut", "pad"]))
    if resize == "cut":
        dist = dist[:draw(st.integers(0, n - 1))]
    elif resize == "pad":
        dist = dist + draw(st.lists(st.sampled_from([0, 1, None]),
                                    min_size=1, max_size=3))
    return g, edges, dist


@given(distance_cases())
def test_build_spg_matches_a_sort_of_all_tight_edges(case):
    g, edges, dist = case
    d = DistanceTable(0, dist)
    if len(dist) != g.n:
        with pytest.raises(ValueError, match="distance table"):
            build_spg(g, 0, d)
        return
    if None in dist:
        with pytest.raises(UnreachableVertex) as info:
            build_spg(g, 0, d)
        assert info.value.vertex == dist.index(None)
        return
    tight = [j for j, (t, h, _, w) in enumerate(edges)
             if dist[t] + w == dist[h]]
    ref = _kahn(g.n, tight, g.tails, g.heads)
    if not ref.acyclic:
        with pytest.raises(NonPositiveCycle) as info:
            build_spg(g, 0, d)
        assert (info.value.vertices, info.value.edge_ids) == (
            ref.cycle_vertices, ref.cycle_edges)
        return
    spg = build_spg(g, 0, d)
    assert spg.edge_ids.tolist() == tight
    assert spg.topo_order == ref.topo_order
    pos = {v: i for i, v in enumerate(spg.topo_order)}
    assert all(pos[edges[j][0]] < pos[edges[j][1]] for j in tight)
