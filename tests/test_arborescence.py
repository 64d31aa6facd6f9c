import tracemalloc
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccgraph import (Arborescence, ColorConstraint, ColoredDigraph, SpgGraph,
                     WrongColorCount, build_arb_network, cc_arb_flow,
                     min_cc_arb_flow, min_cc_spt, min_cost_max_flow,
                     min_cut, solve_cc_arb, verify_arborescence)
from ccgraph.arborescence import (_check_arborescence, _prices_hold,
                                  _tree_paths)
from ccgraph.errors import Violation
from ccgraph.graph import _exact_sum, _vertex
from ccgraph.flow import _choice
from ccgraph.testkit import (brute_cc_arb_general, brute_min_cc_arb,
                             cc_arb_match, cc_rb_arb, gen_layered_dag,
                             gen_random_dag, min_cc_rb_arb, rb_partition)
from test_flow import (check_flow_is_valid, edmonds_karp_value,
                       residual_has_negative_cycle)

ALL_DECIDERS = [cc_arb_flow, cc_arb_match]


def spg_of(edges, n, q, root=0):
    return SpgGraph.from_dag(ColoredDigraph(n, q, edges), root)


def assert_good(spg, arb, alpha):
    assert verify_arborescence(spg.graph, spg.root, arb, alpha) == []


def test_diamond_all_solvers_same_tree(diamond_spg):
    expected = Arborescence(root=0, parent_edge={1: 0, 2: 1, 3: 2},
                            color_counts=(2, 1), total_weight=3)
    for solver in (cc_arb_flow, cc_arb_match, cc_rb_arb):
        arb = solver(diamond_spg, (2, 1))
        assert arb == expected
        assert_good(diamond_spg, arb, (2, 1))
    assert expected.edge_ids() == [0, 1, 2]


def test_diamond_tight_budget_infeasible(diamond_spg):
    for solver in (cc_arb_flow, cc_arb_match, cc_rb_arb):
        assert solver(diamond_spg, (2, 0)) is None
        assert solver(diamond_spg, (3, 0)) is None
    # enough total budget, but color 2 is the only way into vertex 2
    arb, stats = solve_cc_arb(diamond_spg, (3, 0))
    assert arb is None and stats is not None and stats.value == 2


def test_diamond_short_budget_stops_the_flow_at_two(diamond_spg):
    # budgets of 2 in total for 3 vertices: the source arcs cap the flow
    arb, stats = solve_cc_arb(diamond_spg, (1, 1))
    assert arb is None and stats.value == 2


def test_single_vertex_empty_tree():
    spg = spg_of([], 1, 0)
    for solver in (cc_arb_flow, cc_arb_match):
        arb = solver(spg, ())
        assert arb == Arborescence(root=0, parent_edge={},
                                   color_counts=(), total_weight=0)


def test_unrooted_vertex_means_infeasible():
    spg = spg_of([(0, 1, 1, 1)], 3, 1)
    assert cc_arb_flow(spg, (5,)) is None
    assert cc_arb_match(spg, (5,)) is None


def test_solve_cc_arb_sends_two_colors_to_flow(diamond, diamond_spg):
    tree, stats = solve_cc_arb(diamond_spg, (2, 1))
    assert stats.value == 3
    assert tree == cc_arb_flow(diamond_spg, (2, 1))
    tree, stats = solve_cc_arb(diamond_spg, (2, 1), minimize=True)
    assert tree == min_cc_arb_flow(diamond_spg, (2, 1))
    assert stats.total_cost == tree.total_weight
    spg3 = spg_of(diamond.edge_tuples(), 4, 3)
    tree, stats = solve_cc_arb(spg3, (2, 1, 0))
    assert stats.value == 3
    assert tree == cc_arb_flow(spg3, (2, 1, 0))
    tree, stats = solve_cc_arb(spg3, (2, 1, 0), minimize=True)
    assert stats.total_cost == tree.total_weight == 3


def test_rb_partition_classes(diamond_spg):
    p = rb_partition(diamond_spg)
    assert (p.v_r, p.v_b, p.v_rb) == ((1,), (2,), (3,))


def test_rb_partition_needs_two_colors():
    spg = spg_of([(0, 1, 1, 1)], 2, 1)
    with pytest.raises(WrongColorCount):
        rb_partition(spg)
    with pytest.raises(WrongColorCount):
        cc_rb_arb(spg, (1,))
    with pytest.raises(WrongColorCount):
        min_cc_rb_arb(spg, (1,))


def test_rb_flexible_vertex_absorbs_slack():
    # a forced red, b forced blue, c reachable both ways
    edges = [(0, 1, 1, 1), (0, 2, 2, 1), (0, 3, 1, 1), (0, 3, 2, 1)]
    spg = spg_of(edges, 4, 2)
    assert cc_rb_arb(spg, (1, 1)) is None
    arb = cc_rb_arb(spg, (2, 1))
    assert arb.parent_edge == {1: 0, 2: 1, 3: 2}
    assert arb.color_counts == (2, 1)
    flipped = cc_rb_arb(spg, (1, 2))
    assert flipped.parent_edge == {1: 0, 2: 1, 3: 3}
    assert flipped.color_counts == (1, 2)


def test_rb_all_one_color_path():
    n = 6
    edges = [(v, v + 1, 1, 1) for v in range(n - 1)]
    spg = spg_of(edges, n, 2)
    arb = cc_rb_arb(spg, (n - 1, 0))
    assert arb.color_counts == (n - 1, 0)
    assert cc_rb_arb(spg, (n - 2, 5)) is None


def test_rb_single_vertex():
    spg = spg_of([], 1, 2)
    assert cc_rb_arb(spg, (0, 0)) == Arborescence(
        root=0, parent_edge={}, color_counts=(0, 0), total_weight=0)


def test_rb_picks_smallest_edge_id_per_head():
    # two red edges into vertex 1; the earlier one must be chosen
    edges = [(0, 1, 1, 9), (0, 1, 1, 2)]
    spg = spg_of(edges, 2, 2)
    arb = cc_rb_arb(spg, (1, 0))
    assert arb.parent_edge == {1: 0}
    assert arb.total_weight == 9


def test_min_rb_regret_shift():
    edges = [(0, 1, 1, 1), (0, 1, 2, 10), (0, 2, 1, 1), (0, 2, 2, 2)]
    spg = spg_of(edges, 3, 2)
    balanced = min_cc_rb_arb(spg, (1, 1))
    assert balanced.parent_edge == {1: 0, 2: 3}
    assert (balanced.color_counts, balanced.total_weight) == ((1, 1), 3)
    all_red = min_cc_rb_arb(spg, (2, 0))
    assert (all_red.color_counts, all_red.total_weight) == ((2, 0), 2)
    all_blue = min_cc_rb_arb(spg, (0, 2))
    assert (all_blue.color_counts, all_blue.total_weight) == ((0, 2), 12)
    assert min_cc_rb_arb(spg, (0, 0)) is None
    assert min_cc_rb_arb(spg, (0, 1)) is None


def test_min_rb_single_vertex():
    spg = spg_of([], 1, 2)
    arb = min_cc_rb_arb(spg, (0, 0))
    assert arb.total_weight == 0 and arb.parent_edge == {}


def test_min_flow_diamond(diamond_min_dag):
    cheap = min_cc_arb_flow(diamond_min_dag, (2, 1))
    assert cheap.total_weight == 3
    assert cheap.parent_edge == {1: 0, 2: 1, 3: 2}
    forced = min_cc_arb_flow(diamond_min_dag, (1, 2))
    assert forced.total_weight == 7
    assert forced.parent_edge == {1: 0, 2: 1, 3: 3}
    loose = min_cc_arb_flow(diamond_min_dag, (3, 3))
    assert loose.total_weight == 3
    assert min_cc_arb_flow(diamond_min_dag, (2, 0)) is None
    arb, stats = solve_cc_arb(diamond_min_dag, (2, 1), minimize=True)
    assert stats.value == 3 and stats.total_cost == 3


def test_min_flow_picks_cheapest_then_smallest_id():
    # same color twice into 1: weights 5 then 2, so edge 1 wins; a tie
    # into 2 must fall to the smaller id
    edges = [(0, 1, 1, 5), (0, 1, 1, 2), (0, 2, 1, 4), (0, 2, 1, 4)]
    spg = spg_of(edges, 3, 1)
    arb = min_cc_arb_flow(spg, (2,))
    assert arb.parent_edge == {1: 1, 2: 2}
    assert arb.total_weight == 6


def test_min_rb_tied_regrets_cross_in_vertex_order():
    # every vertex prefers the same side by the same margin, so the
    # smallest ids cross first
    edges = [e for v in (1, 2, 3) for e in ((0, v, 1, 1), (0, v, 2, 2))]
    arb = min_cc_rb_arb(spg_of(edges, 4, 2), (1, 2))
    assert arb.parent_edge == {1: 1, 2: 3, 3: 4}
    assert (arb.color_counts, arb.total_weight) == ((1, 2), 5)
    mirror = [(t, h, c, 3 - w) for t, h, c, w in edges]
    arb = min_cc_rb_arb(spg_of(mirror, 4, 2), (2, 1))
    assert arb.parent_edge == {1: 0, 2: 2, 3: 5}
    assert (arb.color_counts, arb.total_weight) == ((2, 1), 5)


def test_min_tree_tie_break_is_the_class_rule():
    # both vertices prefer color 1 by the same regret, and one must cross.
    # The min-cost flow starts from the cheapest assignment, both on color
    # 1, and its first shortest reroute, in class order, moves vertex 1's
    # class to color 2; the regret rule moves the smaller id, vertex 1, as
    # well, so the two give the same tree, of weight 2
    edges = [(0, 1, 1, 0), (0, 1, 2, 1), (0, 2, 1, 1), (1, 2, 2, 2)]
    spg = spg_of(edges, 3, 2)
    flow = min_cc_arb_flow(spg, (1, 2))
    rule = min_cc_rb_arb(spg, (1, 2))
    assert flow.parent_edge == {1: 1, 2: 2}
    assert rule.parent_edge == {1: 1, 2: 2}
    assert flow.total_weight == rule.total_weight == 2
    # the same choice on a graph whose edges are all tight from 0
    g = ColoredDigraph(3, 2, [(0, 1, 1, 0), (0, 1, 2, 0), (0, 2, 1, 2),
                              (1, 2, 2, 2)])
    spt = min_cc_spt(g, 0, (1, 2))
    assert spt.spg_edge_count == 4 and spt.solver_used == "min_flow"
    assert spt.tree.parent_edge == {1: 1, 2: 2}
    rule = min_cc_rb_arb(SpgGraph.from_dag(g, 0), (1, 2))
    assert rule.parent_edge == {1: 1, 2: 2}
    assert spt.tree.total_weight == rule.total_weight == 2


@pytest.mark.parametrize("storage", ["list", "array"])
def test_min_rb_regret_past_int64(storage):
    # vertex 1 would pay 2^63 to cross, which wraps in int64; vertex 2
    # pays 1, so it is the one that crosses
    big = 2 ** 62
    cols = ([0, 0, 0, 0], [1, 1, 2, 2], [1, 2, 1, 2], [-big, big, 0, 1])
    if storage == "list":
        g = ColoredDigraph(3, 2, zip(*cols))
    else:
        g = ColoredDigraph.from_columns(
            3, 2, *(np.array(col, dtype=np.int64) for col in cols))
    arb = min_cc_rb_arb(SpgGraph.from_dag(g, 0), (1, 1))
    assert arb.parent_edge == {1: 0, 2: 3}
    assert arb.total_weight == -big + 1


EXTREME_WEIGHTS = st.one_of(
    st.integers(-3, 5), st.sampled_from([2 ** 62, -2 ** 62]),
    st.integers(0, 3).map(lambda k: 2 ** 63 + k))


@st.composite
def budgeted_dags(draw):
    # every non-root vertex gets at least one in-edge from an earlier
    # vertex; labels and edge ids are shuffled so neither follows the
    # topological order
    n = draw(st.integers(1, 8))
    q = draw(st.integers(1, 4))
    label = draw(st.permutations(range(n)))
    edges = []
    for v in range(1, n):
        for _ in range(draw(st.integers(1, 3))):
            u = draw(st.integers(0, v - 1))
            edges.append((label[u], label[v], draw(st.integers(1, q)),
                          draw(EXTREME_WEIGHTS)))
    edges = draw(st.permutations(edges))
    if draw(st.booleans()):
        g = ColoredDigraph(n, q, edges)
    else:
        cols = [list(col) for col in zip(*edges)] or [[], [], [], []]
        w = cols[3]
        wide = any(abs(x) > 2 ** 63 - 1 for x in w)
        g = ColoredDigraph.from_columns(
            n, q, *(np.array(col, dtype=np.int64) for col in cols[:3]),
            np.array(w, dtype=object if wide else np.int64))
    alpha = tuple(draw(st.integers(0, n)) for _ in range(q))
    return SpgGraph.from_dag(g, label[0]), alpha


@given(budgeted_dags())
def test_solvers_take_the_documented_edge_of_each_color(case):
    spg, alpha = case
    g = spg.graph
    solvers = [(cc_arb_flow, False), (min_cc_arb_flow, True)]
    if spg.q == 2:
        solvers += [(cc_rb_arb, False), (min_cc_rb_arb, True)]
    trees = {}
    for solver, minimize in solvers:
        arb = trees[solver] = solver(spg, alpha)
        if arb is None:
            continue
        assert_good(spg, arb, alpha)
        assert type(arb.total_weight) is int
        for v, e in arb.parent_edge.items():
            same = [f for f in spg.in_edge_ids()[v]
                    if g.colors[f] == g.colors[e]]
            rank = (lambda f: (int(g.weights[f]), f)) if minimize else None
            assert e == min(same, key=rank), (solver.__name__, v)
    if spg.q == 2:
        assert trees[cc_arb_flow] == trees[cc_rb_arb]
        assert (cc_arb_match(spg, alpha) is None) == (trees[cc_rb_arb]
                                                     is None)
        assert (trees[min_cc_arb_flow] is None) == (trees[min_cc_rb_arb]
                                                   is None)
        if trees[min_cc_rb_arb] is not None:
            assert (trees[min_cc_rb_arb].total_weight
                    == trees[min_cc_arb_flow].total_weight)


@st.composite
def dags_with_repeated_rows(draw):
    # each vertex copies one of a few in-edge templates, (color, weight)
    # pairs, so in-color sets and cheapest-weight rows repeat across
    # vertices; a heavier second edge of a template color sometimes joins
    n = draw(st.integers(2, 8))
    q = draw(st.sampled_from([3, 4, 5, 63, 64, 65]))
    templates = draw(st.lists(
        st.lists(st.tuples(st.integers(1, q), EXTREME_WEIGHTS),
                 min_size=1, max_size=2, unique_by=lambda cw: cw[0]),
        min_size=1, max_size=3))
    label = draw(st.permutations(range(n)))
    edges = []
    for v in range(1, n):
        template = draw(st.sampled_from(templates))
        for color, weight in template:
            edges.append((label[draw(st.integers(0, v - 1))], label[v],
                          color, weight))
        if draw(st.integers(0, 3)) == 0:
            color, weight = template[0]
            edges.append((label[draw(st.integers(0, v - 1))], label[v],
                          color, weight + draw(st.integers(0, 2))))
    edges = draw(st.permutations(edges))
    if draw(st.booleans()):
        g = ColoredDigraph(n, q, edges)
    else:
        cols = [list(col) for col in zip(*edges)]
        wide = any(abs(x) > 2 ** 63 - 1 for x in cols[3])
        g = ColoredDigraph.from_columns(
            n, q, *(np.array(col, dtype=np.int64) for col in cols[:3]),
            np.array(cols[3], dtype=object if wide else np.int64))
    alpha = tuple(draw(st.integers(0, n - 1)) for _ in range(q))
    return SpgGraph.from_dag(g, label[0]), alpha


@st.composite
def tight_subsets(draw):
    # a random DAG cut down to a random subset of its edges, rooted at its
    # first vertex or at any: vertices left without an in-edge and budgets
    # short in total are both common, and nothing rules them out before
    # the flow
    n = draw(st.integers(1, 7))
    q = draw(st.integers(1, 3))
    label = draw(st.permutations(range(n)))
    edges = [(label[u], label[v], draw(st.integers(1, q)),
              draw(st.integers(0, 3)))
             for v in range(1, n) for u in range(v)
             if draw(st.integers(0, 2))]
    g = ColoredDigraph(n, q, edges)
    drop = draw(st.sets(st.integers(0, max(g.m - 1, 0)), max_size=3))
    root = draw(st.integers(0, n - 1)) if draw(st.booleans()) else label[0]
    spg = SpgGraph(g, root, [e for e in range(g.m) if e not in drop])
    return spg, tuple(draw(st.integers(0, n)) for _ in range(q))


@given(tight_subsets())
def test_the_flow_alone_decides_every_answer(case):
    spg, alpha = case
    tree, run = solve_cc_arb(spg, alpha)
    cheapest, min_run = solve_cc_arb(spg, alpha, minimize=True)
    feasible = cc_arb_match(spg, alpha) is not None
    best = brute_min_cc_arb(spg, alpha)
    assert (best is not None) == feasible
    for got, flow in ((tree, run), (cheapest, min_run)):
        assert flow is not None
        assert (got is not None) == feasible == (flow.value == spg.n - 1)
        assert flow.value <= spg.n - 1
    if feasible:
        assert_good(spg, tree, alpha)
        assert_good(spg, cheapest, alpha)
        assert cheapest.total_weight == min_run.total_cost == best


@given(dags_with_repeated_rows())
def test_class_network_matches_the_oracles(case):
    spg, alpha = case
    g = spg.graph
    arb, _ = solve_cc_arb(spg, alpha)
    assert (arb is None) == (cc_arb_match(spg, alpha) is None)
    cheapest, stats = solve_cc_arb(spg, alpha, minimize=True)
    best = brute_min_cc_arb(spg, alpha)
    assert (cheapest is None) == (best is None)
    if cheapest is not None:
        assert type(cheapest.total_weight) is int
        assert cheapest.total_weight == stats.total_cost == best
    for tree, minimize in ((arb, False), (cheapest, True)):
        if tree is None:
            continue
        assert_good(spg, tree, alpha)
        chosen = dict(zip(*(a.tolist() for a in _choice(spg, minimize))))
        rows = {}
        for v, e in sorted(tree.parent_edge.items()):
            color = int(g.colors[e])
            pairs = [chosen.get(v * (g.q + 1) + c) for c in range(g.q + 1)]
            assert e == pairs[color]
            # interchangeable vertices take colors in ascending id order
            row = tuple(None if f is None else int(g.weights[f]) if minimize
                        else True for f in pairs[1:])
            assert color >= rows.get(row, color)
            rows[row] = color


@given(st.one_of(tight_subsets(), dags_with_repeated_rows()))
def test_min_cost_flow_keeps_its_contract_on_class_networks(case):
    # the cheapest assignment, its reroutes and, on a "no", the units the
    # return arc drops: whatever the start, the run is a maximum flow of
    # least cost, with a minimum cut of its value
    spg, alpha = case
    H = build_arb_network(spg, alpha, minimize=True)
    run = min_cost_max_flow(H)
    check_flow_is_valid(H, run)
    assert run.value == edmonds_karp_value(H)
    assert not residual_has_negative_cycle(H, run.flow)
    assert min_cut(H, run)[1] == run.value
    best = brute_min_cc_arb(spg, alpha)
    assert (best is None) == (run.value < spg.n - 1)
    if best is not None:
        assert run.total_cost == best


def test_return_arc_cost_of_minus_two_to_the_63():
    # weights 0 and 2^63 - 1 on the one color give M = 2^63, so the return
    # arc costs -2^63, which int64 holds but cannot negate; the costlier
    # vertex is the one that leaves the flow
    edges = [(0, 1, 1, 0), (0, 2, 1, 2 ** 63 - 1)]
    tree, run = solve_cc_arb(spg_of(edges, 3, 1), (1,), minimize=True)
    assert tree is None
    assert (run.value, run.total_cost, run.flow[1:3]) == (1, 0, [1, 0])


def prices_prove(spg, tree, prices, alpha):
    # plain-Python reading of the certificate: pi >= 0, every vertex pays
    # the least w(v, c) + pi_c over its tight in-edges, and pi_c > 0 only
    # on a color used to its budget, clamped to n - 1
    g = spg.graph
    least = {}
    for e in spg.edge_ids.tolist():
        v, pay = int(g.heads[e]), (int(g.weights[e])
                                   + prices[int(g.colors[e]) - 1])
        least[v] = min(pay, least.get(v, pay))
    budgets = ColorConstraint.of(alpha).clamped(spg.n - 1)
    return (all(p >= 0 for p in prices)
            and all(int(g.weights[e]) + prices[int(g.colors[e]) - 1]
                    == least[v] for v, e in tree.parent_edge.items())
            and all(p == 0 or used == b for p, used, b
                    in zip(prices, tree.color_counts, budgets)))


@given(st.one_of(tight_subsets(), dags_with_repeated_rows()))
def test_min_cost_flow_prices_prove_the_tree(case):
    spg, alpha = case
    tree, run = solve_cc_arb(spg, alpha, minimize=True)
    assert len(run.prices) == spg.q
    if tree is None:
        return
    H = build_arb_network(spg, alpha, minimize=True)
    assert prices_prove(spg, tree, run.prices, alpha)
    assert _prices_hold(spg, H, tree, run.prices)


def test_a_perturbed_price_or_color_fails_the_certificate():
    # three vertices, each 0 on color 1 and 2 on color 2, and room for two
    # on color 1: one crosses, and color 1 must cost pi_1 = 2 more
    edges = [e for v in (1, 2, 3) for e in ((0, v, 1, 0), (0, v, 2, 2))]
    spg, alpha = spg_of(edges, 4, 2), (2, 3)
    H = build_arb_network(spg, alpha, minimize=True)
    tree, run = solve_cc_arb(spg, alpha, minimize=True)
    assert tree.parent_edge == {1: 0, 2: 2, 3: 5}
    assert run.prices == (2, 0)
    checks = (lambda t, p: prices_prove(spg, t, p, alpha),
              lambda t, p: _prices_hold(spg, H, t, p))
    for check in checks:
        assert check(tree, run.prices)
        for i in (0, 1):
            for step in (-1, 1):
                prices = list(run.prices)
                prices[i] += step
                assert not check(tree, tuple(prices)), (i, step)
        for v, e in tree.parent_edge.items():
            # edge e ^ 1 enters v in the other color
            moved = {**tree.parent_edge, v: e ^ 1}
            counts = [0, 0]
            for f in moved.values():
                counts[f % 2] += 1
            other = Arborescence(0, moved, tuple(counts), 2 * counts[1])
            assert_good(spg, other, (3, 3))
            assert not check(other, run.prices), v


def test_class_network_memory_follows_the_tight_pairs():
    # one n x (q+1) int64 table would take 1000 * 4097 * 8 bytes = 32.8 MB
    # here; the pair list and the network take a few MB
    g = gen_layered_dag(1000, 3000, 4096, seed=7)
    spg = SpgGraph.from_dag(g, 0)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        tree = min_cc_arb_flow(spg, (g.n,) * g.q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tree is not None
    assert peak < 8_000_000


@given(dags_with_repeated_rows(),
       st.sampled_from([-5, 3, 2 ** 62, -2 ** 62, 2 ** 63]))
def test_min_cost_moves_by_the_shift_alone(case, k):
    # adding k to every weight moves every spanning tree by k (n - 1):
    # the same tree and flow must win, at a total cost exactly that much
    # higher, also where the shifted weights pass int64
    spg, alpha = case
    g = spg.graph
    t, h, c, w = g.columns()
    shifted = SpgGraph.from_dag(
        ColoredDigraph.from_columns(g.n, g.q, t, h, c,
                                    [x + k for x in w.tolist()]),
        spg.root, spg.topo_order)
    tree, stats = solve_cc_arb(spg, alpha, minimize=True)
    moved, moved_stats = solve_cc_arb(shifted, alpha, minimize=True)
    assert (moved_stats.flow, moved_stats.value) == (stats.flow, stats.value)
    assert moved_stats.total_cost == stats.total_cost + k * stats.value
    if tree is None:
        assert moved is None
        return
    assert moved.parent_edge == tree.parent_edge
    assert moved.color_counts == tree.color_counts
    assert moved.total_weight == tree.total_weight + k * (g.n - 1)


@pytest.mark.parametrize("solver", [cc_arb_flow, min_cc_arb_flow])
def test_class_hands_colors_out_in_id_order(solver):
    # vertices 1, 2 and 3 form one class fed by colors 1 and 3; budgets
    # split its flow 2/1, and the two lowest ids take color 1
    edges = ([(0, v, 3, 1) for v in (3, 2, 1)]
             + [(0, v, 1, 1) for v in (3, 2, 1)])
    arb = solver(spg_of(edges, 4, 3), (2, 0, 1))
    assert arb.parent_edge == {1: 5, 2: 4, 3: 0}
    assert arb.color_counts == (2, 0, 1)


def test_no_solver_walks_per_vertex_edge_lists(diamond, diamond_spg,
                                               monkeypatch):
    def walk(self):
        raise AssertionError("per-vertex in-edge walk on the solver path")

    spg3 = spg_of(diamond.edge_tuples(), 4, 3)
    monkeypatch.setattr(SpgGraph, "in_edge_ids", walk)
    for spg, alpha in ((diamond_spg, (2, 1)), (spg3, (2, 1, 0))):
        for minimize in (False, True):
            tree, _ = solve_cc_arb(spg, alpha, minimize=minimize)
            assert tree.parent_edge == {1: 0, 2: 1, 3: 2}


def brute_feasible(g, root, alpha):
    return brute_cc_arb_general(g, root, alpha) is not None


def test_deciders_match_brute_on_random_dags():
    rng = Random(21)
    for i in range(300):
        n = rng.randint(2, 7)
        q = rng.randint(1, 3)
        g = gen_random_dag(n, q, rng.random(), 9_000 + i)
        alpha = tuple(rng.randint(0, n) for _ in range(q))
        spg = SpgGraph.from_dag(g, 0)
        want = brute_feasible(g, 0, alpha)
        for solver in ALL_DECIDERS:
            arb = solver(spg, alpha)
            assert (arb is not None) == want, (i, solver.__name__)
            if arb is not None:
                assert_good(spg, arb, alpha)
        if q == 2:
            arb = cc_rb_arb(spg, alpha)
            assert (arb is not None) == want, i
            if arb is not None:
                assert_good(spg, arb, alpha)


def test_min_solvers_match_brute_on_random_dags():
    rng = Random(22)
    for i in range(300):
        n = rng.randint(2, 6)
        q = rng.randint(1, 3)
        g = gen_random_dag(n, q, rng.random(), 17_000 + i,
                           weight_range=(-5, 20))
        alpha = tuple(rng.randint(0, n) for _ in range(q))
        spg = SpgGraph.from_dag(g, 0)
        best = brute_min_cc_arb(spg, alpha)
        got = min_cc_arb_flow(spg, alpha)
        assert (got is None) == (best is None), i
        if got is not None:
            assert got.total_weight == best, i
            assert_good(spg, got, alpha)
        if q == 2:
            rb = min_cc_rb_arb(spg, alpha)
            assert (rb is None) == (best is None), i
            if rb is not None:
                assert rb.total_weight == best, i
                assert_good(spg, rb, alpha)


def test_verify_reports_wrong_root(diamond, diamond_spg):
    arb = cc_arb_flow(diamond_spg, (2, 1))
    bad = Arborescence(root=1, parent_edge=arb.parent_edge,
                       color_counts=arb.color_counts,
                       total_weight=arb.total_weight)
    kinds = [v.kind for v in verify_arborescence(diamond, 0, bad, (2, 1))]
    assert kinds == ["wrong_root"]


def test_verify_reports_coverage_problems(diamond):
    missing = Arborescence(root=0, parent_edge={1: 0, 2: 1},
                           color_counts=(1, 1), total_weight=2)
    kinds = {v.kind for v in verify_arborescence(diamond, 0, missing, (2, 1))}
    assert "not_spanning" in kinds
    extra = Arborescence(root=0, parent_edge={0: 0, 1: 0, 2: 1, 3: 2},
                         color_counts=(2, 1), total_weight=3)
    kinds = {v.kind for v in verify_arborescence(diamond, 0, extra, (2, 1))}
    assert "extra_vertex" in kinds


def test_verify_reports_bad_edges(diamond):
    out_of_range = Arborescence(root=0, parent_edge={1: 99, 2: 1, 3: 2},
                                color_counts=(1, 1), total_weight=2)
    kinds = {v.kind for v in
             verify_arborescence(diamond, 0, out_of_range, (2, 1))}
    assert "missing_edge" in kinds
    # edge 0 enters vertex 1, not vertex 2
    wrong_head = Arborescence(root=0, parent_edge={1: 0, 2: 0, 3: 2},
                              color_counts=(2, 0), total_weight=2)
    kinds = {v.kind for v in
             verify_arborescence(diamond, 0, wrong_head, (2, 1))}
    assert "wrong_head" in kinds


def test_verify_reports_cycles_as_unreachable():
    g = ColoredDigraph(3, 1, [(0, 1, 1, 1), (1, 2, 1, 1), (2, 1, 1, 1)])
    cyc = Arborescence(root=0, parent_edge={1: 2, 2: 1},
                       color_counts=(2,), total_weight=2)
    kinds = [v.kind for v in verify_arborescence(g, 0, cyc, (2,))]
    assert kinds.count("not_reachable") == 2


def test_verify_reports_stored_field_mismatches(diamond):
    lying = Arborescence(root=0, parent_edge={1: 0, 2: 1, 3: 2},
                         color_counts=(1, 2), total_weight=10)
    kinds = {v.kind for v in verify_arborescence(diamond, 0, lying, (2, 1))}
    assert kinds == {"counts_mismatch", "weight_mismatch"}


def test_verify_reports_budget_problems(diamond):
    good = Arborescence(root=0, parent_edge={1: 0, 2: 1, 3: 2},
                        color_counts=(2, 1), total_weight=3)
    kinds = [v.kind for v in verify_arborescence(diamond, 0, good, (1, 1))]
    assert kinds == ["color_budget"]
    kinds = [v.kind for v in verify_arborescence(diamond, 0, good, (1, 1, 1))]
    assert kinds == ["budget_length"]


def test_verify_accepts_every_solver_output(diamond_spg, diamond_min_dag):
    cases = [
        (diamond_spg, cc_arb_flow(diamond_spg, (3, 3)), (3, 3)),
        (diamond_spg, cc_arb_match(diamond_spg, (2, 1)), (2, 1)),
        (diamond_spg, cc_rb_arb(diamond_spg, (1, 2)), (1, 2)),
        (diamond_min_dag, min_cc_arb_flow(diamond_min_dag, (1, 2)), (1, 2)),
        (diamond_min_dag, min_cc_rb_arb(diamond_min_dag, (2, 1)), (2, 1)),
    ]
    for spg, arb, alpha in cases:
        assert arb is not None
        assert_good(spg, arb, alpha)


@pytest.mark.parametrize("bad", [1.0, 2.7, True, "7", np.True_,
                                 np.float64(1)])
def test_arborescence_takes_integer_ids_only(bad):
    for parent in ({bad: 0}, {1: bad}):
        with pytest.raises(ValueError, match="^parent edges: "):
            Arborescence(root=0, parent_edge=parent, color_counts=(1,),
                         total_weight=1)


def test_verify_rejects_a_tree_with_float_ids():
    # on the chain 0 -> 1 -> 2 this dict was once read as {1: 0, 2: 1}
    g = ColoredDigraph(3, 1, [(0, 1, 1, 1), (1, 2, 1, 1)])
    with pytest.raises(ValueError):
        verify_arborescence(g, 0, Arborescence(
            root=0, parent_edge={1.0: 0, 2.7: 1}, color_counts=(2,),
            total_weight=2), (2,))


def test_arborescence_stores_ascending_arrays():
    tree = Arborescence(root=0, parent_edge={np.int32(3): np.int64(2),
                                             1: 0, 2: 1},
                        color_counts=(2, 1), total_weight=3)
    assert tree.vertices.tolist() == [1, 2, 3]
    assert tree.edges.tolist() == [0, 1, 2]
    assert tree.vertices.dtype == tree.edges.dtype == np.int64
    assert list(tree.parent_edge.items()) == [(1, 0), (2, 1), (3, 2)]
    assert repr(tree) == ("Arborescence(root=0, parent_edge={1: 0, 2: 1, "
                          "3: 2}, color_counts=(2, 1), total_weight=3)")
    with pytest.raises(TypeError):
        hash(tree)
    # an id past int64 is kept exactly, for the verifier to report
    far = Arborescence(root=0, parent_edge={1: 0, 2: 1, 2 ** 64: 2},
                       color_counts=(2, 1), total_weight=3)
    assert far.parent_edge == {1: 0, 2: 1, 2 ** 64: 2}


@settings(max_examples=60)
@given(budgeted_dags(), st.randoms(use_true_random=False))
def test_trees_survive_the_dict_round_trip(case, rng):
    spg, alpha = case
    g, root = spg.graph, spg.root
    for minimize in (False, True):
        tree = solve_cc_arb(spg, alpha, minimize=minimize)[0]
        if tree is None:
            continue
        again = Arborescence(tree.root, tree.parent_edge, tree.color_counts,
                             tree.total_weight)
        assert again == tree and repr(again) == repr(tree)
        # drop one vertex and list the root, so that there is something
        # to report, then state the dict in a shuffled order
        items = list(tree.parent_edge.items())[1:] + [(root, 0)]
        shuffled = items[:]
        rng.shuffle(shuffled)
        trees = [Arborescence(root, dict(order), tree.color_counts,
                              tree.total_weight)
                 for order in (items, shuffled)]
        assert trees[0] == trees[1]
        assert (verify_arborescence(g, root, trees[0], alpha)
                == verify_arborescence(g, root, trees[1], alpha))


def masked_check_arborescence(g, root, tree, alpha):
    # reference: the self-check's body that copies the claimed tree
    # through its masks, whole or not
    out = []
    n, m = g.n, g.m
    root = _vertex("root", root)
    if not (0 <= root < n) or tree.root != root:
        out.append(Violation("wrong_root",
                             f"tree rooted at {tree.root}, expected {root}"))
        return out, None
    _, h, c, w = g.columns()
    keys, edges = tree.vertices, tree.edges
    inside = (keys >= 0) & (keys < n) & (keys != root)
    vertices = keys[inside].astype(np.int64)
    covered = np.zeros(n, dtype=bool)
    covered[vertices] = True
    covered[root] = True
    for v in np.flatnonzero(~covered).tolist():
        out.append(Violation("not_spanning", f"vertex {v} has no in-edge",
                             vertex=v))
    for v in keys[~inside].tolist():
        out.append(Violation("extra_vertex",
                             f"in-edge for vertex {v} outside the graph "
                             "or for the root", vertex=v))
    edges = edges[inside]
    in_range = (edges >= 0) & (edges < m)
    entered = np.full(len(edges), -1, dtype=h.dtype)
    entered[in_range] = h[edges[in_range].astype(np.int64)]
    wrong = in_range & (entered != vertices)
    bad = np.flatnonzero(~in_range | wrong)
    for i, v, e, got in zip(bad.tolist(), vertices[bad].tolist(),
                            edges[bad].tolist(), entered[bad].tolist()):
        if in_range[i]:
            out.append(Violation("wrong_head", f"edge {e} enters {got}, "
                                 f"not {v}", vertex=v, edge=e))
        else:
            out.append(Violation("missing_edge",
                                 f"edge id {e} out of range", vertex=v,
                                 edge=e))
    usable = in_range & ~wrong
    vertices = vertices[usable]
    edges = edges[usable].astype(np.int64)
    reached, d = _tree_paths(g, root, vertices, edges)
    for v in vertices[~reached[vertices]].tolist():
        out.append(Violation("not_reachable",
                             f"vertex {v} not reachable from the root "
                             "through the chosen edges", vertex=v))
    counts = np.bincount(c[edges], minlength=g.q + 1)[1:].tolist()
    total = _exact_sum(w[edges])
    if tuple(counts) != tree.color_counts:
        out.append(Violation("counts_mismatch",
                             f"stored color counts {tree.color_counts} "
                             f"but edges give {tuple(counts)}"))
    if total != tree.total_weight:
        out.append(Violation("weight_mismatch",
                             f"stored total weight {tree.total_weight} "
                             f"but edges sum to {total}"))
    try:
        alpha = ColorConstraint.of(alpha)
        alpha.require_length(g.q)
    except Exception as exc:
        out.append(Violation("budget_length", str(exc)))
        return out, d
    for i in range(g.q):
        if counts[i] > alpha[i]:
            out.append(Violation("color_budget",
                                 f"color {i + 1} used {counts[i]} times, "
                                 f"budget {alpha[i]}"))
    return out, d


@st.composite
def claimed_trees(draw):
    """A digraph with cycles, and a claimed tree: each listed vertex takes
    one of its in-edges, some of them wrong heads or ids out of range,
    with vertices left out or added (the root, negative ids and ids
    outside the graph), and stored counts and totals right or not."""
    n = draw(st.integers(1, 8))
    q = draw(st.integers(1, 3))
    weight = st.one_of(st.integers(-5, 9), st.sampled_from([2 ** 62, -2 ** 62]))
    edges = [(t, h, draw(st.integers(1, q)), draw(weight))
             for t in range(n) for h in range(n)
             if t != h and draw(st.booleans())]
    g = ColoredDigraph(n, q, edges)
    m = len(edges)
    root = draw(st.integers(0, n - 1))
    into = {v: [e for e, (_, h, _, _) in enumerate(edges) if h == v]
            for v in range(n)}
    parent = {}
    for v in range(n):
        if v == root or not into[v] or draw(st.integers(0, 9)) == 0:
            continue
        parent[v] = draw(st.sampled_from(into[v]))
    for v in list(parent):
        kind = draw(st.sampled_from(["right"] * 6 + ["head", "range"]))
        if kind == "head" and m:
            parent[v] = draw(st.integers(0, m - 1))
        elif kind == "range":
            parent[v] = draw(st.sampled_from([-1, m, m + 3, 2 ** 64]))
    for v in draw(st.lists(st.sampled_from([root, -1, -2, n, n + 4, 2 ** 70]),
                           max_size=2)):
        parent[v] = draw(st.integers(-1, m))
    listed = [e for v, e in parent.items()
              if 0 <= v < n and v != root and 0 <= e < m
              and edges[e][1] == v]
    counts = tuple(sum(edges[e][2] == k for e in listed)
                   for k in range(1, q + 1))
    total = sum(edges[e][3] for e in listed)
    if draw(st.booleans()):
        counts = tuple(draw(st.integers(0, 3)) for _ in range(q))
    if draw(st.booleans()):
        total += draw(st.integers(-2, 2))
    alpha = tuple(draw(st.integers(0, n)) for _ in range(
        draw(st.sampled_from([q, q, q, q + 1]))))
    tree_root = draw(st.sampled_from([root] * 9 + [(root + 1) % n]))
    return g, root, Arborescence(tree_root, parent, counts, total), alpha


@settings(max_examples=400)
@given(claimed_trees())
def test_self_check_reads_whole_trees_as_the_masked_body(case):
    g, root, tree, alpha = case
    out, d = _check_arborescence(g, root, tree, alpha)
    want, want_d = masked_check_arborescence(g, root, tree, alpha)
    assert out == want
    if want_d is None:
        assert d is None
    else:
        assert d.dtype == want_d.dtype and d.tolist() == want_d.tolist()
