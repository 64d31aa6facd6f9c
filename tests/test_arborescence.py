from random import Random

import pytest

from ccgraph import (Arborescence, ColoredDigraph, SpgGraph, WrongColorCount,
                     cc_arb_flow, cc_arb_flow_stats, cc_rb_arb,
                     min_cc_arb_flow, min_cc_arb_flow_stats, min_cc_rb_arb,
                     rb_partition, solve_cc_arb, unrooted_vertices,
                     verify_arborescence)
from ccgraph.testkit import (brute_cc_arb_general, brute_min_cc_arb,
                             cc_arb_match, gen_random_dag)

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
    # enough total budget to run the flow, which then falls short
    arb, stats = cc_arb_flow_stats(diamond_spg, (3, 0))
    assert arb is None and stats is not None and stats.value == 2


def test_diamond_short_budget_skips_flow(diamond_spg):
    arb, stats = cc_arb_flow_stats(diamond_spg, (1, 1))
    assert arb is None and stats is None


def test_single_vertex_empty_tree():
    spg = spg_of([], 1, 0)
    for solver in (cc_arb_flow, cc_arb_match):
        arb = solver(spg, ())
        assert arb == Arborescence(root=0, parent_edge={},
                                   color_counts=(), total_weight=0)


def test_unrooted_vertex_means_infeasible():
    spg = spg_of([(0, 1, 1, 1)], 3, 1)
    assert unrooted_vertices(spg) == [2]
    assert cc_arb_flow(spg, (5,)) is None
    assert cc_arb_match(spg, (5,)) is None


def test_solve_cc_arb_picks_by_color_count(diamond, diamond_spg):
    tree, stats, solver = solve_cc_arb(diamond_spg, (2, 1))
    assert solver == "rb" and stats is None
    assert tree == cc_rb_arb(diamond_spg, (2, 1))
    tree, stats, solver = solve_cc_arb(diamond_spg, (2, 1), minimize=True)
    assert solver == "rb" and tree == min_cc_rb_arb(diamond_spg, (2, 1))
    spg3 = spg_of(diamond.edge_tuples(), 4, 3)
    tree, stats, solver = solve_cc_arb(spg3, (2, 1, 0))
    assert solver == "flow" and stats.value == 3
    assert tree == cc_arb_flow(spg3, (2, 1, 0))
    tree, stats, solver = solve_cc_arb(spg3, (2, 1, 0), minimize=True)
    assert solver == "flow" and stats.total_cost == tree.total_weight == 3


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
    arb, stats = min_cc_arb_flow_stats(diamond_min_dag, (2, 1))
    assert stats.value == 3 and stats.total_cost == 3


def test_min_flow_picks_cheapest_then_smallest_id():
    # same color twice into 1: weights 5 then 2, so edge 1 wins; a tie
    # into 2 must fall to the smaller id
    edges = [(0, 1, 1, 5), (0, 1, 1, 2), (0, 2, 1, 4), (0, 2, 1, 4)]
    spg = spg_of(edges, 3, 1)
    arb = min_cc_arb_flow(spg, (2,))
    assert arb.parent_edge == {1: 1, 2: 2}
    assert arb.total_weight == 6


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
