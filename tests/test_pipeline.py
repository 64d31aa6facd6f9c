from random import Random

import numpy as np
import pytest

from ccgraph import (Arborescence, ColorConstraint, ColoredDigraph,
                     DistanceTable, LowerBoundTooLarge,
                     NegativeCycleReachable, NonPositiveCycle, SpgGraph,
                     SptResult, UnreachableVertex, at_least_transform,
                     cc_arb_flow, cc_rb_arb, cc_spt, min_cc_arb_flow,
                     min_cc_rb_arb, min_cc_spt, verify_spt)
from ccgraph.testkit import (brute_min_cc_arb, cc_arb_match,
                             enumerate_spg_arborescences,
                             gen_random_positive_cycle_digraph)
from ccgraph.spg import build_spg, sssp


def test_diamond_spt(diamond):
    res = cc_spt(diamond, 0, (2, 1))
    assert res is not None
    assert res.tree.parent_edge == {1: 0, 2: 1, 3: 2}
    assert res.tree.color_counts == (2, 1)
    assert res.tree.total_weight == 3
    assert res.distances.dist == [0, 1, 1, 2]
    assert res.spg_edge_count == 4
    assert res.solver_used == "rb"
    assert verify_spt(diamond, 0, res, (2, 1)) == []


def test_diamond_spt_infeasible(diamond):
    assert cc_spt(diamond, 0, (2, 0)) is None
    assert cc_spt(diamond, 0, (0, 3)) is None


def test_spt_solver_selection(diamond):
    # the number of colors picks the solver; there is no way to choose one
    assert cc_spt(diamond, 0, (2, 1)).solver_used == "rb"
    q3 = ColoredDigraph(2, 3, [(0, 1, 3, 1)])
    assert cc_spt(q3, 0, (0, 0, 1)).solver_used == "flow"
    assert min_cc_spt(q3, 0, (0, 0, 1)).solver_used == "min_flow"
    with pytest.raises(TypeError):
        cc_spt(diamond, 0, (2, 1), solver="flow")
    with pytest.raises(TypeError):
        min_cc_spt(diamond, 0, (2, 1), solver="flow")


def test_spt_flow_records_stats(diamond):
    # the diamond with a third, unused color goes to the flow solver
    diamond3 = ColoredDigraph(4, 3, diamond.edge_tuples())
    res = cc_spt(diamond3, 0, (2, 1, 0))
    assert res.solver_used == "flow"
    assert res.tree.parent_edge == {1: 0, 2: 1, 3: 2}
    assert res.phase_stats is not None and res.phase_stats.value == 3
    assert cc_spt(diamond, 0, (2, 1)).phase_stats is None


def test_spt_vacuous_budget(diamond):
    res = cc_spt(diamond, 0, (3, 3))
    assert res is not None and sum(res.tree.color_counts) == 3


def test_min_spt_diamond(diamond_min):
    cheap = min_cc_spt(diamond_min, 0, (2, 1))
    assert cheap.tree.total_weight == 3
    assert cheap.solver_used == "min_rb"
    # the same instance with a third, unused color goes to min-cost flow
    diamond_min3 = ColoredDigraph(4, 3, diamond_min.edge_tuples())
    flow = min_cc_spt(diamond_min3, 0, (2, 1, 0))
    assert flow.tree.total_weight == 3
    assert flow.solver_used == "min_flow"
    assert flow.phase_stats is not None and flow.phase_stats.total_cost == 3
    # the heavy 2->3 edge is not tight, so it cannot carry color 2 here
    assert min_cc_spt(diamond_min, 0, (1, 2)) is None
    assert min_cc_spt(diamond_min3, 0, (1, 2, 0)) is None
    assert min_cc_spt(diamond_min, 0, (2, 0)) is None


def test_min_spt_vacuous_budget_takes_cheapest_tight_edges(diamond_min):
    res = min_cc_spt(diamond_min, 0, (3, 3))
    assert res.tree.total_weight == 3


def test_spt_negative_cycle_propagates():
    g = ColoredDigraph(2, 1, [(0, 1, 1, -1), (1, 0, 1, -1)])
    with pytest.raises(NegativeCycleReachable):
        cc_spt(g, 0, (5,))
    with pytest.raises(NegativeCycleReachable):
        min_cc_spt(g, 0, (5,))


def test_spt_zero_cycle_propagates():
    g = ColoredDigraph(3, 1, [(0, 1, 1, 1), (1, 2, 1, 0), (2, 1, 1, 0)])
    with pytest.raises(NonPositiveCycle):
        cc_spt(g, 0, (5,))
    with pytest.raises(NonPositiveCycle):
        min_cc_spt(g, 0, (5,))


def test_spt_unreachable_vertex_propagates():
    g = ColoredDigraph(3, 1, [(0, 1, 1, 1)])
    with pytest.raises(UnreachableVertex):
        cc_spt(g, 0, (5,))


def brute_spt_feasible(g, source, alpha):
    spg = build_spg(g, source, sssp(g, source))
    for arb in enumerate_spg_arborescences(spg):
        if all(arb.color_counts[i] <= alpha[i] for i in range(g.q)):
            return True
    return False


def test_spt_matches_brute_on_random_positive_graphs():
    rng = Random(31)
    for i in range(200):
        n = rng.randint(2, 7)
        q = rng.randint(1, 3)
        g = gen_random_positive_cycle_digraph(n, q, rng.random() * 0.6,
                                              40_000 + i)
        alpha = tuple(rng.randint(0, n) for _ in range(q))
        want = brute_spt_feasible(g, 0, alpha)
        res = cc_spt(g, 0, alpha)
        assert (res is not None) == want, i
        if res is not None:
            assert verify_spt(g, 0, res, alpha) == []
        # every solver of the question, on the same tight subgraph
        spg = build_spg(g, 0, sssp(g, 0))
        solvers = (cc_arb_flow, cc_arb_match) + ((cc_rb_arb,) if q == 2
                                                 else ())
        for solver in solvers:
            tree = solver(spg, alpha)
            assert (tree is not None) == want, (i, solver.__name__)
            if tree is not None:
                assert verify_spt(g, 0, tree, alpha) == []


def test_min_spt_matches_brute_on_random_positive_graphs():
    rng = Random(32)
    for i in range(150):
        n = rng.randint(2, 6)
        q = rng.randint(1, 3)
        g = gen_random_positive_cycle_digraph(n, q, rng.random() * 0.6,
                                              60_000 + i)
        alpha = tuple(rng.randint(0, n) for _ in range(q))
        spg = build_spg(g, 0, sssp(g, 0))
        best = brute_min_cc_arb(spg, alpha)
        res = min_cc_spt(g, 0, alpha)
        assert (res is None) == (best is None), i
        if res is not None:
            assert res.tree.total_weight == best, i
            assert verify_spt(g, 0, res, alpha) == []
        solvers = (min_cc_arb_flow,) + ((min_cc_rb_arb,) if q == 2 else ())
        for solver in solvers:
            tree = solver(spg, alpha)
            assert (tree is None) == (best is None), (i, solver.__name__)
            if tree is not None:
                assert tree.total_weight == best, (i, solver.__name__)
                assert verify_spt(g, 0, tree, alpha) == []


BIG = 1 << 62
# Every tree must take all three edges, so it weighs 2^63 + 1, one more
# than int64 holds; in the chain the distances pass 2^63 as well.
OVERFLOW_CASES = {
    "fan-q2": (2, [(0, 1, 1, BIG), (0, 2, 1, BIG), (0, 3, 2, 1)], (2, 1)),
    "fan-q3": (3, [(0, 1, 1, BIG), (0, 2, 2, BIG), (0, 3, 3, 1)], (1, 1, 1)),
    "chain-q3": (3, [(0, 1, 1, BIG), (1, 2, 2, BIG), (2, 3, 3, 1)],
                 (1, 1, 1)),
}


def stored(q, edges, storage):
    if storage == "list":
        return ColoredDigraph(4, q, edges)
    return ColoredDigraph.from_columns(
        4, q, *(np.array(col, dtype=np.int64) for col in zip(*edges)))


@pytest.mark.parametrize("storage", ["list", "array"])
@pytest.mark.parametrize("case", sorted(OVERFLOW_CASES))
def test_tree_weight_past_int64_is_exact(case, storage):
    q, edges, alpha = OVERFLOW_CASES[case]
    g = stored(q, edges, storage)
    for solve in (cc_spt, min_cc_spt):
        res = solve(g, 0, alpha)
        assert res.tree.total_weight == 2 * BIG + 1
        assert verify_spt(g, 0, res, alpha) == []


@pytest.mark.parametrize("storage", ["list", "array"])
def test_verify_spt_flags_wrapped_total(storage):
    q, edges, alpha = OVERFLOW_CASES["fan-q3"]
    g = stored(q, edges, storage)
    tree = cc_spt(g, 0, alpha).tree
    wrapped = Arborescence(root=0, parent_edge=tree.parent_edge,
                           color_counts=tree.color_counts,
                           total_weight=2 * BIG + 1 - (1 << 64))
    kinds = [v.kind for v in verify_spt(g, 0, wrapped, alpha)]
    assert kinds == ["weight_mismatch"]


def test_verify_spt_flags_slack_edge(diamond):
    # replace the tight edge into 3 with a fresh slack parallel edge
    g = ColoredDigraph(4, 2, diamond.edge_tuples() + [(0, 3, 1, 9)])
    bad = Arborescence(root=0, parent_edge={1: 0, 2: 1, 3: 4},
                       color_counts=(2, 1), total_weight=11)
    kinds = [v.kind for v in verify_spt(g, 0, bad, (3, 3))]
    assert kinds == ["not_shortest"]


def test_verify_spt_flags_tampered_distances(diamond):
    res = cc_spt(diamond, 0, (2, 1))
    lied = SptResult(tree=res.tree,
                     distances=DistanceTable(0, [0, 1, 1, 5]),
                     spg_edge_count=res.spg_edge_count,
                     solver_used=res.solver_used)
    kinds = [v.kind for v in verify_spt(diamond, 0, lied, (2, 1))]
    assert kinds == ["distance_mismatch"]


def test_verify_spt_reports_arborescence_trouble_first(diamond):
    wrong_root = Arborescence(root=2, parent_edge={}, color_counts=(0, 0),
                              total_weight=0)
    kinds = [v.kind for v in verify_spt(diamond, 0, wrong_root, (2, 1))]
    assert kinds == ["wrong_root"]


def test_verify_spt_accepts_bare_arborescence(diamond):
    tree = cc_spt(diamond, 0, (2, 1)).tree
    assert verify_spt(diamond, 0, tree, (2, 1)) == []


def test_at_least_transform_shapes(diamond):
    padded, upper = at_least_transform(diamond, (2, 1))
    assert padded.n == 4 and padded.q == 3 and padded.m == 8
    assert upper == ColorConstraint((2, 1, 0))
    # duplicates copy endpoints and weights, with the fresh color
    for e in range(diamond.m):
        assert padded.edge_tuples()[diamond.m + e] == (
            diamond.edge_tuples()[e][:2] + (3, diamond.edge_tuples()[e][3]))


def test_at_least_transform_zero_lower_bound():
    g = ColoredDigraph(3, 1, [(0, 1, 1, 1), (1, 2, 1, 1)])
    padded, upper = at_least_transform(g, (0,))
    assert upper == ColorConstraint((0, 2))
    res = cc_spt(padded, 0, upper)
    assert res is not None
    assert res.tree.color_counts == (0, 2)


def test_at_least_transform_overflow():
    g = ColoredDigraph(3, 1, [(0, 1, 1, 1), (1, 2, 1, 1)])
    with pytest.raises(LowerBoundTooLarge):
        at_least_transform(g, (3,))


def test_at_least_transform_exact_budget(diamond):
    padded, upper = at_least_transform(diamond, (2, 1))
    res = cc_spt(padded, 0, upper)
    assert res is not None
    mapped = [0] * diamond.q
    for e in res.tree.edge_ids():
        mapped[diamond.colors[e % diamond.m] - 1] += 1
    assert mapped == [2, 1]


def test_at_least_transform_infeasible_lower_bound(diamond):
    # only two vertices have tight color-2 in-edges, so three are impossible
    padded, upper = at_least_transform(diamond, (0, 3))
    assert cc_spt(padded, 0, upper) is None


def test_at_least_transform_satisfiable_via_duplicates(diamond):
    # lower bound (0, 2) forces both color-2 tight edges; vertex 1 rides
    # on its duplicate and maps back to color 1
    padded, upper = at_least_transform(diamond, (0, 2))
    res = cc_spt(padded, 0, upper)
    assert res is not None
    mapped = [0, 0]
    for e in res.tree.edge_ids():
        mapped[diamond.colors[e % diamond.m] - 1] += 1
    assert mapped[1] >= 2


def test_at_least_transform_mapped_counts_meet_lower_bounds():
    rng = Random(33)
    hits = 0
    for i in range(100):
        n = rng.randint(2, 7)
        q = rng.randint(1, 3)
        g = gen_random_positive_cycle_digraph(n, q, rng.random() * 0.6,
                                              70_000 + i)
        lower = [0] * q
        for _ in range(rng.randint(0, n - 1)):
            lower[rng.randrange(q)] += 1
        if sum(lower) > n - 1:
            with pytest.raises(LowerBoundTooLarge):
                at_least_transform(g, lower)
            continue
        padded, upper = at_least_transform(g, lower)
        res = cc_spt(padded, 0, upper)
        spg = build_spg(padded, 0, sssp(padded, 0))
        assert (cc_arb_flow(spg, upper) is None) == (res is None), i
        if res is None:
            continue
        hits += 1
        mapped = [0] * q
        for e in res.tree.edge_ids():
            mapped[g.colors[e % g.m] - 1] += 1
        assert all(mapped[c] >= lower[c] for c in range(q)), i
    assert hits > 20
