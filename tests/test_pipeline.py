import io
import json
import warnings
from random import Random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ccgraph import (Arborescence, CcSpInstance, ColorConstraint,
                     ColoredDigraph, DistanceTable, EdgeRecord, FlowNetwork,
                     LowerBoundTooLarge, NegativeCycleReachable,
                     NonPositiveCycle, SpgGraph, SptResult,
                     UnreachableVertex, VccSpInstance, VertexColoredDigraph,
                     at_least_transform, cc_arb_flow, cc_spt,
                     min_cc_arb_flow, min_cc_spt, restrict_to,
                     verify_arborescence, verify_spt)
from ccgraph import spg as spg_module
from ccgraph.testkit import (brute_min_cc_arb, cc_arb_match, cc_rb_arb,
                             enumerate_spg_arborescences, gen_layered_dag,
                             gen_random_positive_cycle_digraph,
                             min_cc_rb_arb)
from ccgraph.spg import build_spg, sssp


def test_diamond_spt(diamond):
    res = cc_spt(diamond, 0, (2, 1))
    assert res is not None
    assert res.tree.parent_edge == {1: 0, 2: 1, 3: 2}
    assert res.tree.color_counts == (2, 1)
    assert res.tree.total_weight == 3
    assert res.distances.dist == [0, 1, 1, 2]
    assert res.spg_edge_count == 4
    assert res.solver_used == "flow"
    assert verify_spt(diamond, 0, res, (2, 1)) == []


def test_diamond_spt_infeasible(diamond):
    assert cc_spt(diamond, 0, (2, 0)) is None
    assert cc_spt(diamond, 0, (0, 3)) is None


def test_spt_solver_selection(diamond):
    # one solver at every number of colors; there is no way to choose one
    assert cc_spt(diamond, 0, (2, 1)).solver_used == "flow"
    q3 = ColoredDigraph(2, 3, [(0, 1, 3, 1)])
    assert cc_spt(q3, 0, (0, 0, 1)).solver_used == "flow"
    assert min_cc_spt(q3, 0, (0, 0, 1)).solver_used == "min_flow"
    with pytest.raises(TypeError):
        cc_spt(diamond, 0, (2, 1), solver="flow")
    with pytest.raises(TypeError):
        min_cc_spt(diamond, 0, (2, 1), solver="flow")


def test_spt_flow_records_stats(diamond):
    # the diamond with a third, unused color: the same tree and flow run
    diamond3 = ColoredDigraph(4, 3, diamond.edge_tuples())
    res = cc_spt(diamond3, 0, (2, 1, 0))
    assert res.solver_used == "flow"
    assert res.tree.parent_edge == {1: 0, 2: 1, 3: 2}
    assert res.phase_stats is not None and res.phase_stats.value == 3
    assert cc_spt(diamond, 0, (2, 1)).phase_stats.value == 3


def test_spt_vacuous_budget(diamond):
    res = cc_spt(diamond, 0, (3, 3))
    assert res is not None and sum(res.tree.color_counts) == 3


def test_min_spt_diamond(diamond_min):
    cheap = min_cc_spt(diamond_min, 0, (2, 1))
    assert cheap.tree.total_weight == 3
    assert cheap.solver_used == "min_flow"
    # the same instance with a third, unused color: the same minimum
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
def test_single_weight_past_int64_reaches_the_min_cost_flow(storage):
    # one weight, 2^64, is past int64 by itself; q = 3 takes the flow route
    cols = ([0, 0, 0], [1, 2, 3], [1, 2, 3], [1 << 64, 1, 1])
    if storage == "array":
        cols = tuple(np.array(col, dtype=object if j == 3 else np.int64)
                     for j, col in enumerate(cols))
    g = ColoredDigraph.from_columns(4, 3, *cols)
    for solve in (cc_spt, min_cc_spt):
        res = solve(g, 0, (1, 1, 1))
        assert res.tree.total_weight == (1 << 64) + 2
        assert verify_spt(g, 0, res, (1, 1, 1)) == []
    assert min_cc_spt(g, 0, (1, 1, 1)).phase_stats.total_cost == (
        (1 << 64) + 2)


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


def test_verify_spt_flags_a_table_of_the_wrong_length(diamond):
    res = cc_spt(diamond, 0, (2, 1))
    for dist in ([0, 1, 1], [0, 1, 1, 2, 0], [0, 1, 1, 2, None]):
        lied = SptResult(tree=res.tree, distances=DistanceTable(0, dist),
                         spg_edge_count=res.spg_edge_count,
                         solver_used=res.solver_used)
        bad = verify_spt(diamond, 0, lied, (2, 1))
        assert [(v.kind, v.vertex) for v in bad] == [
            ("distance_mismatch", None)]
        assert bad[0].message == (f"distance table has {len(dist)} "
                                  "entries for 4 vertices")


def test_tree_path_builds_no_distance_list(monkeypatch, tmp_path):
    from ccgraph import format_instance
    from ccgraph.cli import run

    def no_list(self):
        raise AssertionError("the distance list was built")

    monkeypatch.setattr(DistanceTable, "dist", property(no_list))
    with pytest.raises(AssertionError):
        DistanceTable(0, [0]).dist
    g = gen_layered_dag(60, 180, 3, seed=7)
    alpha = (g.n,) * 3
    res = cc_spt(g, 0, alpha)
    assert res is not None
    assert min_cc_spt(g, 0, alpha) is not None
    path = tmp_path / "dag.ccg"
    path.write_text(format_instance(g))
    out, err = io.StringIO(), io.StringIO()
    code = run(["cc-spt", "--json", "-s", "0", "-a", "60,60,60", str(path)],
               stdout=out, stderr=err)
    assert (code, err.getvalue()) == (0, "")
    rows = json.loads(out.getvalue())["distances"]
    assert [r["distance"] for r in rows] == res.distances.values.tolist()


def test_tree_path_builds_no_parent_dict(monkeypatch, tmp_path):
    from ccgraph import format_instance
    from ccgraph.cli import run

    def no_dict(self):
        raise AssertionError("the parent_edge dict was built")

    monkeypatch.setattr(Arborescence, "parent_edge", property(no_dict))
    with pytest.raises(AssertionError):
        Arborescence(0, {}, (), 0).parent_edge
    for q in (2, 3):
        g = gen_layered_dag(60, 180, q, seed=7)
        alpha = (g.n,) * q
        res = cc_spt(g, 0, alpha)
        assert res is not None
        assert min_cc_spt(g, 0, alpha) is not None
        path = tmp_path / "dag.ccg"
        path.write_text(format_instance(g))
        for flags in (["--json"], []):
            out, err = io.StringIO(), io.StringIO()
            code = run(["cc-spt", *flags, "-s", "0", "-a",
                        ",".join(map(str, alpha)), str(path)],
                       stdout=out, stderr=err)
            assert (code, err.getvalue()) == (0, "")
        rows = out.getvalue().splitlines()[:-1]
        assert [int(r.split()[1]) for r in rows] == res.tree.vertices.tolist()


@pytest.mark.parametrize("bad", [True, np.True_, 0.0, np.float64(1), "1"])
def test_vertex_ids_take_integers_only(diamond, bad):
    d = sssp(diamond, 0)
    tree = cc_spt(diamond, 0, (2, 1)).tree
    v = VertexColoredDigraph(2, 1, (1, 1), ((0, 1, 1),))
    calls = [lambda: sssp(diamond, bad),
             lambda: build_spg(diamond, bad, d),
             lambda: SpgGraph.from_dag(diamond, bad),
             lambda: cc_spt(diamond, bad, (2, 1)),
             lambda: min_cc_spt(diamond, bad, (2, 1)),
             lambda: CcSpInstance(diamond, bad, 3, (2, 1)),
             lambda: CcSpInstance(diamond, 0, bad, (2, 1)),
             lambda: VccSpInstance(v, bad, 1, (1,)),
             lambda: VccSpInstance(v, 0, bad, (1,)),
             lambda: verify_spt(diamond, bad, tree, (2, 1)),
             lambda: verify_arborescence(diamond, bad, tree, (2, 1)),
             lambda: SpgGraph(diamond, bad, np.arange(4)),
             lambda: restrict_to(diamond, [0, bad]),
             lambda: VertexColoredDigraph(2, 1, (1, 1), ((bad, 1, 1),)),
             lambda: VertexColoredDigraph(2, 1, (1, 1), ((0, bad, 1),)),
             lambda: FlowNetwork(2, 0, 1).add_arc(bad, 1, 1),
             lambda: d.distance(bad),
             lambda: d.reachable(bad)]
    for call in calls:
        with pytest.raises(ValueError, match="is not an integer vertex id"):
            call()
    # ids that numpy would wrap to the last entry, or index past the end
    for v in (-1, diamond.n, np.int64(-1)):
        for call in (d.distance, d.reachable):
            with pytest.raises(ValueError, match="out of range"):
                call(v)
    for j in (-1, diamond.m):
        with pytest.raises(ValueError, match="out of range"):
            diamond.edge(j)
    assert (d.distance(3), d.reachable(3)) == (2, True)
    assert diamond.edge(np.int64(3)) == EdgeRecord(2, 3, 2, 1, 3)
    # integer slots that are not vertex ids
    calls = [lambda: diamond.edge(bad),
             lambda: SpgGraph(diamond, 0, [0, bad]),
             lambda: VertexColoredDigraph(2, 1, (bad, 1), ((0, 1, 1),)),
             lambda: VertexColoredDigraph(2, 1, (1, 1), ((0, 1, bad),)),
             lambda: FlowNetwork(2, 0, 1).add_arc(0, 1, bad),
             lambda: FlowNetwork(2, 0, 1).add_arc(0, 1, 1, cost=bad)]
    for call in calls:
        with pytest.raises(ValueError, match="not an integer"):
            call()


def test_bool_source_is_rejected_not_read_as_a_mask():
    # numpy reads dist[True] = 0 as a mask and zeroes every distance, which
    # leaves no tight edge and answers "no" where source 1 has a tree
    g = ColoredDigraph(2, 1, [(1, 0, 1, 4)])
    assert cc_spt(g, 1, (5,)) is not None
    assert cc_spt(g, np.int64(1), (5,)).tree == cc_spt(g, 1, (5,)).tree
    with pytest.raises(ValueError):
        cc_spt(g, True, (5,))
    assert sssp(g, np.int32(1)).source == 1


def test_root_out_of_range_is_a_violation(diamond):
    tree = cc_spt(diamond, 0, (2, 1)).tree
    for root in (-1, 4, np.int64(7)):
        for verify in (verify_arborescence, verify_spt):
            kinds = [v.kind for v in verify(diamond, root, tree, (2, 1))]
            assert kinds == ["wrong_root"]


def test_verify_spt_reports_arborescence_trouble_first(diamond):
    wrong_root = Arborescence(root=2, parent_edge={}, color_counts=(0, 0),
                              total_weight=0)
    kinds = [v.kind for v in verify_spt(diamond, 0, wrong_root, (2, 1))]
    assert kinds == ["wrong_root"]


def test_verify_spt_accepts_bare_arborescence(diamond):
    tree = cc_spt(diamond, 0, (2, 1)).tree
    assert verify_spt(diamond, 0, tree, (2, 1)) == []


def test_verify_spt_rejects_tree_under_negative_cycle():
    # the cycle 1 -> 2 -> 1 weighs -2 and is reachable from 0
    g = ColoredDigraph(3, 1, [(0, 1, 1, 1), (1, 2, 1, -3), (2, 1, 1, 1)])
    tree = Arborescence(root=0, parent_edge={1: 0, 2: 1},
                        color_counts=(2,), total_weight=-2)
    bad = verify_spt(g, 0, tree, (2,))
    assert [(v.kind, v.vertex, v.edge) for v in bad] == [
        ("not_shortest", 1, 2)]


@pytest.mark.parametrize("storage", ["list", "array"])
def test_verify_spt_accepts_tree_near_int64(storage):
    # d_T(2) = 2^63 - 1, so d_T(2) + w passes int64 on both edges out of 2
    edges = [(0, 1, 1, BIG), (1, 2, 1, BIG - 1), (2, 0, 1, BIG),
             (2, 1, 1, BIG), (0, 3, 1, 1)]
    g = stored(1, edges, storage)
    tree = Arborescence(root=0, parent_edge={1: 0, 2: 1, 3: 4},
                        color_counts=(3,), total_weight=2 * BIG)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert verify_spt(g, 0, tree, (3,)) == []


def bellman_ford_says_spt(g, source, parent):
    """Oracle: every tree path weighs the Bellman-Ford distance of its end."""
    try:
        dist = spg_module._sssp_bellman_ford(g, source).dist
    except NegativeCycleReachable:
        return False
    for v in range(g.n):
        u, weight = v, 0
        for _ in range(g.n):
            if u == source:
                break
            e = parent.get(u)
            if e is None:
                return False
            u, weight = int(g.tails[e]), weight + int(g.weights[e])
        if u != source or dist[v] != weight:
            return False
    return True


@st.composite
def candidate_trees(draw):
    """A small digraph and one in-edge choice per non-root vertex that has
    one; half the time the choice keeps to tight edges when distances
    exist, so that shortest-path trees are common."""
    n = draw(st.integers(1, 7))
    q = draw(st.integers(1, 3))
    weight = st.sampled_from([*range(-3, 6), BIG, -BIG])
    edges = []
    if draw(st.booleans()):
        # an edge into each vertex from a lower one: all are reachable
        edges = [(draw(st.integers(0, v - 1)), v, draw(st.integers(1, q)),
                  draw(weight)) for v in range(1, n)]
    edges += draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                  st.integers(1, q), weight)
        .filter(lambda e: e[0] != e[1]), max_size=2 * n))
    if draw(st.sampled_from(["list", "array"])) == "list" or not edges:
        g = ColoredDigraph(n, q, edges)
    else:
        g = ColoredDigraph.from_columns(
            n, q, *(np.array(col, dtype=np.int64) for col in zip(*edges)))
    try:
        dist = spg_module._sssp_bellman_ford(g, 0).dist
    except NegativeCycleReachable:
        dist = None
    tight_only = draw(st.booleans()) and dist is not None
    parent = {}
    for v in range(1, n):
        ins = [e for e, (t, h, _, w) in enumerate(edges) if h == v
               and not (tight_only and (dist[t] is None
                                        or dist[t] + w != dist[v]))]
        if ins:
            parent[v] = draw(st.sampled_from(ins))
    return g, parent


@given(candidate_trees())
def test_verify_spt_agrees_with_bellman_ford(case):
    g, parent = case
    counts = [0] * g.q
    for e in parent.values():
        counts[int(g.colors[e]) - 1] += 1
    tree = Arborescence(root=0, parent_edge=parent,
                        color_counts=tuple(counts),
                        total_weight=sum(int(g.weights[e])
                                         for e in parent.values()))
    alpha = (g.n,) * g.q
    assert (verify_spt(g, 0, tree, alpha) == []) == \
        bellman_ford_says_spt(g, 0, parent)


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


def test_positive_weights_never_sort_the_tight_subgraph(monkeypatch):
    # with positive weights no tight edge weighs zero, so the tight
    # subgraph is acyclic without a topological sort
    dag = gen_layered_dag(2000, 6000, 8, seed=7)
    t, h, c, _ = dag.columns()
    w = np.random.default_rng(7).integers(1, 4, dag.m)
    g = ColoredDigraph.from_columns(dag.n, 8, t, h, c, w)

    def no_sort(*args):
        raise AssertionError("_kahn ran")
    monkeypatch.setattr(spg_module, "_kahn", no_sort)
    alpha = (dag.n - 1,) * 8
    for solve in (cc_spt, min_cc_spt):
        res = solve(g, 0, alpha)
        assert res is not None and verify_spt(g, 0, res, alpha) == []


def test_tree_answers_never_build_out_edge_lists(monkeypatch):
    # sssp reads the edge columns, not per-vertex Python edge lists
    dag = gen_layered_dag(2000, 6000, 8, seed=7)
    t, h, c, _ = dag.columns()
    w = np.random.default_rng(7).integers(1, 4, dag.m)
    g = ColoredDigraph.from_columns(dag.n, 8, t, h, c, w)

    def no_lists(self):
        raise AssertionError("out_edge_ids ran")
    monkeypatch.setattr(ColoredDigraph, "out_edge_ids", no_lists)
    alpha = (dag.n - 1,) * 8
    for solve in (cc_spt, min_cc_spt):
        res = solve(g, 0, alpha)
        assert res is not None and verify_spt(g, 0, res, alpha) == []
