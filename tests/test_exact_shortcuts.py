"""The shortcuts of the tree path against the bodies they replaced.

Each oracle below is the earlier, unconditional form of a step: pointer
doubling for all ceil(log2 n) rounds, the tree's edges found by a search
of the sorted pair list, and totals summed over Python ints. The
shortcuts must return exactly what those bodies return."""

import io

import numpy as np
from hypothesis import given, strategies as st

from ccgraph import (Arborescence, ColoredDigraph, SpgGraph,
                     build_arb_network, cc_spt, min_cc_spt, min_cost_max_flow,
                     verify_arborescence)
from ccgraph.arborescence import _network_solution, _tree_paths
from ccgraph.cli import run
from ccgraph.flow import dinitz_max_flow
from ccgraph.graph import INT64_MAX, _magnitude

WEIGHTS = st.one_of(
    st.integers(-3, 5), st.sampled_from([2 ** 62, -2 ** 62, 2 ** 62 + 1]),
    st.integers(0, 3).map(lambda k: 2 ** 63 + k))


def full_rounds(g, root, vertices, edges):
    """`_tree_paths` as it ran every ceil(log2 n) rounds."""
    n = g.n
    t, _, _, w = g.columns()
    weights = w[edges]
    fits = 2 * n * _magnitude(weights) <= INT64_MAX
    d = np.zeros(n, dtype=np.int64 if fits else object)
    d[vertices] = weights
    par = np.arange(n)
    par[vertices] = t[edges]
    for _ in range((n - 1).bit_length()):
        d = d + d[par]
        par = par[par]
    return par == root, d


@st.composite
def parent_arrays(draw):
    """A graph with one edge per vertex that has a parent, and the root:
    chains n-1 deep, forests, parent cycles (of any length, powers of two
    included) with trees hanging into them, or the root alone."""
    n = draw(st.integers(1, 40))
    order = draw(st.permutations(range(n)))
    root = order[0]
    shape = draw(st.sampled_from(["chain", "forest", "any", "cycle",
                                  "alone"]))
    parent = {}
    if shape == "chain":
        parent = {order[i + 1]: order[i] for i in range(n - 1)}
    elif shape == "forest":
        for i in range(1, n):
            if draw(st.integers(0, 4)):
                parent[order[i]] = order[draw(st.integers(0, i - 1))]
    elif shape == "any":
        # a random functional graph: cycles, and vertices pointing into them
        for v in order[1:]:
            u = draw(st.sampled_from(order))
            if u != v:
                parent[v] = u
    elif shape == "cycle" and n > 2:
        k = draw(st.integers(2, n - 1))
        ring = order[1:k + 1]
        parent = {v: ring[(i + 1) % k] for i, v in enumerate(ring)}
        for v in order[k + 1:]:
            parent[v] = draw(st.sampled_from(order[:order.index(v)]))
    items = draw(st.permutations(sorted(parent.items())))
    edges = [(u, v, 1, draw(WEIGHTS)) for v, u in items]
    g = ColoredDigraph(n, 1, edges)
    vertices = np.array([v for v, _ in items], dtype=np.int64)
    return g, root, vertices, np.arange(len(items), dtype=np.int64)


@given(parent_arrays())
def test_tree_paths_stop_early_with_the_full_rounds_answer(case):
    g, root, vertices, edges = case
    reached, d = _tree_paths(g, root, vertices, edges)
    want_reached, want_d = full_rounds(g, root, vertices, edges)
    assert reached.tolist() == want_reached.tolist()
    assert d.dtype == want_d.dtype
    assert d.tolist() == want_d.tolist()


def test_tree_paths_on_a_deep_chain_listed_last_first():
    n = 5000
    t = np.arange(n - 2, -1, -1)
    g = ColoredDigraph.from_columns(n, 1, t, t + 1, np.ones(n - 1, np.int64),
                                    np.full(n - 1, 3, np.int64))
    vertices, edges = t + 1, np.arange(n - 1)
    reached, d = _tree_paths(g, 0, vertices, edges)
    assert reached.all()
    assert d.tolist() == list(range(0, 3 * n, 3))
    want_reached, want_d = full_rounds(g, 0, vertices, edges)
    assert np.array_equal(d, want_d) and np.array_equal(reached,
                                                        want_reached)


def searchsorted_solution(spg, H, assignment):
    """`_network_solution` as it searched the pair list for each vertex."""
    lo, hi = H.color_arc_range
    color = np.zeros(spg.n, dtype=np.int64)
    color[H.class_members] = np.repeat(
        np.asarray(H.arc_tails[lo:hi], dtype=np.int64), assignment.flow[lo:hi])
    keys, chosen = H.choice
    vertices = np.delete(np.arange(spg.n), spg.root)
    edges = chosen[np.searchsorted(
        keys, vertices * (spg.q + 1) + color[vertices])]
    _, _, c, w = spg.graph.columns()
    counts = np.bincount(c[edges], minlength=spg.q + 1)[1:]
    return Arborescence._of_arrays(
        spg.root, vertices, edges, tuple(counts.tolist()),
        sum(w[edges].tolist()))


@st.composite
def class_dags(draw):
    """DAGs whose vertices copy one of a few in-edge templates of one to
    six colors, out of up to 512, so classes of several members are
    common; weights tie, are zero, or pass int64, and labels and edge ids
    do not follow the topological order."""
    n = draw(st.integers(1, 10))
    q = draw(st.one_of(st.integers(1, 8), st.sampled_from([63, 64, 511, 512]),
                       st.integers(9, 512)))
    weight = st.one_of(st.integers(0, 2), st.just(0),
                       st.integers(0, 2).map(lambda k: 2 ** 63 + k))
    templates = draw(st.lists(
        st.lists(st.tuples(st.integers(1, q), weight), min_size=1,
                 max_size=6, unique_by=lambda cw: cw[0]),
        min_size=1, max_size=3))
    label = draw(st.permutations(range(n)))
    edges = []
    for v in range(1, n):
        for color, w in draw(st.sampled_from(templates)):
            for _ in range(draw(st.integers(1, 2))):
                edges.append((label[draw(st.integers(0, v - 1))], label[v],
                              color, w + draw(st.sampled_from([0, 0, 1]))))
    edges = draw(st.permutations(edges))
    if draw(st.booleans()) or not edges:
        g = ColoredDigraph(n, q, edges)
    else:
        cols = [list(col) for col in zip(*edges)]
        wide = any(x > INT64_MAX for x in cols[3])
        g = ColoredDigraph.from_columns(
            n, q, *(np.array(col, dtype=np.int64) for col in cols[:3]),
            np.array(cols[3], dtype=object if wide else np.int64))
    alpha = draw(st.one_of(
        st.just((n,) * q),
        st.lists(st.integers(0, n), min_size=q, max_size=q).map(tuple)))
    return SpgGraph.from_dag(g, label[0]), alpha


@given(class_dags())
def test_tree_edges_by_class_offset_match_the_search(case):
    spg, alpha = case
    for minimize in (False, True):
        H = build_arb_network(spg, alpha, minimize=minimize)
        flow = (min_cost_max_flow if minimize else dinitz_max_flow)(H)
        if flow.value < spg.n - 1:
            continue
        tree = _network_solution(spg, H, flow)
        want = searchsorted_solution(spg, H, flow)
        assert tree == want
        assert type(tree.total_weight) is int
        assert repr(tree) == repr(want)


def chain(weights):
    n = len(weights) + 1
    return ColoredDigraph(n, 1, [(v, v + 1, 1, w)
                                 for v, w in enumerate(weights)])


def test_totals_at_the_int64_boundary():
    # INT64_MAX = 7 * 1317624576693539401: len * max|w| is INT64_MAX for
    # seven such weights, the largest product summed in int64, INT64_MAX + 1
    # for two of 2^62, and past it for three of about 2^62
    top = INT64_MAX // 7
    assert 7 * top == INT64_MAX
    for weights in ([top] * 7, [-top] * 7, [1 << 62] * 2, [-(1 << 62)] * 2,
                    [1 << 62, 1 << 62, -1], [1 << 62, 1 << 62, 1]):
        k = len(weights)
        g = chain(weights)
        for solve in (cc_spt, min_cc_spt):
            tree = solve(g, 0, [k]).tree
            assert tree.total_weight == sum(weights)
            assert type(tree.total_weight) is int
        parent = {v + 1: v for v in range(k)}
        honest = Arborescence(0, parent, (k,), sum(weights))
        assert verify_arborescence(g, 0, honest, [k]) == []
        for off in (1, -1, 1 << 64):
            wrong = Arborescence(0, parent, (k,), sum(weights) + off)
            found = verify_arborescence(g, 0, wrong, [k])
            assert [v.kind for v in found] == ["weight_mismatch"]
            assert found[0].message.endswith(f"sum to {sum(weights)}")


def test_json_total_past_int64(tmp_path):
    # 2^62 + 2^62 + 1 does not fit int64; the stated total must be exact
    p = tmp_path / "big.ccg"
    p.write_text(f"p ccg 4 3 2\na 0 1 1 {1 << 62}\na 0 2 1 {1 << 62}\n"
                 "a 0 3 2 1\n")
    for command in ("cc-spt", "min-cc-spt"):
        out, err = io.StringIO(), io.StringIO()
        code = run([command, "--json", "-s", "0", "-a", "2,1", str(p)],
                   stdout=out, stderr=err)
        assert code == 0 and err.getvalue() == ""
        assert '"total_weight": 9223372036854775809,' in out.getvalue()
