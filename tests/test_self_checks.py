"""The array self-checks against the walk-based ones they replaced.

`ref_verify_arborescence` and `ref_verify_spt` are the earlier
implementations (set differences, a children dict and a stack walk, and a
second walk for the tree path weights), kept here as references: on every
claimed tree, honest or tampered, the library must report the same
violations, with the same kinds, messages, vertices and edges, in the same
order.
"""

import numpy as np
from hypothesis import given, strategies as st

from ccgraph import (Arborescence, ColorConstraint, DistanceTable,
                     NegativeCycleReachable, SptResult, Violation,
                     verify_arborescence, verify_spt)
from ccgraph.graph import ColoredDigraph
from ccgraph.spg import _relaxations, _sssp_bellman_ford, sssp


def ref_verify_arborescence(g, root, tree, alpha):
    out = []
    n, m = g.n, g.m
    if not (0 <= root < n) or tree.root != root:
        out.append(Violation("wrong_root",
                             f"tree rooted at {tree.root}, expected {root}"))
        return out
    expected = set(range(n)) - {root}
    have = set(tree.parent_edge)
    for v in sorted(expected - have):
        out.append(Violation("not_spanning", f"vertex {v} has no in-edge",
                             vertex=v))
    for v in sorted(have - expected):
        out.append(Violation("extra_vertex",
                             f"in-edge for vertex {v} outside the graph "
                             "or for the root", vertex=v))
    usable = {}
    for v in sorted(have & expected):
        e = tree.parent_edge[v]
        if not (0 <= e < m):
            out.append(Violation("missing_edge",
                                 f"edge id {e} out of range", vertex=v,
                                 edge=e))
            continue
        if g.heads[e] != v:
            out.append(Violation("wrong_head",
                                 f"edge {e} enters {g.heads[e]}, "
                                 f"not {v}", vertex=v, edge=e))
            continue
        usable[v] = e
    children = {}
    for v, e in usable.items():
        children.setdefault(g.tails[e], []).append(v)
    seen = {root}
    stack = [root]
    while stack:
        u = stack.pop()
        for v in children.get(u, ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    for v in sorted(usable.keys() - seen):
        out.append(Violation("not_reachable",
                             f"vertex {v} not reachable from the root "
                             "through the chosen edges", vertex=v))
    counts = [0] * g.q
    total = 0
    for e in usable.values():
        counts[g.colors[e] - 1] += 1
        total += int(g.weights[e])
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
        return out
    for i in range(g.q):
        if counts[i] > alpha[i]:
            out.append(Violation("color_budget",
                                 f"color {i + 1} used {counts[i]} times, "
                                 f"budget {alpha[i]}"))
    return out


def ref_tree_distances(g, tree):
    t, _, _, w = g.columns()
    vertices = list(tree.parent_edge)
    edges = np.fromiter(tree.parent_edge.values(), dtype=np.int64,
                        count=len(vertices))
    children = [[] for _ in range(g.n)]
    for v, u, x in zip(vertices, t[edges].tolist(), w[edges].tolist()):
        children[u].append((v, x))
    d = [0] * g.n
    stack = [tree.root]
    while stack:
        u = stack.pop()
        for v, x in children[u]:
            d[v] = d[u] + x
            stack.append(v)
    return d


def ref_verify_spt(g, source, spt, alpha):
    tree = spt.tree if isinstance(spt, SptResult) else spt
    claimed = spt.distances if isinstance(spt, SptResult) else None
    out = ref_verify_arborescence(g, source, tree, alpha)
    fatal = {"wrong_root", "not_spanning", "extra_vertex", "missing_edge",
             "wrong_head", "not_reachable"}
    if any(v.kind in fatal for v in out):
        return out
    d = ref_tree_distances(g, tree)
    via, at = _relaxations(g, d)
    t, h, _, _ = g.columns()
    first = {}
    for e in np.flatnonzero(via < at).tolist():
        first.setdefault(int(h[e]), e)
    for v in sorted(first):
        e = first[v]
        out.append(Violation("not_shortest",
                             f"tree path to {v} weighs {d[v]}, edge {e} "
                             f"from {int(t[e])} gives {via[e]}",
                             vertex=v, edge=e))
    if claimed is not None:
        for v in range(g.n):
            if claimed.dist[v] != d[v]:
                out.append(Violation(
                    "distance_mismatch",
                    f"stored distance {claimed.dist[v]} for vertex {v}, "
                    f"tree path weighs {d[v]}", vertex=v))
    return out


WEIGHTS = st.one_of(
    st.integers(-3, 5), st.sampled_from([2 ** 62, -2 ** 62]),
    st.integers(0, 3).map(lambda k: 2 ** 63 + k))


@st.composite
def claimed_trees(draw):
    """A small digraph, a root, a claimed tree with its stored fields,
    budgets and stored distances; any part of the claim may be wrong."""
    n = draw(st.integers(1, 7))
    q = draw(st.integers(1, 3))
    edges = []
    if draw(st.booleans()):
        # an edge into each vertex from a lower one: all are reachable
        edges = [(draw(st.integers(0, v - 1)), v, draw(st.integers(1, q)),
                  draw(WEIGHTS)) for v in range(1, n)]
    edges += draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                  st.integers(1, q), WEIGHTS)
        .filter(lambda e: e[0] != e[1]), max_size=2 * n))
    m = len(edges)
    if draw(st.booleans()) or not edges:
        g = ColoredDigraph(n, q, edges)
    else:
        cols = [list(col) for col in zip(*edges)]
        wide = any(abs(x) > 2 ** 63 - 1 for x in cols[3])
        g = ColoredDigraph.from_columns(
            n, q, *(np.array(col, dtype=np.int64) for col in cols[:3]),
            np.array(cols[3], dtype=object if wide else np.int64))
    # half the time the claim is careful: rooted at 0, every other vertex
    # mostly on a tight edge, honest fields and budgets, so that spanning
    # trees, and shortest-path trees among them, are common
    careful = draw(st.booleans())
    root = 0 if careful else draw(st.sampled_from([0, 0, -1, n, n - 1]))
    try:
        dist = _sssp_bellman_ford(g, 0).dist
    except NegativeCycleReachable:
        dist = [0] * n
    parent = {}
    for v in range(n):
        ins = [e for e, (t, h, _, w) in enumerate(edges) if h == v]
        tight = [e for e in ins if dist[edges[e][0]] is not None
                 and dist[v] is not None
                 and dist[edges[e][0]] + edges[e][3] == dist[v]]
        pick = draw(st.sampled_from(
            ["tight", "tight", "tight", "in"] if careful and v else
            ["tight", "in", "none", "any", "bad_id"]))
        if v == 0 and pick != "any":
            continue
        if pick == "tight" and tight:
            parent[v] = draw(st.sampled_from(tight))
        elif pick in ("tight", "in") and ins:
            parent[v] = draw(st.sampled_from(ins))
        elif pick == "any" and m:
            parent[v] = draw(st.integers(0, m - 1))
        elif pick == "bad_id":
            parent[v] = draw(st.sampled_from([-1, -5, m, m + 2]))
    if not careful:
        for v in draw(st.lists(st.sampled_from([-2, -1, n, n + 3]),
                               max_size=2)):
            parent[v] = draw(st.integers(-1, m))
    keys = draw(st.permutations(list(parent)))
    parent = {v: parent[v] for v in keys}
    honest = [0] * q
    total = 0
    for v, e in parent.items():
        if 0 <= v < n and v != root and 0 <= e < m and edges[e][1] == v:
            honest[edges[e][2] - 1] += 1
            total += edges[e][3]
    if careful:
        tree = Arborescence(root=root, parent_edge=parent,
                            color_counts=tuple(honest), total_weight=total)
        alpha = [n] * q
    else:
        counts = draw(st.one_of(
            st.just(tuple(honest)),
            st.lists(st.integers(0, n), min_size=q, max_size=q).map(tuple),
            st.just(tuple(honest[:-1]))))
        total += draw(st.sampled_from([0, 0, 1, -(1 << 64)]))
        tree = Arborescence(root=draw(st.sampled_from([root, root, 1])),
                            parent_edge=parent, color_counts=counts,
                            total_weight=total)
        alpha = draw(st.one_of(
            st.lists(st.integers(0, n), min_size=q, max_size=q),
            st.lists(st.integers(0, n), min_size=q - 1, max_size=q - 1)))
    stored = [0 if x is None else x for x in dist]
    for _ in range(draw(st.integers(0, 2))):
        stored[draw(st.integers(0, n - 1))] = draw(
            st.one_of(st.none(), WEIGHTS))
    claimed = SptResult(tree=tree, distances=DistanceTable(0, stored),
                        spg_edge_count=0, solver_used="flow")
    return g, root, tree, alpha, claimed


def fields(violations):
    return [(v.kind, v.message, v.vertex, v.edge) for v in violations]


@given(claimed_trees())
def test_verify_arborescence_matches_the_walk(case):
    g, root, tree, alpha, _ = case
    assert fields(verify_arborescence(g, root, tree, alpha)) == fields(
        ref_verify_arborescence(g, root, tree, alpha))


@given(claimed_trees())
def test_verify_spt_matches_the_walk(case):
    g, root, tree, alpha, claimed = case
    for spt in (tree, claimed):
        assert fields(verify_spt(g, root, spt, alpha)) == fields(
            ref_verify_spt(g, root, spt, alpha))
