"""Color-budgeted arborescences of an acyclic tight subgraph.

Every non-root vertex needs exactly one in-edge, so on a DAG rooted at r
a set of per-vertex in-edge choices is automatically an arborescence; the
only question is whether the colors of the chosen edges fit the budgets.
There is one solver per question, and `solve_cc_arb` picks it from the
number of colors: a direct two-color partition rule for q = 2 and a flow
network otherwise, with min-cost variants of both for the minimum-weight
question.

Tie-breaking is uniform: whenever a vertex may take its in-edge from a
color in several ways, the edge with the smallest id wins; the min-cost
solvers first minimize weight, then id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Violation, WrongColorCount
from .flow import (FlowAssignment, build_arb_network, dinitz_max_flow,
                   min_cost_max_flow)
from .graph import ColoredDigraph, ColorConstraint
from .spg import SpgGraph


@dataclass(frozen=True)
class Arborescence:
    """Spanning arborescence given as one in-edge per non-root vertex."""

    root: int
    parent_edge: dict[int, int]
    color_counts: tuple[int, ...]
    total_weight: int

    def edge_ids(self) -> list[int]:
        return [self.parent_edge[v] for v in sorted(self.parent_edge)]


@dataclass(frozen=True)
class RbPartition:
    """How the two-color rule classified the non-root vertices.

    v_r and v_b are the vertices with in-edges of only the first or only
    the second color; v_rb can go either way. The min variant splits v_rb
    by cheaper side into v_rb_first/v_rb_second before any rebalancing.
    """

    v_r: tuple[int, ...]
    v_b: tuple[int, ...]
    v_rb: tuple[int, ...]
    v_rb_first: tuple[int, ...] = ()
    v_rb_second: tuple[int, ...] = ()


def unrooted_vertices(spg: SpgGraph) -> list[int]:
    """Non-root vertices with no in-edge at all; non-empty means infeasible."""
    _, heads, _, _, _ = spg.columns()
    deg = np.bincount(heads, minlength=spg.n)
    return [int(v) for v in np.flatnonzero(deg == 0) if v != spg.root]


def rb_partition(spg: SpgGraph) -> RbPartition:
    """Partition non-root vertices by which of two colors can feed them."""
    if spg.q != 2:
        raise WrongColorCount("two-color partition needs exactly 2 colors, "
                              f"got {spg.q}")
    _, h, c, _, _ = spg.columns()
    v_r, v_b, v_rb, _ = _rb_classes(spg.n, spg.root, h, c)
    return RbPartition(tuple(v_r.tolist()), tuple(v_b.tolist()),
                       tuple(v_rb.tolist()))


def _rb_classes(n, root, heads, colors):
    """Non-root vertices fed by color 1 only, by color 2 only, by both,
    and by neither, as ascending id arrays."""
    red = np.bincount(heads[colors == 1], minlength=n) > 0
    blue = np.bincount(heads[colors == 2], minlength=n) > 0
    nonroot = np.ones(n, dtype=bool)
    nonroot[root] = False
    return (np.flatnonzero(nonroot & red & ~blue),
            np.flatnonzero(nonroot & blue & ~red),
            np.flatnonzero(nonroot & red & blue),
            np.flatnonzero(nonroot & ~red & ~blue))


def _pick_smallest(spg: SpgGraph, v: int, color: int) -> int:
    gcols = spg.graph.colors
    for e in spg.in_edge_ids()[v]:
        if gcols[e] == color:
            return e
    raise AssertionError(f"no edge of color {color} into {v}")


def _assemble(g: ColoredDigraph, root: int, parent: dict[int, int]
              ) -> Arborescence:
    counts = [0] * g.q
    total = 0
    for e in parent.values():
        counts[g.colors[e] - 1] += 1
        total += int(g.weights[e])
    return Arborescence(root=root, parent_edge=dict(parent),
                        color_counts=tuple(counts), total_weight=total)


def _network_solution(spg: SpgGraph, H, assignment, pick) -> Arborescence:
    """The tree a full flow selects; pick(v, color) names the edge."""
    lo, hi = H.color_arc_range
    parent: dict[int, int] = {}
    for k in range(lo, hi):
        if assignment.flow[k] > 0:
            color = H.arc_tails[k]
            v = H.node_vertex(H.arc_heads[k])
            parent[v] = pick(v, color)
    return _assemble(spg.graph, spg.root, parent)


def _ruled_out(spg: SpgGraph, alpha: ColorConstraint) -> bool:
    """True when the budgets are too small in total or a vertex has no
    in-edge, so that no flow needs to run."""
    need = spg.n - 1
    return (sum(min(a, need) for a in alpha) < need
            or bool(unrooted_vertices(spg)))


def cc_arb_flow(spg: SpgGraph, alpha) -> Arborescence | None:
    """Color-budgeted arborescence via maximum flow; None if infeasible."""
    arb, _ = cc_arb_flow_stats(spg, alpha)
    return arb


def cc_arb_flow_stats(spg: SpgGraph, alpha
                      ) -> tuple[Arborescence | None, FlowAssignment | None]:
    """Like cc_arb_flow but also returns the instrumented flow run."""
    alpha = ColorConstraint.of(alpha)
    alpha.require_length(spg.q)
    if _ruled_out(spg, alpha):
        return None, None
    H = build_arb_network(spg, alpha)
    assignment = dinitz_max_flow(H)
    if assignment.value < spg.n - 1:
        return None, assignment
    arb = _network_solution(spg, H, assignment,
                            lambda v, color: _pick_smallest(spg, v, color))
    return arb, assignment


def _first_edge_by_head(n, heads, edge_ids):
    """Smallest edge id into each head, -1 where none; inputs id-ascending."""
    out = np.full(n, -1, dtype=np.int64)
    if len(heads):
        order = np.argsort(heads, kind="stable")
        hs = heads[order]
        uniq, first = np.unique(hs, return_index=True)
        out[uniq] = edge_ids[order[first]]
    return out


def cc_rb_arb(spg: SpgGraph, alpha) -> Arborescence | None:
    """Two-color budgeted arborescence by the partition rule; linear time.

    Vertices reachable only in one color are forced; the flexible ones are
    assigned to the first color until its budget is full (ascending vertex
    id) and to the second color after that. Infeasible exactly when a
    forced class overflows its budget or the flexible class overflows the
    combined slack.
    """
    if spg.q != 2:
        raise WrongColorCount("cc_rb_arb needs exactly 2 colors, "
                              f"got {spg.q}")
    alpha = ColorConstraint.of(alpha)
    alpha.require_length(2)
    n, root = spg.n, spg.root
    _, h, c, _, ids = spg.columns()
    v_r, v_b, v_rb, unrooted = _rb_classes(n, root, h, c)
    if len(unrooted):
        return None
    need = n - 1
    a1 = min(alpha[0], need)
    a2 = min(alpha[1], need)
    if len(v_r) > a1 or len(v_b) > a2:
        return None
    if len(v_rb) > (a1 - len(v_r)) + (a2 - len(v_b)):
        return None
    take = min(len(v_rb), a1 - len(v_r))
    red_mask = c == 1
    first_red = _first_edge_by_head(n, h[red_mask], ids[red_mask])
    blue_mask = c == 2
    first_blue = _first_edge_by_head(n, h[blue_mask], ids[blue_mask])
    red_targets = np.concatenate([v_r, v_rb[:take]])
    blue_targets = np.concatenate([v_b, v_rb[take:]])
    red_edges = first_red[red_targets]
    blue_edges = first_blue[blue_targets]
    gw = spg.graph.columns()[3]
    # summed as Python ints: an int64 sum can wrap
    total = sum(gw[red_edges].tolist()) + sum(gw[blue_edges].tolist())
    parent = dict(zip(red_targets.tolist(), red_edges.tolist()))
    parent.update(zip(blue_targets.tolist(), blue_edges.tolist()))
    return Arborescence(root=root, parent_edge=parent,
                        color_counts=(len(red_targets), len(blue_targets)),
                        total_weight=total)


def min_cc_arb_flow(spg: SpgGraph, alpha) -> Arborescence | None:
    """Minimum-weight color-budgeted arborescence via min-cost flow."""
    arb, _ = min_cc_arb_flow_stats(spg, alpha)
    return arb


def min_cc_arb_flow_stats(spg: SpgGraph, alpha
                          ) -> tuple[Arborescence | None,
                                     FlowAssignment | None]:
    """Like min_cc_arb_flow but also returns the flow run."""
    alpha = ColorConstraint.of(alpha)
    alpha.require_length(spg.q)
    if _ruled_out(spg, alpha):
        return None, None
    n, q = spg.n, spg.q
    pi = spg.in_degree_by_color()
    _, h, c, w, ids = spg.columns()
    # cheapest edge per (head, color), smallest id on weight ties
    key = h.astype(np.int64) * (q + 1) + c
    order = np.lexsort((ids, w, key))
    keys_sorted = key[order]
    uniq, first = np.unique(keys_sorted, return_index=True)
    chosen = order[first]
    # the weight column's dtype: object when int64 cannot hold a weight,
    # so arc costs reach the flow as exact Python ints
    cost_matrix = np.zeros((n, q + 1), dtype=w.dtype)
    heads_u = (uniq // (q + 1)).astype(np.int64)
    colors_u = (uniq % (q + 1)).astype(np.int64)
    cost_matrix[heads_u, colors_u] = w[chosen]
    pick_edge = {(int(hv), int(cv)): int(e)
                 for hv, cv, e in zip(heads_u, colors_u, ids[chosen])}
    H = build_arb_network(spg, alpha, pi, arc_cost_matrix=cost_matrix)
    assignment = min_cost_max_flow(H)
    if assignment.value < n - 1:
        return None, assignment
    arb = _network_solution(spg, H, assignment,
                            lambda v, color: pick_edge[(v, color)])
    assert arb.total_weight == assignment.total_cost
    return arb, assignment


def min_cc_rb_arb(spg: SpgGraph, alpha) -> Arborescence | None:
    """Minimum-weight two-color budgeted arborescence without any flow.

    Start from every vertex's cheaper side, then move the flexible
    vertices with the smallest regret across until both budgets hold.
    Regret ties break on vertex id.
    """
    if spg.q != 2:
        raise WrongColorCount("min_cc_rb_arb needs exactly 2 colors, "
                              f"got {spg.q}")
    alpha = ColorConstraint.of(alpha)
    alpha.require_length(2)
    n, root = spg.n, spg.root
    need = n - 1
    if alpha[0] + alpha[1] < need:
        return None
    a1 = min(alpha[0], need)
    a2 = min(alpha[1], need)
    gcols = spg.graph.colors
    gw = spg.graph.weights
    in_ids = spg.in_edge_ids()
    red_best: dict[int, tuple[int, int]] = {}
    blue_best: dict[int, tuple[int, int]] = {}
    for v in range(n):
        if v == root:
            continue
        rb = bb = None
        for e in in_ids[v]:
            w = gw[e]
            if gcols[e] == 1:
                if rb is None or w < rb[0]:
                    rb = (w, e)
            else:
                if bb is None or w < bb[0]:
                    bb = (w, e)
        if rb is None and bb is None:
            return None
        if rb is not None:
            red_best[v] = rb
        if bb is not None:
            blue_best[v] = bb
    v_r = [v for v in red_best if v not in blue_best]
    v_b = [v for v in blue_best if v not in red_best]
    if len(v_r) > a1 or len(v_b) > a2:
        return None
    both = [v for v in red_best if v in blue_best]
    pref_r = [v for v in both if red_best[v][0] <= blue_best[v][0]]
    pref_b = [v for v in both if red_best[v][0] > blue_best[v][0]]
    moved: set[int] = set()
    if len(v_r) + len(pref_r) > a1:
        shift = len(v_r) + len(pref_r) - a1
        if shift > len(pref_r):
            return None
        pref_r.sort(key=lambda v: (blue_best[v][0] - red_best[v][0], v))
        moved = set(pref_r[:shift])
    elif len(v_b) + len(pref_b) > a2:
        shift = len(v_b) + len(pref_b) - a2
        if shift > len(pref_b):
            return None
        pref_b.sort(key=lambda v: (red_best[v][0] - blue_best[v][0], v))
        moved = set(pref_b[:shift])
    parent = {}
    for v in v_r:
        parent[v] = red_best[v][1]
    for v in v_b:
        parent[v] = blue_best[v][1]
    for v in pref_r:
        parent[v] = blue_best[v][1] if v in moved else red_best[v][1]
    for v in pref_b:
        parent[v] = red_best[v][1] if v in moved else blue_best[v][1]
    return _assemble(spg.graph, root, parent)


def solve_cc_arb(spg: SpgGraph, alpha, *, minimize: bool = False
                 ) -> tuple[Arborescence | None, FlowAssignment | None, str]:
    """Answer the budgeted arborescence question with its one solver.

    Two colors go to the partition rule ("rb"), any other count to the
    flow network ("flow"); minimize asks for a minimum-weight tree from the
    min-cost variant of the same solver. Returns the tree (None when the
    budgets cannot be met), the flow run when there was one, and the
    solver's name. The solvers are read from this module's namespace on
    every call, so a wrapped or patched solver is the one that runs.
    """
    if spg.q == 2:
        tree = min_cc_rb_arb(spg, alpha) if minimize else cc_rb_arb(spg, alpha)
        return tree, None, "rb"
    solve = min_cc_arb_flow_stats if minimize else cc_arb_flow_stats
    tree, stats = solve(spg, alpha)
    return tree, stats, "flow"


def verify_arborescence(g: ColoredDigraph, root: int, tree: Arborescence,
                        alpha) -> list[Violation]:
    """Check a claimed arborescence against the graph and the budgets.

    Returns every violation found rather than raising: wrong root, wrong
    coverage, edges that do not point where claimed, unreachable vertices
    (which is how a cycle among the parent edges shows up), count or
    weight fields that disagree with the edges, and budget overruns.
    """
    out: list[Violation] = []
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
    children: dict[int, list[int]] = {}
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
