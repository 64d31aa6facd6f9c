"""End-to-end shortest-path-tree solving under color budgets.

cc_spt and min_cc_spt run the whole chain: single-source distances, tight
subgraph extraction, then `solve_cc_arb`, whose flow alone decides every
answer on that subgraph. Any arborescence of that subgraph is a
shortest-path tree of the original graph, so feasibility and optimal
weight transfer directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arborescence import Arborescence, _check_arborescence, solve_cc_arb
from .errors import LowerBoundTooLarge, Violation
from .flow import FlowAssignment
from .graph import ColoredDigraph, ColorConstraint
from .spg import DistanceTable, SpgGraph, _relaxations, build_spg, sssp


@dataclass(frozen=True)
class SptResult:
    """A budget-feasible shortest-path tree and how it was found."""

    tree: Arborescence
    distances: DistanceTable
    spg_edge_count: int
    solver_used: str
    phase_stats: FlowAssignment | None = None


def cc_spt(g: ColoredDigraph, source: int, alpha) -> SptResult | None:
    """Shortest-path tree from source with per-color edge budgets.

    Returns None when distances are fine but no tree fits the budgets.
    Raises for the structural failures: a negative cycle reachable from
    the source, an unreachable vertex, or a zero-weight cycle among the
    tight edges. The flow network answers at every number of colors;
    solver_used names it: flow.
    """
    return _spt(g, source, alpha, minimize=False)


def min_cc_spt(g: ColoredDigraph, source: int, alpha) -> SptResult | None:
    """Minimum-weight budget-feasible shortest-path tree from source.

    Every tree here spans the same distances; minimality is over the sum
    of tree edge weights. Fails like cc_spt; the solver is the min-cost
    flow network at every number of colors, and solver_used is min_flow.
    """
    return _spt(g, source, alpha, minimize=True)


def _spt(g: ColoredDigraph, source: int, alpha, *, minimize: bool
         ) -> SptResult | None:
    alpha = ColorConstraint.of(alpha)
    alpha.require_length(g.q)
    distances = sssp(g, source)
    spg = build_spg(g, source, distances)
    tree, stats = solve_cc_arb(spg, alpha, minimize=minimize)
    if tree is None:
        return None
    result = SptResult(tree=tree, distances=distances,
                       spg_edge_count=spg.edge_count,
                       solver_used="min_flow" if minimize else "flow",
                       phase_stats=stats)
    if __debug__:
        bad = verify_spt(g, source, result, alpha)
        assert not bad, bad[0]
    return result


def verify_spt(g: ColoredDigraph, source: int, spt, alpha
               ) -> list[Violation]:
    """Check a claimed shortest-path tree by the potential it realizes.

    Accepts an SptResult or a bare Arborescence. The checks of
    `verify_arborescence` run first; if the tree is not a spanning
    arborescence rooted at source, only those violations are returned.
    Otherwise let d_T(v) be the weight of the tree path to v. The tree is
    a shortest-path tree exactly when d_T(u) + w(u, v) >= d_T(v) holds on
    every edge (u, v): summed along any path to v, the inequality bounds
    the path's weight below by d_T(v), which the tree path attains, and
    summed around a cycle it shows the cycle's weight is not negative.
    So no distances are recomputed: d_T comes from the pointer doubling
    that checks reachability, ceil(log2 depth) rounds over the parent
    array for a tree of that depth, at most ceil(log2 n), each O(n) in
    vectorized steps, and the edge test is one O(m) pass.

    Violation kinds beyond those of `verify_arborescence`:
      not_shortest: some edge (u, v) has d_T(u) + w(u, v) < d_T(v), so
        the tree path to v is not a shortest path, or no shortest path
        exists because a negative cycle is reachable. One per such v, in
        ascending order, naming the lowest such edge.
      distance_mismatch: an SptResult stores a distance for v other
        than d_T(v), or None. A table whose length is not n gives one
        such violation, with no vertex, instead of one per vertex.
    """
    tree = spt.tree if isinstance(spt, SptResult) else spt
    claimed = spt.distances if isinstance(spt, SptResult) else None
    out, d = _check_arborescence(g, source, tree, alpha)
    fatal = {"wrong_root", "not_spanning", "extra_vertex", "missing_edge",
             "wrong_head", "not_reachable"}
    if any(v.kind in fatal for v in out):
        return out
    via, at = _relaxations(g, d)
    t, h, _, _ = g.columns()
    bad = np.flatnonzero(via < at)
    # the lowest violating in-edge of each vertex, in ascending vertex order
    heads, first = np.unique(h[bad], return_index=True)
    bad = bad[first]
    for v, e, u, relaxed in zip(heads.tolist(), bad.tolist(),
                                t[bad].tolist(), via[bad].tolist()):
        out.append(Violation("not_shortest",
                             f"tree path to {v} weighs {d[v]}, edge {e} "
                             f"from {u} gives {relaxed}",
                             vertex=v, edge=e))
    if claimed is None:
        return out
    if len(claimed.values) != g.n:
        out.append(Violation(
            "distance_mismatch", f"distance table has "
            f"{len(claimed.values)} entries for {g.n} vertices"))
        return out
    for v in np.flatnonzero(~claimed.reached
                            | (claimed.values != d)).tolist():
        out.append(Violation(
            "distance_mismatch",
            f"stored distance {claimed.distance(v)} for vertex {v}, "
            f"tree path weighs {d[v]}", vertex=v))
    return out


def at_least_transform(g: ColoredDigraph, lower
                       ) -> tuple[ColoredDigraph, ColorConstraint]:
    """Turn lower color bounds into upper bounds on a padded graph.

    Every edge is duplicated with a fresh color q+1 whose budget absorbs
    whatever the original colors need not cover; a budget-feasible tree of
    the padded graph maps back to one meeting every lower bound, by
    re-reading each duplicate as its original edge.
    """
    lower = ColorConstraint.of(lower)
    lower.require_length(g.q)
    need = g.n - 1
    if lower.total() > need:
        raise LowerBoundTooLarge(
            f"lower bounds sum to {lower.total()} but a spanning "
            f"arborescence has only {need} edges")
    t, h, c, w = g.columns()
    padded = ColoredDigraph.from_columns(
        g.n, g.q + 1, np.tile(t, 2), np.tile(h, 2),
        np.concatenate([c, np.full(g.m, g.q + 1)]), np.tile(w, 2))
    upper = ColorConstraint((*lower, need - lower.total()))
    return padded, upper
