"""End-to-end shortest-path-tree solving under color budgets.

cc_spt and min_cc_spt run the whole chain: single-source distances, tight
subgraph extraction, then the arborescence solver that `solve_cc_arb`
picks for the tight subgraph.
Any arborescence of that subgraph is a shortest-path tree of the original
graph, so feasibility and optimal weight transfer directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arborescence import Arborescence, solve_cc_arb, verify_arborescence
from .errors import LowerBoundTooLarge, Violation
from .flow import FlowAssignment
from .graph import ColoredDigraph, ColorConstraint
from .spg import DistanceTable, SpgGraph, build_spg, sssp


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
    tight edges. The solver follows from the number of colors: rb for two,
    flow otherwise; solver_used says which.
    """
    return _spt(g, source, alpha, minimize=False)


def min_cc_spt(g: ColoredDigraph, source: int, alpha) -> SptResult | None:
    """Minimum-weight budget-feasible shortest-path tree from source.

    Every tree here spans the same distances; minimality is over the sum
    of tree edge weights. Fails like cc_spt; the solver is min_rb for two
    colors and min_flow otherwise.
    """
    return _spt(g, source, alpha, minimize=True)


def _spt(g: ColoredDigraph, source: int, alpha, *, minimize: bool
         ) -> SptResult | None:
    alpha = ColorConstraint.of(alpha)
    alpha.require_length(g.q)
    distances = sssp(g, source)
    spg = build_spg(g, source, distances)
    tree, stats, solver = solve_cc_arb(spg, alpha, minimize=minimize)
    if tree is None:
        return None
    result = SptResult(tree=tree, distances=distances,
                       spg_edge_count=spg.edge_count,
                       solver_used=("min_" if minimize else "") + solver,
                       phase_stats=stats)
    if __debug__:
        bad = verify_spt(g, source, result, alpha)
        assert not bad, bad[0]
    return result


def verify_spt(g: ColoredDigraph, source: int, spt, alpha
               ) -> list[Violation]:
    """Check a claimed shortest-path tree against independently recomputed
    distances.

    Accepts an SptResult or a bare Arborescence. Distances are recomputed
    from scratch (always by the dense relaxation method, regardless of
    weights), the arborescence checks run first, and then every tree path
    must realize the recomputed distance of its endpoint.
    """
    tree = spt.tree if isinstance(spt, SptResult) else spt
    claimed = spt.distances if isinstance(spt, SptResult) else None
    out = verify_arborescence(g, source, tree, alpha)
    fatal = {"wrong_root", "not_spanning", "extra_vertex", "missing_edge",
             "wrong_head", "not_reachable"}
    if any(v.kind in fatal for v in out):
        return out
    try:
        dist = sssp(g, source, mode="bellman_ford")
    except Exception as exc:
        out.append(Violation("distance_mismatch",
                             f"distances are not well defined: {exc}"))
        return out
    if claimed is not None:
        for v in range(g.n):
            if claimed.dist[v] != dist.dist[v]:
                out.append(Violation(
                    "distance_mismatch",
                    f"stored distance {claimed.dist[v]} for vertex {v}, "
                    f"recomputed {dist.dist[v]}", vertex=v))
    path_w: dict[int, int] = {source: 0}

    def weight_to(v: int) -> int | None:
        chain = []
        u = v
        while u not in path_w:
            chain.append(u)
            e = tree.parent_edge.get(u)
            if e is None:
                return None
            u = g.tails[e]
            if len(chain) > g.n:
                return None
        acc = path_w[u]
        for x in reversed(chain):
            acc += int(g.weights[tree.parent_edge[x]])
            path_w[x] = acc
        return path_w[v]

    for v in range(g.n):
        if v == source:
            continue
        d = dist.dist[v]
        if d is None:
            out.append(Violation("not_reachable",
                                 f"vertex {v} is not reachable from "
                                 f"{source}", vertex=v))
            continue
        w = weight_to(v)
        if w is None or w != d:
            out.append(Violation("not_shortest",
                                 f"tree path to {v} weighs {w}, "
                                 f"distance is {d}", vertex=v))
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
    tails, heads, colors, weights = g.columns()
    new_tails = tails.tolist() + tails.tolist()
    new_heads = heads.tolist() + heads.tolist()
    new_colors = colors.tolist() + [g.q + 1] * g.m
    new_weights = weights.tolist() + weights.tolist()
    padded = ColoredDigraph.from_columns(g.n, g.q + 1, new_tails, new_heads,
                                         new_colors, new_weights)
    upper = ColorConstraint((*lower, need - lower.total()))
    return padded, upper
