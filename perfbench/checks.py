"""Checks of the program's answers against the reference data.

Nothing here imports ccgraph or scipy; the measuring process runs these
right after each answer, outside the timed region. Every check returns
None for a correct answer, or one line saying what is wrong with it.
"""

from __future__ import annotations

import numpy as np


def tree_problem(n: int, q: int, root: int, tails, heads, colors, weights,
                 dist: np.ndarray, alpha, parent_edge: dict[int, int],
                 counts, total) -> str | None:
    """Check a returned shortest-path tree; None when it is correct.

    The tree must span the graph, use only tight parent edges that enter
    the vertex they are listed for, reach every vertex from the root,
    keep every colour count within its budget, and state its colour
    counts and total weight exactly.
    """
    t = np.asarray(tails, dtype=np.int64)
    h = np.asarray(heads, dtype=np.int64)
    c = np.asarray(colors, dtype=np.int64)
    w = np.asarray(weights, dtype=np.int64)
    vs = np.fromiter(parent_edge.keys(), dtype=np.int64,
                     count=len(parent_edge))
    es = np.fromiter(parent_edge.values(), dtype=np.int64,
                     count=len(parent_edge))
    order = np.argsort(vs)
    vs, es = vs[order], es[order]
    if not np.array_equal(vs, np.delete(np.arange(n), root)):
        return "tree does not span the graph exactly once per non-root vertex"
    if len(es) and (es.min() < 0 or es.max() >= len(t)):
        return "tree names an edge id out of range"
    if not np.array_equal(h[es], vs):
        return "a parent edge does not enter its vertex"
    if not (dist[t[es]] + w[es] == dist[vs]).all():
        return "a parent edge is not tight"
    par = np.arange(n)
    par[vs] = t[es]
    for _ in range(max(1, int(n).bit_length()) + 1):
        par = par[par]
    if not (par == root).all():
        return "a vertex is not reachable from the root through the tree"
    used = np.bincount(c[es], minlength=q + 1)[1:]
    if (used > np.asarray(alpha)).any():
        return f"colour counts {used.tolist()} exceed budgets {list(alpha)}"
    if [int(x) for x in used] != [int(x) for x in counts]:
        return f"stated counts {list(counts)}, edges give {used.tolist()}"
    exact = sum(int(x) for x in w[es].tolist())
    if int(total) != exact:
        return f"stated total weight {total}, edges sum to {exact}"
    return None


def path_problem(source: int, target: int, tails, heads, colors, weights,
                 dist: np.ndarray, alpha, path) -> str | None:
    """Check a cc-sp witness: a source-target path of shortest weight
    within the budgets. None when it is correct."""
    m = len(tails)
    at = source
    used = [0] * len(alpha)
    total = 0
    for e in path:
        e = int(e)
        if not (0 <= e < m):
            return f"witness edge {e} out of range"
        if int(tails[e]) != at:
            return f"witness edge {e} does not continue the path"
        at = int(heads[e])
        used[int(colors[e]) - 1] += 1
        total += int(weights[e])
    if at != target:
        return f"witness ends at {at}, not at {target}"
    if total != int(dist[target]):
        return f"witness weighs {total}, distance is {int(dist[target])}"
    if any(u > a for u, a in zip(used, alpha)):
        return f"witness colour counts {used} exceed budgets {list(alpha)}"
    return None
