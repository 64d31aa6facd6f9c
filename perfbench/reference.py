"""Reference computations made apart from ccgraph.

Nothing here imports ccgraph. Distances come from scipy's Dijkstra on the
minimum weight per parallel edge, minimum-weight optima from scipy's
linprog on the transportation LP, and cc-sp verdicts from a label sweep
written here. Only the planning process imports this module, so that
scipy stays out of the process whose memory and time are measured.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import dijkstra


def distances(n: int, tails, heads, weights, source: int = 0) -> np.ndarray:
    """Exact shortest-path distances from `source` as int64.

    Parallel edges collapse to their minimum weight before scipy sees
    them, because a sparse matrix would otherwise add them up.
    """
    t = np.asarray(tails, dtype=np.int64)
    h = np.asarray(heads, dtype=np.int64)
    w = np.asarray(weights, dtype=np.int64)
    order = np.lexsort((w, h, t))
    t, h, w = t[order], h[order], w[order]
    first = np.ones(len(t), dtype=bool)
    first[1:] = (t[1:] != t[:-1]) | (h[1:] != h[:-1])
    matrix = csr_matrix((w[first].astype(np.float64), (t[first], h[first])),
                        shape=(n, n))
    d = dijkstra(matrix, directed=True, indices=source)
    if not np.isfinite(d).all():
        raise ValueError("reference: a vertex is unreachable from the source")
    exact = d.astype(np.int64)
    if not (exact.astype(np.float64) == d).all():
        raise ValueError("reference: distances are not exact in float64")
    return exact


def tight_mask(dist: np.ndarray, tails, heads, weights) -> np.ndarray:
    """Edges on some shortest path: dist(tail) + w == dist(head)."""
    t = np.asarray(tails, dtype=np.int64)
    h = np.asarray(heads, dtype=np.int64)
    w = np.asarray(weights, dtype=np.int64)
    return dist[t] + w == dist[h]


def yes_budgets(n: int, q: int, root: int, heads, colors, tight: np.ndarray,
                rng: np.random.Generator) -> tuple[int, ...]:
    """Colour counts of a random tight tree: one uniformly drawn tight
    in-edge per non-root vertex. With positive weights the tight subgraph
    is acyclic, so any such choice is a spanning arborescence and these
    budgets are feasible by construction."""
    h = np.asarray(heads, dtype=np.int64)
    c = np.asarray(colors, dtype=np.int64)
    ids = np.flatnonzero(tight)
    ids = ids[rng.permutation(len(ids))]
    got, first = np.unique(h[ids], return_index=True)
    expect = np.delete(np.arange(n), root)
    if not np.array_equal(got[got != root], expect):
        raise ValueError("reference: a non-root vertex has no tight in-edge")
    pick = ids[first][got != root]
    return tuple(int(x) for x in np.bincount(c[pick], minlength=q + 1)[1:])


def forced_classes(n: int, q: int, root: int, heads, colors,
                   tight: np.ndarray) -> np.ndarray:
    """Per colour, the non-root vertices whose only tight in-colour it is."""
    h = np.asarray(heads, dtype=np.int64)[tight]
    c = np.asarray(colors, dtype=np.int64)[tight]
    present = np.zeros((n, q + 1), dtype=bool)
    present[h, c] = True
    present[root] = False
    single = present[:, 1:].sum(axis=1) == 1
    return (present[:, 1:] & single[:, None]).sum(axis=0)


def no_budgets(n: int, q: int, root: int, heads, colors, tight: np.ndarray,
               rng: np.random.Generator) -> tuple[int, ...]:
    """Budgets one below a forced class of a random colour, n-1 elsewhere.

    The forced vertices of that colour cannot all get an in-edge, so no
    tree fits, yet the budgets sum to at least n-1 and the up-front sum
    test does not decide the instance.
    """
    forced = forced_classes(n, q, root, heads, colors, tight)
    candidates = np.flatnonzero(forced > 0)
    if len(candidates) == 0 or q < 2:
        raise ValueError("reference: no forced colour class to undercut")
    k = int(rng.choice(candidates))
    alpha = [n - 1] * q
    alpha[k] = int(forced[k]) - 1
    return tuple(alpha)


def min_tree_weight(n: int, q: int, root: int, heads, colors, weights,
                    tight: np.ndarray, alpha) -> int | None:
    """Optimum of the transportation LP over (vertex, colour) pairs.

    Each non-root vertex takes one unit from a colour it has a tight
    in-edge of, at the cheapest such edge's weight; colour c supplies at
    most alpha[c]. The constraint matrix is totally unimodular, so the LP
    optimum is the minimum tree weight. None when the LP is infeasible.
    """
    h = np.asarray(heads, dtype=np.int64)[tight]
    c = np.asarray(colors, dtype=np.int64)[tight]
    w = np.asarray(weights, dtype=np.int64)[tight]
    keep = h != root
    h, c, w = h[keep], c[keep], w[keep]
    key = h * (q + 1) + c
    order = np.lexsort((w, key))
    key, w = key[order], w[order]
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    key, cost = key[first], w[first]
    pv, pc = key // (q + 1), key % (q + 1)
    row = pv - (pv > root)
    cols = np.arange(len(key))
    ones = np.ones(len(key))
    a_eq = coo_matrix((ones, (row, cols)), shape=(n - 1, len(key))).tocsr()
    a_ub = coo_matrix((ones, (pc - 1, cols)), shape=(q, len(key))).tocsr()
    res = linprog(cost.astype(np.float64), A_ub=a_ub,
                  b_ub=np.asarray(alpha, dtype=np.float64), A_eq=a_eq,
                  b_eq=np.ones(n - 1), bounds=(0, 1), method="highs")
    if res.status == 2:
        return None
    if res.status != 0:
        raise ValueError(f"reference: linprog failed: {res.message}")
    best = int(round(res.fun))
    if abs(res.fun - best) > 1e-6:
        raise ValueError(f"reference: LP optimum {res.fun} is not integral")
    return best


def cc_sp_feasible(n: int, q: int, source: int, target: int, tails, heads,
                   colors, dist: np.ndarray, tight: np.ndarray,
                   alpha) -> bool:
    """Does some shortest source-target path fit the budgets?

    Every shortest path runs on tight edges, and with positive weights the
    tight subgraph is a DAG ordered by distance. One sweep in that order
    keeps, per vertex, the dominance-minimal colour-usage vectors that fit
    the budgets; the answer is yes when the target holds any.
    """
    t = np.asarray(tails, dtype=np.int64)
    h = np.asarray(heads, dtype=np.int64)
    c = np.asarray(colors, dtype=np.int64) - 1
    out: list[list[int]] = [[] for _ in range(n)]
    for e in np.flatnonzero(tight).tolist():
        out[t[e]].append(e)
    labels: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    labels[source] = [(0,) * q]
    for u in np.argsort(dist, kind="stable").tolist():
        if not labels[u]:
            continue
        for e in out[u]:
            k = c[e]
            if alpha[k] == 0:
                continue
            dest = labels[h[e]]
            for lab in labels[u]:
                if lab[k] >= alpha[k]:
                    continue
                new = lab[:k] + (lab[k] + 1,) + lab[k + 1:]
                if any(all(a <= b for a, b in zip(old, new)) for old in dest):
                    continue
                dest[:] = [old for old in dest
                           if not all(a <= b for a, b in zip(new, old))]
                dest.append(new)
    return bool(labels[target])
