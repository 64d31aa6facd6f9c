"""Color-budgeted arborescences of an acyclic tight subgraph.

Every non-root vertex needs exactly one in-edge, so on a DAG rooted at r
a set of per-vertex in-edge choices is automatically an arborescence; the
only question is whether the colors of the chosen edges fit the budgets.
There is one solve body, `solve_cc_arb`, at any number of colors: a flow
network decides which color each vertex takes its in-edge from, and its
min-cost variant answers the minimum-weight question. A tree exists
exactly when the flow reaches n-1, so the flow decides every "yes" and
every "no". `cc_arb_flow` and `min_cc_arb_flow` return its tree alone.

Tie-breaking is uniform and lives in one place, `flow._choice`: whenever
a vertex may take its in-edge from a color in several ways, the edge with
the smallest id wins; the min-cost solver first minimizes weight, then id.
`_choice` returns one sorted list of the tight (head, color) pairs, keyed
by head * (q+1) + color, with each pair's chosen edge, so its size follows
the tight edges and not n * q. The flow decides the colors per class of
interchangeable vertices (same in-colors, and for min cost the same
chosen weight per color): within a class the vertices, in ascending id,
take the colors in ascending order, as many of each as the flow sends
from that color into the class, and each takes the edge the pair list
holds for its color.
"""

from __future__ import annotations

import numpy as np

from .errors import Violation
from .flow import (FlowAssignment, build_arb_network, dinitz_max_flow,
                   min_cost_max_flow)
from .graph import (INT64_MAX, ColoredDigraph, ColorConstraint, _exact_sum,
                    _int_array, _integers, _magnitude, _vertex)
from .spg import SpgGraph


class Arborescence:
    """Spanning arborescence given as one in-edge per non-root vertex.

    Stored once, as two arrays of one length: `vertices`, ascending, and
    `edges`, where vertices[i] takes the in-edge edges[i]. Both are int64,
    or object arrays of Python ints when a caller's id does not fit int64.
    A solver's tree lists every vertex but the root. `parent_edge` is the
    same tree as the dict {vertex: edge}, in ascending vertex order, built
    on every read. The constructor takes that dict as the caller states
    it, so `verify_arborescence` can report a missing vertex, the root or
    an id outside the graph; a key or value other than an integer, such
    as a bool, a float or a string, raises ValueError.
    """

    __slots__ = ("root", "vertices", "edges", "color_counts", "total_weight")

    def __init__(self, root: int, parent_edge: dict[int, int],
                 color_counts: tuple[int, ...], total_weight: int):
        try:
            vertices = _integers(list(parent_edge))
            edges = _integers(list(parent_edge.values()))
        except TypeError as exc:
            raise ValueError(f"parent edges: {exc}") from None
        order = np.argsort(vertices, kind="stable")
        self.root = root
        self.vertices = vertices[order]
        self.edges = edges[order]
        self.color_counts = color_counts
        self.total_weight = total_weight

    @classmethod
    def _of_arrays(cls, root: int, vertices: np.ndarray, edges: np.ndarray,
                   color_counts: tuple[int, ...], total_weight: int
                   ) -> "Arborescence":
        """A tree of arrays already in the stored form, not copied."""
        tree = cls.__new__(cls)
        tree.root, tree.vertices, tree.edges = root, vertices, edges
        tree.color_counts, tree.total_weight = color_counts, total_weight
        return tree

    @property
    def parent_edge(self) -> dict[int, int]:
        return dict(zip(self.vertices.tolist(), self.edges.tolist()))

    def edge_ids(self) -> list[int]:
        return self.edges.tolist()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Arborescence):
            return NotImplemented
        return (self.root == other.root
                and self.color_counts == other.color_counts
                and self.total_weight == other.total_weight
                and np.array_equal(self.vertices, other.vertices)
                and np.array_equal(self.edges, other.edges))

    __hash__ = None

    def __repr__(self) -> str:
        return (f"Arborescence(root={self.root!r}, "
                f"parent_edge={self.parent_edge!r}, "
                f"color_counts={self.color_counts!r}, "
                f"total_weight={self.total_weight!r})")


def _network_solution(spg: SpgGraph, H, assignment) -> Arborescence:
    """The tree a full flow selects: the members of each class, in
    ascending id, take the colors whose arcs into the class carry flow, in
    color order, one member per unit, and each takes the edge the
    network's pair list `H.choice` holds for it in that color.

    The members of a class share their run of pairs, colors ascending,
    and the class's color->class arcs come in the same color order. So an
    arc's rank among its class's arcs is the offset of its color in every
    member's run, and the edge is read at the start of the member's run
    plus that offset, with no search of the pair list."""
    lo, hi = H.color_arc_range
    keys, chosen = H.choice
    n = spg.n
    # the color->class arcs come class by class, classes ascending, in the
    # order in which class_members lists the classes
    heads = np.asarray(H.arc_heads[lo:hi], dtype=np.int64)
    rank = np.arange(hi - lo) - np.searchsorted(heads, heads)
    counts = np.bincount(keys // (spg.q + 1), minlength=n)
    at = np.cumsum(counts) - counts
    at[H.class_members] += np.repeat(rank, assignment.flow[lo:hi])
    vertices = np.delete(np.arange(n), spg.root)
    edges = chosen[np.delete(at, spg.root)]
    _, _, c, w = spg.graph.columns()
    counts = np.bincount(c[edges], minlength=spg.q + 1)[1:]
    return Arborescence._of_arrays(
        spg.root, vertices, edges, tuple(counts.tolist()),
        _exact_sum(w[edges]))


def cc_arb_flow(spg: SpgGraph, alpha) -> Arborescence | None:
    """Color-budgeted arborescence via maximum flow; None if infeasible."""
    return solve_cc_arb(spg, alpha)[0]


def min_cc_arb_flow(spg: SpgGraph, alpha) -> Arborescence | None:
    """Minimum-weight color-budgeted arborescence via min-cost flow."""
    return solve_cc_arb(spg, alpha, minimize=True)[0]


def solve_cc_arb(spg: SpgGraph, alpha, *, minimize: bool = False
                 ) -> tuple[Arborescence | None, FlowAssignment]:
    """The one solve body: the class network and its maximum flow, or with
    minimize its min-cost flow, for a minimum-weight tree. Returns the
    tree, None when the flow falls short of n-1, and the flow run. Budgets
    too small in total are capped by the source arcs, and a vertex with no
    in-edge forms a class with no color arc, so the flow decides every
    answer. A minimum-weight tree is checked under `__debug__`: its
    weight against the flow's cost, and the run's color prices against
    the tree (`_prices_hold`). The network and flow functions are read
    from this module's namespace on every call, so a wrapped or patched
    one is the one that runs."""
    H = build_arb_network(spg, alpha, minimize=minimize)
    run = (min_cost_max_flow if minimize else dinitz_max_flow)(H)
    if run.value < spg.n - 1:
        return None, run
    tree = _network_solution(spg, H, run)
    assert not minimize or (tree.total_weight == run.total_cost
                            and _prices_hold(spg, H, tree, run.prices))
    return tree, run


def _prices_hold(spg: SpgGraph, H, tree: Arborescence,
                 prices: tuple[int, ...]) -> bool:
    """Whether color prices pi prove `tree` of least weight: every vertex
    takes a color that attains the least w(v, c) + pi_c over its tight
    in-colors c, at the weight of the pair's edge in `H.choice`, and pi_c
    > 0 only on a color used to its clamped budget (the capacity of its
    source arc). One pass over the pair list; exact past int64."""
    q = spg.q
    binding = all(p == 0 or used == cap for p, used, cap
                  in zip(prices, tree.color_counts, H.arc_caps[:q]))
    if not len(tree.vertices):
        return binding
    keys, edges = H.choice
    _, _, c, w = spg.graph.columns()
    pi = _int_array((0,) + prices)
    if _magnitude(w) + _magnitude(pi) > INT64_MAX:
        w, pi = w.astype(object), pi.astype(object)
    heads, colors = np.divmod(keys, q + 1)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = heads[1:] != heads[:-1]
    starts = np.flatnonzero(first)
    # the least w(v, c) + pi_c of every vertex with a tight in-edge
    least = np.empty(spg.n, dtype=w.dtype)
    least[heads[starts]] = np.minimum.reduceat(w[edges] + pi[colors], starts)
    paid = w[tree.edges] + pi[c[tree.edges]]
    return binding and bool((paid == least[tree.vertices]).all())


def verify_arborescence(g: ColoredDigraph, root: int, tree: Arborescence,
                        alpha) -> list[Violation]:
    """Check a claimed arborescence against the graph and the budgets.

    Returns every violation found rather than raising: wrong root, wrong
    coverage, edges that do not point where claimed, unreachable vertices
    (which is how a cycle among the parent edges shows up), count or
    weight fields that disagree with the edges, and budget overruns. The
    parent edges are checked with array masks, and reachability by the
    pointer doubling of `_tree_paths`. A root outside the graph is a
    wrong_root violation; a root other than an integer, such as a bool,
    raises ValueError.
    """
    return _check_arborescence(g, root, tree, alpha)[0]


def _check_arborescence(g: ColoredDigraph, root: int, tree: Arborescence,
                        alpha) -> tuple[list[Violation], np.ndarray | None]:
    """`verify_arborescence`'s violations, and the d of its `_tree_paths`
    pass: the tree path weight of every vertex the usable parent edges
    connect to the root (None on a wrong root)."""
    out: list[Violation] = []
    n, m = g.n, g.m
    root = _vertex("root", root)
    if not (0 <= root < n) or tree.root != root:
        out.append(Violation("wrong_root",
                             f"tree rooted at {tree.root}, expected {root}"))
        return out, None
    _, h, c, w = g.columns()
    # A solver's tree passes every mask below whole; it is then read as
    # it stands, without the masked copies.
    keys, edges = tree.vertices, tree.edges
    inside = (keys >= 0) & (keys < n) & (keys != root)
    whole = inside.all()
    vertices = (keys.astype(np.int64, copy=False) if whole
                else keys[inside].astype(np.int64))
    covered = np.zeros(n, dtype=bool)
    covered[vertices] = True
    covered[root] = True
    for v in np.flatnonzero(~covered).tolist():
        out.append(Violation("not_spanning", f"vertex {v} has no in-edge",
                             vertex=v))
    if not whole:
        for v in keys[~inside].tolist():
            out.append(Violation("extra_vertex",
                                 f"in-edge for vertex {v} outside the graph "
                                 "or for the root", vertex=v))
        edges = edges[inside]
    in_range = (edges >= 0) & (edges < m)
    if in_range.all():
        edges = edges.astype(np.int64, copy=False)
        entered = h[edges]
    else:
        entered = np.full(len(edges), -1, dtype=h.dtype)
        entered[in_range] = h[edges[in_range].astype(np.int64)]
    wrong = in_range & (entered != vertices)
    bad = np.flatnonzero(~in_range | wrong)
    for i, v, e, got in zip(bad.tolist(), vertices[bad].tolist(),
                            edges[bad].tolist(), entered[bad].tolist()):
        if in_range[i]:
            out.append(Violation("wrong_head", f"edge {e} enters {got}, "
                                 f"not {v}", vertex=v, edge=e))
        else:
            out.append(Violation("missing_edge",
                                 f"edge id {e} out of range", vertex=v,
                                 edge=e))
    usable = in_range & ~wrong
    if not usable.all():
        vertices = vertices[usable]
        edges = edges[usable].astype(np.int64)
    reached, d = _tree_paths(g, root, vertices, edges)
    for v in vertices[~reached[vertices]].tolist():
        out.append(Violation("not_reachable",
                             f"vertex {v} not reachable from the root "
                             "through the chosen edges", vertex=v))
    counts = np.bincount(c[edges], minlength=g.q + 1)[1:].tolist()
    total = _exact_sum(w[edges])
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
        return out, d
    for i in range(g.q):
        if counts[i] > alpha[i]:
            out.append(Violation("color_budget",
                                 f"color {i + 1} used {counts[i]} times, "
                                 f"budget {alpha[i]}"))
    return out, d


def _tree_paths(g: ColoredDigraph, root: int, vertices: np.ndarray,
                edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which vertices the parent edges connect to the root, and d_T.

    vertices[i] takes the in-edge edges[i] (distinct in-range vertices
    other than the root, valid edge ids). Every vertex points at the tail
    of its parent edge, and any other vertex, the root included, at
    itself; rounds of `d += d[par]; par = par[par]` (Wyllie's list
    ranking) move each pointer to the end of its parent chain. The rounds
    stop once no round could change anything: every pointer sits on a
    vertex that points at itself with d 0, the root or a vertex with no
    parent edge. That takes ceil(log2 depth) rounds on a tree of that
    depth, and a parent cycle, which never settles so, runs all
    ceil(log2 n). A vertex is reached when its chain ends at the root,
    and then d[v] is the weight of its tree path. d is int64 when
    2 n max|w| fits, which bounds every partial sum, also around a cycle
    of parent edges, and an object array of Python ints otherwise.
    """
    n = g.n
    t, _, _, w = g.columns()
    weights = w[edges]
    fits = 2 * n * _magnitude(weights) <= INT64_MAX
    d = np.zeros(n, dtype=np.int64 if fits else object)
    d[vertices] = weights
    par = np.arange(n)
    par[vertices] = t[edges]
    # a vertex that may still move: the whole arrays are tested only once
    # it has settled, so a deep chain pays for few tests
    last = n - 1
    for _ in range((n - 1).bit_length()):
        step, up = d[par], par[par]
        if not step[last] and up[last] == par[last]:
            moving = np.flatnonzero((step != 0) | (up != par))
            if not len(moving):
                break
            last = moving[-1]
        d += step
        par = up
    return par == root, d
