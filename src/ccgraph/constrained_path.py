"""Budget-constrained shortest s-t paths, in edge and vertex flavors.

The two instance kinds reduce to each other: vertex budgets become edge
budgets by recoloring each edge after its head (plus a zero-weight entry
edge for the source), and edge budgets become vertex budgets on the line
graph, where every path weight doubles. Certificates carry the object
maps so a witness path in the image pulls back to the source instance.

cc_sp_decide answers the decision question directly: is some shortest
s-t path within the per-color edge budgets?
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BudgetStateOverflow
from .graph import ColoredDigraph, ColorConstraint, validate
from .spg import sssp


@dataclass(frozen=True)
class VertexColoredDigraph:
    """Digraph with weighted uncolored edges and colored vertices."""

    n: int
    q: int
    vertex_colors: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]  # (tail, head, weight)

    def __post_init__(self):
        if self.n < 1 or self.q < 0:
            raise ValueError("need n >= 1 and q >= 0")
        colors = tuple(self.vertex_colors)
        edges = tuple(tuple(e) for e in self.edges)
        object.__setattr__(self, "vertex_colors", colors)
        object.__setattr__(self, "edges", edges)
        if len(colors) != self.n:
            raise ValueError("need one color per vertex")
        for c in colors:
            if not (1 <= c <= self.q):
                raise ValueError(f"vertex color {c} out of range")
        for t, h, _ in edges:
            if not (0 <= t < self.n and 0 <= h < self.n):
                raise ValueError("edge endpoint out of range")
            if t == h:
                raise ValueError("self-loops are not allowed")

    @property
    def m(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class CcSpInstance:
    """Edge-colored shortest-path instance: graph, endpoints, budgets."""

    graph: ColoredDigraph
    source: int
    target: int
    alpha: ColorConstraint

    def __post_init__(self):
        object.__setattr__(self, "alpha", ColorConstraint.of(self.alpha))
        self.alpha.require_length(self.graph.q)
        if not (0 <= self.source < self.graph.n
                and 0 <= self.target < self.graph.n):
            raise ValueError("endpoint out of range")


@dataclass(frozen=True)
class VccSpInstance:
    """Vertex-colored shortest-path instance: graph, endpoints, budgets."""

    graph: VertexColoredDigraph
    source: int
    target: int
    alpha: ColorConstraint

    def __post_init__(self):
        object.__setattr__(self, "alpha", ColorConstraint.of(self.alpha))
        self.alpha.require_length(self.graph.q)
        if not (0 <= self.source < self.graph.n
                and 0 <= self.target < self.graph.n):
            raise ValueError("endpoint out of range")


@dataclass(frozen=True)
class ReductionCertificate:
    """Object maps from a reduction's image back to its source instance.

    direction is "vcc_to_cc" or "cc_to_vcc". vertex_map and edge_map send
    image vertices/edges to the source objects they represent; objects
    invented by the reduction (the fresh source or endpoints) are absent.
    For cc_to_vcc the interesting map is vertex_map, sending each interior
    image vertex to the source edge it stands for, and image path weights
    are weight_scale times the source path weight.
    """

    direction: str
    image: object
    vertex_map: dict[int, int]
    edge_map: dict[int, int]
    weight_scale: int = 1

    def pull_back_path(self, edge_path: list[int]) -> list[int]:
        """Translate an image witness path (edge ids) to source edge ids."""
        if self.direction == "vcc_to_cc":
            return [self.edge_map[e] for e in edge_path
                    if e in self.edge_map]
        if self.direction == "cc_to_vcc":
            edges = self.image.graph.edges
            interior = []
            for e in edge_path:
                head = edges[e][1]
                if head in self.vertex_map:
                    interior.append(self.vertex_map[head])
            return interior
        raise ValueError(f"unknown direction {self.direction!r}")


def vcc_to_cc(inst: VccSpInstance
              ) -> tuple[CcSpInstance, ReductionCertificate]:
    """Vertex budgets to edge budgets: color each edge by its head.

    A fresh start vertex pays for the original source's color through a
    single zero-weight entry edge, so a path's edge colors are exactly the
    colors of its vertices. Budgets carry over unchanged; so do weights.
    """
    g = inst.graph
    chi = g.vertex_colors
    tails = [t for t, _, _ in g.edges]
    heads = [h for _, h, _ in g.edges]
    colors = [chi[h] for _, h, _ in g.edges]
    weights = [w for _, _, w in g.edges]
    start = g.n
    tails.append(start)
    heads.append(inst.source)
    colors.append(chi[inst.source])
    weights.append(0)
    image_graph = ColoredDigraph.from_columns(g.n + 1, g.q, tails, heads,
                                              colors, weights)
    bad = validate(image_graph)
    assert bad is None, bad
    image = CcSpInstance(graph=image_graph, source=start,
                         target=inst.target, alpha=inst.alpha)
    cert = ReductionCertificate(
        direction="vcc_to_cc", image=image,
        vertex_map={v: v for v in range(g.n)},
        edge_map={j: j for j in range(g.m)},
        weight_scale=1)
    return image, cert


def cc_to_vcc(inst: CcSpInstance
              ) -> tuple[VccSpInstance, ReductionCertificate]:
    """Edge budgets to vertex budgets on the line graph.

    Each source edge becomes a vertex of its color; consecutive edges are
    joined, and fresh endpoints (colored 1, with budget headroom 2) bracket
    the walk. Every image path weighs exactly twice its source path, since
    each source edge is paid for on entry and on exit.
    """
    g = inst.graph
    if inst.source == inst.target:
        raise ValueError("line-graph translation needs distinct endpoints")
    if g.q < 1:
        raise ValueError("need at least one color")
    m = g.m
    tails, heads, colors, weights = (x.tolist() for x in g.columns())
    start, end = m, m + 1
    vertex_colors = list(colors) + [1, 1]
    image_edges: list[tuple[int, int, int]] = []
    for e in range(m):
        if tails[e] == inst.source:
            image_edges.append((start, e, weights[e]))
    out_ids = g.out_edge_ids()
    for e in range(m):
        for f in out_ids[heads[e]]:
            image_edges.append((e, f, weights[e] + weights[f]))
    for e in range(m):
        if heads[e] == inst.target:
            image_edges.append((e, end, weights[e]))
    image_graph = VertexColoredDigraph(
        n=m + 2, q=g.q, vertex_colors=tuple(vertex_colors),
        edges=tuple(image_edges))
    new_alpha = ColorConstraint((inst.alpha[0] + 2, *tuple(inst.alpha)[1:]))
    image = VccSpInstance(graph=image_graph, source=start, target=end,
                          alpha=new_alpha)
    cert = ReductionCertificate(
        direction="cc_to_vcc", image=image,
        vertex_map={e: e for e in range(m)},
        edge_map={},
        weight_scale=2)
    return image, cert


def cc_sp_decide(inst: CcSpInstance, *,
                 state_cap: int = 10 ** 6) -> list[int] | None:
    """Is some shortest s-t path within the color budgets? Witness or None.

    Tracks, per vertex, the cheapest walk for every vector of per-color
    usage counts (capped at the budgets), for up to n-1 relaxation rounds.
    The best budget-feasible walk weight is then compared against the
    unconstrained distance; equality yields a witness path, which is
    returned as a list of edge ids (empty when source equals target).
    Raises BudgetStateOverflow when the budget vectors are too numerous.
    """
    g = inst.graph
    s, t = inst.source, inst.target
    alpha = inst.alpha
    n, q = g.n, g.q
    dist = sssp(g, s)
    if not dist.reachable(t):
        return None
    base = dist.distance(t)
    caps = [min(alpha[i], n - 1) for i in range(q)]
    states_per_vertex = 1
    for c in caps:
        states_per_vertex *= c + 1
        if states_per_vertex > state_cap:
            raise BudgetStateOverflow(
                f"budget vectors per vertex exceed {state_cap}")
    out_ids = g.out_edge_ids()
    # Python ints: numpy scalars would wrap on weights near int64's limit
    heads, colors, weights = (x.tolist() for x in g.columns()[1:])
    zero = (0,) * q
    best: dict[tuple[int, tuple[int, ...]], int] = {(s, zero): 0}
    pred: dict[tuple[int, tuple[int, ...]],
               tuple[tuple[int, tuple[int, ...]], int]] = {}
    for _ in range(n - 1):
        changed = False
        for (v, used), w in list(best.items()):
            for e in out_ids[v]:
                c = colors[e] - 1
                if used[c] >= caps[c]:
                    continue
                nused = used[:c] + (used[c] + 1,) + used[c + 1:]
                key = (heads[e], nused)
                nw = w + weights[e]
                old = best.get(key)
                if old is None or nw < old:
                    best[key] = nw
                    pred[key] = ((v, used), e)
                    changed = True
        if not changed:
            break
    goal = None
    for (v, used), w in best.items():
        if v == t and (goal is None or w < best[goal]):
            goal = (v, used)
    if goal is None or best[goal] != base:
        return None
    edges: list[int] = []
    state = goal
    guard = sum(caps) + 2
    while state != (s, zero):
        state, e = pred[state]
        edges.append(e)
        guard -= 1
        assert guard >= 0, "predecessor chain too long"
    edges.reverse()
    return _strip_cycles(heads, weights, s, edges)


def _strip_cycles(heads: list[int], weights: list[int], s: int,
                  edges: list[int]) -> list[int]:
    """Remove repeated-vertex loops from a walk; they all weigh zero here."""
    while True:
        verts = [s] + [heads[e] for e in edges]
        seen: dict[int, int] = {}
        cut = None
        for i, v in enumerate(verts):
            if v in seen:
                cut = (seen[v], i)
                break
            seen[v] = i
        if cut is None:
            return edges
        i, j = cut
        removed = edges[i:j]
        assert sum(weights[e] for e in removed) == 0
        edges = edges[:i] + edges[j:]
