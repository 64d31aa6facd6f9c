"""Reference implementations and instance generators for testing.

Everything here is deliberately independent of the solvers it checks and
shares no code with them. The oracles enumerate, never optimize, with one
exception: `cc_arb_match` answers the budgeted arborescence question by a
Hopcroft-Karp bipartite matching (`hopcroft_karp` on a `BipartiteGraph`),
a formulation no production solver uses. Generators are seeded and
deterministic; corpus builders derive one sub-seed per instance so a
corpus is reproducible from a single integer.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from random import Random
from typing import Iterator, NamedTuple

import numpy as np

from .arborescence import Arborescence
from .constrained_path import (CcSpInstance, VccSpInstance,
                               VertexColoredDigraph)
from .errors import InstanceTooLarge, TooManyArborescences
from .graph import ColoredDigraph, ColorConstraint
from .spg import SpgGraph


class Digraph(NamedTuple):
    """Plain uncolored digraph, the raw material for gadgets."""

    n: int
    edges: tuple[tuple[int, int], ...]


def _arb_from_choice(g: ColoredDigraph, root: int,
                     choice: dict[int, int]) -> Arborescence:
    counts = [0] * g.q
    total = 0
    for e in choice.values():
        counts[g.colors[e] - 1] += 1
        total += int(g.weights[e])
    return Arborescence(root=root, parent_edge=dict(choice),
                        color_counts=tuple(counts), total_weight=total)


class BipartiteGraph:
    """Bipartite adjacency between labelled left and right node sets."""

    __slots__ = ("left", "right", "adj")

    def __init__(self, left: list, right: list, adj: list[list[int]]):
        if len(adj) != len(left):
            raise ValueError("adjacency must have one row per left node")
        for row in adj:
            for r in row:
                if not (0 <= r < len(right)):
                    raise ValueError("right index out of range")
        self.left = left
        self.right = right
        self.adj = adj


_HK_INF = float("inf")


def hopcroft_karp(b: BipartiteGraph) -> dict:
    """Maximum bipartite matching; returns {right label: left label}.

    Phases of breadth-first layering followed by disjoint augmenting paths
    found depth-first. Scanning order is fixed by node index, so results
    are deterministic.
    """
    L, R = len(b.left), len(b.right)
    adj = b.adj
    match_l = [-1] * L
    match_r = [-1] * R
    dist = [0] * L

    def bfs() -> bool:
        queue = deque()
        for u in range(L):
            if match_l[u] < 0:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = _HK_INF
        found = False
        while queue:
            u = queue.popleft()
            for r in adj[u]:
                w = match_r[r]
                if w < 0:
                    found = True
                elif dist[w] == _HK_INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def try_augment(u0: int) -> bool:
        # iterative alternating DFS; stack holds (left node, adjacency pos)
        stack = [(u0, 0)]
        while stack:
            u, i = stack[-1]
            if i == len(adj[u]):
                dist[u] = _HK_INF
                stack.pop()
                if stack:
                    pu, pi = stack[-1]
                    stack[-1] = (pu, pi + 1)
                continue
            r = adj[u][i]
            w = match_r[r]
            if w < 0:
                for su, si in stack:
                    rr = adj[su][si]
                    match_r[rr] = su
                    match_l[su] = rr
                return True
            if dist[w] == dist[u] + 1:
                stack.append((w, 0))
            else:
                stack[-1] = (u, i + 1)
        return False

    while bfs():
        for u in range(L):
            if match_l[u] < 0:
                try_augment(u)
    return {b.right[r]: b.left[match_r[r]]
            for r in range(R) if match_r[r] >= 0}


def cc_arb_match(spg: SpgGraph, alpha) -> Arborescence | None:
    """Color-budgeted arborescence via bipartite matching; None if infeasible.

    Budget slots (color, copy) on the left, non-root vertices on the
    right; a matching that saturates the right side assigns every vertex a
    color it can actually use, and the vertex takes its smallest-id
    in-edge of that color.
    """
    alpha = ColorConstraint.of(alpha)
    alpha.require_length(spg.q)
    rights = [v for v in range(spg.n) if v != spg.root]
    first: dict[int, dict[int, int]] = {v: {} for v in rights}
    for v in rights:
        for e in spg.in_edge_ids()[v]:
            first[v].setdefault(int(spg.graph.colors[e]), e)
    has_color = {i: [j for j, v in enumerate(rights) if i in first[v]]
                 for i in range(1, spg.q + 1)}
    caps = alpha.clamped(len(rights))
    lefts = [(i, copy) for i in has_color for copy in range(caps[i - 1])]
    adj = [has_color[i] for i, _ in lefts]
    matching = hopcroft_karp(BipartiteGraph(lefts, rights, adj))
    if len(matching) < len(rights):
        return None
    return _arb_from_choice(spg.graph, spg.root,
                            {v: first[v][i] for v, (i, _) in matching.items()})


def enumerate_spg_arborescences(spg: SpgGraph, cap: int = 10 ** 6
                                ) -> Iterator[Arborescence]:
    """Yield every arborescence of an acyclic rooted graph, in the order
    of ascending edge-id choices vertex by vertex.

    On a DAG every per-vertex in-edge choice is an arborescence, so this
    is a plain cartesian product. Raises TooManyArborescences when the
    product of in-degrees exceeds cap.
    """
    root = spg.root
    vertices = [v for v in range(spg.n) if v != root]
    in_ids = spg.in_edge_ids()
    count = 1
    for v in vertices:
        count *= len(in_ids[v])
        if count > cap:
            raise TooManyArborescences(
                f"more than {cap} arborescences to enumerate")
    if count == 0:
        return
    for combo in itertools.product(*(in_ids[v] for v in vertices)):
        yield _arb_from_choice(spg.graph, root, dict(zip(vertices, combo)))


def _choice_is_arborescence(g: ColoredDigraph, root: int,
                            choice: dict[int, int]) -> bool:
    # every vertex must walk up its parents to the root without looping
    ok = {root}
    for v0 in choice:
        trail = []
        v = v0
        on_trail = set()
        while v not in ok:
            if v in on_trail:
                return False
            on_trail.add(v)
            trail.append(v)
            v = g.tails[choice[v]]
        ok.update(trail)
    return True


def brute_cc_arb_general(g: ColoredDigraph, root: int, alpha,
                         cap: int = 10 ** 7) -> Arborescence | None:
    """Exhaustive budgeted-arborescence search on an arbitrary digraph.

    Unlike the solvers this does not assume acyclicity, so it must test
    each in-edge choice for cycles. Only for tiny graphs (n <= 10); the
    first feasible choice in enumeration order is returned, which makes
    the answer the lexicographically least one.
    """
    if g.n > 10:
        raise InstanceTooLarge("exhaustive search is limited to n <= 10")
    alpha = ColorConstraint.of(alpha)
    alpha.require_length(g.q)
    vertices = [v for v in range(g.n) if v != root]
    in_ids = g.in_edge_ids()
    count = 1
    for v in vertices:
        count *= len(in_ids[v])
        if count > cap:
            raise TooManyArborescences(
                f"more than {cap} in-edge choices to enumerate")
    if count == 0:
        return None
    for combo in itertools.product(*(in_ids[v] for v in vertices)):
        counts = [0] * g.q
        good = True
        for e in combo:
            c = g.colors[e] - 1
            counts[c] += 1
            if counts[c] > alpha[c]:
                good = False
                break
        if not good:
            continue
        choice = dict(zip(vertices, combo))
        if _choice_is_arborescence(g, root, choice):
            return _arb_from_choice(g, root, choice)
    return None


def brute_min_cc_arb(spg: SpgGraph, alpha, cap: int = 10 ** 6
                     ) -> int | None:
    """Minimum total weight over all budget-feasible arborescences."""
    alpha = ColorConstraint.of(alpha)
    alpha.require_length(spg.q)
    best = None
    for arb in enumerate_spg_arborescences(spg, cap):
        if all(arb.color_counts[i] <= alpha[i] for i in range(spg.q)):
            if best is None or arb.total_weight < best:
                best = arb.total_weight
    return best


def enumerate_st_paths(g: ColoredDigraph, s: int, t: int
                       ) -> Iterator[list[int]]:
    """Yield every simple s-t path as a list of edge ids (tiny graphs only).

    Depth-first, expanding edges in ascending id order. When s equals t
    the single empty path is yielded.
    """
    if g.n > 10:
        raise InstanceTooLarge("path enumeration is limited to n <= 10")
    if s == t:
        yield []
        return
    out_ids = g.out_edge_ids()
    path: list[int] = []
    on_path = {s}

    def walk(v: int) -> Iterator[list[int]]:
        for e in out_ids[v]:
            h = g.heads[e]
            if h in on_path:
                continue
            path.append(e)
            if h == t:
                yield list(path)
            else:
                on_path.add(h)
                yield from walk(h)
                on_path.discard(h)
            path.pop()

    yield from walk(s)


def brute_cc_sp_decide(inst: CcSpInstance) -> list[int] | None:
    """Exhaustive form of the budgeted shortest-path decision.

    Enumerates the simple s-t paths, takes the true distance as the
    minimum over all of them, and returns the first shortest path in
    enumeration order whose color counts fit the budgets. Assumes no
    negative cycle, so simple paths realize the distance.
    """
    g = inst.graph
    paths = list(enumerate_st_paths(g, inst.source, inst.target))
    if not paths:
        return None
    weights = [sum(g.weights[e] for e in p) for p in paths]
    dist = min(weights)
    for p, w in zip(paths, weights):
        if w != dist:
            continue
        counts = [0] * g.q
        for e in p:
            counts[g.colors[e] - 1] += 1
        if all(counts[i] <= inst.alpha[i] for i in range(g.q)):
            return p
    return None


def enumerate_vcc_paths(v: VertexColoredDigraph, s: int, t: int
                        ) -> Iterator[list[int]]:
    """Simple s-t paths of a vertex-colored digraph, as edge-id lists."""
    if v.n > 12:
        raise InstanceTooLarge("path enumeration is limited to n <= 12")
    if s == t:
        yield []
        return
    out: list[list[int]] = [[] for _ in range(v.n)]
    for j, (tail, _, _) in enumerate(v.edges):
        out[tail].append(j)
    path: list[int] = []
    on_path = {s}

    def walk(u: int) -> Iterator[list[int]]:
        for j in out[u]:
            h = v.edges[j][1]
            if h in on_path:
                continue
            path.append(j)
            if h == t:
                yield list(path)
            else:
                on_path.add(h)
                yield from walk(h)
                on_path.discard(h)
            path.pop()

    yield from walk(s)


def brute_vcc_sp_decide(inst: VccSpInstance) -> list[int] | None:
    """Exhaustive vertex-budgeted shortest-path decision.

    Vertex colors are counted over every path vertex, endpoints included;
    the empty path (source equals target) counts the one shared endpoint.
    """
    v = inst.graph
    paths = list(enumerate_vcc_paths(v, inst.source, inst.target))
    if not paths:
        return None
    weights = [sum(v.edges[j][2] for j in p) for p in paths]
    dist = min(weights)
    for p, w in zip(paths, weights):
        if w != dist:
            continue
        counts = [0] * v.q
        counts[v.vertex_colors[inst.source] - 1] += 1
        for j in p:
            counts[v.vertex_colors[v.edges[j][1]] - 1] += 1
        if all(counts[i] <= inst.alpha[i] for i in range(v.q)):
            return p
    return None


def has_hamiltonian_path(d: Digraph, s: int) -> bool:
    """Does a path from s visit every vertex exactly once? Backtracking."""
    if d.n > 12:
        raise InstanceTooLarge("hamiltonian search is limited to n <= 12")
    out: list[list[int]] = [[] for _ in range(d.n)]
    for u, v in d.edges:
        out[u].append(v)
    visited = {s}

    def extend(u: int) -> bool:
        if len(visited) == d.n:
            return True
        for v in out[u]:
            if v not in visited:
                visited.add(v)
                if extend(v):
                    return True
                visited.discard(v)
        return False

    return extend(s)


def gen_hamiltonian_gadget(d: Digraph, s: int = 0
                           ) -> tuple[ColoredDigraph, int, ColorConstraint]:
    """Encode hamiltonian-path-from-s as a budgeted arborescence question.

    Every edge leaving vertex v gets color v+1 and weight zero, a fresh
    sink vertex receives an edge from everyone, and all budgets are one:
    a spanning arborescence within the budgets must chain the vertices.
    """
    n = d.n
    tails, heads, colors, weights = [], [], [], []
    for u, v in d.edges:
        tails.append(u)
        heads.append(v)
        colors.append(u + 1)
        weights.append(0)
    sink = n
    for v in range(n):
        tails.append(v)
        heads.append(sink)
        colors.append(v + 1)
        weights.append(0)
    g = ColoredDigraph.from_columns(n + 1, n, tails, heads, colors, weights)
    return g, s, ColorConstraint((1,) * n)


def gen_random_digraph(n: int, density: float, seed: int) -> Digraph:
    """Uncolored random digraph: each ordered pair independently present."""
    rng = Random(seed)
    edges = [(u, v) for u in range(n) for v in range(n)
             if u != v and rng.random() < density]
    return Digraph(n, tuple(edges))


def gen_random_dag(n: int, q: int, density: float, seed: int,
                   weight_range: tuple[int, int] = (1, 10)
                   ) -> ColoredDigraph:
    """Random DAG in which every vertex is reachable from vertex 0.

    Edges only go from smaller to larger id, so 0..n-1 is a topological
    order; vertices the density coin leaves orphaned get a direct edge
    from 0. Weights may be negative, the graph stays acyclic regardless.
    """
    rng = Random(seed)
    lo, hi = weight_range
    tails, heads, colors, weights = [], [], [], []
    for v in range(1, n):
        found = False
        for u in range(v):
            if rng.random() < density:
                tails.append(u)
                heads.append(v)
                colors.append(rng.randint(1, q))
                weights.append(rng.randint(lo, hi))
                found = True
        if not found:
            tails.append(0)
            heads.append(v)
            colors.append(rng.randint(1, q))
            weights.append(rng.randint(lo, hi))
    return ColoredDigraph.from_columns(n, q, tails, heads, colors, weights)


def gen_random_positive_cycle_digraph(n: int, q: int, density: float,
                                      seed: int,
                                      weight_range: tuple[int, int] = (1, 10)
                                      ) -> ColoredDigraph:
    """Random digraph, possibly cyclic, with strictly positive weights.

    Positive weights rule out non-positive cycles, so shortest paths and
    tight subgraphs are always well defined. A random spanning path makes
    everything reachable from vertex 0.
    """
    rng = Random(seed)
    lo, hi = max(1, weight_range[0]), max(1, weight_range[1])
    tails, heads, colors, weights = [], [], [], []

    def add(u: int, v: int):
        tails.append(u)
        heads.append(v)
        colors.append(rng.randint(1, q))
        weights.append(rng.randint(lo, hi))

    order = list(range(1, n))
    rng.shuffle(order)
    prev = 0
    for v in order:
        add(prev, v)
        prev = v
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < density:
                add(u, v)
    return ColoredDigraph.from_columns(n, q, tails, heads, colors, weights)


def gen_layered_dag(n: int, m: int, q: int, seed: int,
                    num_layers: int = 32) -> ColoredDigraph:
    """Large layered DAG with array-backed storage; vertex ids are a
    topological order by construction.

    Vertex 0 is alone in the first layer; every later vertex draws one
    backbone edge from the previous layer, and the remaining edges go
    between consecutive layers at random. All weights are 1.
    """
    if n < 2:
        raise ValueError("need at least two vertices")
    num_layers = max(2, min(num_layers, n))
    rng = np.random.default_rng(seed)
    bounds = np.linspace(1, n, num_layers, dtype=np.int64)
    bounds[0] = 1
    starts = np.concatenate(([0], bounds))
    layer_of = np.zeros(n, dtype=np.int64)
    for i in range(len(starts) - 1):
        layer_of[starts[i]:starts[i + 1]] = i
    lo = starts[:-1]
    hi = starts[1:]
    heads = np.arange(1, n, dtype=np.int64)
    prev = layer_of[heads] - 1
    span = (hi - lo)[prev]
    tails = lo[prev] + (rng.integers(0, 1 << 62, n - 1) % span)
    extra = max(0, m - (n - 1))
    if extra:
        eh = rng.integers(1, n, extra)
        ep = layer_of[eh] - 1
        espan = (hi - lo)[ep]
        et = lo[ep] + (rng.integers(0, 1 << 62, extra) % espan)
        tails = np.concatenate([tails, et])
        heads = np.concatenate([heads, eh])
    colors = rng.integers(1, q + 1, len(tails)).astype(np.int64)
    weights = np.ones(len(tails), dtype=np.int64)
    return ColoredDigraph.from_columns(n, q, tails.astype(np.int64),
                                       heads.astype(np.int64), colors,
                                       weights)


def _sub_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def random_alpha(rng: Random, q: int, total_lo: int, total_hi: int
                 ) -> ColorConstraint:
    """Budgets with a random total in [total_lo, total_hi], spread
    uniformly over the colors."""
    total = rng.randint(max(0, total_lo), max(0, total_hi))
    counts = [0] * q
    for _ in range(total):
        counts[rng.randrange(q)] += 1
    return ColorConstraint(tuple(counts))


@dataclass(frozen=True)
class CorpusInstance:
    graph: ColoredDigraph
    source: int
    alpha: ColorConstraint
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Corpus:
    kind: str
    seed: int
    instances: tuple[CorpusInstance, ...]

    def __len__(self) -> int:
        return len(self.instances)

    def __iter__(self):
        return iter(self.instances)

    def save(self, directory) -> list[str]:
        """Write one instance file per member; returns the paths written.

        Files use the same text format the command line reads, named
        <kind>-<seed>-<index>.ccg, with source and budgets in a comment.
        """
        from pathlib import Path

        from .instance_io import format_instance

        base = Path(directory)
        base.mkdir(parents=True, exist_ok=True)
        paths = []
        for i, inst in enumerate(self.instances):
            note = (f"source {inst.source} "
                    f"alpha {','.join(str(a) for a in inst.alpha)}")
            text = format_instance(inst.graph, comments=(note,))
            path = base / f"{self.kind}-{self.seed}-{i:04d}.ccg"
            path.write_text(text)
            paths.append(str(path))
        return paths


def dag_corpus(count: int, seed: int, *,
               n_range: tuple[int, int] = (2, 8),
               q_range: tuple[int, int] = (1, 4),
               density_range: tuple[float, float] = (0.2, 0.8),
               weight_range: tuple[int, int] = (1, 10)) -> Corpus:
    """Random rooted DAGs with budgets that straddle the feasibility line."""
    out = []
    for i in range(count):
        rng = Random(_sub_seed(seed, i))
        n = rng.randint(*n_range)
        q = rng.randint(*q_range)
        density = rng.uniform(*density_range)
        g = gen_random_dag(n, q, density, _sub_seed(seed, i) ^ 0x5bd1,
                           weight_range)
        alpha = random_alpha(rng, q, n - 2, 2 * n)
        out.append(CorpusInstance(g, 0, alpha,
                                  {"n": n, "q": q, "density": density}))
    return Corpus("dag", seed, tuple(out))


def positive_cycle_corpus(count: int, seed: int, *,
                          n_range: tuple[int, int] = (2, 8),
                          q_range: tuple[int, int] = (1, 4),
                          density_range: tuple[float, float] = (0.1, 0.5),
                          weight_range: tuple[int, int] = (1, 6)) -> Corpus:
    """Random cyclic graphs with positive weights, rooted at 0."""
    out = []
    for i in range(count):
        rng = Random(_sub_seed(seed, i))
        n = rng.randint(*n_range)
        q = rng.randint(*q_range)
        density = rng.uniform(*density_range)
        g = gen_random_positive_cycle_digraph(
            n, q, density, _sub_seed(seed, i) ^ 0x2c9b, weight_range)
        alpha = random_alpha(rng, q, n - 2, 2 * n)
        out.append(CorpusInstance(g, 0, alpha,
                                  {"n": n, "q": q, "density": density}))
    return Corpus("positive_cycle", seed, tuple(out))


def cc_sp_corpus(count: int, seed: int, *,
                 n_range: tuple[int, int] = (2, 8),
                 q_range: tuple[int, int] = (1, 3),
                 alpha_max: int = 3,
                 distinct_endpoints: bool = False) -> list[CcSpInstance]:
    """Random budgeted shortest-path instances with no negative cycles.

    Alternates acyclic graphs with some negative weights and cyclic
    graphs with positive weights; endpoints are random, and budgets are
    small so both answers occur often.
    """
    out = []
    for i in range(count):
        rng = Random(_sub_seed(seed, i))
        n = rng.randint(*n_range)
        q = rng.randint(*q_range)
        density = rng.uniform(0.2, 0.6)
        if i % 2 == 0:
            g = gen_random_dag(n, q, density, _sub_seed(seed, i) ^ 0x71f3,
                               weight_range=(-3, 8))
        else:
            g = gen_random_positive_cycle_digraph(
                n, q, density, _sub_seed(seed, i) ^ 0x71f3,
                weight_range=(1, 8))
        s = rng.randrange(n)
        t = rng.randrange(n)
        if distinct_endpoints:
            if n == 1:
                continue
            while t == s:
                t = (t + 1) % n
        alpha = ColorConstraint(tuple(rng.randint(0, alpha_max)
                                      for _ in range(q)))
        out.append(CcSpInstance(graph=g, source=s, target=t, alpha=alpha))
    return out


def vcc_corpus(count: int, seed: int, *,
               n_range: tuple[int, int] = (2, 8),
               q_range: tuple[int, int] = (1, 3),
               alpha_max: int = 4) -> list[VccSpInstance]:
    """Random vertex-colored shortest-path instances."""
    out = []
    for i in range(count):
        rng = Random(_sub_seed(seed, i))
        n = rng.randint(*n_range)
        q = rng.randint(*q_range)
        density = rng.uniform(0.2, 0.6)
        base = gen_random_digraph(n, density, _sub_seed(seed, i) ^ 0x3ad7)
        edges = tuple((u, v, rng.randint(0, 8)) for u, v in base.edges)
        colors = tuple(rng.randint(1, q) for _ in range(n))
        graph = VertexColoredDigraph(n=n, q=q, vertex_colors=colors,
                                     edges=edges)
        s = rng.randrange(n)
        t = rng.randrange(n)
        alpha = ColorConstraint(tuple(rng.randint(0, alpha_max)
                                      for _ in range(q)))
        out.append(VccSpInstance(graph=graph, source=s, target=t,
                                 alpha=alpha))
    return out
