"""Edge-colored weighted digraph model.

Vertices are 0..n-1, colors are 1..q, parallel edges are allowed, self-loops
are not. Weights are exact signed integers; callers that start from decimal
input scale it at parse time. Edge ordinals (positions in the edge sequence)
are the canonical tie-breaker everywhere a solver has a free choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    BAD_COLOR_ID,
    BAD_VERTEX_ID,
    SELF_LOOP,
    ConstraintLengthMismatch,
    ValidationError,
)


@dataclass(frozen=True)
class EdgeRecord:
    """One edge, with its ordinal in the owning graph's edge sequence."""

    tail: int
    head: int
    color: int
    weight: int
    index: int


class ColoredDigraph:
    """Immutable edge-colored digraph backed by parallel edge columns.

    The columns are plain lists for ordinary use; bulk generators may supply
    numpy int64 arrays instead. Either way the code reads them through
    `columns()`, so there is one code path whatever the storage. Adjacency
    indexes are built lazily and cached, which is safe because instances
    never change after construction.
    """

    __slots__ = ("n", "q", "tails", "heads", "colors", "weights",
                 "_in_ids", "_out_ids", "_cols")

    def __init__(self, n: int, q: int,
                 edges: Iterable[tuple[int, int, int, int] | EdgeRecord] = ()):
        if n < 0 or q < 0:
            raise ValueError("n and q must be non-negative")
        self.n = n
        self.q = q
        tails: list[int] = []
        heads: list[int] = []
        colors: list[int] = []
        weights: list[int] = []
        for e in edges:
            if isinstance(e, EdgeRecord):
                t, h, c, w = e.tail, e.head, e.color, e.weight
            else:
                t, h, c, w = e
            tails.append(t)
            heads.append(h)
            colors.append(c)
            weights.append(w)
        self.tails = tails
        self.heads = heads
        self.colors = colors
        self.weights = weights
        self._in_ids = None
        self._out_ids = None
        self._cols = None

    @classmethod
    def from_columns(cls, n: int, q: int, tails, heads, colors, weights
                     ) -> "ColoredDigraph":
        """Adopt prebuilt edge columns (lists or numpy int64 arrays) as is."""
        g = cls(n, q)
        if not (len(tails) == len(heads) == len(colors) == len(weights)):
            raise ValueError("edge columns must have equal length")
        g.tails, g.heads, g.colors, g.weights = tails, heads, colors, weights
        return g

    @property
    def m(self) -> int:
        return len(self.tails)

    def edge(self, j: int) -> EdgeRecord:
        return EdgeRecord(int(self.tails[j]), int(self.heads[j]),
                          int(self.colors[j]), int(self.weights[j]), j)

    def edges(self) -> Iterator[EdgeRecord]:
        for j in range(self.m):
            yield self.edge(j)

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Edge columns as arrays (cached; no copy if already int64 arrays).

        Each column is int64 when its values fit, else an object array of
        Python ints (see `_int_array`).
        """
        if self._cols is None:
            self._cols = (_int_array(self.tails), _int_array(self.heads),
                          _int_array(self.colors), _int_array(self.weights))
        return self._cols

    def in_edge_ids(self) -> list[list[int]]:
        """Per-vertex lists of incoming edge ordinals, ascending."""
        if self._in_ids is None:
            ids: list[list[int]] = [[] for _ in range(self.n)]
            for j in range(self.m):
                ids[int(self.heads[j])].append(j)
            self._in_ids = ids
        return self._in_ids

    def out_edge_ids(self) -> list[list[int]]:
        """Per-vertex lists of outgoing edge ordinals, ascending."""
        if self._out_ids is None:
            ids: list[list[int]] = [[] for _ in range(self.n)]
            for j in range(self.m):
                ids[int(self.tails[j])].append(j)
            self._out_ids = ids
        return self._out_ids

    def edge_tuples(self) -> list[tuple[int, int, int, int]]:
        return [(int(self.tails[j]), int(self.heads[j]),
                 int(self.colors[j]), int(self.weights[j]))
                for j in range(self.m)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ColoredDigraph):
            return NotImplemented
        return (self.n == other.n and self.q == other.q
                and self.edge_tuples() == other.edge_tuples())

    __hash__ = None  # mutable-ish container semantics

    def __repr__(self) -> str:
        return f"ColoredDigraph(n={self.n}, q={self.q}, m={self.m})"


INT64_MAX = int(np.iinfo(np.int64).max)


def _int_array(values) -> np.ndarray:
    """Integers as an int64 array, or as an object array of Python ints
    when some value does not fit int64.

    Comparisons and arithmetic on the object form are exact, so code that
    works on the result needs no second path for out-of-range values.
    """
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.array([int(v) for v in values], dtype=object)


def _magnitude(a: np.ndarray) -> int:
    """Largest absolute value in an integer array, as a Python int."""
    return max(-int(a.min()), int(a.max()), 0) if len(a) else 0


def validate(g: ColoredDigraph) -> ValidationError | None:
    """Check structural invariants; return the first violation or None.

    Per-edge check order is fixed: endpoint range, self-loop, color range.
    """
    n, q = g.n, g.q
    if g.m == 0:
        return None
    t, h, c, _ = g.columns()
    bad_v = (t < 0) | (t >= n) | (h < 0) | (h >= n)
    loops = (t == h) & ~bad_v
    bad_c = ((c < 1) | (c > q)) & ~bad_v & ~loops
    any_bad = bad_v | loops | bad_c
    if not any_bad.any():
        return None
    j = int(np.argmax(any_bad))
    if bad_v[j]:
        return ValidationError(BAD_VERTEX_ID, j,
                               f"edge {j} endpoint out of range")
    if loops[j]:
        return ValidationError(SELF_LOOP, j, f"edge {j} is a self-loop")
    return ValidationError(BAD_COLOR_ID, j,
                           f"edge {j} color out of range 1..{q}")


class ColorConstraint:
    """Per-color edge budgets alpha_1..alpha_q, stored positionally.

    Entry j bounds color j+1. Budgets above n-1 are effectively n-1; use
    `clamped` where that matters.
    """

    __slots__ = ("alpha",)

    def __init__(self, alpha: Sequence[int]):
        alpha = tuple(int(a) for a in alpha)
        if any(a < 0 for a in alpha):
            raise ValueError("color budgets must be non-negative")
        self.alpha = alpha

    @classmethod
    def of(cls, alpha: "ColorConstraint | Sequence[int]") -> "ColorConstraint":
        return alpha if isinstance(alpha, ColorConstraint) else cls(alpha)

    def require_length(self, q: int) -> None:
        if len(self.alpha) != q:
            raise ConstraintLengthMismatch(
                f"budget vector has {len(self.alpha)} entries, graph has q={q}")

    def bound(self, color: int) -> int:
        return self.alpha[color - 1]

    def clamped(self, limit: int) -> tuple[int, ...]:
        return tuple(min(a, limit) for a in self.alpha)

    def total(self) -> int:
        return sum(self.alpha)

    def __len__(self) -> int:
        return len(self.alpha)

    def __getitem__(self, i: int) -> int:
        return self.alpha[i]

    def __iter__(self):
        return iter(self.alpha)

    def __eq__(self, other) -> bool:
        if isinstance(other, ColorConstraint):
            return self.alpha == other.alpha
        if isinstance(other, tuple):
            return self.alpha == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.alpha)

    def __repr__(self) -> str:
        return f"ColorConstraint{self.alpha}"


class InDegreeByColor:
    """Counts of incoming edges per (vertex, color), as a dense matrix.

    Column 0 is unused so that `matrix[v, c]` reads directly with 1-based
    color ids.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix

    def count(self, vertex: int, color: int) -> int:
        return int(self.matrix[vertex, color])

    def total(self) -> int:
        return int(self.matrix.sum())

    def colors_present(self, vertex: int) -> list[int]:
        return [int(c) for c in np.nonzero(self.matrix[vertex])[0]]


def _in_degree_matrix(n: int, q: int, heads: np.ndarray, colors: np.ndarray
                      ) -> np.ndarray:
    keys = heads * (q + 1) + colors
    flat = np.bincount(keys, minlength=n * (q + 1))
    return flat.reshape(n, q + 1)


def in_degree_by_color(g: ColoredDigraph) -> InDegreeByColor:
    """Count incoming edges of each color at each vertex."""
    _, heads, colors, _ = g.columns()
    return InDegreeByColor(_in_degree_matrix(g.n, g.q, heads, colors))


def restrict_to(g: ColoredDigraph, vertices: Iterable[int]
                ) -> tuple[ColoredDigraph, list[int]]:
    """Induced subgraph on `vertices`, densely renumbered.

    Returns the subgraph and a list mapping new vertex ids to old ones
    (ascending in old id, so the renumbering is deterministic).
    """
    keep = sorted(set(int(v) for v in vertices))
    for v in keep:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")
    new_id = {old: new for new, old in enumerate(keep)}
    edges = []
    for j in range(g.m):
        t, h = int(g.tails[j]), int(g.heads[j])
        if t in new_id and h in new_id:
            edges.append((new_id[t], new_id[h],
                          int(g.colors[j]), int(g.weights[j])))
    return ColoredDigraph(len(keep), g.q, edges), keep
