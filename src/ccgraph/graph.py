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

    The columns `tails`, `heads`, `colors` and `weights` are stored once,
    as exact integer arrays: int64 when every value of the column fits,
    else an object array of Python ints (see `_int_array`); a value other
    than an integer, such as a bool, a float or a string, raises
    ValueError naming its column. So a per-element read such as
    `g.weights[e]` gives a numpy integer, or a Python int in an object
    column; a Python loop over edges should read `.tolist()` once.
    Adjacency indexes are built lazily and cached, which is safe because
    instances never change after construction.
    """

    __slots__ = ("n", "q", "tails", "heads", "colors", "weights",
                 "_in_ids", "_out_ids")

    def __init__(self, n: int, q: int,
                 edges: Iterable[tuple[int, int, int, int] | EdgeRecord] = ()):
        if n < 0 or q < 0:
            raise ValueError("n and q must be non-negative")
        self.n = n
        self.q = q
        rows = []
        for e in edges:
            if isinstance(e, EdgeRecord):
                e = (e.tail, e.head, e.color, e.weight)
            t, h, c, w = e
            rows.append((t, h, c, w))
        self.tails, self.heads, self.colors, self.weights = _edge_columns(
            zip(*rows) if rows else ((),) * 4)
        self._in_ids = None
        self._out_ids = None

    @classmethod
    def from_columns(cls, n: int, q: int, tails, heads, colors, weights
                     ) -> "ColoredDigraph":
        """Build a graph from edge columns (lists or arrays), converting
        each once to its exact array form; int64 arrays are not copied.
        A column with a value other than an integer raises ValueError."""
        g = cls(n, q)
        if not (len(tails) == len(heads) == len(colors) == len(weights)):
            raise ValueError("edge columns must have equal length")
        g.tails, g.heads, g.colors, g.weights = _edge_columns(
            (tails, heads, colors, weights))
        return g

    @property
    def m(self) -> int:
        return len(self.tails)

    def edge(self, j: int) -> EdgeRecord:
        j = _vertex("edge", j, self.m, kind="edge id")
        return EdgeRecord(int(self.tails[j]), int(self.heads[j]),
                          int(self.colors[j]), int(self.weights[j]), j)

    def edges(self) -> Iterator[EdgeRecord]:
        return (EdgeRecord(*e, j) for j, e in enumerate(self.edge_tuples()))

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The stored edge columns (tails, heads, colors, weights)."""
        return self.tails, self.heads, self.colors, self.weights

    def in_edge_ids(self) -> list[list[int]]:
        """Per-vertex lists of incoming edge ordinals, ascending."""
        if self._in_ids is None:
            self._in_ids = _ids_by_vertex(self.n, self.columns()[1],
                                          np.arange(self.m))
        return self._in_ids

    def out_edge_ids(self) -> list[list[int]]:
        """Per-vertex lists of outgoing edge ordinals, ascending."""
        if self._out_ids is None:
            self._out_ids = _ids_by_vertex(self.n, self.columns()[0],
                                           np.arange(self.m))
        return self._out_ids

    def edge_tuples(self) -> list[tuple[int, int, int, int]]:
        return list(zip(*(col.tolist() for col in self.columns())))

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
    when some value does not fit int64, as in a uint64 array past it.

    An int64 array is returned without a copy. Comparisons and arithmetic
    on the object form are exact, so code that works on the result needs
    no second path for out-of-range values. Values from outside the
    program go through `_integers` first.
    """
    if (isinstance(values, np.ndarray) and values.dtype.kind == "u"
            and len(values) and values.max() > INT64_MAX):
        return values.astype(object)
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.array([int(v) for v in values], dtype=object)


def _integers(values) -> np.ndarray:
    """`_int_array` of a numpy integer array, or of a sequence or object
    array of Python ints and numpy integers. Anything else, a bool, a
    float or a string included, raises TypeError instead of being cast."""
    if isinstance(values, np.ndarray) and values.dtype != object:
        if values.dtype.kind not in "iu":
            raise TypeError(f"{values.dtype} values are not integers")
    elif not set(map(type, values)) <= {int}:
        for v in values:
            if type(v) is not int and not isinstance(v, np.integer):
                raise TypeError(f"{v!r} is not an integer")
    return _int_array(values)


def _vertex(what: str, v, n: int | None = None, kind: str = "vertex id"
            ) -> int:
    """A vertex id `v`, a Python int or a numpy integer, as a Python int.

    Anything else, a bool or numpy bool included (numpy would index with
    it as a mask), raises ValueError naming `what`; so does an id outside
    0..n-1, unless n is None, for callers that report that case
    themselves; `kind` names the sort of id, such as an edge id.
    """
    if type(v) is not int and not isinstance(v, np.integer):
        raise ValueError(f"{what} {v!r} is not an integer {kind}")
    if n is not None and not 0 <= v < n:
        raise ValueError(f"{what} {v} out of range")
    return int(v)


def _edge_columns(columns) -> list[np.ndarray]:
    """(tails, heads, colors, weights) through `_integers`; a value other
    than an integer raises ValueError naming its column."""
    out = []
    for name, values in zip(("tails", "heads", "colors", "weights"),
                            columns):
        try:
            out.append(_integers(values))
        except TypeError as exc:
            raise ValueError(f"{name} column: {exc}") from None
    return out


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """`np.argsort(keys, kind="stable")` of non-negative int64 keys.

    A least-significant-digit sort in 16-bit digits: numpy sorts a uint16
    array stably by radix, in linear time, while its stable sort of int64
    is a merge sort, three to seven times slower on 60k to 200k keys in
    random order. Keys below 2^16 take one pass, keys below 2^32 two.
    """
    # the cast keeps the low 16 bits
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    for shift in range(16, int(keys.max(initial=0)).bit_length(), 16):
        digit = (keys[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
    return order


def _ids_by_vertex(n: int, keys: np.ndarray, ids: np.ndarray
                   ) -> list[list[int]]:
    """`ids` grouped into one list per vertex by `keys` (a vertex id in
    0..n-1 for each id), in their given order within a vertex."""
    flat = ids[_stable_order(keys)].tolist()
    ends = np.cumsum(np.bincount(keys, minlength=n)).tolist()
    return [flat[a:b] for a, b in zip([0] + ends, ends)]


def _magnitude(a: np.ndarray) -> int:
    """Largest absolute value in an integer array, as a Python int."""
    return max(-int(a.min()), int(a.max()), 0) if len(a) else 0


def _exact_sum(a: np.ndarray) -> int:
    """The sum of an integer array, exactly, as a Python int: in int64
    when len(a) * max|a| fits, which bounds every partial sum, and over
    Python ints otherwise and for object arrays."""
    if a.dtype != object and len(a) * _magnitude(a) <= INT64_MAX:
        return int(a.sum())
    return sum(a.tolist())


def validate(g: ColoredDigraph) -> ValidationError | None:
    """Check structural invariants; return the first violation or None.

    Per-edge check order is fixed: endpoint range, self-loop, color range.
    """
    n, q = g.n, g.q
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
    `clamped` where that matters. Budgets are Python ints or numpy
    integers, as for `_integers`; a bool, float or string raises
    ValueError.
    """

    __slots__ = ("alpha",)

    def __init__(self, alpha: Sequence[int]):
        try:
            alpha = tuple(_integers(tuple(alpha)).tolist())
        except TypeError as exc:
            raise ValueError(f"color budgets: {exc}") from None
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


def restrict_to(g: ColoredDigraph, vertices: Iterable[int]
                ) -> tuple[ColoredDigraph, list[int]]:
    """Induced subgraph on `vertices`, densely renumbered.

    Returns the subgraph and a list mapping new vertex ids to old ones
    (ascending in old id, so the renumbering is deterministic).
    """
    keep = sorted({_vertex("vertex", v, g.n) for v in vertices})
    ids = np.array(keep, dtype=np.int64)
    t, h, c, w = g.columns()
    inside = np.isin(t, ids) & np.isin(h, ids)
    return ColoredDigraph.from_columns(
        len(keep), g.q, np.searchsorted(ids, t[inside]),
        np.searchsorted(ids, h[inside]), c[inside], w[inside]), keep
