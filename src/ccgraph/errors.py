"""Exception types and structured check results shared across the package."""

from __future__ import annotations

from dataclasses import dataclass


class CCGraphError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(CCGraphError):
    """Instance text is malformed. Carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class PrecisionError(ParseError):
    """A decimal weight does not scale to an integer under the declared scale."""


class ConstraintLengthMismatch(CCGraphError):
    """A color budget vector has a different length than the graph's color count."""


class WrongColorCount(CCGraphError):
    """A two-color rule was invoked on a graph whose q is not 2.

    Only the two-color oracles of `testkit` raise it; the solvers answer
    at every number of colors.
    """


class LowerBoundTooLarge(CCGraphError):
    """Lower bounds sum to more than n-1; no spanning arborescence can satisfy them."""


class _CycleError(CCGraphError):
    """A cycle with its witness: `vertices` lists it as v1, ..., vk with
    edges v1->v2->...->vk->v1, and `edge_ids` the corresponding edge
    ordinals. Each subclass names its kind of cycle in `_what`."""

    _what = "cycle"

    def __init__(self, vertices: list[int], edge_ids: list[int]):
        self.vertices = vertices
        self.edge_ids = edge_ids
        super().__init__(f"{self._what}: {vertices}")


class NegativeCycleReachable(_CycleError):
    """A negative-weight cycle is reachable from the source."""

    _what = "negative-weight cycle reachable from source"


class NonPositiveCycle(_CycleError):
    """A zero-weight cycle lies on shortest paths (the tight subgraph is cyclic)."""

    _what = "zero-weight cycle on shortest paths"


class NotAcyclic(_CycleError):
    """An operation requiring a DAG was given a cyclic graph."""

    _what = "graph contains a directed cycle"


class UnreachableVertex(CCGraphError):
    """Some vertex is not reachable from the source."""

    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(f"vertex {vertex} is unreachable from the source")


class TooManyArborescences(CCGraphError):
    """Brute-force enumeration would exceed its candidate cap."""


class InstanceTooLarge(CCGraphError):
    """A brute-force oracle was handed an instance beyond its size guard."""


class BudgetStateOverflow(CCGraphError):
    """The budget DP state space per vertex exceeds the configured cap."""


# validate() result kinds
BAD_VERTEX_ID = "bad_vertex_id"
BAD_COLOR_ID = "bad_color_id"
SELF_LOOP = "self_loop"


@dataclass(frozen=True)
class ValidationError:
    """First structural violation found in a graph, by edge ordinal."""

    kind: str
    edge_index: int
    message: str


@dataclass(frozen=True)
class Violation:
    """One verifier finding. Verifiers collect these instead of raising."""

    kind: str
    message: str
    vertex: int | None = None
    edge: int | None = None
