"""Plain-text instance files.

The format is line-oriented: `#` starts a comment, `p ccg <n> <m> <q>`
declares sizes and must precede everything else, `c scale <k>` and
`c undirected` adjust how later edge lines are read (any other `c` line
is ignored), `n <id> <name>` names a vertex, `a <tail> <head> <color>
<weight>` adds an edge, and `v <id> <color>` colors a vertex in the
vertex-colored variant. Weights may be decimal; after multiplying by the
scale they must land on integers. Endpoints may be written by name.

A plain file, which is what `format_instance` writes without names, is
read in columns: a leading block of `#` lines, none of them holding a
line separator other than its closing newline (`str.splitlines` splits
at more characters than newline), then one `p ccg <n> <m> <q>` line with
n >= 1 and m >= 1, then exactly m lines `a <int> <int> <int> <int>`,
single-spaced, each integer at most 18 ASCII digits with an optional
`-`, and nothing else; the body is checked in whole-body byte passes
(`_plain_edges`), not line by line. Every other text, and a plain file
whose graph fails `validate`, goes through the line reader, so every
error message and line number comes from it.
"""

from __future__ import annotations

import re
from fractions import Fraction

import numpy as np

from .constrained_path import VertexColoredDigraph
from .errors import ParseError, PrecisionError
from .graph import ColoredDigraph, validate

_WEIGHT_LIMIT = 1 << 63

# A plain file's header. At most 18 digits fit int64 with room to spare,
# so numpy's conversion cannot saturate; the body's integers keep to the
# same limit (see `_plain_edges`).
_COUNT = r"([0-9]{1,18})"
_PLAIN_HEADER = re.compile(rf"p ccg {_COUNT} {_COUNT} {_COUNT}\n")
# Leading comment lines free of every other `str.splitlines` separator, so
# that the line reader sees the same lines and numbers them the same way.
_PLAIN_COMMENTS = re.compile(
    r"(?:#[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]*\n)*")
# The bytes of a plain body, and two byte classings of them for the test
# of neighbours in `_plain_edges`: _IS gives a byte's classes (1: a digit
# or `-`, 2: a space or a newline, 4: `-`), _BARS the classes that may not
# come right after it.
_FIELD_BYTES = b"0123456789-"
_PLAIN_BYTES = _FIELD_BYTES + b" \na"
_IS = bytes.maketrans(_PLAIN_BYTES, b"\1" * 10 + b"\5\2\2\0")
_BARS = bytes.maketrans(_PLAIN_BYTES, b"\4" * 10 + b"\6\2\1\1")


class _Reader:
    """Shared line-by-line state for both instance kinds."""

    def __init__(self, text: str, allow_vertex_colors: bool):
        self.allow_vertex_colors = allow_vertex_colors
        self.n = self.m = self.q = None
        self.scale = 1
        self.undirected = False
        self.names: dict[str, int] = {}
        self.named_ids: set[int] = set()
        self.tails: list[int] = []
        self.heads: list[int] = []
        self.colors: list[int] = []
        self.weights: list[int] = []
        self.edge_lines: list[int] = []
        self.declared_edges = 0
        self.vertex_colors: dict[int, int] = {}
        self.vertex_color_lines: dict[int, int] = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            self._directive(lineno, line.split())
        if self.n is None:
            raise ParseError("no 'p ccg' header", 0)
        if self.declared_edges != self.m:
            raise ParseError(
                f"header declares {self.m} edges but "
                f"{self.declared_edges} edge lines follow", 0)

    def _int(self, lineno: int, token: str, what: str) -> int:
        try:
            return int(token)
        except ValueError:
            raise ParseError(f"bad {what} {token!r}", lineno) from None

    def _directive(self, lineno: int, parts: list[str]):
        kind = parts[0]
        if kind == "p":
            if self.n is not None:
                raise ParseError("duplicate 'p' header", lineno)
            if len(parts) != 5 or parts[1] != "ccg":
                raise ParseError("header must be 'p ccg <n> <m> <q>'",
                                 lineno)
            self.n = self._int(lineno, parts[2], "vertex count")
            self.m = self._int(lineno, parts[3], "edge count")
            self.q = self._int(lineno, parts[4], "color count")
            if self.n < 1 or self.m < 0 or self.q < 0:
                raise ParseError("need n >= 1, m >= 0, q >= 0", lineno)
            return
        if self.n is None:
            raise ParseError("'p ccg' header must come first", lineno)
        if kind == "c":
            if len(parts) >= 2 and parts[1] == "scale":
                if self.tails:
                    raise ParseError("'c scale' must precede edge lines",
                                     lineno)
                if len(parts) != 3:
                    raise ParseError("'c scale' takes one integer", lineno)
                k = self._int(lineno, parts[2], "scale")
                if k < 1:
                    raise ParseError("scale must be positive", lineno)
                self.scale = k
            elif len(parts) >= 2 and parts[1] == "undirected":
                if self.tails:
                    raise ParseError(
                        "'c undirected' must precede edge lines", lineno)
                self.undirected = True
            # other 'c' lines are commentary
            return
        if kind == "n":
            if len(parts) != 3:
                raise ParseError("name line must be 'n <id> <name>'",
                                 lineno)
            vid = self._int(lineno, parts[1], "vertex id")
            name = parts[2]
            if not (0 <= vid < self.n):
                raise ParseError(f"vertex id {vid} out of range", lineno)
            try:
                int(name)
            except ValueError:
                pass
            else:
                raise ParseError("vertex names must not be integers",
                                 lineno)
            if name in self.names:
                raise ParseError(f"duplicate name {name!r}", lineno)
            if vid in self.named_ids:
                raise ParseError(f"vertex {vid} already named", lineno)
            self.names[name] = vid
            self.named_ids.add(vid)
            return
        if kind == "v":
            if not self.allow_vertex_colors:
                raise ParseError(
                    "vertex color lines belong to vertex-colored "
                    "instances", lineno)
            if len(parts) != 3:
                raise ParseError("vertex color line must be "
                                 "'v <id> <color>'", lineno)
            vid = self._vertex(lineno, parts[1])
            color = self._int(lineno, parts[2], "color")
            if vid in self.vertex_colors:
                raise ParseError(f"vertex {vid} colored twice", lineno)
            self.vertex_colors[vid] = color
            self.vertex_color_lines[vid] = lineno
            return
        if kind == "a":
            if len(parts) != 5:
                raise ParseError(
                    "edge line must be 'a <tail> <head> <color> <weight>'",
                    lineno)
            tail = self._vertex(lineno, parts[1])
            head = self._vertex(lineno, parts[2])
            color = self._int(lineno, parts[3], "color")
            weight = self._weight(lineno, parts[4])
            self.declared_edges += 1
            self._add_edge(tail, head, color, weight, lineno)
            if self.undirected:
                self._add_edge(head, tail, color, weight, lineno)
            return
        raise ParseError(f"unknown line kind {kind!r}", lineno)

    def _vertex(self, lineno: int, token: str) -> int:
        if token in self.names:
            return self.names[token]
        try:
            return int(token)
        except ValueError:
            raise ParseError(f"unknown vertex {token!r}", lineno) from None

    def _weight(self, lineno: int, token: str) -> int:
        try:
            w = int(token) * self.scale
        except ValueError:
            w = self._decimal_weight(lineno, token)
        if not (-_WEIGHT_LIMIT <= w < _WEIGHT_LIMIT):
            raise ParseError(f"weight {token} out of range after scaling",
                             lineno)
        if self.undirected and w < 0:
            raise ParseError(
                "undirected instances cannot carry negative weights",
                lineno)
        return w

    def _decimal_weight(self, lineno: int, token: str) -> int:
        """A weight that is not an integer literal, read exactly and scaled."""
        if "/" in token:
            raise ParseError("weights must be decimal, not fractions",
                             lineno)
        try:
            frac = Fraction(token)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad weight {token!r}", lineno) from None
        scaled = frac * self.scale
        if scaled.denominator != 1:
            raise PrecisionError(
                f"weight {token} does not scale to an integer "
                f"(scale {self.scale})", lineno)
        return int(scaled)

    def _add_edge(self, tail, head, color, weight, lineno):
        self.tails.append(tail)
        self.heads.append(head)
        self.colors.append(color)
        self.weights.append(weight)
        self.edge_lines.append(lineno)


def _plain_edges(body: str, m: int) -> bool:
    """Whether `body` is exactly m lines `a( -?[0-9]{1,18}){4}` joined by
    newlines, checked in a few passes over its bytes.

    Deleting the digits and `-` must leave m skeletons `a    `, one space
    before each field. The length comes first, so that nothing sized by a
    declared m is built before the body shows it. The rest is a test of
    neighbours: each line and its first field open right at the `a` and
    its space, no field is empty or a bare `-`, and a `-` comes only after
    a space. Then each field is `-?[0-9]+`, and no run of digits may pass
    18.
    """
    try:
        raw = body.encode("ascii")
    except UnicodeEncodeError:
        return False
    skeleton = raw.translate(None, _FIELD_BYTES)
    if (len(skeleton) != 6 * m - 1
            or skeleton != b"a    \n" * (m - 1) + b"a    "
            or raw[:1] != b"a" or not raw[-1:].isdigit()):
        return False
    classes = raw.translate(_IS)
    barred = (np.frombuffer(raw.translate(_BARS), np.uint8)[:-1]
              & np.frombuffer(classes, np.uint8)[1:])
    return not barred.any() and b"\1" * 19 not in classes


def _plain_graph(text: str) -> ColoredDigraph | None:
    """The valid graph of a plain file, read in columns, or None."""
    header = _PLAIN_HEADER.match(text, _PLAIN_COMMENTS.match(text).end())
    if header is None:
        return None
    n, m, q = map(int, header.groups())
    body = text[header.end():]
    if body.endswith("\n"):
        body = body[:-1]
    # m lines, each an edge line, so m >= 1; validate rejects n = 0
    if not _plain_edges(body, m):
        return None
    values = np.fromstring(body.replace("a", " "), dtype=np.int64, sep=" ")
    if len(values) != 4 * m:
        return None
    tails, heads, colors, weights = values.reshape(m, 4).T.copy()
    g = ColoredDigraph.from_columns(n, q, tails, heads, colors, weights)
    return g if validate(g) is None else None


def parse_instance(text: str) -> tuple[ColoredDigraph, dict[str, int]]:
    """Parse an edge-colored instance; returns the graph and the name map.

    A plain file (see the module docstring) is read in columns; any other
    text, or a plain file whose graph fails `validate`, is read line by
    line, which raises every ParseError with its line number.
    """
    g = _plain_graph(text)
    if g is not None:
        return g, {}
    r = _Reader(text, allow_vertex_colors=False)
    g = ColoredDigraph.from_columns(r.n, r.q, r.tails, r.heads, r.colors,
                                    r.weights)
    bad = validate(g)
    if bad is not None:
        raise ParseError(bad.message, r.edge_lines[bad.edge_index])
    return g, dict(r.names)


def parse_vcc_instance(text: str
                       ) -> tuple[VertexColoredDigraph, dict[str, int]]:
    """Parse a vertex-colored instance; edge color fields are ignored."""
    r = _Reader(text, allow_vertex_colors=True)
    for v in range(r.n):
        if v not in r.vertex_colors:
            raise ParseError(f"vertex {v} has no color line", 0)
    for v, c in r.vertex_colors.items():
        if not (1 <= c <= r.q):
            raise ParseError(f"vertex color {c} out of range",
                             r.vertex_color_lines[v])
    for j, (t, h) in enumerate(zip(r.tails, r.heads)):
        if not (0 <= t < r.n and 0 <= h < r.n):
            raise ParseError("edge endpoint out of range", r.edge_lines[j])
        if t == h:
            raise ParseError("self-loops are not allowed", r.edge_lines[j])
    colors = tuple(r.vertex_colors[v] for v in range(r.n))
    edges = tuple(zip(r.tails, r.heads, r.weights))
    graph = VertexColoredDigraph(n=r.n, q=r.q, vertex_colors=colors,
                                 edges=edges)
    return graph, dict(r.names)


def format_instance(g: ColoredDigraph, *, names: dict[str, int] | None = None,
                    comments: tuple[str, ...] = ()) -> str:
    """Serialize a graph so that parse_instance reproduces it exactly."""
    lines = [f"# {c}" for c in comments]
    lines.append(f"p ccg {g.n} {g.m} {g.q}")
    if names:
        for name, vid in sorted(names.items(), key=lambda kv: kv[1]):
            lines.append(f"n {vid} {name}")
    edges = zip(*(col.tolist() for col in g.columns()))
    return "\n".join(lines) + "\n" + "".join(
        [f"a {t} {h} {c} {w}\n" for t, h, c, w in edges])


def format_vcc_instance(v: VertexColoredDigraph,
                        comments: tuple[str, ...] = ()) -> str:
    """Serialize a vertex-colored graph for parse_vcc_instance."""
    lines = [f"# {c}" for c in comments]
    lines.append(f"p ccg {v.n} {v.m} {v.q}")
    for vid, color in enumerate(v.vertex_colors):
        lines.append(f"v {vid} {color}")
    for tail, head, weight in v.edges:
        lines.append(f"a {tail} {head} 1 {weight}")
    return "\n".join(lines) + "\n"
