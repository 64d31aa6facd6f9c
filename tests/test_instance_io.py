from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccgraph import (ColoredDigraph, ParseError, PrecisionError,
                     VertexColoredDigraph, format_instance,
                     format_vcc_instance, instance_io, parse_instance,
                     parse_vcc_instance)
from ccgraph.graph import validate
from ccgraph.testkit import gen_layered_dag, gen_random_dag

DIAMOND_TEXT = """\
# a four-vertex example
p ccg 4 4 2
a 0 1 1 1
a 0 2 2 1
a 1 3 1 1
a 2 3 2 1
"""


def test_parse_basic():
    g, names = parse_instance(DIAMOND_TEXT)
    assert (g.n, g.m, g.q) == (4, 4, 2)
    assert names == {}
    assert g.edge_tuples()[0] == (0, 1, 1, 1)


def test_round_trip_exact():
    g, _ = parse_instance(DIAMOND_TEXT)
    again, _ = parse_instance(format_instance(g))
    assert again == g


def test_round_trip_random_graphs():
    rng = Random(61)
    for i in range(25):
        g = gen_random_dag(rng.randint(2, 9), rng.randint(1, 4),
                           rng.random(), 91_000 + i, weight_range=(-40, 90))
        again, _ = parse_instance(format_instance(g))
        assert again == g


def test_scale_applies_to_decimal_weights():
    text = "p ccg 2 1 1\nc scale 10\na 0 1 1 1.5\n"
    g, _ = parse_instance(text)
    assert g.weights[0] == 15


def test_scale_must_land_on_integers():
    text = "p ccg 2 1 1\nc scale 10\na 0 1 1 1.25\n"
    with pytest.raises(PrecisionError):
        parse_instance(text)


def test_unscaled_decimals_rejected():
    with pytest.raises(PrecisionError):
        parse_instance("p ccg 2 1 1\na 0 1 1 0.5\n")


def test_fraction_weights_rejected():
    with pytest.raises(ParseError):
        parse_instance("p ccg 2 1 1\na 0 1 1 1/2\n")


def test_weight_magnitude_limit():
    big = 1 << 63
    with pytest.raises(ParseError):
        parse_instance(f"p ccg 2 1 1\na 0 1 1 {big}\n")
    ok, _ = parse_instance(f"p ccg 2 1 1\na 0 1 1 {-big}\n")
    assert ok.weights[0] == -big


def fraction_weight(token, scale, undirected):
    # reference: any weight token read as an exact decimal by Fraction,
    # giving the scaled weight or the type of the error it must raise
    if "/" in token:
        return ParseError
    try:
        scaled = Fraction(token) * scale
    except (ValueError, ZeroDivisionError):
        return ParseError
    if scaled.denominator != 1:
        return PrecisionError
    w = int(scaled)
    if not (-(1 << 63) <= w < 1 << 63) or (undirected and w < 0):
        return ParseError
    return w


@pytest.mark.parametrize("undirected", [False, True])
@pytest.mark.parametrize("scale", [1, 100])
@pytest.mark.parametrize("token", [
    "7", "-3", "+5", "1_0", "\u0663", "1.50", "1e3", "0x10", "1/2",
    "9223372036854775807", "9223372036854775808"])
def test_weight_tokens_read_as_exact_decimals(token, scale, undirected):
    text = (f"p ccg 2 1 1\nc scale {scale}\n"
            + ("c undirected\n" if undirected else "")
            + f"a 0 1 1 {token}\n")
    expected = fraction_weight(token, scale, undirected)
    if isinstance(expected, int):
        g, _ = parse_instance(text)
        assert g.weights[0] == expected
    else:
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert type(err.value) is expected


def test_scale_after_edges_rejected():
    text = "p ccg 2 2 1\na 0 1 1 1\nc scale 10\na 1 0 1 1\n"
    with pytest.raises(ParseError):
        parse_instance(text)


def test_edge_count_must_match_header():
    with pytest.raises(ParseError):
        parse_instance("p ccg 2 2 1\na 0 1 1 1\n")
    with pytest.raises(ParseError):
        parse_instance("p ccg 2 0 1\na 0 1 1 1\n")


def test_header_rules():
    with pytest.raises(ParseError):
        parse_instance("a 0 1 1 1\np ccg 2 1 1\n")
    with pytest.raises(ParseError):
        parse_instance("p ccg 2 0 1\np ccg 2 0 1\n")
    with pytest.raises(ParseError):
        parse_instance("")
    with pytest.raises(ParseError):
        parse_instance("p xxx 2 0 1\n")
    with pytest.raises(ParseError):
        parse_instance("p ccg 0 0 1\n")


def test_undirected_doubles_each_edge():
    text = "p ccg 3 2 1\nc undirected\na 0 1 1 4\na 1 2 1 5\n"
    g, _ = parse_instance(text)
    assert g.m == 4
    assert g.edge_tuples() == [(0, 1, 1, 4), (1, 0, 1, 4),
                               (1, 2, 1, 5), (2, 1, 1, 5)]


def test_undirected_rejects_negative_weights():
    text = "p ccg 2 1 1\nc undirected\na 0 1 1 -4\n"
    with pytest.raises(ParseError):
        parse_instance(text)


def test_names_resolve_in_edges():
    text = ("p ccg 3 2 1\nn 0 start\nn 2 goal\n"
            "a start 1 1 2\na 1 goal 1 3\n")
    g, names = parse_instance(text)
    assert names == {"start": 0, "goal": 2}
    assert g.edge_tuples() == [(0, 1, 1, 2), (1, 2, 1, 3)]


def test_name_rules():
    with pytest.raises(ParseError):
        parse_instance("p ccg 2 0 1\nn 0 7\n")
    with pytest.raises(ParseError):
        parse_instance("p ccg 2 0 1\nn 5 far\n")
    with pytest.raises(ParseError):
        parse_instance("p ccg 2 0 1\nn 0 a\nn 1 a\n")
    with pytest.raises(ParseError):
        parse_instance("p ccg 2 0 1\nn 0 a\nn 0 b\n")
    with pytest.raises(ParseError):
        parse_instance("p ccg 2 1 1\na nowhere 1 1 1\n")


def test_validation_failures_carry_edge_line():
    text = "p ccg 3 2 1\na 0 1 1 1\na 2 2 1 1\n"
    with pytest.raises(ParseError) as info:
        parse_instance(text)
    assert info.value.line == 3
    with pytest.raises(ParseError) as info:
        parse_instance("p ccg 2 1 1\na 0 1 9 1\n")
    assert info.value.line == 2


def test_vertex_color_lines_only_in_vcc_files():
    with pytest.raises(ParseError):
        parse_instance("p ccg 2 0 1\nv 0 1\nv 1 1\n")


def test_parse_vcc_instance():
    text = ("p ccg 3 2 2\nv 0 1\nv 1 2\nv 2 1\n"
            "a 0 1 1 3\na 1 2 1 4\n")
    v, names = parse_vcc_instance(text)
    assert isinstance(v, VertexColoredDigraph)
    assert v.vertex_colors == (1, 2, 1)
    assert v.edges == ((0, 1, 3), (1, 2, 4))


def test_vcc_requires_every_vertex_colored():
    with pytest.raises(ParseError):
        parse_vcc_instance("p ccg 2 0 1\nv 0 1\n")


def test_vcc_color_range_checked():
    with pytest.raises(ParseError) as info:
        parse_vcc_instance("p ccg 1 0 1\nv 0 5\n")
    assert info.value.line == 2
    with pytest.raises(ParseError):
        parse_vcc_instance("p ccg 1 0 1\nv 0 1\nv 0 1\n")


def test_vcc_self_loop_rejected_with_line():
    text = "p ccg 2 1 1\nv 0 1\nv 1 1\na 1 1 1 1\n"
    with pytest.raises(ParseError) as info:
        parse_vcc_instance(text)
    assert info.value.line == 4


def test_unknown_line_kind():
    with pytest.raises(ParseError):
        parse_instance("p ccg 2 0 1\nz 1 2\n")


def test_commentary_lines_ignored():
    text = ("# leading\np ccg 2 1 1\nc nothing to see\n\n"
            "a 0 1 1 1\n# trailing\n")
    g, _ = parse_instance(text)
    assert g.m == 1


def test_format_with_names_round_trips():
    g = ColoredDigraph(2, 1, [(0, 1, 1, 3)])
    text = format_instance(g, names={"src": 0, "dst": 1})
    assert "n 0 src" in text and "n 1 dst" in text
    again, names = parse_instance(text)
    assert again == g and names == {"src": 0, "dst": 1}


def test_format_vcc_round_trips():
    v = VertexColoredDigraph(3, 2, (1, 2, 1), ((0, 1, 3), (1, 2, 4)))
    again, _ = parse_vcc_instance(format_vcc_instance(v))
    assert again == v


def line_reader_parse(text):
    # reference: every text read by the line reader alone
    r = instance_io._Reader(text, allow_vertex_colors=False)
    g = ColoredDigraph.from_columns(r.n, r.q, r.tails, r.heads, r.colors,
                                    r.weights)
    bad = validate(g)
    if bad is not None:
        raise ParseError(bad.message, r.edge_lines[bad.edge_index])
    return g, dict(r.names)


def line_format(g, names=None, comments=()):
    # reference: the serialization with one f-string per edge line
    lines = [f"# {c}" for c in comments]
    lines.append(f"p ccg {g.n} {g.m} {g.q}")
    for name, vid in sorted((names or {}).items(), key=lambda kv: kv[1]):
        lines.append(f"n {vid} {name}")
    for t, h, c, w in g.edge_tuples():
        lines.append(f"a {t} {h} {c} {w}")
    return "\n".join(lines) + "\n"


def parse_outcome(parse, text):
    """What a parser makes of `text`: the graph's sizes, column dtypes and
    values and the names, or the error's type, message and line."""
    try:
        g, names = parse(text)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return (g.n, g.q, [(col.dtype, col.tolist()) for col in g.columns()],
            names)


# Tokens that a plain file never holds, or holds at its limits.
ODD_TOKENS = ["1.5", "2.50", "1e3", "0x10", "1/2", "x", "-", "--1", "start",
              str(10 ** 18 - 1), str(1 - 10 ** 18), str(10 ** 18),
              "9" * 19, "1" + "0" * 19, str(1 << 62), str(-(1 << 62)),
              str((1 << 63) - 1), str(1 << 63), str(-(1 << 63)),
              str(-(1 << 63) - 1)]
# Lines that make a file not plain, valid there or not.
ODD_LINES = ["c scale 4", "c scale 0", "c undirected", "n 1 7", "v 0 1",
             "z 1 2", "p ccg 3 1 1", "a 0 1 1", "a 0 1 1 1 1", " a 0 1 1 1"]
SEPARATORS = ["  ", "\t", " \x0c", "\x0c"]
HEADERS = ["p ccg 0 {m} {q}", "p ccg {n} 0 {q}", "p ccg {n} {m} 0",
           "p ccg {n} {m}", "p  ccg {n} {m} {q}", "p ccg 0{n} {m} {q}",
           "p ccg {n} +{m} {q}", "p ccg -1 {m} {q}", "p ccg {n} {m} {q} ",
           "p xxx {n} {m} {q}", "p ccg 1000000000000000000 {m} {q}"]
FULL_WIDTH = str.maketrans("-0123456789", "-\uff10\uff11\uff12\uff13"
                           "\uff14\uff15\uff16\uff17\uff18\uff19")


def respellings(token):
    """Other spellings of the integer `token` that int() reads alike."""
    digits = token.lstrip("-")
    sign = token[:-len(digits)]
    out = [sign + "0" + digits, token.translate(FULL_WIDTH)]
    if not sign:
        out.append("+" + digits)
    if len(digits) > 1:
        out.append(sign + digits[0] + "_" + digits[1:])
    if digits == "0":
        out.append("-0")
    return out


# Edits to a plain file: the first eight keep it readable by the line
# reader, the rest may not.
EDITS = ["comment", "names", "scale", "undirected", "spacing", "spelling",
         "crlf", "final", "token", "value", "line", "header", "count"]


@st.composite
def instance_texts(draw, edit):
    """A plain file, or one with the given edit and up to two more, of
    the kinds a plain file may not hold: other lines, other spellings and
    spacing, CRLF, other headers and edge counts, and invalid tokens,
    endpoints and colors."""
    n = draw(st.integers(2, 6))
    q = draw(st.integers(1, 3))
    m = draw(st.integers(1, 7))
    lines = []
    for _ in range(m):
        t = draw(st.integers(0, n - 1))
        h = (t + draw(st.integers(1, n - 1))) % n
        lines.append(["a", str(t), str(h), str(draw(st.integers(1, q))),
                      str(draw(st.integers(-20, 20)))])
    header = "p ccg {n} {m} {q}"
    directives = []     # lines between the header and the edge lines
    newline, final = "\n", True
    more = draw(st.lists(st.sampled_from(EDITS), max_size=2))
    for edit in ([edit] if edit else []) + more:
        i = draw(st.integers(0, len(lines) - 1))
        edges = [l for l in lines if len(l) == 5]
        if edit in ("spelling", "token", "value") and len(lines[i]) != 5:
            continue
        if edit == "comment":
            lines.insert(i, [draw(st.sampled_from(["", "#", "# a", "c a"]))])
        elif edit == "names":
            v = str(draw(st.integers(0, n - 1)))
            directives.append(f"n {v} v{v}")
            for l in edges:
                l[1:3] = [f"v{v}" if x == v else x for x in l[1:3]]
        elif edit in ("scale", "undirected"):
            directives.insert(0, "c " + edit + " 10" * (edit == "scale"))
            for l in edges:
                if l[4].lstrip("-").isdigit():
                    w = int(l[4])
                    l[4] = str(w / 10 if edit == "scale" else abs(w))
        elif edit == "spacing":
            lines[i] = [draw(st.sampled_from(SEPARATORS)).join(lines[i])
                        + draw(st.sampled_from(["", " ", "\t"]))]
        elif edit == "spelling":
            j = draw(st.integers(1, 4))
            if lines[i][j].lstrip("-").isdigit():
                lines[i][j] = draw(st.sampled_from(respellings(lines[i][j])))
        elif edit == "crlf":
            newline = "\r\n"
        elif edit == "final":
            final = False
        elif edit == "token":
            lines[i][draw(st.integers(1, 4))] = draw(st.sampled_from(
                ODD_TOKENS))
        elif edit == "value":
            # out-of-range endpoints, self-loops, colors 0 and q + 1
            j = draw(st.integers(1, 3))
            lines[i][j] = str(draw(st.sampled_from(
                [-1, n, lines[i][3 - j] if j < 3 else 0, q + 1])))
        elif edit == "line":
            lines.insert(i, [draw(st.sampled_from(ODD_LINES))])
        elif edit == "header":
            header = draw(st.sampled_from(HEADERS))
        else:
            m += draw(st.sampled_from([-1, 1]))
    body = ([header.format(n=n, m=m, q=q)] + directives
            + [" ".join(l) for l in lines])
    return newline.join(body) + (newline if final else "")


@pytest.mark.parametrize("edit", [None] + EDITS)
@settings(max_examples=30)
@given(data=st.data())
def test_parse_matches_the_line_reader(edit, data):
    text = data.draw(instance_texts(edit))
    outcome = parse_outcome(parse_instance, text)
    assert outcome == parse_outcome(line_reader_parse, text)
    if isinstance(outcome[0], int):
        g, names = parse_instance(text)
        assert format_instance(g) == line_format(g)
        assert (format_instance(g, names=names, comments=("x", "y"))
                == line_format(g, names, ("x", "y")))


@pytest.mark.parametrize("text", [
    "p ccg 2 1 1\na 0 1 1 -0",
    "p ccg 3 2 2\na 0 1 1 007\na 1 2 2 -999999999999999999\n",
    "p ccg 2 1 1\na 0 1 1 999999999999999999\n",
    "p ccg 2 1 1\na 0 1 1 9999999999999999999\n",
    "p ccg 2 1 1\na 0 1 1 10000000000000000000\n",
    "p ccg 2 1 1\na 0 1 1 -9223372036854775808\n",
    "p ccg 2 1 1\na 0 1 1 4611686018427387904\n",
    "p ccg 2 1 1\na 0 1 1 1\n\n",
    "p ccg 2 1 1\na 0 1 1 1\r\n",
    "p ccg 2 1 1\na 0 1 1 \uff11\n",
    "p ccg 2 1 1\na 0 1 1 1_0\n",
    "p ccg 2 1 1\na 0 1 1 +5\n",
    "p ccg 2 1 1\na\t0 1 1 5\n",
    "p ccg 2 1 1\na 0 1 1 5 \n",
    "p ccg 2 1 1\nc scale 10\na 0 1 1 1.5\n",
    "p ccg 2 1 1\nc undirected\na 0 1 1 5\n",
    "p ccg 2 1 1\nn 1 end\na 0 end 1 5\n",
    "# note\np ccg 2 1 1\na 0 1 1 5\n",
    "p ccg 3 2 1\na 0 1 1 1\na 2 2 1 1\n",
    "p ccg 2 1 0\na 0 1 1 1\n",
    "p ccg 2 1 1\na 0 3 1 1\n",
    "p ccg 2 2 1\na 0 1 1 1\n",
    "p ccg 2 1 1\na 0 1 1 1\na 1 0 1 1\n",
    "p ccg 0 1 1\na 0 1 1 1\n",
    "p ccg 2 0 1\n",
    "p ccg 2 1 1\n",
])
def test_parse_matches_the_line_reader_at_the_edges(text):
    assert (parse_outcome(parse_instance, text)
            == parse_outcome(line_reader_parse, text))


def test_plain_files_skip_the_line_reader(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a plain file went to the line reader")

    g = gen_layered_dag(2000, 6000, 2, seed=7)
    monkeypatch.setattr(instance_io, "_Reader", refuse)
    again, names = parse_instance(format_instance(g))
    assert again == g and names == {}
    assert all(col.dtype == np.int64 for col in again.columns())
