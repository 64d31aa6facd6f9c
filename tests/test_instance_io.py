from fractions import Fraction
from random import Random

import pytest

from ccgraph import (ColoredDigraph, ParseError, PrecisionError,
                     VertexColoredDigraph, format_instance,
                     format_vcc_instance, parse_instance, parse_vcc_instance)
from ccgraph.testkit import gen_random_dag

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
