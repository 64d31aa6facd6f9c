import numpy as np
import pytest

from ccgraph import (ColorConstraint, ColoredDigraph, ConstraintLengthMismatch,
                     EdgeRecord, in_degree_by_color, restrict_to, validate)
from ccgraph.graph import BAD_COLOR_ID, BAD_VERTEX_ID, SELF_LOOP


def test_minimal_valid_graph():
    g = ColoredDigraph(2, 1, [(0, 1, 1, 0)])
    assert validate(g) is None
    assert g.n == 2 and g.m == 1 and g.q == 1


def test_self_loop_rejected():
    g = ColoredDigraph(2, 1, [(0, 0, 1, 0)])
    bad = validate(g)
    assert bad is not None
    assert bad.kind == SELF_LOOP
    assert bad.edge_index == 0


def test_color_out_of_range_rejected():
    g = ColoredDigraph(2, 2, [(0, 1, 3, 0)])
    bad = validate(g)
    assert bad.kind == BAD_COLOR_ID


def test_vertex_out_of_range_rejected():
    g = ColoredDigraph(2, 1, [(0, 5, 1, 0)])
    bad = validate(g)
    assert bad.kind == BAD_VERTEX_ID
    # an endpoint int64 cannot hold
    g = ColoredDigraph(3, 1, [(0, 1, 1, 0), (0, 10 ** 20, 1, 0)])
    bad = validate(g)
    assert bad.kind == BAD_VERTEX_ID and bad.edge_index == 1


def test_color_zero_rejected():
    g = ColoredDigraph(2, 1, [(0, 1, 0, 0)])
    assert validate(g).kind == BAD_COLOR_ID


def test_validate_reports_first_bad_edge():
    g = ColoredDigraph(3, 1, [(0, 1, 1, 0), (1, 1, 1, 0), (0, 9, 1, 0)])
    bad = validate(g)
    assert bad.edge_index == 1


def test_validate_numpy_backing_agrees():
    edges = [(0, 1, 1, 2), (1, 2, 3, 4), (2, 2, 1, 0)]
    g1 = ColoredDigraph(3, 2, edges)
    cols = [np.array(c, dtype=np.int64) for c in zip(*edges)]
    g2 = ColoredDigraph.from_columns(3, 2, *cols)
    b1, b2 = validate(g1), validate(g2)
    assert b1.kind == b2.kind and b1.edge_index == b2.edge_index


def test_edge_record_and_iteration(diamond):
    e = diamond.edge(2)
    assert e == EdgeRecord(tail=1, head=3, color=1, weight=1, index=2)
    assert [r.index for r in diamond.edges()] == [0, 1, 2, 3]
    assert diamond.edge_tuples() == [(0, 1, 1, 1), (0, 2, 2, 1),
                                     (1, 3, 1, 1), (2, 3, 2, 1)]


def test_columns_are_int64_and_cached(diamond):
    t, h, c, w = diamond.columns()
    assert all(a.dtype == np.int64 for a in (t, h, c, w))
    assert t is diamond.columns()[0]
    assert h.tolist() == [1, 2, 3, 3]
    # a column that int64 cannot hold stays exact as Python ints
    big = ColoredDigraph(2, 1, [(0, 1, 1, -(1 << 64))])
    assert big.columns()[3].tolist() == [-(1 << 64)]


def test_graph_equality_by_structure(diamond):
    other = ColoredDigraph(4, 2, list(diamond.edge_tuples()))
    assert diamond == other
    assert diamond != ColoredDigraph(4, 2, [(0, 1, 1, 1)])


def test_in_and_out_edge_ids_ascending():
    g = ColoredDigraph(3, 1, [(1, 0, 1, 1), (2, 0, 1, 1), (1, 2, 1, 1),
                              (1, 0, 1, 5)])
    assert g.in_edge_ids()[0] == [0, 1, 3]
    assert g.out_edge_ids()[1] == [0, 2, 3]


def test_in_degree_by_color_empty():
    g = ColoredDigraph(3, 2, [])
    pi = in_degree_by_color(g)
    assert pi.total() == 0
    assert pi.count(1, 1) == 0 and pi.colors_present(1) == []


def test_in_degree_by_color_direct_count():
    g = ColoredDigraph(3, 2, [(0, 1, 1, 0), (2, 1, 1, 0), (0, 2, 2, 0)])
    pi = in_degree_by_color(g)
    assert pi.count(1, 1) == 2
    assert pi.count(2, 2) == 1
    assert pi.count(1, 2) == 0 and pi.count(0, 1) == 0
    assert pi.total() == 3


def test_in_degree_by_color_diamond(diamond):
    pi = in_degree_by_color(diamond)
    assert pi.count(1, 1) == 1
    assert pi.count(2, 2) == 1
    assert pi.count(3, 1) == 1 and pi.count(3, 2) == 1


def test_in_degree_matches_independent_count():
    # second, dictionary-based counting pass over random graphs
    from random import Random
    rng = Random(7)
    for _ in range(25):
        n, q = rng.randint(2, 9), rng.randint(1, 4)
        edges = []
        for _ in range(rng.randint(0, 25)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            edges.append((u, v, rng.randint(1, q), rng.randint(-3, 9)))
        g = ColoredDigraph(n, q, edges)
        pi = in_degree_by_color(g)
        counted: dict[tuple[int, int], int] = {}
        for _, h, c, _ in edges:
            counted[(h, c)] = counted.get((h, c), 0) + 1
        for v in range(n):
            for c in range(1, q + 1):
                assert pi.count(v, c) == counted.get((v, c), 0)


def test_color_constraint_basics():
    c = ColorConstraint.of([2, 0, 5])
    assert len(c) == 3 and c[0] == 2 and tuple(c) == (2, 0, 5)
    assert c.bound(3) == 5
    assert c.total() == 7
    assert c.clamped(3) == (2, 0, 3)
    assert c == (2, 0, 5)
    assert ColorConstraint.of(c) is c


def test_color_constraint_length_check():
    c = ColorConstraint((1, 1))
    c.require_length(2)
    with pytest.raises(ConstraintLengthMismatch):
        c.require_length(3)


def test_color_constraint_rejects_negative():
    with pytest.raises(ValueError):
        ColorConstraint((1, -1))


def test_restrict_to_all_is_identity(diamond):
    sub, back = restrict_to(diamond, range(4))
    assert back == [0, 1, 2, 3]
    assert sub == diamond


def test_restrict_to_empty(diamond):
    sub, back = restrict_to(diamond, [])
    assert back == [] and sub.n == 0 and sub.m == 0


def test_restrict_diamond_drops_b(diamond):
    sub, back = restrict_to(diamond, [0, 1, 3])
    assert back == [0, 1, 3]
    assert sub.m == 2
    assert sub.edge_tuples() == [(0, 1, 1, 1), (1, 2, 1, 1)]


def test_restrict_matches_brute_filter():
    from random import Random
    rng = Random(11)
    for _ in range(20):
        n = rng.randint(3, 9)
        edges = [(u, v, 1, rng.randint(0, 5))
                 for u in range(n) for v in range(n)
                 if u != v and rng.random() < 0.4]
        g = ColoredDigraph(n, 1, edges)
        keep = sorted(rng.sample(range(n), rng.randint(0, n)))
        sub, back = restrict_to(g, keep)
        assert back == keep
        old_pos = {v: i for i, v in enumerate(keep)}
        expected = [(old_pos[t], old_pos[h], c, w) for t, h, c, w in edges
                    if t in old_pos and h in old_pos]
        assert list(sub.edge_tuples()) == expected
