import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from ccgraph import (CCGraphError, CcSpInstance, ColorConstraint,
                     ColoredDigraph, ConstraintLengthMismatch, EdgeRecord,
                     cc_sp_decide, cc_spt, min_cc_spt,
                     restrict_to, validate)
from ccgraph.graph import (BAD_COLOR_ID, BAD_VERTEX_ID, INT64_MAX, SELF_LOOP,
                           _stable_order)
from ccgraph.testkit import brute_cc_sp_decide


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


def test_uint64_weight_past_int64_is_stored_exactly():
    w = np.array([2 ** 63], dtype=np.uint64)
    g = ColoredDigraph.from_columns(2, 1, [0], [1], [1], w)
    assert g.weights.dtype == object and g.weights.tolist() == [2 ** 63]
    assert cc_spt(g, 0, (1,)).tree.total_weight == 2 ** 63
    small = ColoredDigraph.from_columns(
        2, 1, [0], [1], [1], np.array([7], dtype=np.uint64))
    assert small.weights.dtype == np.int64 and small.weights.tolist() == [7]
    # an int64 column is kept as it is
    w64 = np.array([5], dtype=np.int64)
    assert ColoredDigraph.from_columns(2, 1, [0], [1], [1], w64).weights is w64


@pytest.mark.parametrize("column, values", [
    ("weights", [1.5]),
    ("weights", np.array([1.5])),
    ("weights", ["7"]),
    ("colors", [True]),
    ("colors", np.array([True])),
    ("heads", [1, True]),
])
def test_columns_reject_values_other_than_integers(column, values):
    cols = {"tails": [0], "heads": [1], "colors": [1], "weights": [1]}
    cols[column] = values
    if len(values) == 2:
        cols = {k: v if k == column else v * 2 for k, v in cols.items()}
    with pytest.raises(ValueError, match=f"^{column} column: "):
        ColoredDigraph.from_columns(2, 1, *cols.values())
    edges = list(zip(*cols.values()))
    with pytest.raises(ValueError, match=f"^{column} column: "):
        ColoredDigraph(2, 1, edges)


@pytest.mark.parametrize("alpha", [(1.5, 2), ("7",), (True,),
                                   np.array([1.0, 2.0])])
def test_color_constraint_rejects_values_other_than_integers(alpha):
    with pytest.raises(ValueError, match="^color budgets: "):
        ColorConstraint(alpha)
    assert ColorConstraint(np.array([3, 2], dtype=np.int32)) == (3, 2)


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


WEIGHTS = st.one_of(st.integers(0, 5), st.integers(-5, -1),
                    st.sampled_from([1 << 62, -(1 << 62)]),
                    st.integers(0, 3).map(lambda k: (1 << 63) + k))


@st.composite
def graph_cases(draw):
    n, q = draw(st.integers(2, 5)), draw(st.integers(1, 3))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(
        st.tuples(vertex, vertex, st.integers(1, q), WEIGHTS).filter(
            lambda e: e[0] != e[1]), max_size=8))
    alpha = tuple(draw(st.lists(st.integers(0, n), min_size=q, max_size=q)))
    keep = draw(st.lists(vertex, unique=True))
    return n, q, edges, alpha, draw(vertex), keep


def four_ways(n, q, edges):
    """The same edges from tuples, lists, int64 arrays (object where a
    column has a value past int64) and object arrays."""
    cols = [list(c) for c in zip(*edges)] or [[], [], [], []]
    int64 = [np.array(c, dtype=np.int64 if all(abs(v) <= INT64_MAX for v in c)
                      else object) for c in cols]
    return [ColoredDigraph(n, q, edges),
            ColoredDigraph.from_columns(n, q, *cols),
            ColoredDigraph.from_columns(n, q, *int64),
            ColoredDigraph.from_columns(
                n, q, *(np.array(c, dtype=object) for c in cols))]


def outcome(solve):
    try:
        res = solve()
    except CCGraphError as exc:
        return type(exc).__name__, str(exc)
    if res is None or isinstance(res, list):
        return res
    t = res.tree
    return (t.parent_edge, t.color_counts, t.total_weight,
            res.distances.dist, res.spg_edge_count, res.solver_used)


@given(graph_cases())
@example((4, 2, [(0, 1, 1, 1 << 62), (1, 2, 2, 1 << 62), (2, 3, 1, 1)],
          (2, 1), 3, [0, 1, 2, 3]))
def test_answers_do_not_depend_on_storage(case):
    n, q, edges, alpha, target, keep = case
    seen = []
    for g in four_ways(n, q, edges):
        sub, back = restrict_to(g, keep)
        inst = CcSpInstance(g, 0, target, alpha)
        seen.append((
            [(c.dtype, c.tolist()) for c in g.columns()], g.edge_tuples(),
            [c.dtype for c in sub.columns()], sub.edge_tuples(), back,
            outcome(lambda: cc_spt(g, 0, alpha)),
            outcome(lambda: min_cc_spt(g, 0, alpha)),
            outcome(lambda: cc_sp_decide(inst)),
            outcome(lambda: brute_cc_sp_decide(inst))))
    assert all(s == seen[0] for s in seen[1:])
    assert seen[0][1] == [tuple(e) for e in edges]


@st.composite
def sort_keys(draw):
    """Keys below 2^bits, drawn from a few values so that ties come up at
    every width."""
    bits = draw(st.integers(1, 63))
    values = draw(st.lists(st.integers(0, (1 << bits) - 1), min_size=1,
                           max_size=12))
    return draw(st.lists(st.sampled_from(values), max_size=300))


@given(sort_keys())
@example([])
@example([5])
@example([7] * 40)
@example([(1 << 63) - 1, 0, 1 << 16, (1 << 16) - 1, 1 << 32, 1 << 48])
def test_stable_order_is_numpys_stable_argsort(keys):
    keys = np.array(keys, dtype=np.int64)
    assert np.array_equal(_stable_order(keys),
                          np.argsort(keys, kind="stable"))


def test_stable_order_past_65536_keys():
    rng = np.random.default_rng(7)
    for top in (1 << 8, 1 << 16, 1 << 17, 1 << 40, INT64_MAX):
        keys = rng.integers(0, top, 70_000)
        assert np.array_equal(_stable_order(keys),
                              np.argsort(keys, kind="stable"))
