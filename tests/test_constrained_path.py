import numpy as np
import pytest

from ccgraph import (BudgetStateOverflow, CcSpInstance, ColorConstraint,
                     ColoredDigraph, ReductionCertificate, VccSpInstance,
                     VertexColoredDigraph, cc_sp_decide, cc_to_vcc, sssp,
                     vcc_to_cc)
from ccgraph import spg as spg_module
from ccgraph.testkit import (brute_cc_sp_decide, brute_vcc_sp_decide,
                             cc_sp_corpus, enumerate_st_paths,
                             gen_random_positive_cycle_digraph, vcc_corpus)


def check_cc_witness(inst, edges):
    g = inst.graph
    at = inst.source
    counts = [0] * g.q
    weight = 0
    for e in edges:
        assert g.tails[e] == at
        at = int(g.heads[e])
        counts[g.colors[e] - 1] += 1
        weight += int(g.weights[e])
    assert at == inst.target
    assert all(counts[i] <= inst.alpha[i] for i in range(g.q))
    assert weight == spg_module._sssp_bellman_ford(
        g, inst.source).dist[inst.target]


def check_vcc_witness(inst, edges):
    v = inst.graph
    at = inst.source
    counts = [0] * v.q
    counts[v.vertex_colors[inst.source] - 1] += 1
    weight = 0
    for e in edges:
        t, h, w = v.edges[e]
        assert t == at
        at = h
        counts[v.vertex_colors[h] - 1] += 1
        weight += w
    assert at == inst.target
    assert all(counts[i] <= inst.alpha[i] for i in range(v.q))
    return weight


def diamond_inst(alpha, t=3):
    g = ColoredDigraph(4, 2, [(0, 1, 1, 1), (0, 2, 2, 1),
                              (1, 3, 1, 1), (2, 3, 2, 1)])
    return CcSpInstance(graph=g, source=0, target=t, alpha=alpha)


def test_decide_diamond_yes_cases():
    assert cc_sp_decide(diamond_inst((2, 0))) == [0, 2]
    assert cc_sp_decide(diamond_inst((0, 2))) == [1, 3]
    loose = cc_sp_decide(diamond_inst((2, 2)))
    check_cc_witness(diamond_inst((2, 2)), loose)


def test_decide_diamond_no_cases():
    assert cc_sp_decide(diamond_inst((1, 0))) is None
    assert cc_sp_decide(diamond_inst((1, 1))) is None
    assert cc_sp_decide(diamond_inst((0, 0))) is None


def test_decide_same_endpoints_is_empty_path():
    inst = diamond_inst((0, 0), t=0)
    assert cc_sp_decide(inst) == []


def test_decide_unreachable_target():
    g = ColoredDigraph(3, 1, [(0, 1, 1, 1)])
    inst = CcSpInstance(graph=g, source=0, target=2, alpha=(5,))
    assert cc_sp_decide(inst) is None


def test_decide_budget_bounded_detour():
    # direct edge is cheap but burns the scarce color; the detour is
    # longer, so the budgeted answer is no even though t is reachable
    g = ColoredDigraph(3, 2, [(0, 2, 1, 1), (0, 1, 2, 1), (1, 2, 2, 1)])
    assert cc_sp_decide(CcSpInstance(g, 0, 2, (1, 2))) == [0]
    assert cc_sp_decide(CcSpInstance(g, 0, 2, (0, 2))) is None


def test_decide_zero_weight_cycles_are_stripped():
    # a zero cycle at vertex 1 lets walks wander; the witness must not
    g = ColoredDigraph(3, 1, [(0, 1, 1, 1), (1, 2, 1, 1), (1, 0, 1, -1)])
    inst = CcSpInstance(g, 0, 2, (3,))
    got = cc_sp_decide(inst)
    assert got == [0, 1]


@pytest.mark.parametrize("storage", ["list", "array"])
def test_decide_weight_past_int64_is_exact(storage):
    # the path weighs 2^63 + 1, one more than int64 holds
    big = 1 << 62
    edges = [(0, 1, 1, big), (1, 2, 2, big), (2, 3, 1, 1)]
    if storage == "list":
        g = ColoredDigraph(4, 2, edges)
    else:
        g = ColoredDigraph.from_columns(
            4, 2, *(np.array(col, dtype=np.int64) for col in zip(*edges)))
    inst = CcSpInstance(g, 0, 3, (2, 1))
    assert cc_sp_decide(inst) == [0, 1, 2]
    assert cc_sp_decide(CcSpInstance(g, 0, 3, (1, 1))) is None


def test_decide_state_overflow():
    g = ColoredDigraph(10, 7, [(0, 1, 1, 1)])
    inst = CcSpInstance(g, 0, 1, (9,) * 7)
    with pytest.raises(BudgetStateOverflow):
        cc_sp_decide(inst)


def test_decide_state_cap_parameter():
    inst = diamond_inst((2, 2))
    with pytest.raises(BudgetStateOverflow):
        cc_sp_decide(inst, state_cap=2)
    assert cc_sp_decide(inst, state_cap=9) is not None


def test_decide_on_positive_weights_skips_bellman_ford(monkeypatch):
    insts = [CcSpInstance(gen_random_positive_cycle_digraph(
        40, 3, 3 / 39, seed, (1, 4)), 0, 39, alpha)
        for seed in range(4) for alpha in [(1, 0, 1), (0, 1, 1), (5, 5, 5)]]
    want = [cc_sp_decide(inst) for inst in insts]
    assert None in want and any(w is not None for w in want)

    def no_bellman_ford(*args):
        raise AssertionError("Bellman-Ford ran")
    monkeypatch.setattr(spg_module, "_sssp_bellman_ford", no_bellman_ford)
    assert [cc_sp_decide(inst) for inst in insts] == want


def test_decide_matches_brute_on_corpus():
    for inst in cc_sp_corpus(200, 5151):
        want = brute_cc_sp_decide(inst)
        got = cc_sp_decide(inst)
        assert (got is None) == (want is None), inst
        if got is not None:
            check_cc_witness(inst, got)


def test_vertex_colored_graph_validation():
    with pytest.raises(ValueError):
        VertexColoredDigraph(2, 1, (1,), ())
    with pytest.raises(ValueError):
        VertexColoredDigraph(2, 1, (1, 2), ())
    with pytest.raises(ValueError):
        VertexColoredDigraph(2, 1, (1, 1), ((0, 0, 1),))
    with pytest.raises(ValueError):
        VertexColoredDigraph(2, 1, (1, 1), ((0, 5, 1),))


def test_instance_validation():
    g = ColoredDigraph(2, 1, [(0, 1, 1, 1)])
    with pytest.raises(ValueError):
        CcSpInstance(graph=g, source=0, target=9, alpha=(1,))
    with pytest.raises(Exception):
        CcSpInstance(graph=g, source=0, target=1, alpha=(1, 1))
    vg = VertexColoredDigraph(2, 1, (1, 1), ((0, 1, 4),))
    with pytest.raises(ValueError):
        VccSpInstance(graph=vg, source=3, target=0, alpha=(2,))


def test_vcc_to_cc_path_example():
    vg = VertexColoredDigraph(3, 2, (1, 2, 1), ((0, 1, 3), (1, 2, 4)))
    inst = VccSpInstance(graph=vg, source=0, target=2, alpha=(2, 1))
    image, cert = vcc_to_cc(inst)
    g = image.graph
    assert (g.n, g.q, g.m) == (4, 2, 3)
    assert image.source == 3 and image.target == 2
    assert image.alpha == ColorConstraint((2, 1))
    # edges keep their weights and take their head's color; the entry
    # edge is free and colored like the original source
    assert g.edge_tuples() == [(0, 1, 2, 3), (1, 2, 1, 4), (3, 0, 1, 0)]
    witness = cc_sp_decide(image)
    assert witness == [2, 0, 1]
    assert cert.pull_back_path(witness) == [0, 1]
    assert check_vcc_witness(inst, [0, 1]) == 7


def test_vcc_to_cc_single_vertex():
    vg = VertexColoredDigraph(1, 1, (1,), ())
    yes = VccSpInstance(graph=vg, source=0, target=0, alpha=(1,))
    image, cert = vcc_to_cc(yes)
    got = cc_sp_decide(image)
    assert got == [0] and cert.pull_back_path(got) == []
    assert brute_vcc_sp_decide(yes) == []
    no = VccSpInstance(graph=vg, source=0, target=0, alpha=(0,))
    image_no, _ = vcc_to_cc(no)
    assert cc_sp_decide(image_no) is None
    assert brute_vcc_sp_decide(no) is None


def test_vcc_to_cc_certificate_fields():
    vg = VertexColoredDigraph(2, 1, (1, 1), ((0, 1, 4),))
    inst = VccSpInstance(graph=vg, source=0, target=1, alpha=(2,))
    image, cert = vcc_to_cc(inst)
    assert cert.direction == "vcc_to_cc"
    assert cert.image is image
    assert cert.weight_scale == 1
    assert cert.vertex_map == {0: 0, 1: 1}
    assert cert.edge_map == {0: 0}


def test_vcc_to_cc_agrees_with_brute_on_corpus():
    for inst in vcc_corpus(150, 6161):
        image, cert = vcc_to_cc(inst)
        want = brute_vcc_sp_decide(inst)
        got = cc_sp_decide(image)
        assert (got is None) == (want is None), inst
        if got is not None:
            pulled = cert.pull_back_path(got)
            check_vcc_witness(inst, pulled)


def test_cc_to_vcc_single_edge():
    g = ColoredDigraph(2, 1, [(0, 1, 1, 3)])
    inst = CcSpInstance(graph=g, source=0, target=1, alpha=(1,))
    image, cert = cc_to_vcc(inst)
    vg = image.graph
    assert (vg.n, vg.q) == (3, 1)
    assert image.source == 1 and image.target == 2
    assert vg.vertex_colors == (1, 1, 1)
    assert vg.edges == ((1, 0, 3), (0, 2, 3))
    assert image.alpha == ColorConstraint((3,))
    assert cert.weight_scale == 2
    witness = brute_vcc_sp_decide(image)
    assert check_vcc_witness(image, witness) == 6
    assert cert.pull_back_path(witness) == [0]


def test_cc_to_vcc_two_edge_path():
    g = ColoredDigraph(3, 2, [(0, 1, 1, 1), (1, 2, 2, 2)])
    inst = CcSpInstance(graph=g, source=0, target=2, alpha=(1, 1))
    image, cert = cc_to_vcc(inst)
    vg = image.graph
    assert vg.n == 4
    assert vg.vertex_colors == (1, 2, 1, 1)
    assert vg.edges == ((2, 0, 1), (0, 1, 3), (1, 3, 2))
    assert image.alpha == ColorConstraint((3, 1))
    witness = brute_vcc_sp_decide(image)
    assert check_vcc_witness(image, witness) == 6
    assert cert.pull_back_path(witness) == [0, 1]


def test_cc_to_vcc_rejects_degenerate_instances():
    g = ColoredDigraph(2, 1, [(0, 1, 1, 3)])
    with pytest.raises(ValueError):
        cc_to_vcc(CcSpInstance(graph=g, source=0, target=0, alpha=(1,)))
    g0 = ColoredDigraph(2, 0, [])
    with pytest.raises(ValueError):
        cc_to_vcc(CcSpInstance(graph=g0, source=0, target=1, alpha=()))


def test_cc_to_vcc_doubles_every_path():
    checked = 0
    for inst in cc_sp_corpus(100, 7171, n_range=(2, 5),
                             distinct_endpoints=True):
        if inst.graph.m > 9:
            continue
        image, cert = cc_to_vcc(inst)
        lookup = {}
        for j, (t, h, w) in enumerate(image.graph.edges):
            lookup[(t, h)] = (j, w)
        for path in enumerate_st_paths(inst.graph, inst.source, inst.target):
            if not path:
                continue
            w = sum(int(inst.graph.weights[e]) for e in path)
            hops = ([(image.source, path[0])]
                    + list(zip(path, path[1:]))
                    + [(path[-1], image.target)])
            total = 0
            image_path = []
            for t, h in hops:
                assert (t, h) in lookup, (inst, path)
                j, wj = lookup[(t, h)]
                total += wj
                image_path.append(j)
            assert total == 2 * w
            assert cert.pull_back_path(image_path) == path
            checked += 1
    assert checked > 50


def test_cc_to_vcc_agrees_with_brute_on_corpus():
    for inst in cc_sp_corpus(120, 8181, n_range=(2, 5),
                             distinct_endpoints=True):
        if inst.graph.m > 9:
            continue
        image, _ = cc_to_vcc(inst)
        assert ((brute_vcc_sp_decide(image) is None)
                == (brute_cc_sp_decide(inst) is None)), inst


def test_certificate_rejects_unknown_direction():
    cert = ReductionCertificate(direction="sideways", image=None,
                                vertex_map={}, edge_map={})
    with pytest.raises(ValueError):
        cert.pull_back_path([])
