"""Acceptance checklist: ten end-to-end checks over the whole package.

Each test covers one numbered criterion and prints a single
"criterion NN: pass" (or FAIL) line on the real stdout, so a plain
pytest run doubles as the release checklist. The checks are
property-based: solvers against the exhaustive oracles in
ccgraph.testkit, plus one scaling measurement.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from random import Random

import pytest

from ccgraph.arborescence import cc_arb_flow, min_cc_arb_flow, solve_cc_arb
from ccgraph.constrained_path import (CcSpInstance, VccSpInstance,
                                      cc_sp_decide, cc_to_vcc, vcc_to_cc)
from ccgraph.errors import LowerBoundTooLarge, NonPositiveCycle
from ccgraph.graph import ColoredDigraph
from ccgraph.pipeline import at_least_transform, cc_spt, verify_spt
from ccgraph.spg import SpgGraph, build_spg, sssp
from ccgraph.testkit import (brute_cc_arb_general, brute_cc_sp_decide,
                             brute_min_cc_arb, brute_vcc_sp_decide,
                             cc_arb_match, cc_rb_arb, cc_sp_corpus,
                             dag_corpus, enumerate_spg_arborescences,
                             enumerate_st_paths, gen_hamiltonian_gadget,
                             gen_layered_dag, gen_random_digraph,
                             gen_random_positive_cycle_digraph,
                             has_hamiltonian_path, min_cc_rb_arb,
                             positive_cycle_corpus, random_alpha, vcc_corpus)


@contextmanager
def reported(capsys, num: int):
    ok = False
    try:
        yield
        ok = True
    finally:
        with capsys.disabled():
            print(f"criterion {num:02d}: {'pass' if ok else 'FAIL'}")


def ceil_sqrt(n: int) -> int:
    return math.isqrt(n - 1) + 1 if n > 0 else 0


def path_weight(g: ColoredDigraph, path: list[int]) -> int:
    return sum(g.weights[e] for e in path)


def check_cc_path(inst: CcSpInstance, path: list[int]) -> None:
    g = inst.graph
    v = inst.source
    seen = {v}
    counts = [0] * g.q
    for e in path:
        assert 0 <= e < g.m
        assert g.tails[e] == v
        v = g.heads[e]
        assert v not in seen
        seen.add(v)
        counts[g.colors[e] - 1] += 1
    assert v == inst.target
    assert all(counts[i] <= inst.alpha[i] for i in range(g.q))


def check_vcc_path(inst: VccSpInstance, path: list[int]) -> None:
    v = inst.graph
    cur = inst.source
    seen = {cur}
    counts = [0] * v.q
    counts[v.vertex_colors[cur] - 1] += 1
    for j in path:
        tail, head, _ = v.edges[j]
        assert tail == cur
        cur = head
        assert cur not in seen
        seen.add(cur)
        counts[v.vertex_colors[head] - 1] += 1
    assert cur == inst.target
    assert all(counts[i] <= inst.alpha[i] for i in range(v.q))


def test_criterion_01_decision_oracle_equivalence(capsys):
    with reported(capsys, 1):
        t0 = time.monotonic()
        feasible = 0
        for inst in dag_corpus(1000, 101):
            spg = SpgGraph.from_dag(inst.graph, inst.source)
            want = brute_cc_arb_general(inst.graph, inst.source,
                                        inst.alpha) is not None
            got_flow = cc_arb_flow(spg, inst.alpha) is not None
            got_match = cc_arb_match(spg, inst.alpha) is not None
            assert got_flow == want
            assert got_match == want
            feasible += want
        assert 0 < feasible < 1000
        assert time.monotonic() - t0 < 60.0


def test_criterion_02_min_weight_oracle_equivalence(capsys):
    with reported(capsys, 2):
        rng = Random(202)
        feasible = 0
        for inst in dag_corpus(1000, 101):
            g = inst.graph
            weights = [rng.randint(-5, 20) for _ in range(g.m)]
            g2 = ColoredDigraph.from_columns(g.n, g.q, list(g.tails),
                                             list(g.heads), list(g.colors),
                                             weights)
            spg = SpgGraph.from_dag(g2, inst.source)
            best = brute_min_cc_arb(spg, inst.alpha)
            got = min_cc_arb_flow(spg, inst.alpha)
            assert (got is None) == (best is None)
            if got is not None:
                assert got.total_weight == best
                feasible += 1
            if g2.q == 2:
                rb = min_cc_rb_arb(spg, inst.alpha)
                assert (rb is None) == (best is None)
                if rb is not None:
                    assert rb.total_weight == best
        assert feasible > 100


def test_criterion_03_red_blue_fast_path(capsys):
    with reported(capsys, 3):
        for inst in dag_corpus(1000, 303, q_range=(2, 2)):
            spg = SpgGraph.from_dag(inst.graph, inst.source)
            rb = cc_rb_arb(spg, inst.alpha)
            assert (rb is None) == (cc_arb_flow(spg, inst.alpha) is None)
            assert (rb is None) == (cc_arb_match(spg, inst.alpha) is None)
            mn_rb = min_cc_rb_arb(spg, inst.alpha)
            mn_flow = min_cc_arb_flow(spg, inst.alpha)
            assert (mn_rb is None) == (mn_flow is None)
            if mn_rb is not None:
                assert mn_rb.total_weight == mn_flow.total_weight

        big = gen_layered_dag(1_000_000, 3_000_000, 2, 7)
        spg = SpgGraph.from_dag(big, 0, topo_order=list(range(big.n)))
        t0 = time.monotonic()
        tree = cc_rb_arb(spg, (big.n - 1, big.n - 1))
        elapsed = time.monotonic() - t0
        assert tree is not None
        assert sum(tree.color_counts) == big.n - 1
        assert elapsed < 10.0
        # the production solver at two colors is the flow network
        t0 = time.monotonic()
        flow_tree, _ = solve_cc_arb(spg, (big.n - 1, big.n - 1))
        assert time.monotonic() - t0 < 10.0
        assert flow_tree == tree


def test_criterion_04_pipeline_soundness(capsys):
    with reported(capsys, 4):
        feasible = 0
        for inst in positive_cycle_corpus(500, 404):
            g = inst.graph
            spg = build_spg(g, inst.source, sssp(g, inst.source))
            want = any(
                all(arb.color_counts[i] <= inst.alpha[i]
                    for i in range(g.q))
                for arb in enumerate_spg_arborescences(spg))
            res = cc_spt(g, inst.source, inst.alpha)
            assert (res is not None) == want
            if res is not None:
                assert verify_spt(g, inst.source, res, inst.alpha) == []
                feasible += 1
        assert 0 < feasible < 500


def test_criterion_05_flow_phase_bound_and_scaling(capsys):
    with reported(capsys, 5):
        combos = [(100, 2, 30), (100, 8, 30), (100, 32, 30),
                  (1000, 2, 20), (1000, 8, 20), (1000, 32, 20),
                  (10_000, 2, 17), (10_000, 8, 17), (10_000, 32, 16)]
        assert sum(c for _, _, c in combos) == 200
        idx = 0
        for n, q, count in combos:
            for _ in range(count):
                idx += 1
                rng = Random(505_000 + idx)
                g = gen_layered_dag(n, 3 * n, q, 505_000 + idx)
                spg = SpgGraph.from_dag(g, 0, topo_order=list(range(n)))
                alpha = random_alpha(rng, q, n - 1, 2 * n)
                _, stats = solve_cc_arb(spg, alpha)
                assert stats is not None
                assert stats.phases_executed <= 3 * ceil_sqrt(n) + 3

        times = []
        sizes = (10_000, 40_000, 160_000)
        for n in sizes:
            g = gen_layered_dag(n, 3 * n, 8, 515)
            spg = SpgGraph.from_dag(g, 0, topo_order=list(range(n)))
            alpha = (n,) * 8
            best = math.inf
            for _ in range(3):
                t0 = time.monotonic()
                tree, stats = solve_cc_arb(spg, alpha)
                best = min(best, time.monotonic() - t0)
                assert tree is not None
            times.append(best)
        xs = [math.log(n) for n in sizes]
        ys = [math.log(t) for t in times]
        mx = sum(xs) / len(xs)
        my = sum(ys) / len(ys)
        slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                 / sum((x - mx) ** 2 for x in xs))
        assert slope <= 1.7, f"flow stage scaling fit {slope:.3f}"


def test_criterion_06_hamiltonian_gadget(capsys):
    with reported(capsys, 6):
        yes = 0
        for i in range(2000):
            rng = Random(606_000 + i)
            n = rng.randint(1, 7)
            d = gen_random_digraph(n, rng.uniform(0.1, 0.9), 606_000 + i)
            g, root, ones = gen_hamiltonian_gadget(d)
            got = brute_cc_arb_general(g, root, ones) is not None
            want = has_hamiltonian_path(d, 0)
            assert got == want
            yes += want
        assert 0 < yes < 2000


def test_criterion_07_reductions_preserve_answers(capsys):
    with reported(capsys, 7):
        hits = 0
        for inst in vcc_corpus(300, 707):
            image, cert = vcc_to_cc(inst)
            wit = cc_sp_decide(image)
            want = brute_vcc_sp_decide(inst)
            assert (wit is None) == (want is None)
            if wit is not None:
                back = cert.pull_back_path(wit)
                check_vcc_path(inst, back)
                hits += 1
        assert hits > 30

        done = 0
        doubled_paths = 0
        for inst in cc_sp_corpus(1500, 717, n_range=(2, 5),
                                 distinct_endpoints=True):
            if done == 300:
                break
            g = inst.graph
            if g.m > 9:
                continue
            done += 1
            image, cert = cc_to_vcc(inst)
            want_src = brute_cc_sp_decide(inst)
            want_img = brute_vcc_sp_decide(image)
            assert (want_src is None) == (want_img is None)
            lookup = {}
            for j, (tail, head, w) in enumerate(image.graph.edges):
                lookup[(tail, head)] = (j, w)
            for p in enumerate_st_paths(g, inst.source, inst.target):
                stops = [image.source] + p + [image.target]
                total = 0
                for a, b in zip(stops, stops[1:]):
                    _, w = lookup[(a, b)]
                    total += w
                assert total == 2 * path_weight(g, p)
                doubled_paths += 1
        assert done == 300
        assert doubled_paths > 100


def test_criterion_08_budgeted_path_dp_vs_oracle(capsys):
    with reported(capsys, 8):
        yes = 0
        for inst in cc_sp_corpus(500, 808):
            got = cc_sp_decide(inst)
            want = brute_cc_sp_decide(inst)
            assert (got is None) == (want is None)
            if got is not None:
                check_cc_path(inst, got)
                assert path_weight(inst.graph, got) == \
                    path_weight(inst.graph, want)
                yes += 1
        assert 0 < yes < 500


def test_criterion_09_at_least_transform(capsys):
    with reported(capsys, 9):
        rng = Random(909)
        too_large = 0
        feasible = 0
        for inst in positive_cycle_corpus(300, 909):
            g = inst.graph
            spg = build_spg(g, inst.source, sssp(g, inst.source))
            lower = tuple(rng.randint(0, 3) for _ in range(g.q))
            want = any(
                all(arb.color_counts[i] >= lower[i] for i in range(g.q))
                for arb in enumerate_spg_arborescences(spg))
            if sum(lower) > g.n - 1:
                with pytest.raises(LowerBoundTooLarge):
                    at_least_transform(g, lower)
                assert not want
                too_large += 1
                continue
            padded, upper = at_least_transform(g, lower)
            res = cc_spt(padded, inst.source, upper)
            assert (res is not None) == want
            if res is not None:
                feasible += 1
                counts = [0] * g.q
                for e in res.tree.parent_edge.values():
                    counts[g.colors[e % g.m] - 1] += 1
                assert all(counts[i] >= lower[i] for i in range(g.q))
        assert too_large > 10
        assert feasible > 10


def zero_cycle_instance(i: int) -> tuple[ColoredDigraph, tuple[int, ...]]:
    # positive-weight graph plus one extra vertex tied to u by a pair of
    # zero-weight edges: both become tight, a zero cycle in the SPG
    rng = Random(101_000 + i)
    n = rng.randint(2, 7)
    q = rng.randint(1, 3)
    g = gen_random_positive_cycle_digraph(n, q, rng.uniform(0.2, 0.6),
                                          101_000 + i)
    u = rng.randrange(n)
    tails = list(g.tails) + [u, n]
    heads = list(g.heads) + [n, u]
    colors = list(g.colors) + [1, 1]
    weights = list(g.weights) + [0, 0]
    g2 = ColoredDigraph.from_columns(n + 1, q, tails, heads, colors, weights)
    return g2, (2 * n,) * q


def test_criterion_10_zero_cycle_refusal(capsys, monkeypatch, tmp_path):
    from ccgraph import arborescence as arborescence_mod
    from ccgraph.cli import run
    from ccgraph.instance_io import format_instance
    from io import StringIO

    def boom(*args, **kwargs):
        raise AssertionError("a solver ran on a zero-cycle instance")

    with reported(capsys, 10):
        # every solve builds its network here, where solve_cc_arb looks
        # it up
        monkeypatch.setattr(arborescence_mod, "build_arb_network", boom)
        for i in range(50):
            g, alpha = zero_cycle_instance(i)
            with pytest.raises(NonPositiveCycle) as ei:
                cc_spt(g, 0, alpha)
            exc = ei.value
            k = len(exc.vertices)
            assert k == len(exc.edge_ids) > 0
            total = 0
            for j, e in enumerate(exc.edge_ids):
                assert g.tails[e] == exc.vertices[j]
                assert g.heads[e] == exc.vertices[(j + 1) % k]
                total += g.weights[e]
            assert total == 0
        monkeypatch.undo()

        for i in range(5):
            g, alpha = zero_cycle_instance(i)
            path = tmp_path / f"zero-{i}.ccg"
            path.write_text(format_instance(g))
            out, err = StringIO(), StringIO()
            code = run(["cc-spt", str(path), "--source", "0", "--alpha",
                        ",".join(str(a) for a in alpha)],
                       stdout=out, stderr=err)
            assert code == 2
            assert "zero-weight cycle" in err.getvalue()
            assert not any(line.startswith("t ")
                           for line in out.getvalue().splitlines())
