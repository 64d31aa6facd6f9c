import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ccgraph import (ColoredDigraph, SpgGraph, SptResult, cc_arb_flow,
                     format_instance, min_cc_arb_flow)
from ccgraph import cli as cli_module
from ccgraph.cli import run
from ccgraph.testkit import cc_arb_match

DIAMOND = """\
p ccg 4 4 2
a 0 1 1 1
a 0 2 2 1
a 1 3 1 1
a 2 3 2 1
"""

NAMED = """\
p ccg 3 2 1
n 0 start
n 2 goal
a start 1 1 2
a 1 goal 1 3
"""

CYCLIC = """\
p ccg 2 2 1
a 0 1 1 1
a 1 0 1 1
"""

UNREACHABLE = """\
p ccg 3 1 1
a 0 1 1 1
"""

# The diamond with a third, unused color: answered by the flow solver.
DIAMOND3 = DIAMOND.replace("p ccg 4 4 2", "p ccg 4 4 3")


def cli(*argv, stdin=None, monkeypatch=None):
    out, err = io.StringIO(), io.StringIO()
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def diamond_file(tmp_path):
    p = tmp_path / "diamond.ccg"
    p.write_text(DIAMOND)
    return str(p)


def test_spt_text_output(diamond_file):
    code, out, err = cli("cc-spt", "-s", "0", "-a", "2,1", diamond_file)
    assert code == 0 and err == ""
    assert out == ("t 1 0 1 1\n"
                   "t 2 0 2 1\n"
                   "t 3 1 1 1\n"
                   "s summary yes 3 2 1\n")


def test_spt_infeasible(diamond_file):
    code, out, _ = cli("cc-spt", "-s", "0", "-a", "2,0", diamond_file)
    assert code == 1 and out == "s summary no\n"


def test_spt_json_output(diamond_file, tmp_path):
    code, out, _ = cli("cc-spt", "--json", "-s", "0", "-a", "2,1",
                       diamond_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "cc-spt" and doc["feasible"] is True
    assert doc["total_weight"] == 3 and doc["color_counts"] == [2, 1]
    assert doc["solver"] == "flow" and doc["tight_edges"] == 4
    assert doc["stats"]["flow_value"] == 3
    p = tmp_path / "diamond3.ccg"
    p.write_text(DIAMOND3)
    code, out, _ = cli("cc-spt", "--json", "-s", "0", "-a", "2,1,0", str(p))
    assert code == 0
    doc = json.loads(out)
    assert doc["total_weight"] == 3 and doc["color_counts"] == [2, 1, 0]
    assert doc["solver"] == "flow" and doc["tight_edges"] == 4
    assert {r["vertex"]: r["parent"] for r in doc["tree"]} == {1: 0, 2: 0,
                                                               3: 1}
    assert {d["vertex"]: d["distance"] for d in doc["distances"]} == {
        0: 0, 1: 1, 2: 1, 3: 2}
    assert doc["stats"]["flow_value"] == 3
    assert doc["stats"]["phases"] >= 1


def test_spt_json_infeasible(diamond_file):
    code, out, _ = cli("cc-spt", "--json", "-s", "0", "-a", "0,0",
                       diamond_file)
    assert code == 1
    assert json.loads(out) == {"command": "cc-spt", "feasible": False}


def test_spt_solver_flag(diamond_file):
    # the solver follows from the input; there is no option to pick one
    for command in ("cc-spt", "min-cc-spt", "cc-arb", "min-cc-arb"):
        code, out, _ = cli(command, "-s", "0", "-a", "2,1",
                           "--solver", "flow", diamond_file)
        assert code == 2 and out == ""


def test_spt_verify_flag(diamond_file):
    code, out, _ = cli("cc-spt", "--verify", "-s", "0", "-a", "2,1",
                       diamond_file)
    assert code == 0 and "s summary yes 3 2 1" in out


def test_spt_verify_catches_corrupt_solver(diamond_file, monkeypatch):
    import ccgraph.cli as cli_mod

    real = cli_mod.cc_spt

    def corrupt(g, source, alpha):
        res = real(g, source, alpha)
        bad_tree = cli_mod.Arborescence(
            root=res.tree.root, parent_edge=res.tree.parent_edge,
            color_counts=res.tree.color_counts,
            total_weight=res.tree.total_weight + 5)
        return SptResult(tree=bad_tree, distances=res.distances,
                         spg_edge_count=res.spg_edge_count,
                         solver_used=res.solver_used)

    monkeypatch.setattr(cli_mod, "cc_spt", corrupt)
    code, out, err = cli("cc-spt", "--verify", "-s", "0", "-a", "2,1",
                         diamond_file)
    assert code == 3
    assert "verification: weight_mismatch" in err


def test_min_spt(tmp_path):
    p = tmp_path / "min.ccg"
    p.write_text("p ccg 4 4 2\n"
                 "a 0 1 1 1\na 0 2 2 1\na 1 3 1 1\na 2 3 2 5\n")
    code, out, _ = cli("min-cc-spt", "-s", "0", "-a", "2,1", str(p))
    assert code == 0 and "s summary yes 3 2 1" in out
    code, _, _ = cli("min-cc-spt", "-s", "0", "-a", "1,2", str(p))
    assert code == 1


def test_stdin_dash(monkeypatch):
    code, out, _ = cli("cc-spt", "-s", "0", "-a", "2,1", "-",
                       stdin=DIAMOND, monkeypatch=monkeypatch)
    assert code == 0 and "s summary yes 3 2 1" in out


def test_name_resolution(tmp_path):
    p = tmp_path / "named.ccg"
    p.write_text(NAMED)
    code, out, _ = cli("cc-spt", "-s", "start", "-a", "2", str(p))
    assert code == 0 and "s summary yes 5 2" in out
    code, _, err = cli("cc-spt", "-s", "nowhere", "-a", "2", str(p))
    assert code == 2 and "error:" in err


def test_arb_on_dag(diamond_file, diamond):
    code, out, _ = cli("cc-arb", "-s", "0", "-a", "2,1", diamond_file)
    assert code == 0 and "s summary yes 3 2 1" in out
    code, out, _ = cli("cc-arb", "--json", "-s", "0", "-a", "2,1",
                       diamond_file)
    doc = json.loads(out)
    assert code == 0 and doc["solver"] == "flow"
    printed = {r["vertex"]: r["edge"] for r in doc["tree"]}
    spg = SpgGraph.from_dag(diamond, 0)
    for solver in (cc_arb_flow, cc_arb_match):
        assert solver(spg, (2, 1)).parent_edge == printed


def test_arb_rejects_cycles(tmp_path):
    p = tmp_path / "cyc.ccg"
    p.write_text(CYCLIC)
    code, _, err = cli("cc-arb", "-s", "0", "-a", "2", str(p))
    assert code == 2
    assert "error:" in err and "cycle" in err


def test_min_arb(tmp_path):
    p = tmp_path / "min.ccg"
    p.write_text("p ccg 4 4 2\n"
                 "a 0 1 1 1\na 0 2 2 1\na 1 3 1 1\na 2 3 2 5\n")
    code, out, _ = cli("min-cc-arb", "-s", "0", "-a", "1,2", str(p))
    assert code == 0 and "s summary yes 7 1 2" in out
    code, out, _ = cli("min-cc-arb", "--json", "-s", "0", "-a", "1,2",
                       str(p))
    doc = json.loads(out)
    assert doc["total_weight"] == 7 and doc["solver"] == "flow"
    g = ColoredDigraph(4, 2, [(0, 1, 1, 1), (0, 2, 2, 1), (1, 3, 1, 1),
                              (2, 3, 2, 5)])
    assert min_cc_arb_flow(SpgGraph.from_dag(g, 0), (1, 2)).total_weight == 7


def test_min_flow_json_stats(tmp_path):
    # the min-cost flow reports its primal-dual rounds as phases. It starts
    # from the cheapest assignment, vertex 3 on color 1, which budgets
    # 2,1,0 admit, so no round runs; budgets 1,2,0 force vertex 3 over to
    # color 2, in one round at least
    p = tmp_path / "diamond3.ccg"
    p.write_text(DIAMOND3)
    for command, solver in (("min-cc-spt", "min_flow"),
                            ("min-cc-arb", "flow")):
        for budgets, rerouted in (("2,1,0", False), ("1,2,0", True)):
            code, out, _ = cli(command, "--json", "-s", "0", "-a", budgets,
                               str(p))
            assert code == 0
            doc = json.loads(out)
            assert doc["solver"] == solver and doc["total_weight"] == 3
            assert doc["stats"]["flow_value"] == 3
            if rerouted:
                assert doc["stats"]["phases"] >= 1
                assert doc["stats"]["augments"] >= 1
            else:
                assert doc["stats"]["phases"] == 0
                assert doc["stats"]["augments"] == 0


def test_cc_sp_output(diamond_file):
    code, out, _ = cli("cc-sp", "-s", "0", "-t", "3", "-a", "2,0",
                       diamond_file)
    assert code == 0
    assert out == ("e 0 0 1 1 1\n"
                   "e 2 1 3 1 1\n"
                   "s summary yes 2\n")
    code, out, _ = cli("cc-sp", "-s", "0", "-t", "3", "-a", "1,1",
                       diamond_file)
    assert code == 1 and out == "s summary no\n"
    code, out, _ = cli("cc-sp", "--json", "-s", "0", "-t", "3", "-a", "0,2",
                       diamond_file)
    doc = json.loads(out)
    assert code == 0 and doc["path"] == [1, 3] and doc["total_weight"] == 2


def test_reduce_cc_to_vcc(diamond_file):
    code, out, _ = cli("reduce", "cc-to-vcc", "-s", "0", "-t", "3",
                       "-a", "2,1", diamond_file)
    assert code == 0
    assert out.startswith("# source 4 target 5 alpha 4,1\n")
    from ccgraph import parse_vcc_instance
    v, _ = parse_vcc_instance(out)
    assert v.n == 6 and v.vertex_colors == (1, 2, 1, 2, 1, 1)


def test_reduce_vcc_to_cc(tmp_path):
    p = tmp_path / "vcc.ccg"
    p.write_text("p ccg 3 2 2\nv 0 1\nv 1 2\nv 2 1\n"
                 "a 0 1 1 3\na 1 2 1 4\n")
    code, out, _ = cli("reduce", "vcc-to-cc", "-s", "0", "-t", "2",
                       "-a", "2,1", str(p))
    assert code == 0
    assert out.startswith("# source 3 target 2 alpha 2,1\n")
    from ccgraph import parse_instance
    g, _ = parse_instance(out)
    assert g.n == 4 and g.m == 3


def test_transform_at_least(diamond_file):
    code, out, _ = cli("transform", "at-least", "-a", "2,1", diamond_file)
    assert code == 0
    assert out.startswith("# alpha 2,1,0\n")
    from ccgraph import parse_instance
    g, _ = parse_instance(out)
    assert g.n == 4 and g.m == 8 and g.q == 3
    code, _, err = cli("transform", "at-least", "-a", "3,1", diamond_file)
    assert code == 2 and "error:" in err


def test_cc_sp_json_no_answer(diamond_file):
    code, out, _ = cli("cc-sp", "--json", "-s", "0", "-t", "3", "-a", "1,1",
                       diamond_file)
    assert code == 1
    assert out == '{"command": "cc-sp", "feasible": false}\n'


def test_reduce_and_transform_reject_json(diamond_file):
    for argv in (("reduce", "cc-to-vcc", "-s", "0", "-t", "3", "-a", "2,1"),
                 ("transform", "at-least", "-a", "2,1")):
        code, out, err = cli(*argv, "--json", diamond_file)
        assert code == 2 and out == ""
        assert "unrecognized arguments: --json" in err


def test_gen_outputs_parse(tmp_path):
    from ccgraph import parse_instance
    for kind, extra in (("dag", ["-q", "3"]),
                        ("poscycle", ["-q", "2"]),
                        ("hamiltonian", [])):
        code, out, _ = cli("gen", kind, "-n", "6", "--seed", "5", *extra)
        assert code == 0
        g, _ = parse_instance(out)
        assert g.n >= 6
        code2, out2, _ = cli("gen", kind, "-n", "6", "--seed", "5", *extra)
        assert out2 == out
        assert "# seed 5" in out


@pytest.mark.parametrize("argv, option", [
    (["dag", "-n", "0"], "-n"),
    (["poscycle", "-n", "-2"], "-n"),
    (["hamiltonian", "-n", "0"], "-n"),
    (["dag", "-n", "3", "-q", "0"], "-q"),
    (["poscycle", "-n", "3", "-q", "0"], "-q"),
    (["dag", "-n", "3", "--weights", "5,1"], "--weights"),
    (["poscycle", "-n", "3", "--weights", "3,2"], "--weights"),
])
def test_gen_rejects_bad_arguments(argv, option):
    code, out, err = cli("gen", *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {option} ")


def test_gen_hamiltonian_carries_budgets():
    code, out, _ = cli("gen", "hamiltonian", "-n", "4", "--seed", "3")
    assert code == 0
    assert "# source 0" in out and "# alpha 1,1,1,1" in out


def test_verify_command_ok(tmp_path, diamond_file):
    code, tree_text, _ = cli("cc-spt", "-s", "0", "-a", "2,1", diamond_file)
    assert code == 0
    tree_file = tmp_path / "tree.txt"
    tree_file.write_text(tree_text)
    for mode in ("arb", "spt"):
        code, out, _ = cli("verify", mode, "-s", "0", "-a", "2,1",
                           "--tree", str(tree_file), diamond_file)
        assert code == 0 and out == "ok\n"


def test_verify_command_flags_budget_overrun(tmp_path, diamond_file):
    _, tree_text, _ = cli("cc-spt", "-s", "0", "-a", "2,1", diamond_file)
    tree_file = tmp_path / "tree.txt"
    tree_file.write_text(tree_text)
    code, out, _ = cli("verify", "arb", "-s", "0", "-a", "1,1",
                       "--tree", str(tree_file), diamond_file)
    assert code == 1 and "violation: color_budget" in out


def test_verify_command_flags_missing_tree_edge(tmp_path, diamond_file):
    tree_file = tmp_path / "tree.txt"
    tree_file.write_text("t 1 0 2 1\n")
    code, out, _ = cli("verify", "arb", "-s", "0", "-a", "2,1",
                       "--tree", str(tree_file), diamond_file)
    assert code == 1 and "violation: missing_edge" in out


def test_verify_command_flags_a_vertex_listed_twice(tmp_path):
    # three tree lines for two vertices: vertex 2 is given two parents
    p = tmp_path / "tri.ccg"
    p.write_text("p ccg 3 3 2\na 0 1 1 1\na 0 2 2 1\na 1 2 1 5\n")
    tree_file = tmp_path / "tree.txt"
    tree_file.write_text("t 1 0 1 1\nt 2 1 1 5\nt 2 0 2 1\n")
    for mode in ("arb", "spt"):
        code, out, _ = cli("verify", mode, "-s", "0", "-a", "1,1",
                           "--tree", str(tree_file), str(p))
        assert code == 1
        assert out == ("violation: duplicate_vertex: vertex 2 has more "
                       "than one tree line\n")


def test_verify_spt_command_flags_negative_cycle(tmp_path):
    # the cycle 1 -> 2 -> 1 weighs -2 and is reachable from 0
    p = tmp_path / "neg.ccg"
    p.write_text("p ccg 3 3 1\na 0 1 1 1\na 1 2 1 -3\na 2 1 1 1\n")
    tree_file = tmp_path / "tree.txt"
    tree_file.write_text("t 1 0 1 1\nt 2 1 1 -3\n")
    code, out, _ = cli("verify", "spt", "-s", "0", "-a", "2",
                       "--tree", str(tree_file), str(p))
    assert code == 1
    assert out == ("violation: not_shortest: tree path to 1 weighs 1, "
                   "edge 2 from 2 gives -1\n")


def test_verify_command_uses_stated_summary(tmp_path, diamond_file):
    tree_file = tmp_path / "tree.txt"
    tree_file.write_text("t 1 0 1 1\nt 2 0 2 1\nt 3 1 1 1\n"
                         "s summary yes 9 2 1\n")
    code, out, _ = cli("verify", "arb", "-s", "0", "-a", "2,1",
                       "--tree", str(tree_file), diamond_file)
    assert code == 1 and "violation: weight_mismatch" in out


def test_restrict_reachable(tmp_path):
    p = tmp_path / "part.ccg"
    p.write_text(UNREACHABLE)
    code, _, err = cli("cc-spt", "-s", "0", "-a", "1", str(p))
    assert code == 2 and "error:" in err
    code, out, _ = cli("cc-spt", "--restrict-reachable", "-s", "0",
                       "-a", "1", str(p))
    assert code == 0
    assert out == "t 1 0 1 1\ns summary yes 1 1\n"


def test_restrict_reachable_remaps_ids(tmp_path):
    # vertex 1 is unreachable; vertex 2 must keep its original id in the
    # output even though it is renumbered internally
    p = tmp_path / "gap.ccg"
    p.write_text("p ccg 3 1 1\na 0 2 1 4\n")
    code, out, _ = cli("cc-spt", "--restrict-reachable", "-s", "0",
                       "-a", "1", str(p))
    assert code == 0
    assert out == "t 2 0 1 4\ns summary yes 4 1\n"
    code, out, _ = cli("cc-spt", "--restrict-reachable", "--json", "-s", "0",
                       "-a", "1", str(p))
    doc = json.loads(out)
    assert doc["tree"] == [{"vertex": 2, "parent": 0, "edge": 0,
                            "color": 1, "weight": 4}]
    assert doc["restricted_to"] == 2


def test_bad_inputs_exit_2(tmp_path, diamond_file):
    code, _, err = cli("cc-spt", "-s", "0", "-a", "2,1",
                       str(tmp_path / "missing.ccg"))
    assert code == 2 and "error:" in err
    code, _, err = cli("cc-spt", "-s", "0", "-a", "nope", diamond_file)
    assert code == 2
    code, _, err = cli("cc-spt", "-s", "9", "-a", "2,1", diamond_file)
    assert code == 2
    code, _, err = cli("cc-spt", "-s", "0", "-a", "2,1,1", diamond_file)
    assert code == 2
    bad = tmp_path / "bad.ccg"
    bad.write_text("p ccg 2 1 1\na 0 0 1 1\n")
    code, _, err = cli("cc-spt", "-s", "0", "-a", "1", str(bad))
    assert code == 2
    bad.write_text("p ccg 2 1 1\na 0 99999999999999999999 1 1\n")
    code, _, err = cli("cc-spt", "-s", "0", "-a", "1", str(bad))
    assert code == 2 and "edge 0 endpoint out of range" in err


def test_tree_weight_past_int64(tmp_path):
    # 2^62 + 2^62 + 1 does not fit int64; the printed total must be exact
    p = tmp_path / "big.ccg"
    p.write_text(f"p ccg 4 3 2\na 0 1 1 {1 << 62}\na 0 2 1 {1 << 62}\n"
                 "a 0 3 2 1\n")
    for command in ("cc-spt", "min-cc-spt"):
        code, out, err = cli(command, "-s", "0", "-a", "2,1", str(p))
        assert code == 0 and err == ""
        assert out.endswith("s summary yes 9223372036854775809 2 1\n")


def test_argparse_exits(diamond_file):
    code, _, _ = cli("no-such-command")
    assert code == 2
    code, _, _ = cli("cc-spt", diamond_file)
    assert code == 2
    code, _, _ = cli("--help")
    assert code == 0


def test_argparse_output_goes_to_given_streams(diamond_file, capsys):
    code, out, err = cli("cc-spt", "--bogus", "-s", "0", "-a", "2,1",
                         diamond_file)
    assert code == 2 and out == ""
    assert err.startswith("usage: ccgraph")
    assert "unrecognized arguments: --bogus" in err
    code, out, err = cli("--help")
    assert code == 0 and err == ""
    assert out.startswith("usage: ccgraph") and "cc-spt" in out
    assert capsys.readouterr() == ("", "")


def test_negative_cycle_exits_2(tmp_path):
    p = tmp_path / "neg.ccg"
    p.write_text("p ccg 2 2 1\na 0 1 1 -1\na 1 0 1 -1\n")
    code, _, err = cli("cc-spt", "-s", "0", "-a", "2", str(p))
    assert code == 2 and "negative-weight cycle" in err


def test_zero_cycle_exits_2(tmp_path):
    p = tmp_path / "zero.ccg"
    p.write_text("p ccg 3 3 1\na 0 1 1 1\na 1 2 1 0\na 2 1 1 0\n")
    code, out, err = cli("cc-spt", "-s", "0", "-a", "3", str(p))
    assert code == 2
    assert "zero-weight cycle" in err
    assert "t " not in out


def test_python_dash_m_reaches_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "ccgraph", "--help"],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: ccgraph")


@pytest.mark.parametrize("weights", ["1,9", "-3,9"])
def test_answers_do_not_depend_on_the_self_check(tmp_path, weights):
    # -O drops the __debug__ self-check; the printed answer must not move.
    # Weights from -3 take sssp's Bellman-Ford path. There, budgets
    # 6,11,12 also move vertices off their cheapest colors, so the
    # min-cost flow runs its rounds and the price check has work to do.
    code, text, _ = cli("gen", "dag", "-n", "30", "-q", "3", "--seed", "4",
                        f"--weights={weights}")
    assert code == 0
    path = tmp_path / "dag.ccg"
    path.write_text(text)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    budgets = ["29,29,29"] + (["6,11,12"] if weights == "-3,9" else [])
    for command, alpha in itertools.product(("cc-spt", "min-cc-spt"),
                                            budgets):
        outs = []
        for flags in ([], ["-O"]):
            done = subprocess.run(
                [sys.executable, *flags, "-m", "ccgraph", command, "--json",
                 "-s", "0", "-a", alpha, str(path)],
                env=env, capture_output=True, text=True, timeout=60)
            assert (done.returncode, done.stderr) == (0, "")
            outs.append(done.stdout)
        doc = json.loads(outs[0])
        assert doc["feasible"]
        if command == "min-cc-spt" and alpha == "6,11,12":
            assert doc["stats"]["phases"] >= 1
        assert outs[0] == outs[1]


def dict_emit_tree(args, out, g, tree, *, command, distances=None,
                   spg_edges=None, solver=None, stats=None, back=None):
    # reference: the tree output as per-edge dicts and one json.dumps
    vertices = sorted(tree.parent_edge)
    edges = [int(tree.parent_edge[v]) for v in vertices]
    fields = list(zip(*(col[edges].tolist() for col in g.columns())))
    rows = []
    for v, e, (parent, _, color, weight) in zip(vertices, edges, fields):
        rows.append({"vertex": int(back[v] if back else v),
                     "parent": back[parent] if back else parent,
                     "edge": e, "color": color, "weight": weight})
    if args.json:
        doc = {"command": command, "feasible": True,
               "total_weight": tree.total_weight,
               "color_counts": list(tree.color_counts), "tree": rows}
        if solver is not None:
            doc["solver"] = solver
        if distances is not None:
            doc["distances"] = [
                {"vertex": int(back[v] if back else v), "distance": d}
                for v, d in enumerate(distances.dist) if d is not None]
        if spg_edges is not None:
            doc["tight_edges"] = spg_edges
        if stats is not None:
            doc["stats"] = {"flow_value": stats.value,
                            "phases": stats.phases_executed,
                            "advances": stats.advances,
                            "retreats": stats.retreats,
                            "augments": stats.augments}
        if back is not None:
            doc["restricted_to"] = len(back)
        out.write(json.dumps(doc) + "\n")
    else:
        for r in rows:
            out.write(f"t {r['vertex']} {r['parent']} {r['color']} "
                      f"{r['weight']}\n")
        counts = " ".join(str(c) for c in tree.color_counts)
        out.write(f"s summary yes {tree.total_weight} {counts}\n")
    return 0


BIG_WEIGHTS = [1 << 62, -(1 << 62), (1 << 63) - 1, 1 << 63, (1 << 63) + 5,
               -(1 << 63) - 2]


TREE_RUNS = [[command, *json_flag, *restrict]
             for command in ("cc-spt", "min-cc-spt", "cc-arb", "min-cc-arb")
             for json_flag in ([], ["--json"])
             for restrict in ([], ["--restrict-reachable"])
             if command.endswith("spt") or not restrict]


@st.composite
def tree_instances(draw):
    """A small graph, possibly with weight columns past int64, and a
    budget list for it."""
    n = draw(st.integers(1, 7))
    q = draw(st.integers(1, 3))
    dag = draw(st.booleans())
    # an edge into every vertex, or every odd one, from a lower one: all
    # are reachable, or some gaps are left for --restrict-reachable
    step = draw(st.sampled_from([1, 2, 0]))
    pairs = ([(draw(st.integers(0, h - 1)), h) for h in range(1, n, step)]
             if step else [])
    for _ in range(draw(st.integers(0, 10)) if n > 1 else 0):
        t, h = draw(st.lists(st.integers(0, n - 1), min_size=2,
                             max_size=2, unique=True))
        pairs.append((min(t, h), max(t, h)) if dag else (t, h))
    edges = [(t, h, draw(st.integers(1, q)), draw(st.one_of(
        st.integers(-3, 9), st.sampled_from(BIG_WEIGHTS))))
        for t, h in pairs]
    g = ColoredDigraph.from_columns(n, q, *(
        [e[i] for e in edges] for i in range(4)))
    # mostly loose budgets, so that most runs print a tree
    alpha = draw(st.lists(st.integers(0, n).map(lambda k: n - k),
                          min_size=q, max_size=q))
    return g, ",".join(map(str, alpha))


@settings(max_examples=40)
@given(tree_instances())
def test_tree_output_matches_the_dict_encoder(case):
    g, alpha = case
    for argv in TREE_RUNS:
        results = []
        for emit in (cli_module._emit_tree, dict_emit_tree):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cli_module, "_read_file", lambda path: "")
                mp.setattr(cli_module, "parse_instance",
                           lambda text: (g, {}))
                mp.setattr(cli_module, "_emit_tree", emit)
                results.append(cli(*argv, "-s", "0", "-a", alpha, "-"))
        assert results[0] == results[1], argv


SOLVING = ["cc-spt", "min-cc-spt", "cc-arb", "min-cc-arb", "cc-sp"]

# weights around the int64 limit and far past it: the parser either
# stores them exactly or rejects the file
FAR_WEIGHTS = BIG_WEIGHTS + [-(1 << 63), 10 ** 30, -10 ** 30]


@st.composite
def instance_texts(draw):
    """A small instance file, mostly valid, and the budget list, source
    and target of one question about it."""
    n = draw(st.integers(1, 6))
    q = draw(st.integers(1, 4))
    dag = draw(st.booleans())
    weights = draw(st.sampled_from([
        st.integers(0, 9), st.integers(0, 9), st.integers(-3, 9),
        st.one_of(st.integers(-3, 9), st.sampled_from(FAR_WEIGHTS))]))
    # an edge into every vertex from a lower one, so that vertex 0 mostly
    # reaches everything, and some more
    pairs = ([(draw(st.integers(0, h - 1)), h) for h in range(1, n)]
             if draw(st.integers(0, 3)) else [])
    for _ in range(draw(st.integers(0, 6)) if n > 1 else 0):
        t, h = draw(st.lists(st.integers(0, n - 1), min_size=2,
                             max_size=2, unique=True))
        pairs.append((min(t, h), max(t, h)) if dag else (t, h))
    edges = [[t, h, draw(st.integers(1, q)), draw(weights)]
             for t, h in pairs]
    fault = draw(st.sampled_from(
        ["none"] * 10 + ["endpoint", "color", "loop", "e line", "count"]))
    if edges and fault in ("endpoint", "color", "loop"):
        e = edges[draw(st.integers(0, len(edges) - 1))]
        if fault == "endpoint":
            e[draw(st.integers(0, 1))] = draw(st.sampled_from([-1, n]))
        elif fault == "color":
            e[2] = draw(st.sampled_from([0, q + 1]))
        else:
            e[1] = e[0]
    lines = [f"p ccg {n} {len(edges) + (fault == 'count')} {q}"]
    lines += ["a " + " ".join(map(str, e)) for e in edges]
    if fault == "e line":
        lines.append("e 0 1")
    # mostly loose budgets, sometimes one too many or too few
    length = q + draw(st.sampled_from([0] * 10 + [-1, 1]))
    alpha = ",".join(str(draw(st.integers(0, n).map(lambda k: n - k)))
                     for _ in range(length))
    ends = st.sampled_from([0, 0, 0, *range(n), n])
    return ("\n".join(lines) + "\n", alpha, str(draw(ends)),
            str(draw(ends)))


@settings(max_examples=40)
@given(instance_texts())
def test_solving_commands_exit_0_1_or_2(case):
    text, alpha, source, target = case
    files = {"inst": text}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli_module, "_read_file", files.__getitem__)
        for command in SOLVING:
            checks = [[]] if command == "cc-sp" else [[], ["--verify"]]
            ends = ["-s", source] + (["-t", target] if command == "cc-sp"
                                     else [])
            for flags in ([*c, *j] for c in checks for j in ([], ["--json"])):
                argv = [command, *flags, *ends, "-a", alpha, "inst"]
                code, out, err = cli(*argv)
                assert code in (0, 1, 2), (argv, err)
                assert (code == 2) == err.startswith("error: "), (argv, err)
                if code or "--json" in flags or command == "cc-sp":
                    continue
                # a "yes" in text mode is a tree file that verify accepts
                files["tree"] = out
                mode = "arb" if command.endswith("arb") else "spt"
                assert cli("verify", mode, "-s", source, "-a", alpha,
                           "--tree", "tree", "inst") == (0, "ok\n", ""), argv
