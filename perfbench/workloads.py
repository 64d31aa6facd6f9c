"""The four workloads: their inputs, one round of answers, and the checks.

A workload builds its instances with the ccgraph testkit generators
(`generate`, timed as set-up). `references` derives budgets, verdicts,
distances and optima from those inputs alone; it runs in a separate
planning process (`plan.py`), so scipy and the reference
computations never enter the measured process. `ops` turns inputs and
reference data into the workload's rounds of operations, which a run
answers in turn. Every operation builds its
inputs afresh in `prepare`, outside the timed region, so each answer pays
for the graph's lazily cached adjacency lists as a user does.

Sizes and the yes/no mix are fixed; the seed draws the graphs, weights,
budgets and targets. Each round holds an odd number of answer groups
whose times are well apart, so the median of whole rounds falls inside
one group rather than between two. Where a workload has two rounds, they
have the same make-up on different instances: short rounds let a run
stop close to its length, and two of them let the median average over
more of the seed's graphs.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

# (verdict, n) per instance of each round; all at m = 3n and
# q = LAYERED_Q. The yes instances share one size, so that their answers
# form one tight cluster and it matters little where in it the median of
# a run's answers falls; the no answer lies well below that cluster. The
# first operation of the first round is also the set-up's warm-up answer.
LAYERED_Q = 8
SPT_FLOW_ROUNDS = ((("no", 30_000),) + (("yes", 20_000),) * 4,) * 2
MIN_SPT_ROUNDS = ((("no", 600),) + (("yes", 800),) * 4,) * 2
# q = 2; each instance is answered by cc-spt and then by min-cc-spt, and
# each round ends with the overflow operation.
CLI_TEXT_ROUNDS = ((("no", 20_000),) + (("yes", 20_000),) * 2,) * 2
CLI_TEXT_INSTANCES = [inst for r in CLI_TEXT_ROUNDS for inst in r]
# One graph per question: the cost of cc_sp_decide varies about threefold
# between graphs of one size, so a round spreads its questions over as
# many graphs as it has questions. Every budget vector in 1..5 per colour
# is asked once per round; n cycles through 300..396. The first question,
# which is also the set-up's warm-up answer, always has budgets (1, 1, 1),
# so that its cost, part of setup_s, hardly depends on the seed; the
# others come in a seeded order.
CC_SP_GRAPHS = tuple(300 + 4 * (k % 25) for k in range(125))
CC_SP_Q = 3
CC_SP_BUDGET_MAX = 5

# The overflow instance: the tree must take all three edges, so its weight
# is 2^63 + 1, one more than int64 holds.
OVERFLOW_EDGES = ((0, 1, 1, 1 << 62), (0, 2, 1, 1 << 62), (0, 3, 2, 1))
OVERFLOW_ALPHA = "2,1"
OVERFLOW_TOTAL = (1 << 62) + (1 << 62) + 1


@dataclass
class Op:
    """One answer of a round.

    prepare() builds fresh inputs and returns the call that makes exactly
    one answer; check(result) returns None for a correct result or a line
    saying what is wrong. known_fault marks the one operation that fails
    because of a fault already found in the program.
    """

    label: str
    m: int
    prepare: Callable[[], Callable[[], object]]
    check: Callable[[object], str | None]
    known_fault: bool = False


def _rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng([seed, *path])


def _sub_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def _layered(cc, seed: int, index: int, n: int, q: int):
    """gen_layered_dag columns with weights redrawn uniformly from 1..3."""
    g = cc.testkit.gen_layered_dag(n, 3 * n, q, _sub_seed(seed, index))
    t, h, c, _ = g.columns()
    w = _rng(seed, index, 1).integers(1, 4, g.m).astype(np.int64)
    return t, h, c, w


def _split(ops: list[Op], lengths: list[int]) -> list[list[Op]]:
    """Consecutive runs of `ops` with the given lengths: the rounds."""
    rounds, start = [], 0
    for length in lengths:
        rounds.append(ops[start:start + length])
        start += length
    return rounds


@dataclass
class TreeRef:
    """Reference data of one tree instance rooted at 0: distances, the
    budgets and, when asked for, the LP optimum (None for a no)."""

    dist: np.ndarray
    alpha: tuple[int, ...]
    optimum: int | None


def _tree_ref(ref, seed, index, verdict, n, q, t, h, c, w, optimum):
    dist = ref.distances(n, t, h, w)
    tight = ref.tight_mask(dist, t, h, w)
    rng = _rng(seed, index, 2)
    alpha = (ref.yes_budgets if verdict == "yes" else ref.no_budgets)(
        n, q, 0, h, c, tight, rng)
    best = None
    if optimum:
        best = ref.min_tree_weight(n, q, 0, h, c, w, tight, alpha)
        if (best is None) != (verdict == "no"):
            raise ValueError(f"reference: {verdict} instance {index} has "
                             f"LP optimum {best}")
    return TreeRef(dist, alpha, best)


def _check_spt(n, q, t, h, c, w, r: TreeRef, yes, exact):
    """Check a library answer; with `exact` the tree must weigh
    r.optimum."""
    def check(result) -> str | None:
        if not yes:
            return None if result is None else "answered yes, expected no"
        if result is None:
            return "answered no, expected yes"
        tree = result.tree
        problem = checks.tree_problem(n, q, 0, t, h, c, w, r.dist, r.alpha,
                                      tree.parent_edge, tree.color_counts,
                                      tree.total_weight)
        if problem is None and list(result.distances.dist) != r.dist.tolist():
            problem = "returned distances differ from the reference"
        if problem is None and exact and tree.total_weight != r.optimum:
            problem = f"tree weighs {tree.total_weight}, optimum is {r.optimum}"
        return problem
    return check


class _LibraryTrees:
    """spt_flow and min_spt: cc_spt or min_cc_spt through the library."""

    def __init__(self, rounds, solver):
        self.rounds = rounds
        self.instances = [inst for r in rounds for inst in r]
        self.solver = solver

    def generate(self, cc, seed, workdir):
        return [_layered(cc, seed, i, n, LAYERED_Q)
                for i, (_, n) in enumerate(self.instances)]

    def references(self, seed, inputs):
        import reference as ref
        return [_tree_ref(ref, seed, i, verdict, n, LAYERED_Q, *cols,
                          optimum=self.solver == "min_cc_spt")
                for i, ((verdict, n), cols) in enumerate(
                    zip(self.instances, inputs))]

    def ops(self, cc, inputs, refs):
        q = LAYERED_Q
        exact = self.solver == "min_cc_spt"
        ops = [Op(f"{i}:{verdict}-n{n}", len(t),
                  self._prepare(cc, n, q, t, h, c, w, r.alpha),
                  _check_spt(n, q, t, h, c, w, r, verdict == "yes", exact))
               for i, ((verdict, n), (t, h, c, w), r) in enumerate(zip(
                   self.instances, inputs, refs))]
        return _split(ops, [len(r) for r in self.rounds])

    def _prepare(self, cc, n, q, t, h, c, w, alpha):
        solver = self.solver

        def prepare():
            g = cc.ColoredDigraph.from_columns(n, q, t, h, c, w)
            # looked up at call time, so that a traced run sees the call
            return lambda: getattr(cc, solver)(g, 0, alpha)
        return prepare


def _cli_op(cc, label, m, argv, check, known_fault=False):
    def prepare():
        out, err = io.StringIO(), io.StringIO()
        return lambda: (cc.cli.run(argv, out, err), out, err)
    return Op(label, m, prepare, check, known_fault)


def _check_cli(n, q, t, h, c, w, r: TreeRef, yes, total):
    """Check a `--json` run of the command line; `total`, when given, is
    the exact weight the printed tree must have."""
    def check(result) -> str | None:
        code, out, err = result
        expect = 0 if yes else 1
        if code != expect:
            return (f"exit code {code}, expected {expect}: "
                    f"{err.getvalue().strip()[:200]}")
        doc = json.loads(out.getvalue())
        if not yes:
            return None if doc.get("feasible") is False else "not a 'no'"
        rows = doc["tree"]
        for row in rows:
            e = row["edge"]
            if not (0 <= e < len(t)):
                return f"tree row names edge {e} out of range"
            if (row["parent"], row["color"], row["weight"]) != (
                    int(t[e]), int(c[e]), int(w[e])):
                return f"tree row for vertex {row['vertex']} misstates edge {e}"
        parent = {row["vertex"]: row["edge"] for row in rows}
        problem = checks.tree_problem(n, q, 0, t, h, c, w, r.dist, r.alpha,
                                      parent, doc["color_counts"],
                                      doc["total_weight"])
        if problem:
            return problem
        stated = {d["vertex"]: d["distance"] for d in doc["distances"]}
        if stated != dict(enumerate(r.dist.tolist())):
            return "printed distances differ from the reference"
        if total is not None and doc["total_weight"] != total:
            return f"tree weighs {doc['total_weight']}, expected {total}"
        return None
    return check


class _CliText:
    """cli_text: `ccgraph.cli.run` on instance files, list-backed solving."""

    def generate(self, cc, seed, workdir):
        inputs = []
        for i, (_, n) in enumerate(CLI_TEXT_INSTANCES):
            t, h, c, w = _layered(cc, seed, i, n, 2)
            path = Path(workdir) / f"cli-{i}.ccg"
            g = cc.ColoredDigraph.from_columns(n, 2, t, h, c, w)
            path.write_text(cc.format_instance(g))
            inputs.append((str(path), t, h, c, w))
        overflow = cc.ColoredDigraph(4, 2, OVERFLOW_EDGES)
        path = Path(workdir) / "overflow.ccg"
        path.write_text(cc.format_instance(overflow))
        inputs.append((str(path),) + tuple(
            np.array(col, dtype=np.int64) for col in zip(*OVERFLOW_EDGES)))
        return inputs

    def references(self, seed, inputs):
        import reference as ref
        refs = [_tree_ref(ref, seed, i, verdict, n, 2, *cols, optimum=True)
                for i, ((verdict, n), (_, *cols)) in enumerate(
                    zip(CLI_TEXT_INSTANCES, inputs))]
        _, t, h, c, w = inputs[-1]
        alpha = tuple(int(a) for a in OVERFLOW_ALPHA.split(","))
        refs.append(TreeRef(ref.distances(4, t, h, w), alpha, OVERFLOW_TOTAL))
        return refs

    def ops(self, cc, inputs, refs):
        ops = []
        for i, ((verdict, n), (path, t, h, c, w), r) in enumerate(zip(
                CLI_TEXT_INSTANCES, inputs, refs)):
            arg = ",".join(str(a) for a in r.alpha)
            for cmd, total in (("cc-spt", None), ("min-cc-spt", r.optimum)):
                ops.append(_cli_op(
                    cc, f"{i}:{cmd}-{verdict}-n{n}", len(t),
                    [cmd, "--json", "-s", "0", "-a", arg, path],
                    _check_cli(n, 2, t, h, c, w, r, verdict == "yes", total)))
        (path, t, h, c, w), r = inputs[-1], refs[-1]
        overflow = _cli_op(cc, "cc-spt-overflow", len(t),
                           ["cc-spt", "--json", "-s", "0", "-a",
                            OVERFLOW_ALPHA, path],
                           _check_cli(4, 2, t, h, c, w, r, True, r.optimum),
                           known_fault=True)
        lengths = [2 * len(spec) for spec in CLI_TEXT_ROUNDS]
        return [ops_ + [overflow] for ops_ in _split(ops, lengths)]


class _CcSp:
    """cc_sp: cc_sp_decide on positive-weight cyclic digraphs."""

    def generate(self, cc, seed, workdir):
        graphs = []
        for i, n in enumerate(CC_SP_GRAPHS):
            g = cc.testkit.gen_random_positive_cycle_digraph(
                n, CC_SP_Q, 3.0 / (n - 1), _sub_seed(seed, i), (1, 4))
            graphs.append((n, g.tails, g.heads, g.colors, g.weights))
        return graphs

    def references(self, seed, inputs):
        """Per graph: budgets, target, distances and the verdict."""
        import reference as ref
        rng = _rng(seed, 99)
        budgets = np.stack(np.meshgrid(
            *[np.arange(1, CC_SP_BUDGET_MAX + 1)] * CC_SP_Q, indexing="ij"),
            -1).reshape(-1, CC_SP_Q)
        assert len(budgets) == len(inputs) and budgets[0].max() == 1
        order = np.concatenate(([0], 1 + rng.permutation(len(budgets) - 1)))
        refs = []
        for (n, t, h, c, w), k in zip(inputs, order):
            alpha = tuple(int(a) for a in budgets[k])
            dist = ref.distances(n, t, h, w)
            tight = ref.tight_mask(dist, t, h, w)
            target = int(rng.integers(1, n))
            refs.append((alpha, target, dist, ref.cc_sp_feasible(
                n, CC_SP_Q, 0, target, t, h, c, dist, tight, alpha)))
        return refs

    def ops(self, cc, inputs, refs):
        return [[Op(f"g{gi}-t{target}-a{'.'.join(map(str, alpha))}", len(t),
                   self._prepare(cc, n, t, h, c, w, target, alpha),
                   self._check(target, t, h, c, w, dist, alpha, feasible))
                for gi, ((n, t, h, c, w), (alpha, target, dist, feasible))
                in enumerate(zip(inputs, refs))]]

    @staticmethod
    def _prepare(cc, n, t, h, c, w, target, alpha):
        def prepare():
            g = cc.ColoredDigraph.from_columns(n, CC_SP_Q, t, h, c, w)
            inst = cc.CcSpInstance(graph=g, source=0, target=target,
                                   alpha=alpha)
            return lambda: cc.cc_sp_decide(inst)
        return prepare

    @staticmethod
    def _check(target, t, h, c, w, dist, alpha, feasible):
        def check(path) -> str | None:
            if not feasible:
                return None if path is None else "answered yes, expected no"
            if path is None:
                return "answered no, expected yes"
            return checks.path_problem(0, target, t, h, c, w, dist, alpha,
                                       path)
        return check


WORKLOADS = {
    "spt_flow": _LibraryTrees(SPT_FLOW_ROUNDS, "cc_spt"),
    "min_spt": _LibraryTrees(MIN_SPT_ROUNDS, "min_cc_spt"),
    "cli_text": _CliText(),
    "cc_sp": _CcSp(),
}

