"""Command-line front end.

Exit codes: 0 for a feasible answer (or completed output), 1 for a clean
infeasible/no answer, 2 for input problems, 3 for internal failures,
including a solution of ours that fails its own verifier.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import deque
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from .arborescence import Arborescence, solve_cc_arb, verify_arborescence
from .constrained_path import CcSpInstance, VccSpInstance, cc_to_vcc, \
    cc_sp_decide, vcc_to_cc
from .errors import CCGraphError
from .graph import ColoredDigraph, ColorConstraint, restrict_to
from .instance_io import (format_instance, format_vcc_instance,
                          parse_instance, parse_vcc_instance)
from .pipeline import at_least_transform, cc_spt, min_cc_spt, verify_spt
from .spg import SpgGraph
from .testkit import (gen_hamiltonian_gadget, gen_random_dag,
                      gen_random_digraph,
                      gen_random_positive_cycle_digraph)


def _read_file(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _resolve_vertex(token: str, names: dict[str, int], n: int,
                    what: str) -> int:
    if token in names:
        return names[token]
    try:
        v = int(token)
    except ValueError:
        raise ValueError(f"unknown {what} {token!r}") from None
    if not (0 <= v < n):
        raise ValueError(f"{what} {v} out of range")
    return v


def _parse_alpha(text: str) -> ColorConstraint:
    try:
        values = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"bad budget list {text!r}") from None
    return ColorConstraint(values)


def _parse_weight_range(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("weight range must be 'lo,hi'")
    return int(parts[0]), int(parts[1])


def _alpha_str(alpha) -> str:
    return ",".join(str(a) for a in alpha)


def _reachable_from(g: ColoredDigraph, s: int) -> list[int]:
    out_ids = g.out_edge_ids()
    heads = g.heads.tolist()
    seen = [False] * g.n
    seen[s] = True
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for e in out_ids[u]:
            h = heads[e]
            if not seen[h]:
                seen[h] = True
                queue.append(h)
    return [v for v in range(g.n) if seen[v]]


def _edge_fields(g: ColoredDigraph, edges) -> list[tuple[int, int, int, int]]:
    """(tail, head, color, weight) of each listed edge, as Python ints."""
    return list(zip(*(col[edges].tolist() for col in g.columns())))


_TREE_ROW = ('{"vertex": %d, "parent": %d, "edge": %d, "color": %d, '
             '"weight": %d}')
_DISTANCE_ROW = '{"vertex": %d, "distance": %d}'


def _emit_tree(args, out, g, tree, *, command, solver, stats,
               distances=None, spg_edges=None, back=None) -> int:
    vertices, edges = tree.vertices.tolist(), tree.edges
    t, _, c, w = g.columns()
    parents, colors, weights = (col[edges].tolist() for col in (t, c, w))
    if back:
        vertices = [back[v] for v in vertices]
        parents = [back[p] for p in parents]
    if args.json:
        rows = zip(vertices, parents, edges.tolist(), colors, weights)
        # (key, value as JSON) in the order and spacing of json.dumps
        fields = [("command", json.dumps(command)), ("feasible", "true"),
                  ("total_weight", json.dumps(tree.total_weight)),
                  ("color_counts", json.dumps(list(tree.color_counts))),
                  ("tree", _json_list(_TREE_ROW, rows)),
                  ("solver", json.dumps(solver))]
        if distances is not None:
            at = np.flatnonzero(distances.reached).tolist()
            if back:
                at = [back[v] for v in at]
            fields.append(("distances", _json_list(_DISTANCE_ROW, zip(
                at, distances.values[distances.reached].tolist()))))
        if spg_edges is not None:
            fields.append(("tight_edges", json.dumps(spg_edges)))
        fields.append(("stats", json.dumps({
            "flow_value": stats.value, "phases": stats.phases_executed,
            "advances": stats.advances, "retreats": stats.retreats,
            "augments": stats.augments})))
        if back is not None:
            fields.append(("restricted_to", json.dumps(len(back))))
        out.write("{" + ", ".join(f'"{k}": {v}' for k, v in fields)
                  + "}\n")
    else:
        out.write("".join(map("t %d %d %d %d\n".__mod__, zip(
            vertices, parents, colors, weights))))
        counts = " ".join(str(c) for c in tree.color_counts)
        out.write(f"s summary yes {tree.total_weight} {counts}\n")
    return 0


def _json_list(template: str, rows) -> str:
    """A JSON list of the objects `template % row` for each row."""
    return "[" + ", ".join(map(template.__mod__, rows)) + "]"


def _emit_no(args, out, command) -> int:
    if args.json:
        out.write(json.dumps({"command": command, "feasible": False}) + "\n")
    else:
        out.write("s summary no\n")
    return 1


def _cmd_spt(args, out, err, minimize: bool) -> int:
    g, names = parse_instance(_read_file(args.file))
    source = _resolve_vertex(args.source, names, g.n, "source")
    alpha = _parse_alpha(args.alpha)
    back = None
    if args.restrict_reachable:
        keep = _reachable_from(g, source)
        g, back = restrict_to(g, keep)
        source = back.index(source)
    command = "min-cc-spt" if minimize else "cc-spt"
    solve = min_cc_spt if minimize else cc_spt
    result = solve(g, source, alpha)
    if result is None:
        return _emit_no(args, out, command)
    if args.verify:
        bad = verify_spt(g, source, result, alpha)
        if bad:
            for v in bad:
                err.write(f"verification: {v.kind}: {v.message}\n")
            return 3
    return _emit_tree(args, out, g, result.tree, command=command,
                      distances=result.distances,
                      spg_edges=result.spg_edge_count,
                      solver=result.solver_used, stats=result.phase_stats,
                      back=back)


def _cmd_arb(args, out, err, minimize: bool) -> int:
    g, names = parse_instance(_read_file(args.file))
    root = _resolve_vertex(args.source, names, g.n, "source")
    alpha = _parse_alpha(args.alpha)
    spg = SpgGraph.from_dag(g, root)
    command = "min-cc-arb" if minimize else "cc-arb"
    tree, stats = solve_cc_arb(spg, alpha, minimize=minimize)
    if tree is None:
        return _emit_no(args, out, command)
    if args.verify:
        bad = verify_arborescence(g, root, tree, alpha)
        if bad:
            for v in bad:
                err.write(f"verification: {v.kind}: {v.message}\n")
            return 3
    return _emit_tree(args, out, g, tree, command=command, solver="flow",
                      stats=stats)


def _cmd_cc_sp(args, out, err) -> int:
    g, names = parse_instance(_read_file(args.file))
    s = _resolve_vertex(args.source, names, g.n, "source")
    t = _resolve_vertex(args.target, names, g.n, "target")
    alpha = _parse_alpha(args.alpha)
    inst = CcSpInstance(graph=g, source=s, target=t, alpha=alpha)
    path = cc_sp_decide(inst)
    if path is None:
        return _emit_no(args, out, "cc-sp")
    fields = _edge_fields(g, path)
    total = sum(w for _, _, _, w in fields)
    if args.json:
        out.write(json.dumps({"command": "cc-sp", "feasible": True,
                              "path": [int(e) for e in path],
                              "total_weight": total}) + "\n")
    else:
        for e, (tail, head, color, weight) in zip(path, fields):
            out.write(f"e {e} {tail} {head} {color} {weight}\n")
        out.write(f"s summary yes {total}\n")
    return 0


def _cmd_reduce(args, out, err) -> int:
    text = _read_file(args.file)
    alpha = _parse_alpha(args.alpha)
    if args.direction == "vcc-to-cc":
        v, names = parse_vcc_instance(text)
        s = _resolve_vertex(args.source, names, v.n, "source")
        t = _resolve_vertex(args.target, names, v.n, "target")
        inst = VccSpInstance(graph=v, source=s, target=t, alpha=alpha)
        image, _ = vcc_to_cc(inst)
        out.write(format_instance(
            image.graph,
            comments=(f"source {image.source} target {image.target} "
                      f"alpha {_alpha_str(image.alpha)}",)))
    else:
        g, names = parse_instance(text)
        s = _resolve_vertex(args.source, names, g.n, "source")
        t = _resolve_vertex(args.target, names, g.n, "target")
        inst = CcSpInstance(graph=g, source=s, target=t, alpha=alpha)
        image, _ = cc_to_vcc(inst)
        out.write(format_vcc_instance(
            image.graph,
            comments=(f"source {image.source} target {image.target} "
                      f"alpha {_alpha_str(image.alpha)}",)))
    return 0


def _cmd_transform(args, out, err) -> int:
    g, _ = parse_instance(_read_file(args.file))
    lower = _parse_alpha(args.alpha)
    padded, upper = at_least_transform(g, lower)
    out.write(format_instance(
        padded, comments=(f"alpha {_alpha_str(upper)}",)))
    return 0


def _cmd_gen(args, out, err) -> int:
    if args.n < 1:
        raise ValueError(f"-n must be at least 1, got {args.n}")
    if args.kind in ("dag", "poscycle"):
        if args.q < 1:
            raise ValueError(f"-q must be at least 1, got {args.q}")
        lo, hi = _parse_weight_range(args.weights)
        if lo > hi:
            raise ValueError(f"--weights needs lo <= hi, got {lo},{hi}")
        gen = (gen_random_dag if args.kind == "dag"
               else gen_random_positive_cycle_digraph)
        g = gen(args.n, args.q, args.density, args.seed, (lo, hi))
        comments = (f"seed {args.seed}",)
    else:
        base = gen_random_digraph(args.n, args.density, args.seed)
        g, s, alpha = gen_hamiltonian_gadget(base)
        comments = (f"seed {args.seed}", f"source {s}",
                    f"alpha {_alpha_str(alpha)}")
    out.write(format_instance(g, comments=comments))
    return 0


def _parse_tree_file(text: str, g: ColoredDigraph, root: int
                     ) -> tuple[Arborescence | None, str | None]:
    """The stated tree, or None and the first problem as "kind: message"."""
    parent: dict[int, int] = {}
    stated_total = None
    stated_counts = None
    in_ids = g.in_edge_ids()
    tails, _, colors, weights = (col.tolist() for col in g.columns())
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "t":
            if len(parts) != 5:
                return None, f"missing_edge: bad tree line {line!r}"
            v, p, color, weight = (int(x) for x in parts[1:])
            if not (0 <= v < g.n):
                return None, f"missing_edge: vertex {v} out of range"
            if v in parent:
                return None, (f"duplicate_vertex: vertex {v} has more than "
                              "one tree line")
            found = -1
            for e in in_ids[v]:
                if (tails[e] == p and colors[e] == color
                        and weights[e] == weight):
                    found = e
                    break
            if found < 0:
                return None, (f"missing_edge: no edge {p}->{v} with color "
                              f"{color} and weight {weight}")
            parent[v] = found
        elif parts[0] == "s" and len(parts) >= 4 and parts[2] == "yes":
            stated_total = int(parts[3])
            stated_counts = tuple(int(x) for x in parts[4:])
    if stated_total is None:
        counts = [0] * g.q
        total = 0
        for e in parent.values():
            counts[colors[e] - 1] += 1
            total += weights[e]
        stated_total = total
        stated_counts = tuple(counts)
    return Arborescence(root=root, parent_edge=parent,
                        color_counts=stated_counts,
                        total_weight=stated_total), None


def _cmd_verify(args, out, err) -> int:
    g, names = parse_instance(_read_file(args.file))
    root = _resolve_vertex(args.source, names, g.n, "source")
    alpha = _parse_alpha(args.alpha)
    tree, problem = _parse_tree_file(_read_file(args.tree), g, root)
    if tree is None:
        out.write(f"violation: {problem}\n")
        return 1
    if args.mode == "arb":
        bad = verify_arborescence(g, root, tree, alpha)
    else:
        bad = verify_spt(g, root, tree, alpha)
    for v in bad:
        out.write(f"violation: {v.kind}: {v.message}\n")
    if not bad:
        out.write("ok\n")
    return 1 if bad else 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ccgraph",
        description="Shortest path trees and arborescences under "
                    "per-color edge budgets.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, *, target=False, verify=False, restrict=False,
               with_json=True):
        p.add_argument("--source", "-s", required=True,
                       help="source vertex id or name")
        if target:
            p.add_argument("--target", "-t", required=True,
                           help="target vertex id or name")
        p.add_argument("--alpha", "-a", required=True,
                       help="comma-separated per-color budgets")
        if verify:
            p.add_argument("--verify", action="store_true",
                           help="re-check the answer before printing")
        if restrict:
            p.add_argument("--restrict-reachable", action="store_true",
                           help="drop vertices unreachable from the source")
        if with_json:
            p.add_argument("--json", action="store_true")
        p.add_argument("file", help="instance file, or - for stdin")

    p = sub.add_parser("cc-spt", help="budget-feasible shortest path tree")
    common(p, verify=True, restrict=True)
    p.set_defaults(func=lambda a, o, e: _cmd_spt(a, o, e, False))

    p = sub.add_parser("min-cc-spt",
                       help="minimum-weight budget-feasible shortest "
                            "path tree")
    common(p, verify=True, restrict=True)
    p.set_defaults(func=lambda a, o, e: _cmd_spt(a, o, e, True))

    p = sub.add_parser("cc-arb",
                       help="budgeted arborescence of an acyclic instance")
    common(p, verify=True)
    p.set_defaults(func=lambda a, o, e: _cmd_arb(a, o, e, False))

    p = sub.add_parser("min-cc-arb",
                       help="minimum-weight budgeted arborescence of an "
                            "acyclic instance")
    common(p, verify=True)
    p.set_defaults(func=lambda a, o, e: _cmd_arb(a, o, e, True))

    p = sub.add_parser("cc-sp",
                       help="is some shortest s-t path within budget?")
    common(p, target=True)
    p.set_defaults(func=_cmd_cc_sp)

    p = sub.add_parser("reduce",
                       help="translate between edge- and vertex-colored "
                            "instances")
    p.add_argument("direction", choices=("vcc-to-cc", "cc-to-vcc"))
    common(p, target=True, with_json=False)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("transform",
                       help="turn lower color bounds into upper budgets")
    p.add_argument("kind", choices=("at-least",))
    p.add_argument("--alpha", "-a", required=True,
                   help="comma-separated per-color lower bounds")
    p.add_argument("file")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("kind", choices=("dag", "poscycle", "hamiltonian"))
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-q", type=int, default=2)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weights", default="1,10",
                   help="weight range LO,HI for dag and poscycle; write "
                        "--weights=LO,HI when LO is negative")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="check a tree file against an "
                                      "instance")
    p.add_argument("mode", choices=("arb", "spt"))
    p.add_argument("--source", "-s", required=True)
    p.add_argument("--alpha", "-a", required=True)
    p.add_argument("--tree", required=True, help="tree file to check")
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify)

    return top


def run(argv, stdout=None, stderr=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    # argparse prints usage, errors and --help to sys.stdout/sys.stderr
    with redirect_stdout(out), redirect_stderr(err):
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args, out, err)
    except (CCGraphError, ValueError, OSError) as exc:
        err.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # pragma: no cover - safety net
        err.write(f"internal error: {exc!r}\n")
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))
