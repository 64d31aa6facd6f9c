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
from pathlib import Path

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
    seen = [False] * g.n
    seen[s] = True
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for e in out_ids[u]:
            h = g.heads[e]
            if not seen[h]:
                seen[h] = True
                queue.append(h)
    return [v for v in range(g.n) if seen[v]]


def _tree_rows(g: ColoredDigraph, tree: Arborescence, back=None):
    rows = []
    for v in sorted(tree.parent_edge):
        e = tree.parent_edge[v]
        parent = g.tails[e]
        ov = back[v] if back else v
        op = back[parent] if back else parent
        rows.append({"vertex": int(ov), "parent": int(op), "edge": int(e),
                     "color": int(g.colors[e]), "weight": int(g.weights[e])})
    return rows


def _emit_tree(args, out, g, tree, *, command, distances=None,
               spg_edges=None, solver=None, stats=None, back=None) -> int:
    rows = _tree_rows(g, tree, back)
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
    tree, stats, solver = solve_cc_arb(spg, alpha, minimize=minimize)
    if tree is None:
        return _emit_no(args, out, command)
    if args.verify:
        bad = verify_arborescence(g, root, tree, alpha)
        if bad:
            for v in bad:
                err.write(f"verification: {v.kind}: {v.message}\n")
            return 3
    return _emit_tree(args, out, g, tree, command=command, solver=solver,
                      stats=stats)


def _cmd_cc_sp(args, out, err) -> int:
    g, names = parse_instance(_read_file(args.file))
    s = _resolve_vertex(args.source, names, g.n, "source")
    t = _resolve_vertex(args.target, names, g.n, "target")
    alpha = _parse_alpha(args.alpha)
    inst = CcSpInstance(graph=g, source=s, target=t, alpha=alpha)
    path = cc_sp_decide(inst)
    if path is None:
        if args.json:
            out.write(json.dumps({"command": "cc-sp", "feasible": False})
                      + "\n")
        else:
            out.write("s summary no\n")
        return 1
    total = sum(int(g.weights[e]) for e in path)
    if args.json:
        out.write(json.dumps({"command": "cc-sp", "feasible": True,
                              "path": [int(e) for e in path],
                              "total_weight": total}) + "\n")
    else:
        for e in path:
            out.write(f"e {e} {g.tails[e]} {g.heads[e]} {g.colors[e]} "
                      f"{g.weights[e]}\n")
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
    if args.kind == "dag":
        g = gen_random_dag(args.n, args.q, args.density, args.seed,
                           _parse_weight_range(args.weights))
        comments = (f"seed {args.seed}",)
    elif args.kind == "poscycle":
        g = gen_random_positive_cycle_digraph(
            args.n, args.q, args.density, args.seed,
            _parse_weight_range(args.weights))
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
    parent: dict[int, int] = {}
    stated_total = None
    stated_counts = None
    in_ids = g.in_edge_ids()
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "t":
            if len(parts) != 5:
                return None, f"bad tree line {line!r}"
            v, p, color, weight = (int(x) for x in parts[1:])
            if not (0 <= v < g.n):
                return None, f"vertex {v} out of range"
            found = -1
            for e in in_ids[v]:
                if (g.tails[e] == p and g.colors[e] == color
                        and g.weights[e] == weight):
                    found = e
                    break
            if found < 0:
                return None, (f"no edge {p}->{v} with color {color} "
                              f"and weight {weight}")
            parent[v] = found
        elif parts[0] == "s" and len(parts) >= 4 and parts[2] == "yes":
            stated_total = int(parts[3])
            stated_counts = tuple(int(x) for x in parts[4:])
    if stated_total is None:
        counts = [0] * g.q
        total = 0
        for e in parent.values():
            counts[g.colors[e] - 1] += 1
            total += g.weights[e]
        stated_total = int(total)
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
        out.write(f"violation: missing_edge: {problem}\n")
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

    def common(p, *, target=False, verify=False, restrict=False):
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
    common(p, target=True)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("transform",
                       help="turn lower color bounds into upper budgets")
    p.add_argument("kind", choices=("at-least",))
    p.add_argument("--alpha", "-a", required=True,
                   help="comma-separated per-color lower bounds")
    p.add_argument("--json", action="store_true")
    p.add_argument("file")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("kind", choices=("dag", "poscycle", "hamiltonian"))
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-q", type=int, default=2)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weights", default="1,10")
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
