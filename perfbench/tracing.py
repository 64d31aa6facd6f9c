"""Spans around the calls into ccgraph's layers, observed from outside.

`Tracer.install` replaces every public function of the layer modules,
under its name in every ccgraph module namespace that binds it, with a
wrapper that records a span: name, start, end, parent span and answer
id. `sssp`, for one, is bound in `spg`, `pipeline` and `constrained_path`,
so its calls are seen wherever they are made, and nested calls give self
times. Spans stay in memory until the run writes them out. A layer
function that the program no longer has is reported as absent.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter_ns
from types import FunctionType

LAYERS = ("spg", "flow", "arborescence", "pipeline", "constrained_path",
          "instance_io", "graph", "cli")

# Sizes and counters read from what a layer function returns.
EXTRACT = {
    "spg.sssp": lambda args, res: {"m": args[0].m},
    "spg.build_spg": lambda args, res: {"tight_edges": res.edge_count},
    "flow.build_arb_network": lambda args, res: {
        "nodes": res.num_nodes, "arcs": res.num_arcs},
    "flow.dinitz_max_flow": lambda args, res: {
        "phases": res.phases_executed, "advances": res.advances,
        "augments": res.augments},
    "flow.min_cost_max_flow": lambda args, res: {"augments": res.augments},
}

# Functions the per-layer metrics are read from.
MEASURED = ("spg.sssp", "spg.build_spg", "flow.build_arb_network",
            "flow.dinitz_max_flow", "flow.min_cost_max_flow",
            "arborescence.verify_arborescence", "pipeline.cc_spt",
            "pipeline.min_cc_spt", "pipeline.verify_spt",
            "constrained_path.cc_sp_decide", "instance_io.parse_instance",
            "graph.validate", "cli.run")

ROOT = "answer"
CHECK = "pipeline.verify_spt"

# name -> unit; the order is the order of BENCHMARK.json's per_layer list.
METRIC_UNITS = {
    "spg.sssp_ms": "ms",
    "spg.sssp_ns_per_edge": "ns/edge",
    "spg.sssp_check_ms": "ms",
    "spg.sssp_calls": "count",
    "spg.build_spg_ms": "ms",
    "spg.tight_edges": "count",
    "flow.build_network_ms": "ms",
    "flow.network_nodes": "count",
    "flow.network_arcs": "count",
    "flow.max_flow_ms": "ms",
    "flow.phases": "count",
    "flow.advances": "count",
    "flow.augments": "count",
    "flow.min_cost_flow_ms": "ms",
    "flow.min_cost_augments": "count",
    "arborescence.solve_self_ms": "ms",
    "arborescence.verify_arborescence_ms": "ms",
    "pipeline.solve_self_ms": "ms",
    "pipeline.verify_spt_self_ms": "ms",
    "pipeline.check_share": "ratio",
    "constrained_path.decide_self_ms": "ms",
    "instance_io.parse_ms": "ms",
    "graph.validate_ms": "ms",
    "cli.run_self_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Records spans for the answers made while it is installed."""

    def __init__(self, package):
        self.spans: list[list] = []   # [name, start, end, parent, answer, attrs]
        self.stack: list[int | None] = [None]
        self.answer_id: int | None = None
        self.bindings = []            # (module, attribute, original, wrapper)
        wrappers: dict[int, FunctionType] = {}
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        for module in modules:
            for attr, value in vars(module).items():
                if (attr.startswith("_") or not isinstance(value, FunctionType)
                        or value.__module__.rpartition(".")[2] not in LAYERS):
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(value)
                self.bindings.append((module, attr, value,
                                      wrappers[id(value)]))
        names = {w.span_name for w in wrappers.values()}
        self.absent = [f for f in MEASURED if f not in names]

    def _wrap(self, fn: FunctionType) -> FunctionType:
        name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
        extract = EXTRACT.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1], self.answer_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
            if extract is not None:
                rec[5] = extract(args, result)
            return result
        traced.span_name = name
        return traced

    def install(self) -> None:
        for module, attr, _, wrapper in self.bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self.bindings:
            setattr(module, attr, original)

    def answer(self, answer_id: int, call, attrs: dict):
        """Make one answer under a root span; returns its result. The
        wrappers must be installed around it."""
        self.answer_id = answer_id
        rec = [ROOT, 0, 0, None, answer_id, attrs]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter_ns()
        try:
            return call()
        finally:
            rec[2] = perf_counter_ns()
            self.stack.pop()
            self.answer_id = None

    def write(self, path) -> None:
        with open(path, "w") as f:
            f.write(json.dumps({"absent": self.absent}) + "\n")
            for i, (name, start, end, parent, answer, attrs) in enumerate(
                    self.spans):
                f.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                    "end_ns": end, "parent": parent,
                                    "answer": answer, **(attrs or {})})
                        + "\n")


def self_times(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def property_problem(spans, walls: dict[int, int], tolerance: float = 0.03,
                     outside_layers: float = 0.02) -> str | None:
    """None when every traced answer passes, else what is wrong.

    Children must lie inside their parents and no self time may be
    negative. The self times of one answer's spans must add up to the wall
    time measured around that answer, within `tolerance`. The root span's
    own self time, spent in no layer function, must stay below
    `outside_layers` of the answer: a layer call that escapes the wrappers
    (say, through a reference bound before they were installed) lands
    there.
    """
    own = self_times(spans)
    total: dict[int, int] = {}
    for i, (name, start, end, parent, answer, _) in enumerate(spans):
        if parent is not None:
            _, pstart, pend, _, panswer, _ = spans[parent]
            if not (pstart <= start <= end <= pend) or panswer != answer:
                return f"span {i} lies outside its parent span {parent}"
        if own[i] < 0:
            return f"span {i} has negative self time"
        if name == ROOT and own[i] > max(outside_layers * (end - start),
                                         20_000):
            return (f"answer {answer}: {own[i]} ns of {end - start} ns "
                    f"spent outside every layer function")
        total[answer] = total.get(answer, 0) + own[i]
    for answer, wall in walls.items():
        got = total.get(answer, 0)
        if abs(got - wall) > max(tolerance * wall, 20_000):
            return (f"answer {answer}: span self times add up to {got} ns, "
                    f"wall time is {wall} ns")
    return None


def layer_metrics(spans, untraced_ns: int, traced_ns: int) -> dict:
    """Per-answer means of the per-layer metrics over the traced answers.

    spg.sssp_ms and spg.sssp_ns_per_edge count the sssp calls made outside
    the self-check, spg.sssp_check_ms the ones inside verify_spt. The
    instance_io, graph and cli figures are self times. A layer that is
    not called reads 0.
    """
    own = self_times(spans)
    in_check = [False] * len(spans)
    self_ns: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    counts: dict[str, int] = {}
    answers = 0
    answer_ns = 0
    for i, (name, start, end, parent, _, attrs) in enumerate(spans):
        if parent is not None:
            in_check[i] = in_check[parent] or spans[parent][0] == CHECK
        if name == ROOT:
            answers += 1
            answer_ns += end - start
            continue
        key = name
        if name == "spg.sssp":
            key = "spg.sssp@check" if in_check[i] else "spg.sssp"
            counts["sssp_calls"] = counts.get("sssp_calls", 0) + 1
            if not in_check[i]:
                counts["sssp_m"] = (counts.get("sssp_m", 0)
                                    + (attrs or {}).get("m", 0))
        self_ns[key] = self_ns.get(key, 0) + own[i]
        total_ns[key] = total_ns.get(key, 0) + end - start
        for field, value in (attrs or {}).items():
            if field != "m":
                ck = f"{name}.{field}"
                counts[ck] = counts.get(ck, 0) + value
    if answers == 0:
        raise ValueError("no traced answers")

    def ms(*names):
        return sum(self_ns.get(n, 0) for n in names) / answers / 1e6

    def mean(key):
        return counts.get(key, 0) / answers

    solve = [n for n in self_ns
             if n.startswith("arborescence.")
             and n != "arborescence.verify_arborescence"]
    out = {
        "spg.sssp_ms": ms("spg.sssp"),
        "spg.sssp_ns_per_edge": (self_ns.get("spg.sssp", 0)
                                 / counts["sssp_m"]
                                 if counts.get("sssp_m") else 0.0),
        "spg.sssp_check_ms": ms("spg.sssp@check"),
        "spg.sssp_calls": mean("sssp_calls"),
        "spg.build_spg_ms": ms("spg.build_spg"),
        "spg.tight_edges": mean("spg.build_spg.tight_edges"),
        "flow.build_network_ms": ms("flow.build_arb_network"),
        "flow.network_nodes": mean("flow.build_arb_network.nodes"),
        "flow.network_arcs": mean("flow.build_arb_network.arcs"),
        "flow.max_flow_ms": ms("flow.dinitz_max_flow"),
        "flow.phases": mean("flow.dinitz_max_flow.phases"),
        "flow.advances": mean("flow.dinitz_max_flow.advances"),
        "flow.augments": mean("flow.dinitz_max_flow.augments"),
        "flow.min_cost_flow_ms": ms("flow.min_cost_max_flow"),
        "flow.min_cost_augments": mean("flow.min_cost_max_flow.augments"),
        "arborescence.solve_self_ms": ms(*solve),
        "arborescence.verify_arborescence_ms": ms(
            "arborescence.verify_arborescence"),
        "pipeline.solve_self_ms": ms("pipeline.cc_spt", "pipeline.min_cc_spt"),
        "pipeline.verify_spt_self_ms": ms(CHECK),
        "pipeline.check_share": total_ns.get(CHECK, 0) / answer_ns,
        "constrained_path.decide_self_ms": ms(
            "constrained_path.cc_sp_decide"),
        "instance_io.parse_ms": ms("instance_io.parse_instance"),
        "graph.validate_ms": ms("graph.validate"),
        "cli.run_self_ms": ms("cli.run"),
        "trace.overhead_ratio": traced_ns / untraced_ns,
    }
    assert list(out) == list(METRIC_UNITS)
    return out

