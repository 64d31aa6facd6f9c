"""Benchmark of ccgraph's four answer paths, checked apart from the program.

    python3 perfbench/run.py --workload spt_flow --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; ccgraph is imported from its
`src/` directory. One process, one caller, one answer at a time (a closed
loop). The run answers whole rounds of its workload for about `--seconds`,
checks every answer against computations made apart from the
program (outside the timed region), and prints one JSON object as the last
line of standard output. With `--trace 0` it holds the end-to-end metrics;
with `--trace 1` every operation is answered once untraced and once traced,
and the object holds the per-layer metrics read from the traced answers'
spans. End-to-end times are reported at a nominal host speed, measured
with the probes of calibration.py; the times as measured go to standard
error with the rest of a readable summary. The reference data is computed
by plan.py in a child process that has ended before the first timed
answer.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 3
END_TO_END_UNITS = {"setup_s": "s", "answer_ms_p50": "ms",
                    "edges_per_s": "edges/s", "peak_rss_mb": "MB"}


def import_ccgraph():
    """ccgraph from this checkout's src/, never from anywhere else."""
    src = CHECKOUT / "src"
    if not (src / "ccgraph" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ccgraph sources under {src}")
    sys.path.insert(0, str(src))
    import ccgraph
    import ccgraph.cli
    import ccgraph.testkit
    if Path(ccgraph.__file__).resolve().parent != src / "ccgraph":
        sys.exit(f"perfbench: imported ccgraph from {ccgraph.__file__}, "
                 f"not from {src}")
    return ccgraph


class Run:
    """Timings and failures of one run's answers: `walls` as measured and
    `nominal` at the nominal host speed (see calibration.py)."""

    def __init__(self):
        self.walls: list[int] = []
        self.nominal: list[float] = []
        self.edges = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.check_s = 0.0

    def answer(self, op, call_timed):
        """Make one answer of `op` through `call_timed(call)`, which returns
        (result, wall_ns, nominal_ns or None); check it outside the timed
        region."""
        call = op.prepare()
        gc.collect()
        try:
            result, wall, nominal = call_timed(call)
        except Exception as exc:
            result, wall, nominal = None, None, None
            problem = f"raised {exc!r}"
        self.attempted += 1
        if wall is not None:
            t0 = time.perf_counter()
            problem = op.check(result)
            self.check_s += time.perf_counter() - t0
            self.walls.append(wall)
            if nominal is not None:
                self.nominal.append(nominal)
            self.edges += op.m
        if problem is not None:
            self.failed += 1
            if not op.known_fault:
                self.problems.append(f"{op.label}: {problem}")
        return wall


def plan_in_child(workload: str, seed: int, inputs, workdir: str):
    """The reference data of one round, computed by plan.py in a process
    of its own, so that scipy and the reference computations add nothing
    to this process's memory; the child has ended when this returns."""
    job = Path(workdir) / "plan-job.pickle"
    result = Path(workdir) / "plan-result.pickle"
    job.write_bytes(pickle.dumps((workload, seed, inputs)))
    subprocess.run([sys.executable, str(HERE / "plan.py"), str(job),
                    str(result)], check=True, timeout=150)
    return pickle.loads(result.read_bytes())


def timed_call(call):
    t0 = time.perf_counter_ns()
    result = call()
    return result, time.perf_counter_ns() - t0, None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("spt_flow", "min_spt", "cli_text", "cc_sp"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    cc = import_ccgraph()
    import_ns = (time.perf_counter() - START) * 1e9
    sys.path.insert(0, str(HERE))
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        # Set-up: generate the instances, write their files and make one
        # throwaway warm-up answer, several times over. The reference data
        # of the first generation is computed in between, in a planning
        # process of its own, and is not part of the set-up.
        # Each part is timed with the host's speed probed around and
        # during it (see calibration.py) and counted at the nominal speed;
        # the import has only the probes after it.
        speedometer = calibration.Speedometer()
        import_nominal = speedometer.after(import_ns)
        setups, raw_setups = [], []
        round_ops = None
        for _ in range(SETUP_REPEATS):
            inputs, spent, spent_nominal = speedometer.time(
                lambda: workload.generate(cc, args.seed, workdir))
            if round_ops is None:
                t_plan = time.perf_counter()
                refs = plan_in_child(args.workload, args.seed, inputs,
                                     workdir)
                round_ops = workload.ops(cc, inputs, refs)
                plan_s = time.perf_counter() - t_plan
            _, warm_up, warm_up_nominal = speedometer.time(
                lambda: round_ops[0][0].prepare()())
            setups.append(spent_nominal + warm_up_nominal)
            raw_setups.append(spent + warm_up)
        setup_s = (import_nominal + statistics.median(setups)) / 1e9
        raw_setup_s = (import_ns + statistics.median(raw_setups)) / 1e9
        # The benchmark's own objects (instances, reference data) would
        # make every collection slower than in a user's process; the
        # collector leaves them alone from here on.
        gc.collect()
        gc.freeze()

        run = Run()
        tracer = tracing.Tracer(cc) if args.trace else None
        untraced_ns = traced_ns = 0
        walls_by_answer: dict[int, int] = {}
        answer_ids = itertools.count()

        def traced_call(op, answer_id):
            def timed(call):
                tracer.install()
                try:
                    t0 = time.perf_counter_ns()
                    result = tracer.answer(answer_id, call,
                                           {"op": op.label, "m": op.m})
                    wall = time.perf_counter_ns() - t0
                finally:
                    tracer.uninstall()
                walls_by_answer[answer_id] = wall
                return result, wall, None
            return timed

        # Whole rounds only, taken in turn, so every run answers the same
        # mix; a round starts while at least half of one still fits in
        # `--seconds`.
        begin = time.perf_counter()
        rounds = 0
        while rounds == 0 or (time.perf_counter() - begin) * (
                1 + 0.5 / rounds) < args.seconds:
            ops = round_ops[rounds % len(round_ops)]
            for i, op in enumerate(ops):
                if tracer is None:
                    run.answer(op, speedometer.time)
                    continue
                # Each operation once untraced and once traced; which goes
                # first alternates, since the second answer of a pair finds
                # the allocator and caches warm.
                walls = {}
                for traced in ((False, True) if (rounds + i) % 2 == 0
                               else (True, False)):
                    walls[traced] = run.answer(
                        op, traced_call(op, next(answer_ids))
                        if traced else timed_call)
                if None not in walls.values():
                    untraced_ns += walls[False]
                    traced_ns += walls[True]
            rounds += 1
        loop_s = time.perf_counter() - begin
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        if "scipy" in sys.modules:
            sys.exit("perfbench: scipy was imported into the measured "
                     "process")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not run.walls:
        sys.exit("perfbench: no answer completed: "
                 + "; ".join(run.problems[:3]))
    if tracer is None:
        values = {
            "setup_s": setup_s,
            "answer_ms_p50": statistics.median(run.nominal) / 1e6,
            "edges_per_s": run.edges / (sum(run.nominal) / 1e9),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
        print(f"as measured, before taking out the host's speed: setup "
              f"{raw_setup_s:.4f} s, answer p50 "
              f"{statistics.median(run.walls) / 1e6:.4f} ms, "
              f"{run.edges / (sum(run.walls) / 1e9):.1f} edges/s",
              file=sys.stderr)
    else:
        problem = tracing.property_problem(tracer.spans, walls_by_answer)
        if problem:
            run.problems.append(f"trace property check: {problem}")
        values = tracing.layer_metrics(tracer.spans, untraced_ns, traced_ns)
        units = tracing.METRIC_UNITS
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_path)
        if tracer.absent:
            print("trace: absent from the program: "
                  + ", ".join(tracer.absent), file=sys.stderr)
        print(f"trace: {len(tracer.spans)} spans written to {spans_path}",
              file=sys.stderr)

    print(f"{args.workload} seed {args.seed}: {rounds} rounds, "
          f"{run.attempted} attempted, {run.failed} failed; reference "
          f"{plan_s:.2f} s, checks {run.check_s:.2f} s, timed loop "
          f"{loop_s:.2f} s", file=sys.stderr)
    for name, value in values.items():
        print(f"  {name:40s} {value:14.4f} {units[name]}", file=sys.stderr)
    for problem in run.problems[:10]:
        print(f"  WRONG: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
