"""Regenerate the reference figures in perfbench/README.md.

    python3 perfbench/figures.py                           # every figure
    python3 perfbench/figures.py --seeds 2 --traced-seeds 1   # a quick pass

Runs every workload of BENCHMARK.json for its `run_seconds`, one process
at a time: a first set of untraced runs on seeds 1..N, then a second set
on seeds N..1, then traced runs on the `--traced-seeds`. Each seed thus
runs twice, apart in time and in opposite order, which separates the
run-to-run spread (two runs of one seed) from the spread across seeds.
Prints Markdown tables: per end-to-end metric, each set's median and
quartile spread, the second set's shift against the first, both spreads
and the bound in BENCHMARK.json; the per-layer metrics; and the share of
failed operations. Raw results go to perfbench/out/figures.json.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    measured = re.search(r"as measured, [^:]*: setup (\S+) s, answer p50 "
                         r"(\S+) ms, (\S+) edges/s", proc.stderr)
    if measured:
        result["as_measured"] = dict(zip(
            ("setup_s", "answer_ms_p50", "edges_per_s"),
            map(float, measured.groups())))
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace} gave wrong "
                         f"answers:\n{proc.stderr}")
    print(f"# {workload} seed {seed} trace {trace}: done", file=sys.stderr)
    return result


def iqr_share(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--traced-seeds", type=int, nargs="*", default=[1, 2])
    args = p.parse_args()

    seeds = list(range(1, args.seeds + 1))
    raw = {w: {} for w in names}
    for key, order in (("first", seeds), ("second", seeds[::-1])):
        for w in names:
            runs = {s: run_once(w, s, seconds, 0) for s in order}
            raw[w][key] = [runs[s] for s in seeds]
    for w in names:
        raw[w]["traced"] = [run_once(w, s, seconds, 1)
                            for s in args.traced_seeds]
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "figures.json").write_text(json.dumps(raw, indent=1))

    print(f"## End to end: seeds 1..{args.seeds}, then {args.seeds}..1, "
          f"{seconds} s each\n")
    print("| workload | metric | unit | median 1st | IQR/med 1st "
          "| median 2nd | IQR/med 2nd | 2nd worse by | same seed "
          "| across seeds | bound |")
    print("|---|---|---|---:|---:|---:|---:|---:|---:|---:|---:|")
    for w in names:
        for m in spec["end_to_end"]:
            name = m["name"]
            a = [r["metrics"][name]["value"] for r in raw[w]["first"]]
            b = [r["metrics"][name]["value"] for r in raw[w]["second"]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a
            if m["better"] == "higher":
                worse = -worse
            same = statistics.median(abs(x - y) / ((x + y) / 2)
                                     for x, y in zip(a, b))
            across = iqr_share([(x + y) / 2 for x, y in zip(a, b)])
            print(f"| {w} | {name} | {m['unit']} | {med_a:.4g} "
                  f"| {iqr_share(a):.3f} | {med_b:.4g} | {iqr_share(b):.3f} "
                  f"| {worse:+.3f} | {same:.3f} | {across:.3f} "
                  f"| {m['bound']} |")

    print("\n### The same runs as measured, before the host's speed is "
          "taken out\n")
    print("| workload | metric | IQR/med 1st | IQR/med 2nd | 2nd worse by "
          "| same seed |")
    print("|---|---|---:|---:|---:|---:|")
    for w in names:
        for name, better in (("setup_s", "lower"), ("answer_ms_p50", "lower"),
                             ("edges_per_s", "higher")):
            a = [r["as_measured"][name] for r in raw[w]["first"]]
            b = [r["as_measured"][name] for r in raw[w]["second"]]
            worse = (statistics.median(b) - statistics.median(a)) \
                / statistics.median(a)
            if better == "higher":
                worse = -worse
            same = statistics.median(abs(x - y) / ((x + y) / 2)
                                     for x, y in zip(a, b))
            print(f"| {w} | {name} | {iqr_share(a):.3f} | {iqr_share(b):.3f} "
                  f"| {worse:+.3f} | {same:.3f} |")

    print("\n| workload | failed/attempted |")
    print("|---|---|")
    for w in names:
        shares = sorted({f"{r['failed']}/{r['attempted']}"
                         for key in ("first", "second", "traced")
                         for r in raw[w][key]})
        print(f"| {w} | {', '.join(shares)} |")

    if args.traced_seeds:
        print(f"\n## Per layer: median of seeds {args.traced_seeds}, "
              "per-answer means\n")
        print("| metric | unit | " + " | ".join(names) + " |")
        print("|---|---|" + "---:|" * len(names))
        for m in spec["per_layer"]:
            cells = [statistics.median(r["metrics"][m["name"]]["value"]
                                       for r in raw[w]["traced"])
                     for w in names]
            print(f"| {m['name']} | {m['unit']} | "
                  + " | ".join(f"{v:.4g}" for v in cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
