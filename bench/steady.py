"""Run the benchmark over several seeds and report medians and spreads.

    python3 bench/steady.py [--runs N] [--save FILE] [--against FILE]

For every workload of BENCHMARK.json this runs bench/run.py --trace 0
once per seed (1..N), with the run length from BENCHMARK.json, and
prints each end-to-end metric by name and unit with its median,
quartiles and the spread (q3 - q1) / median next to the metric's bound. Every run applies
the output checks; failed ops are reported. With --runs 1 this is the
one command that prints every end-to-end metric for every workload.

Then it makes two traced runs with the same seed and checks that the
exact counters are identical between them. --save writes the collected
values; --against compares the medians with a saved earlier set and
fails a metric that got worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Counts that later changes may cite as counts: they must repeat exactly.
EXACT_COUNTERS = (
    "core.ratio_analysis_per_row",
    "dynamics.income_calls_per_step",
    "dynamics.rkf45_rejected",
    "numerics.evals_per_call",
    "scenario.valid_ratio",
)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worse(metric: dict, old: float, new: float) -> float:
    """Relative change of new against old, positive when new is worse."""
    change = (new - old) / old
    return -change if metric["better"] == "higher" else change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--save", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = range(1, 1 + args.runs)
    earlier = json.loads(args.against.read_text()) if args.against else {}
    collected: dict[str, dict[str, list[float]]] = {}
    ok = True
    for workload in workloads:
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        failed = attempted = 0
        for seed in seeds:
            result = run(workload, seed, spec["run_seconds"], 0)
            failed += result["failed"]
            attempted += result["attempted"]
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        collected[workload] = values
        print(f"== {workload}: {len(seeds)} runs, {attempted} ops, {failed} failed")
        ok &= failed == 0
        for metric in spec["end_to_end"]:
            name, xs = metric["name"], values[metric["name"]]
            if len(xs) != len(seeds):
                print(f"  {name}: reported by {len(xs)} of {len(seeds)} runs")
                ok = False
                continue
            median = statistics.median(xs)
            line = f"  {name:14s} {median:12.6g} {metric['unit']:5s}"
            if len(xs) >= 2:
                q1, _, q3 = statistics.quantiles(xs, n=4)
                spread = (q3 - q1) / median
                steady = spread < metric["bound"] / 3
                line += (f" q1 {q1:.6g} q3 {q3:.6g} spread {spread:.3f}"
                         f" bound {metric['bound']} {'ok' if steady else 'WIDE'}")
                ok &= spread <= metric["bound"]
            if workload in earlier:
                change = worse(metric, statistics.median(earlier[workload][name]), median)
                line += f" vs earlier {change:+.3f}"
                ok &= change <= metric["bound"]
            print(line)
    if args.save:
        args.save.write_text(json.dumps(collected, indent=1) + "\n", encoding="utf-8")
    first, second = (run(workloads[0], 1, spec["run_seconds"], 1) for _ in range(2))
    for name in EXACT_COUNTERS:
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        print(f"  {name:34s} {a!r:>12} {b!r:>12} {'same' if a == b else 'DIFFERENT'}")
        ok &= a == b
    ok &= first["correct"] and second["correct"]
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
