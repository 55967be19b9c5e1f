"""wbdyn benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 bench/run.py --workload {sweep,trajectory,library} --seed N
                         --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src. The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 it holds the end-to-end metrics of
the workload, measured with tracing off; with --trace 1 the per-layer
metrics of a traced in-process run (see layers.py). WORKLOADS.md says
why each workload exists and which layer metric should move which
end-to-end metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

import checks
import inputs
from common import (BENCH, IMPORT_CLI, PYTHON, SRC, WBDYN, WORK, load_doc, simulate_argv,
                    spawn, sweep_argv, warm_up)

# Fresh interpreters timed for setup_s, this many before the timed ops
# and as many after them; the median of all is reported. Single starts
# vary by +-30% on a shared host, so it takes this many for a steady median.
SETUP_SAMPLES = 20
# Each end-to-end metric: name -> unit. Every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "rows_per_s": "1/s",
    "items_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mib": "MiB",
}


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with 10 samples beyond it."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    k = len(ordered) - 11
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def measure_setup(work: Path) -> list[float]:
    """Wall times of fresh interpreters importing wellbeing_dynamics.cli."""
    out, err = work / "setup.out", work / "setup.err"
    walls = []
    for _ in range(SETUP_SAMPLES):
        wall, _, code = spawn(IMPORT_CLI, out, err)
        if code != 0:
            raise SystemExit(f"importing wellbeing_dynamics.cli failed: {err.read_text()}")
        walls.append(wall)
    return walls


class Ops:
    """Per-op outcomes of one run and the end-to-end metrics they give."""

    def __init__(self) -> None:
        self.walls: list[float] = []
        self.rss: list[float] = []
        self.rows = 0
        self.failures: list[str] = []

    def add(self, wall: float, rss: float, rows: int, failure: str | None) -> None:
        self.walls.append(wall)
        self.rss.append(rss)
        if failure is None:
            self.rows += rows
        else:
            self.failures.append(failure)

    def result(self, setup: list[float]) -> dict:
        busy = sum(self.walls)
        values = {
            "setup_s": statistics.median(setup),
            "rows_per_s": self.rows / busy,
            "items_per_s": (len(self.walls) - len(self.failures)) / busy,
            "op_p50_s": statistics.median(self.walls),
            "peak_rss_mib": max(self.rss),
        }
        tail_at = tail(self.walls)
        if tail_at is not None:
            values["op_tail_s"] = tail_at[1]
            print(f"op_tail_s is p{tail_at[0]:.1f} of {len(self.walls)} ops")
        for reason in self.failures[:5]:
            print(f"failed op: {reason}")
        return {
            "correct": not self.failures,
            "attempted": len(self.walls),
            "failed": len(self.failures),
            "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()},
        }


def run_sweep(seed: int, work: Path, seconds: float) -> dict:
    """Sequential `wbdyn sweep` invocations over whole six-grid cycles."""
    cycle = inputs.sweep_inputs(seed, work)
    docs = {op.scenario: load_doc(op.scenario) for op in cycle}
    setup = measure_setup(work)
    table, out, err = work / "table.csv", work / "stdout", work / "stderr"
    digests: dict[int, str] = {}
    ops = Ops()
    start = time.perf_counter()
    while True:
        for i, op in enumerate(cycle):
            wall, rss, code = spawn(WBDYN + sweep_argv(op, table), out, err)
            data = table.read_bytes() if code == 0 else b""
            failure = f"sweep exited with {code}: {err.read_text()[-300:]}" if code else None
            if failure is None:
                digest = hashlib.sha256(data).hexdigest()
                if digests.setdefault(i, digest) != digest:
                    failure = f"repeat of sweep grid {i} is not byte-identical"
                else:
                    failure = checks.check_sweep(op, docs[op.scenario], data.decode(),
                                                 err.read_text())
            ops.add(wall, rss, data.count(b"\n") - 1 - data.count(b"\n#"), failure)
        if time.perf_counter() - start >= seconds:
            break
    return ops.result(setup + measure_setup(work))


def run_trajectory(seed: int, work: Path, seconds: float) -> dict:
    """Sequential `wbdyn simulate` invocations over whole three-op cycles."""
    cycle = inputs.trajectory_inputs(seed, work)
    setup = measure_setup(work)
    table, out, err = work / "table.csv", work / "stdout", work / "stderr"
    ops = Ops()
    start = time.perf_counter()
    while True:
        for op in cycle:
            wall, rss, code = spawn(WBDYN + simulate_argv(op, table), out, err)
            if code:
                failure = f"simulate exited with {code}: {err.read_text()[-300:]}"
            else:
                failure = checks.check_simulate(op, load_doc(op.scenario),
                                                 table.read_text(), out.read_text())
            ops.add(wall, rss, op.rows, failure)
        if time.perf_counter() - start >= seconds:
            break
    return ops.result(setup + measure_setup(work))


def run_library(seed: int, work: Path, seconds: float) -> dict:
    """One child process runs library items 0, 1, 2, ... for the whole run."""
    setup = measure_setup(work)
    results = work / "library_results.json"
    argv = [PYTHON, str(BENCH / "library.py"), str(seed), str(work), repr(seconds), str(results)]
    _, rss, code = spawn(argv, work / "stdout", work / "stderr")
    if code:
        raise SystemExit(f"library child exited with {code}: "
                         f"{(work / 'stderr').read_text()[-500:]}")
    report = json.loads(results.read_text(encoding="utf-8"))
    ops = Ops()
    for index, row in enumerate(report["rows"]):
        if row["item"] != index:
            raise SystemExit(f"library row {index} ran item {row['item']}: items must not repeat")
        failure = checks.check_item(inputs.library_item(seed, index), row)
        # One result row per item; the child's peak RSS covers every item.
        ops.add(row["seconds"], rss, 1, failure)
    return ops.result(setup + measure_setup(work))


WORKLOADS = {"sweep": run_sweep, "trajectory": run_trajectory, "library": run_library}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wellbeing_dynamics" / "cli.py").is_file():
        print(f"error: no package sources under {SRC}", file=sys.stderr)
        return 2
    work = WORK
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        warm_up()
        if args.trace:
            import layers

            result = layers.traced_run(args.seed, work, BENCH / "_work" / "last_trace")
        else:
            result = WORKLOADS[args.workload](args.seed, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
