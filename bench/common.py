"""Paths and child-process handling shared by the benchmark's modules."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from inputs import SimulateOp, SweepOp

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PYTHON = sys.executable
# Scratch directory of this run; run.py creates it and removes it.
WORK = BENCH / "_work" / f"run-{os.getpid()}"
# Children import the package from this checkout's sources only. Their
# bytecode lives in a cache of this run's own, which warm_up() fills
# before anything is timed: every timed start then reads warm bytecode,
# as an installed package does, whatever __pycache__ directories or
# PYTHONDONTWRITEBYTECODE the caller's environment has.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
CHILD_ENV.update(PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(WORK / "pycache"))
WBDYN = [PYTHON, "-m", "wellbeing_dynamics"]
IMPORT_CLI = [PYTHON, "-c", "import wellbeing_dynamics.cli"]


def spawn(argv: list[str], stdout: Path, stderr: Path) -> tuple[float, float, int]:
    """Run one child to completion: (wall seconds, peak RSS MiB, exit code).

    Waiting with wait4 gives the child's own resource usage, so the
    peak RSS is that of the measured process alone.
    """
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=CHILD_ENV, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def warm_up() -> None:
    """Untimed `wbdyn --help`: fills the bytecode cache, warms the page cache."""
    out, err = WORK / "warm.out", WORK / "warm.err"
    _, _, code = spawn(WBDYN + ["--help"], out, err)
    if code != 0:
        raise SystemExit(f"wbdyn --help exited with {code}: {err.read_text()[-500:]}")


def sweep_argv(op: SweepOp, out: Path) -> list[str]:
    return ["sweep", "--scenario", op.scenario, "--vary", op.vary, "--out", str(out)]


def simulate_argv(op: SimulateOp, out: Path) -> list[str]:
    return ["simulate", "--scenario", op.scenario, "--t-end", repr(op.t_end),
            "--mode", op.mode, "--out", str(out)]


def load_doc(path: str) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
