"""Shared helpers: random parameter draws, the base scenario file, the `wbdyn` runner."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

from wellbeing_dynamics import ScenarioParams, cli

SRC = str(Path(cli.__file__).parents[1])  # the package's directory, for child interpreters

BASE = {"a": 1.0, "a_star": 1.0, "b": 0.05, "b_star": 0.05, "lambda": 0.1, "n": 1.5,
        "B0": 1.0, "B0_star": 1.0, "p0": 2.0, "t0": 0.0}


def write_scenario(path, **overrides):
    path.write_text(json.dumps(dict(BASE, **overrides)))
    return str(path)


def run_cli(*args, process=False):
    """`wbdyn *args` as a CompletedProcess: cli.main in-process, with stdout and stderr
    captured and argparse's SystemExit as the exit code; or, with process=True, a
    `python -m wellbeing_dynamics` child, for tests of the process boundary."""
    if process:
        return subprocess.run([sys.executable, "-m", "wellbeing_dynamics", *args],
                              capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(args, code, stdout.getvalue(), stderr.getvalue())


def uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.random()


def draw_params(
    rng: random.Random,
    *,
    a=(0.5, 2.0),
    a_star=(0.5, 2.0),
    b=(0.02, 0.3),
    b_star=(0.02, 0.3),
    lam=(0.02, 0.25),
    n=(0.25, 4.0),
    B0=(0.5, 2.0),
    B0_star=(0.5, 2.0),
    p0=(0.5, 10.0),
    t0=0.0,
) -> ScenarioParams:
    """One random scenario with every parameter in the given range.

    The default ranges keep both exponents within about [-1.4, 0.6], so
    well-being stays far from overflow over a horizon of 50 and the
    fixed-step truncation error stays well below 1e-6.
    """
    return ScenarioParams(
        a=uniform(rng, *a),
        a_star=uniform(rng, *a_star),
        b=uniform(rng, *b),
        b_star=uniform(rng, *b_star),
        lam=uniform(rng, *lam),
        n=uniform(rng, *n),
        B0=uniform(rng, *B0),
        B0_star=uniform(rng, *B0_star),
        p0=uniform(rng, *p0),
        t0=t0,
    )


def draw_case_params(rng: random.Random, case: str, **kwargs) -> ScenarioParams:
    """Random params forced into a growth case by rescaling lam.

    case "low" places lam strictly below the critical rate
    sqrt(b*b_star/(a*a_star)), "high" strictly above, with at least a 5%
    margin so tolerance-based classification cannot flip the case.
    """
    base = draw_params(rng, **kwargs)
    critical = math.sqrt(base.b * base.b_star / (base.a * base.a_star))
    if case == "low":
        factor = uniform(rng, 0.05, 0.95)
    elif case == "high":
        factor = uniform(rng, 1.05, 8.0)
    else:
        raise ValueError(f"case must be 'low' or 'high', got {case!r}")
    return base._replace(lam=critical * factor)


def exact_n_hat(a, a_star, b, b_star, lam):
    """n_hat to 60 digits from the float gap (a - a_star)*lam, as the n-free kernel takes it."""
    with localcontext() as ctx:
        ctx.prec = 60
        gap, b, b_star = Decimal((a - a_star) * lam), Decimal(b), Decimal(b_star)
        root = (gap * gap + 4 * b * b_star).sqrt()
        return float(2 * b_star / (root - gap) if gap < 0 else (gap + root) / (2 * b))
