"""Seeded input generation for the three benchmark workloads.

Everything here is a pure function of the seed: the same seed writes the
same scenario files and makes the same library items. Sizes (grid
points, horizons, node counts) are fixed; the seed only moves the
parameter values, so work per op is comparable across seeds.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# Points per sweep grid, whatever the seed: the n grids are short, the
# lambda and skip grids long. One cycle then has two heavy ops in six,
# so the tail percentile falls inside the heavy ops and the median
# inside the light ones, rather than on noise between equal ops.
SWEEP_POINTS = 5000
SWEEP_LONG_POINTS = 10000
# The grid that starts below zero skips exactly this many points.
SWEEP_SKIPPED = 5
# Trajectory ops: horizons with the scenario's default step of 0.01.
# They give the three ops clearly different costs (about 0.28, 0.37 and
# 0.47 s on a 2-vCPU Xeon VM), so the median op and the tail each fall
# inside one op kind rather than flipping between two of equal cost.
TRAJ_STEP = 0.01
TRAJ_EXP_T_END = 160.0
TRAJ_TAB_T_END = 50.0
TRAJ_TAB_NODES = 201
TRAJ_LIN_T_END = 100.0
# Library: item i of a seed is drawn from its own generator, so items
# are made on demand and no two items of a run share an input.
LIB_SERIES_POINTS = 30
LIB_TAB_NODES = 26
LIB_HORIZON = (10.0, 50.0)
# Item i takes its (p, q) income kinds from entry i % 9: every run holds
# each pairing in the same share, whatever the seed.
LIB_PAIR_KINDS = tuple(itertools.product(("exponential", "linear", "tabulated"), repeat=2))


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.random()


def draw_params(rng: random.Random, case: str | None = None) -> dict:
    """Scenario parameters in the ranges of the package's test draws.

    With case None, lambda lies in [0.02, 0.25] and both exponents stay
    within about [-1.2, 0.5] per unit time, so horizons of 100 neither
    overflow nor underflow. With case "low" or "high", lambda is
    rescaled below or above the critical rate with a 5% margin, which
    keeps the Critical case (where bracketing does not apply) out.
    """
    doc = {
        "a": _u(rng, 0.5, 2.0),
        "a_star": _u(rng, 0.5, 2.0),
        "b": _u(rng, 0.02, 0.3),
        "b_star": _u(rng, 0.02, 0.3),
        "lambda": _u(rng, 0.02, 0.25),
        "n": _u(rng, 0.25, 4.0),
        "B0": _u(rng, 0.5, 2.0),
        "B0_star": _u(rng, 0.5, 2.0),
        "p0": _u(rng, 0.5, 10.0),
        "t0": 0.0,
    }
    if case is not None:
        critical = math.sqrt(doc["b"] * doc["b_star"] / (doc["a"] * doc["a_star"]))
        factor = _u(rng, 0.2, 0.95) if case == "low" else _u(rng, 1.05, 4.0)
        doc["lambda"] = critical * factor
    return doc


def boundaries(doc: dict) -> tuple[float, float]:
    """(boundary_g, boundary_g_star) computed from the file keys."""
    lam = doc["lambda"]
    return doc["a"] * lam / doc["b"], doc["b_star"] / (doc["a_star"] * lam)


@dataclass(frozen=True)
class SweepOp:
    """One `wbdyn sweep` invocation: scenario file, parameter, grid."""

    scenario: str
    name: str
    start: float
    step: float
    points: int = SWEEP_POINTS

    @property
    def stop(self) -> float:
        # Half a step past the last point, so the grid count is exact.
        return self.start + (self.points - 0.5) * self.step

    @property
    def vary(self) -> str:
        return f"{self.name}={self.start!r}:{self.stop!r}:{self.step!r}"

    def values(self) -> list[float]:
        return [self.start + k * self.step for k in range(self.points)]


@dataclass(frozen=True)
class SimulateOp:
    """One `wbdyn simulate` invocation."""

    scenario: str
    kind: str  # "exponential", "tabulated" or "linear"
    mode: str
    t_end: float

    @property
    def rows(self) -> int:
        return round(self.t_end / TRAJ_STEP) + 1


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def sweep_inputs(seed: int, work: Path) -> list[SweepOp]:
    """Three base scenarios and the six grids of one sweep cycle.

    Four grids vary n from a quarter of the lower boundary to four times
    the upper one, so they cross both boundaries and n_hat. One varies
    lambda from 0.3 to 3 times the critical rate, so it crosses growth
    cases. One starts 4.5 steps below zero, so exactly five points take
    the skip path.
    """
    rng = random.Random(f"sweep-{seed}")
    docs = [draw_params(rng, case) for case in ("low", "high", "low")]
    names = []
    for i, doc in enumerate(docs):
        name = str(work / f"sweep_base{i}.json")
        _write_json(Path(name), doc)
        names.append(name)

    def n_grid(i: int, lo_scale: float, hi_scale: float) -> SweepOp:
        bg, bgs = boundaries(docs[i])
        lo, hi = lo_scale * min(bg, bgs), hi_scale * max(bg, bgs)
        return SweepOp(names[i], "n", lo, (hi - lo) / (SWEEP_POINTS - 1))

    doc = docs[1]
    critical = math.sqrt(doc["b"] * doc["b_star"] / (doc["a"] * doc["a_star"]))
    lam_lo = 0.3 * critical
    lam_step = (3.0 * critical - lam_lo) / (SWEEP_LONG_POINTS - 1)
    skip_hi = 4.0 * max(boundaries(docs[2]))
    skip_step = skip_hi / (SWEEP_LONG_POINTS - SWEEP_SKIPPED - 0.5)
    return [
        n_grid(0, 0.25, 4.0),
        n_grid(1, 0.25, 4.0),
        n_grid(2, 0.25, 4.0),
        SweepOp(names[1], "lambda", lam_lo, lam_step, SWEEP_LONG_POINTS),
        n_grid(0, 0.5, 2.0),
        SweepOp(names[2], "n", -(SWEEP_SKIPPED - 0.5) * skip_step, skip_step, SWEEP_LONG_POINTS),
    ]


def _tabulated_points(rng: random.Random, p0: float, t_end: float, nodes: int,
                      rate: tuple[float, float]) -> list[list[float]]:
    """Nodes on [0, t_end] with a fresh growth rate on every segment."""
    dt = t_end / (nodes - 1)
    points = [[0.0, p0]]
    for k in range(1, nodes):
        value = points[-1][1] * math.exp(_u(rng, *rate) * dt)
        points.append([k * dt if k < nodes - 1 else t_end, value])
    return points


def trajectory_inputs(seed: int, work: Path) -> list[SimulateOp]:
    """Exponential `--mode both`, tabulated ODE and linear ODE scenarios."""
    rng = random.Random(f"trajectory-{seed}")
    exp_doc = draw_params(rng)
    tab_doc = draw_params(rng)
    tab_doc["income_model"] = {
        "type": "tabulated",
        "points": _tabulated_points(rng, tab_doc["p0"], TRAJ_TAB_T_END, TRAJ_TAB_NODES,
                                    (-0.05, 0.15)),
    }
    lin_doc = draw_params(rng)
    lin_doc["income_model"] = {"type": "linear", "slope": _u(rng, 0.02, 0.5) * lin_doc["p0"]}
    ops = []
    for kind, doc, mode, t_end in (
        ("exponential", exp_doc, "both", TRAJ_EXP_T_END),
        ("tabulated", tab_doc, "ode", TRAJ_TAB_T_END),
        ("linear", lin_doc, "ode", TRAJ_LIN_T_END),
    ):
        path = work / f"traj_{kind}.json"
        _write_json(path, doc)
        ops.append(SimulateOp(str(path), kind, mode, t_end))
    return ops


def _income(rng: random.Random, kind: str, p0: float, horizon: float) -> dict:
    """Income growing by 1-5% a year, or by -2..8% per tabulated segment.

    These are the paper's growth rates. Over 50 years they keep q/p
    within about [0.03, 30], so RKF45 is not driven into stiff decays.
    """
    if kind == "exponential":
        return {"type": "exponential", "p0": p0, "rate": _u(rng, 0.01, 0.05)}
    if kind == "linear":
        return {"type": "linear", "p0": p0, "slope": _u(rng, 0.01, 0.05) * p0}
    return {"type": "tabulated",
            "points": _tabulated_points(rng, p0, horizon, LIB_TAB_NODES, (-0.02, 0.08))}


def library_item(seed: int, index: int) -> dict:
    """Library item `index` of `seed`; see library.run_item for what it runs.

    The item carries the text of its own noisy income series, which the
    caller writes to a file before timing the item.
    """
    rng = random.Random(f"library-{seed}-{index}")
    params = draw_params(rng, ("low", "high")[index % 2])
    horizon = _u(rng, *LIB_HORIZON)
    kp, kq = LIB_PAIR_KINDS[index % len(LIB_PAIR_KINDS)]
    p0 = _u(rng, 0.5, 10.0)
    pair = {
        "p": _income(rng, kp, p0, horizon),
        "q": _income(rng, kq, p0 * _u(rng, 0.25, 4.0), horizon),
    }
    item = {"index": index, "params": params, "horizon": horizon, "pair": pair}
    if "tabulated" not in (kp, kq):
        # Every item integrates one tabulated pair with RKF45: this one
        # when the pair above has no tabulated side.
        item["tab_pair"] = {
            "p": _income(rng, "tabulated", p0, LIB_HORIZON[1]),
            "q": _income(rng, "tabulated", p0 * _u(rng, 0.25, 4.0), LIB_HORIZON[1]),
        }
    lam, s0 = _u(rng, 0.01, 0.1), _u(rng, 1000.0, 30_000.0)
    lines = ["# year, income"]
    for k in range(LIB_SERIES_POINTS):
        lines.append(f"{1990 + k}, {s0 * math.exp(lam * k + rng.gauss(0.0, 0.01))!r}")
    item["series"] = {"lam": lam, "text": "\n".join(lines) + "\n"}
    item["exact_series"] = {"lam": _u(rng, 0.01, 0.2), "p0": _u(rng, 100.0, 50_000.0)}
    return item


def write_series(item: dict, work: Path) -> Path:
    """Write the item's noisy series to a file of its own; return the path."""
    path = work / f"series_{item['index']}.txt"
    path.write_text(item["series"]["text"], encoding="utf-8")
    return path
