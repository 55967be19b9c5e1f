"""The library workload: one item runs the package API in-process.

Imported by run.py for the traced pass, and run as a child process for
the untimed-import, timed-items pass:

    PYTHONPATH=src python3 bench/library.py SEED WORK_DIR SECONDS RESULTS_JSON

The child imports the package once, then makes items 0, 1, 2, ... of
SEED (inputs.library_item) and runs each once until SECONDS have passed,
and writes one result row per item. Making an item and writing its
series file are not timed. No item's inputs repeat within a run, so a
cache keyed on values cannot hit. Every call goes through a module
attribute, so the traced pass sees it when it wraps that attribute.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import inputs


def income(spec: dict, dynamics):
    kind = spec["type"]
    if kind == "exponential":
        return dynamics.ExponentialIncome(spec["p0"], spec["rate"])
    if kind == "linear":
        return dynamics.LinearIncome(spec["p0"], spec["slope"])
    return dynamics.TabulatedIncome(tuple(tuple(pt) for pt in spec["points"]))


def run_item(item: dict, series: Path, wd) -> dict:
    """Run one item and return its outputs for the checks.

    wd is the imported wellbeing_dynamics package; the item calls its
    submodules' attributes so that a traced pass can wrap them.
    """
    core, regime, dynamics, calibration = wd.core, wd.regime, wd.dynamics, wd.calibration
    doc = item["params"]
    params = core.ScenarioParams(
        a=doc["a"], a_star=doc["a_star"], b=doc["b"], b_star=doc["b_star"],
        lam=doc["lambda"], n=doc["n"], B0=doc["B0"], B0_star=doc["B0_star"],
        p0=doc["p0"], t0=doc["t0"],
    )
    report = regime.classify(params)
    bracket = regime.verify_nhat_bracketing(params)

    horizon = item["horizon"]
    p, q = income(item["pair"]["p"], dynamics), income(item["pair"]["q"], dynamics)
    gw = core.general_wellbeing(p, q, params.a, params.b, params.B0, params.t0, horizon)
    gw_star = core.general_wellbeing(
        q, p, params.a_star, params.b_star, params.B0_star, params.t0, horizon
    )
    ode = dynamics.integrate(p, q, params, horizon, method="rkf45")

    results = {"ode": [ode.B[-1], ode.B_star[-1], len(ode.times) - 1]}
    if "tab_pair" in item:
        tp, tq = (income(item["tab_pair"][side], dynamics) for side in ("p", "q"))
        tab = dynamics.integrate(tp, tq, params, tp.points[-1][0], method="rkf45")
        results["tab"] = [tab.B[-1], tab.B_star[-1], len(tab.times) - 1]

    noisy = calibration.fit_growth_rate(
        calibration.read_income_series(series)
    )
    exact = item["exact_series"]
    exact_fit = calibration.fit_growth_rate(calibration.IncomeSeries(tuple(
        (1990.0 + k, exact["p0"] * math.exp(exact["lam"] * k))
        for k in range(12)
    )))
    results.update({
        "growth_case": report.growth_case.value,
        "bracket_passed": bracket.passed,
        "gw": [gw, gw_star],
        "fit_noisy": noisy.lam,
        "fit_exact": exact_fit.lam,
    })
    return results


def main(argv: list[str]) -> int:
    seed, work, seconds, results_path = int(argv[0]), Path(argv[1]), float(argv[2]), argv[3]
    import wellbeing_dynamics as wd

    rows = []
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < seconds:
        item = inputs.library_item(seed, index)
        series = inputs.write_series(item, work)
        t = time.perf_counter()
        try:
            out = run_item(item, series, wd)
        except Exception as exc:  # any exception fails this item, not the run
            out = {"error": f"{type(exc).__name__}: {exc}"}
        out["seconds"] = time.perf_counter() - t
        out["item"] = index
        rows.append(out)
        index += 1
    with open(results_path, "w", encoding="utf-8") as handle:
        json.dump({"rows": rows}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
