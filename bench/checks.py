"""Output checks, recomputed in the benchmark from the generated inputs.

Each check returns None when the op's output is right, or a one-line
reason when it is not; a reason makes the op count as failed. The
checks compare against formulas and tables, never against digests of
ODE columns, whose last bits may legitimately change.
"""

from __future__ import annotations

import math

from inputs import TRAJ_STEP, SimulateOp, SweepOp, boundaries

SWEEP_HEADER = "value,exponent_g,exponent_g_star,f_value,band,behavior_g,behavior_g_star,growth_case"
DIVERGES, CONSTANT, DECAYS = "DivergesToInfinity", "ConstantPositive", "DecaysToZero"
# Criterion 1 of the acceptance gate: (growth case, band) -> behaviours.
EXPECTED_BEHAVIOR = {
    ("LowGrowth", "Low"): (DIVERGES, DECAYS),
    ("LowGrowth", "Medium"): (DECAYS, DECAYS),
    ("LowGrowth", "High"): (DECAYS, DIVERGES),
    ("HighGrowth", "Low"): (DIVERGES, DECAYS),
    ("HighGrowth", "Medium"): (DIVERGES, DIVERGES),
    ("HighGrowth", "High"): (DECAYS, DIVERGES),
}
# Relative distance below which a point counts as sitting on a boundary
# or on the critical rate, where Boundary/Critical labels are also right.
NEAR = 1e-6
# Printed values carry 12 significant digits.
PRINT_TOL = 1e-9


def _near(x: float, y: float) -> bool:
    return abs(x - y) <= NEAR * max(abs(x), abs(y))


def _close(got: float, want: float, scale: float) -> bool:
    return abs(got - want) <= PRINT_TOL * scale


def _behavior(growth: float, loss: float) -> set[str]:
    if _near(growth, loss):
        return {CONSTANT, DIVERGES if growth > loss else DECAYS}
    return {DIVERGES if growth > loss else DECAYS}


def check_sweep(op: SweepOp, doc: dict, table: str, stderr: str) -> str | None:
    """Rows, skip lines, exponents, f_value, band, behaviours, growth case."""
    lines = table.split("\n")
    if lines[0] != SWEEP_HEADER or lines[-1] != "":
        return "sweep table header or final newline is wrong"
    values = op.values()
    valid = [v for v in values if v > 0.0]
    skipped = [v for v in values if v <= 0.0]
    rows = lines[1:1 + len(valid)]
    comments = lines[1 + len(valid):-1]
    if len(rows) != len(valid) or len(comments) != len(skipped):
        return f"sweep wrote {len(lines) - 2} lines for {len(valid)} rows and {len(skipped)} skips"
    for value, comment in zip(skipped, comments):
        if not comment.startswith(f"# skipped {op.name}={format(value, '.12g')}: "):
            return f"bad skip line {comment!r}"
    if stderr.count("warning: skipped") != len(skipped):
        return "sweep warnings do not match the skipped points"
    p = dict(doc)
    for value, row in zip(valid, rows):
        fields = row.split(",")
        if len(fields) != 8 or fields[0] != format(value, ".12g"):
            return f"bad sweep row {row!r} for {op.name}={value!r}"
        p[op.name] = value
        a, a_s, b, b_s, lam, n = (p[k] for k in ("a", "a_star", "b", "b_star", "lambda", "n"))
        eg, egs, f_value = float(fields[1]), float(fields[2]), float(fields[3])
        if not _close(eg, a * lam - b * n, a * lam + b * n):
            return f"exponent_g {eg!r} != a*lambda-b*n at {op.name}={value!r}"
        if not _close(egs, a_s * lam - b_s / n, a_s * lam + b_s / n):
            return f"exponent_g_star {egs!r} != a*lambda-b*/n at {op.name}={value!r}"
        gap = (a - a_s) * lam
        if not _close(f_value, b * n * n - gap * n - b_s, b * n * n + abs(gap) * n + b_s):
            return f"f_value {f_value!r} is wrong at {op.name}={value!r}"
        band, beh_g, beh_gs, case = fields[4:]
        bg, bgs = boundaries(p)
        critical = b * b_s / (a * a_s)
        cases = {"LowGrowth" if lam * lam < critical else "HighGrowth"}
        if _near(lam * lam, critical):
            cases.add("Critical")
        lo, hi = min(bg, bgs), max(bg, bgs)
        bands = {"Low" if n < lo else "High" if n > hi else "Medium"}
        if _near(n, bg) or _near(n, bgs):
            bands.add("Boundary")
        if case not in cases or band not in bands:
            return f"{case}/{band} should be {sorted(cases)}/{sorted(bands)} at {op.name}={value!r}"
        want = EXPECTED_BEHAVIOR.get((case, band))
        if want is not None and (beh_g, beh_gs) != want:
            return f"behaviours {beh_g}/{beh_gs} break the criterion-1 table for {case}/{band}"
        if beh_g not in _behavior(a * lam, b * n) or beh_gs not in _behavior(a_s * lam, b_s / n):
            return f"behaviours {beh_g}/{beh_gs} disagree with the exponent signs"
    return None


def _floats(row: str) -> list[float]:
    return [float(x) for x in row.split(",")]


def check_simulate(op: SimulateOp, doc: dict, table: str, stdout: str) -> str | None:
    """Row count, time column, closed forms, ODE positivity, deviation."""
    lines = table.split("\n")
    header = "t,B,B_star,p,q,B_ode,B_star_ode" if op.mode == "both" else "t,B,B_star,p,q"
    if lines[0] != header or lines[-1] != "":
        return "simulate table header or final newline is wrong"
    rows = lines[1:-1]
    if len(rows) != op.rows:
        return f"simulate wrote {len(rows)} rows, the grid has {op.rows}"
    g = doc["a"] * doc["lambda"] - doc["b"] * doc["n"]
    g_star = doc["a_star"] * doc["lambda"] - doc["b_star"] / doc["n"]
    for k, row in enumerate(rows):
        cols = _floats(row)
        t = cols[0]
        if abs(t - k * TRAJ_STEP) > 1e-9 * max(1.0, t):
            return f"time column reads {t!r} in row {k}"
        if not all(math.isfinite(x) and x > 0.0 for x in cols[1:]):
            return f"non-finite or non-positive value in row {k}: {row}"
        if not _close(cols[4], doc["n"] * cols[3], cols[4]):
            return f"q != n*p in row {k}"
        if op.mode == "both":
            if not _close(cols[1], doc["B0"] * math.exp(g * t), cols[1]):
                return f"closed B != B0*exp(g*t) in row {k}"
            if not _close(cols[2], doc["B0_star"] * math.exp(g_star * t), cols[2]):
                return f"closed B_star != B0_star*exp(g*t) in row {k}"
    if op.mode == "both":
        prefix = "max_relative_deviation: "
        if not stdout.startswith(prefix) or stdout.count("\n") != 1:
            return f"unexpected simulate stdout {stdout!r}"
        deviation = float(stdout[len(prefix):])
        if not deviation < 1e-6:
            return f"max_relative_deviation {deviation!r} is not below 1e-6 (criterion 4)"
    elif stdout:
        return f"unexpected simulate stdout {stdout!r}"
    return None


# rkf45 runs at a per-step relative tolerance of 1e-8; over a few hundred
# steps the global error stays well inside this bound.
AGREEMENT_TOL = 1e-5
# 30 yearly points with 1% log noise: the slope's standard error is
# about 4e-4, so this is a gross-error check only.
NOISY_FIT_TOL = 0.01


def check_item(item: dict, out: dict) -> str | None:
    """Bracketing, rkf45 against quadrature, the two growth fits."""
    if "error" in out:
        return out["error"]
    params = item["params"]
    critical = params["b"] * params["b_star"] / (params["a"] * params["a_star"])
    case = "LowGrowth" if params["lambda"] ** 2 < critical else "HighGrowth"
    if out["growth_case"] != case:
        return f"growth case {out['growth_case']} should be {case}"
    if out["bracket_passed"] is not True:
        return "n_hat is outside its bracket"
    values = out["gw"] + out["ode"][:2] + out.get("tab", [])[:2]
    if not all(math.isfinite(x) and x > 0.0 for x in values):
        return f"non-finite or non-positive well-being in {values}"
    kinds = {item["pair"]["p"]["type"], item["pair"]["q"]["type"]}
    if "tabulated" not in kinds:
        for quad, ode in zip(out["gw"], out["ode"]):
            if abs(ode - quad) > AGREEMENT_TOL * quad:
                return f"rkf45 {ode!r} and general_wellbeing {quad!r} disagree"
    lam = item["exact_series"]["lam"]
    if not abs(out["fit_exact"] - lam) <= 1e-10 * lam:
        return f"noise-free fit {out['fit_exact']!r} misses lambda {lam!r} (criterion 8)"
    noisy = item["series"]["lam"]
    if not abs(out["fit_noisy"] - noisy) <= NOISY_FIT_TOL:
        return f"noisy fit {out['fit_noisy']!r} is far from {noisy!r}"
    return None
