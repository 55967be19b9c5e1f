"""Command-line interface: classify, simulate, sweep, calibrate.

All numeric output uses 12 significant digits with no locale influence,
and nothing that varies between runs (timestamps, paths, ordering) is
ever emitted, so identical inputs produce byte-identical outputs.

Exit codes: 0 success, 2 invalid input (a DomainError), 1 any other WellbeingError.
"""

from __future__ import annotations

import argparse
import sys
from itertools import chain

from .calibration import fit_growth_rate, read_income_series, scenario_from_data
# The benchmark's traced run wraps names here to count calls. No cli code calls closed_form_B,
# closed_form_B_star, ratio_analysis or with_param: they are bound for it alone.
from .core import (ScenarioParams, closed_form_B, closed_form_B_star, closed_form_columns,
                   exponent_g, exponent_g_star, incomes, n_free_terms, n_terms, ratio_analysis)
from .dynamics import integrate, max_relative_deviation, time_grid
from .errors import DomainError, WellbeingError, checked
from .regime import checked_epsilon, classify
from .scenario import PARAM_KEYS, SWEEPABLE, load_scenario, parse_sweep, scenario_text, with_param


def _params_and_tolerance(args: argparse.Namespace) -> tuple[ScenarioParams, float]:
    """classify's and sweep's inputs: the parameters through the closed-form gate, checked
    first, then --tolerance when given, else the scenario's numerics.epsilon."""
    scenario = load_scenario(args.scenario)
    params = scenario.closed_form_params()
    if args.tolerance is None:
        return params, scenario.numerics.epsilon
    return params, checked_epsilon(args.tolerance, "--tolerance")


def _text(value) -> str:
    """One printed value: a float as %.12g, a label by its value, a flag as true or false,
    an interval as ]lo, hi[ and a missing one as none."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, tuple):
        return "]%.12g, %.12g[" % value
    return "none" if value is None else value.value


def cmd_classify(args: argparse.Namespace) -> int:
    params, epsilon = _params_and_tolerance(args)
    report = classify(params, epsilon=epsilon)
    for key, value in [("n", params.n), *zip(report._fields, report._astuple())]:
        if value is not None or key == "interval_j":  # no crossover_time line when it is None
            print(f"{'interval_J' if key == 'interval_j' else key}: {_text(value)}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    params, step = scenario.params, scenario.numerics.step
    t_end = checked(args.t_end, "--t-end", at_least=params.t0)
    if args.mode != "ode":  # the closed forms: their gate, then exponents that are finite
        scenario.closed_form_params()
        exponent_g(params), exponent_g_star(params)  # each refuses one past the float range
    p, q = scenario.income_pair()
    # One grid per run: closed builds it, ode and both take the integrator's.
    if args.mode == "closed":
        times = time_grid(params.t0, t_end, step)
    else:
        tr = integrate(p, q, params, t_end, method="rk4", step=step)
        times = tr.times
    if args.mode == "ode":
        columns = [times, tr.B, tr.B_star, tr.p, tr.q]
    else:
        B, S = closed_form_columns(params, times)
        if args.mode == "closed":
            columns = [times, B, S, *zip(*(incomes(p, q, t) for t in times))]
        else:
            columns = [times, B, S, tr.p, tr.q, tr.B, tr.B_star]
            deviation = max_relative_deviation(times, tr.B, B, tr.B_star, S)  # before any write
    header = "t,B,B_star,p,q" + (",B_ode,B_star_ode" if args.mode == "both" else "")
    # The whole table in one format: the header, which holds no %, then one "%.12g" per value.
    row = ",".join(["%.12g"] * len(columns))
    text = "\n".join([header] + [row] * len(times)) % tuple(chain.from_iterable(zip(*columns)))
    _write_table(args.out, [text])
    if args.mode == "both":
        print(f"max_relative_deviation: {deviation:.12g}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    params, epsilon = _params_and_tolerance(args)
    spec = parse_sweep(args.vary)
    rows = ["value,exponent_g,exponent_g_star,f_value,band,behavior_g,behavior_g_star,growth_case"]
    skipped = []
    # One pass on floats in SWEEPABLE order, the kernels' (n last); _value_ is an enum's .value.
    coefficients = [getattr(params, PARAM_KEYS[key]) for key in SWEEPABLE]
    at, field = SWEEPABLE.index(spec.name), PARAM_KEYS[spec.name]
    bound = ScenarioParams._bounds[field]
    row, free = "%.12g,%.12g,%.12g,%.12g,%s,%s,%s,%s", None
    for value in spec.grid():
        try:
            coefficients[at] = checked(value, field, bound) + 0.0
        except DomainError as exc:
            skipped.append(f"skipped {spec.name}={value:.12g}: {exc}")
            print("warning: " + skipped[-1], file=sys.stderr)
            continue
        if free is None or spec.name != "n":  # the n-free half: once, at an n grid's first row
            free = n_free_terms(*coefficients[:5], epsilon)
        g, g_star, band, exp_g, exp_g_star, f_value, _ = n_terms(
            free, coefficients[2], coefficients[3], coefficients[5], epsilon)
        rows.append(row % (value, exp_g, exp_g_star, f_value,
                           band._value_, g._value_, g_star._value_, free[0]._value_))
    _write_table(args.out, rows + ["# " + line for line in skipped])
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    if args.write_scenario is not None and args.n is None:
        raise DomainError("--n is required when --write-scenario is given")
    series = read_income_series(args.series)
    fit = fit_growth_rate(series)
    lines = [f"lambda: {fit.lam:.12g}", f"p0: {fit.p0:.12g}",
             f"residual: {fit.residual:.12g}", f"points: {len(series.points)}"]
    if args.write_scenario is not None:  # nothing is printed unless the write succeeds
        params = scenario_from_data(
            fit, args.n, a=args.a, a_star=args.a_star, b=args.b, b_star=args.b_star
        )
        _write_table(args.write_scenario, [scenario_text(params)])
        lines.append(f"scenario_written: {args.write_scenario}")
    print("\n".join(lines))
    return 0


def _write_table(path: str, lines: list[str]) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(("\n".join(lines), "\n"))  # no second copy for the last newline
    except OSError as exc:
        raise DomainError(f"cannot write output file {path}: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wbdyn",
        description="Two-group well-being dynamics: classify regimes, simulate "
        "trajectories, sweep parameters, and calibrate growth rates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    classify_p = sub.add_parser("classify", help="classify a scenario's long-run regime")
    classify_p.add_argument("--scenario", required=True, metavar="PATH")
    classify_p.set_defaults(func=cmd_classify)

    simulate_p = sub.add_parser("simulate", help="write a trajectory table")
    simulate_p.add_argument("--scenario", required=True, metavar="PATH")
    simulate_p.add_argument("--t-end", type=float, required=True, metavar="REAL")
    simulate_p.add_argument("--mode", choices=("closed", "ode", "both"), default="closed")
    simulate_p.add_argument("--out", required=True, metavar="PATH")
    simulate_p.set_defaults(func=cmd_simulate)

    sweep_p = sub.add_parser("sweep", help="classify across one parameter grid")
    sweep_p.add_argument("--scenario", required=True, metavar="PATH")
    sweep_p.add_argument("--vary", required=True, metavar="NAME=START:STOP:STEP")
    sweep_p.add_argument("--out", required=True, metavar="PATH")
    sweep_p.set_defaults(func=cmd_sweep)
    for command in (classify_p, sweep_p):
        command.add_argument(
            "--tolerance", type=float, metavar="REAL",
            help="relative tolerance for boundary comparisons "
            "(default: the scenario's numerics.epsilon, itself 1e-09 by default)",
        )

    calibrate_p = sub.add_parser("calibrate", help="fit a growth rate from a series file")
    calibrate_p.add_argument("--series", required=True, metavar="PATH")
    calibrate_p.add_argument(
        "--write-scenario", metavar="PATH", help="also assemble and write a scenario file"
    )
    calibrate_p.add_argument("--n", type=float, metavar="REAL", help="income multiple for the assembled scenario")
    calibrate_p.add_argument("--a", type=float, default=1.0, metavar="REAL")
    calibrate_p.add_argument("--a-star", type=float, default=1.0, metavar="REAL")
    calibrate_p.add_argument("--b", type=float, default=0.05, metavar="REAL")
    calibrate_p.add_argument("--b-star", type=float, default=0.05, metavar="REAL")
    calibrate_p.set_defaults(func=cmd_calibrate)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for at in range(len(argv) - 1, 0, -1):  # argparse takes "-inf" for an option: join it
        if argv[at].lower() in ("-inf", "-infinity", "-nan") and argv[at - 1].startswith("--"):
            argv[at - 1:at + 1] = [f"{argv[at - 1]}={argv[at]}"]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except WellbeingError as exc:  # the class tree alone decides the exit code
        last_time = getattr(exc, "last_time", None)
        detail = "" if last_time is None else f" (last good t = {last_time:.12g})"
        print(f"error: {exc}{detail}", file=sys.stderr)
        return 2 if isinstance(exc, DomainError) else 1
