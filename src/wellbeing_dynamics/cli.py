"""Command-line interface: classify, simulate, sweep, calibrate.

All numeric output uses 12 significant digits with no locale influence,
and nothing that varies between runs (timestamps, paths, ordering) is
ever emitted, so identical inputs produce byte-identical outputs.

Exit codes: 0 success, 1 runtime or numeric failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import sys

from .calibration import fit_growth_rate, read_income_series, scenario_from_data
# The benchmark's traced run wraps classify, exponent_g, exponent_g_star, ratio_analysis and
# with_param here by name to count calls: they stay bound though sweep rows call none of them.
from .core import (ScenarioParams, closed_form_B, closed_form_B_star, exponent_g,
                   exponent_g_star, incomes, ratio_analysis, sign_quadratic)
from .dynamics import integrate, max_relative_deviation, time_grid
from .errors import DomainError, IntegrationError, QuadratureError, checked
from .regime import checked_epsilon, classify, coefficient_labels
from .scenario import PARAM_KEYS, SWEEPABLE, load_scenario, parse_sweep, scenario_text, with_param


def _tolerance(args: argparse.Namespace, scenario) -> float:
    """--tolerance when given, else the scenario's numerics.epsilon."""
    if args.tolerance is None:
        return scenario.numerics.epsilon
    return checked_epsilon(args.tolerance, "--tolerance")


def cmd_classify(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    epsilon = _tolerance(args, scenario)
    params = scenario.params
    report = classify(params, epsilon=epsilon)
    if report.interval_j is None:
        interval = "none"
    else:
        interval = f"]{report.interval_j[0]:.12g}, {report.interval_j[1]:.12g}["
    lines = [
        ("n", f"{params.n:.12g}"),
        ("growth_case", report.growth_case.value),
        ("boundary_g", f"{report.boundary_g:.12g}"),
        ("boundary_g_star", f"{report.boundary_g_star:.12g}"),
        ("band", report.band.value),
        ("behavior_g", report.behavior_g.value),
        ("behavior_g_star", report.behavior_g_star.value),
        ("exponent_g", f"{exponent_g(params):.12g}"),
        ("exponent_g_star", f"{exponent_g_star(params):.12g}"),
        ("g_rate", f"{report.g_rate:.12g}"),
        ("f_value", f"{report.f_value:.12g}"),
        ("n_hat", f"{report.n_hat:.12g}"),
        ("dominance", report.dominance.value),
        ("interval_J", interval),
        ("roles_reversed", "true" if report.roles_reversed else "false"),
    ]
    if report.crossover_time is not None:
        lines.append(("crossover_time", f"{report.crossover_time:.12g}"))
    for key, value in lines:
        print(f"{key}: {value}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    params = scenario.params
    t_end = args.t_end
    if t_end < params.t0:
        raise DomainError(f"--t-end must be >= t0 = {params.t0}, got {t_end}")
    step = scenario.numerics.step
    p, q = scenario.income_pair()
    if args.mode != "ode":
        # Refuses a non-exponential income before any work.
        closed_params = scenario.closed_form_params()
    # One grid per run: closed builds it, ode and both take the integrator's.
    if args.mode == "closed":
        times = time_grid(params.t0, t_end, step)
    else:
        tr = integrate(p, q, params, t_end, method="rk4", step=step)
        times = tr.times
    if args.mode == "ode":
        columns = [times, tr.B, tr.B_star, tr.p, tr.q]
    else:
        B = [closed_form_B(closed_params, t) for t in times]
        S = [closed_form_B_star(closed_params, t) for t in times]
        if args.mode == "closed":
            columns = [times, B, S, *zip(*(incomes(p, q, t) for t in times))]
        else:
            columns = [times, B, S, tr.p, tr.q, tr.B, tr.B_star]
    header = "t,B,B_star,p,q" + (",B_ode,B_star_ode" if args.mode == "both" else "")
    template = ",".join(["%.12g"] * len(columns))
    _write_table(args.out, [header] + [template % row for row in zip(*columns)])
    if args.mode == "both":
        deviation = max_relative_deviation(tr.B, B, tr.B_star, S)
        print(f"max_relative_deviation: {deviation:.12g}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    epsilon = _tolerance(args, scenario)
    spec = parse_sweep(args.vary)
    rows = ["value,exponent_g,exponent_g_star,f_value,band,behavior_g,behavior_g_star,growth_case"]
    skipped = []
    # One pass on floats; SWEEPABLE is coefficient_labels' and sign_quadratic's argument order.
    # A row: with_param's check, the labels and exponents, then f. _value_ is an enum's .value.
    coefficients = [getattr(scenario.params, PARAM_KEYS[key]) for key in SWEEPABLE]
    at, field = SWEEPABLE.index(spec.name), PARAM_KEYS[spec.name]
    bound = ScenarioParams._bounds[field]
    row = "%.12g,%.12g,%.12g,%.12g,%s,%s,%s,%s"
    for value in spec.grid():
        try:
            coefficients[at] = checked(value, field, bound) + 0.0
        except DomainError as exc:
            skipped.append(f"skipped {spec.name}={value:.12g}: {exc}")
            print("warning: " + skipped[-1], file=sys.stderr)
            continue
        case, _, _, band, g, g_star, exp_g, exp_g_star = coefficient_labels(*coefficients, epsilon)
        rows.append(row % (
            value, exp_g, exp_g_star, sign_quadratic(*coefficients)[1],
            band._value_, g._value_, g_star._value_, case._value_,
        ))
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
            handle.write("\n".join(lines) + "\n")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntegrationError as exc:
        detail = "" if exc.last_time is None else f" (last good t = {exc.last_time:.12g})"
        print(f"error: {exc}{detail}", file=sys.stderr)
        return 1
    except (QuadratureError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
