"""Acceptance gate: nine criteria with pinned tolerances.

Each test covers one criterion end to end and prints a PASS line with
the measured numbers, so a red run names exactly what broke and by how
much.
"""

from __future__ import annotations

import math
import random
import time

import pytest

from wellbeing_dynamics import (
    Band,
    Behavior,
    ExponentialIncome,
    GrowthCase,
    IncomeSeries,
    LinearIncome,
    ScenarioParams,
    chile_gdp_series,
    classify,
    closed_form_B,
    closed_form_B_star,
    cross_validate,
    exponent_g,
    exponent_g_star,
    fit_growth_rate,
    general_wellbeing,
    growth_case,
    ratio_analysis,
    verify_nhat_bracketing,
)
from conftest import draw_case_params, draw_params, run_cli, uniform, write_scenario

EXPECTED_BEHAVIOR = {
    GrowthCase.LOW: {
        Band.LOW: (Behavior.DIVERGES, Behavior.DECAYS),
        Band.MEDIUM: (Behavior.DECAYS, Behavior.DECAYS),
        Band.HIGH: (Behavior.DECAYS, Behavior.DIVERGES),
    },
    GrowthCase.HIGH: {
        Band.LOW: (Behavior.DIVERGES, Behavior.DECAYS),
        Band.MEDIUM: (Behavior.DIVERGES, Behavior.DIVERGES),
        Band.HIGH: (Behavior.DECAYS, Behavior.DIVERGES),
    },
}


def test_criterion_1_behavior_grid_under_one_second():
    start = time.perf_counter()
    seen = set()
    checked = 0
    for a in (0.5, 1.0, 2.0):
        for a_star in (0.5, 1.0, 2.0):
            for b in (0.05, 0.2):
                for b_star in (0.05, 0.2):
                    for lam in (0.05, 0.1, 0.3):
                        p = ScenarioParams(a=a, a_star=a_star, b=b,
                                           b_star=b_star, lam=lam, n=1.0,
                                           B0=1.0, B0_star=1.0, p0=1.0)
                        case = growth_case(p)
                        if case is GrowthCase.CRITICAL:
                            continue
                        r0 = classify(p)
                        lo = min(r0.boundary_g, r0.boundary_g_star)
                        hi = max(r0.boundary_g, r0.boundary_g_star)
                        placements = ((0.5 * lo, Band.LOW),
                                      (math.sqrt(lo * hi), Band.MEDIUM),
                                      (2.0 * hi, Band.HIGH))
                        for n, band in placements:
                            r = classify(p._replace(n=n))
                            assert r.band is band, (p, n, r.band, band)
                            want = EXPECTED_BEHAVIOR[case][band]
                            got = (r.behavior_g, r.behavior_g_star)
                            assert got == want, (p, n, got, want)
                            seen.add((case, band))
                            checked += 1
    elapsed = time.perf_counter() - start
    assert seen == {(c, b) for c in (GrowthCase.LOW, GrowthCase.HIGH)
                    for b in (Band.LOW, Band.MEDIUM, Band.HIGH)}
    assert elapsed < 1.0, f"behavior grid took {elapsed:.3f} s"
    print(f"PASS criterion 1: {checked} classifications covering all six "
          f"(growth case, band) cells in {elapsed:.3f} s")


def test_criterion_2_bracketing_ten_thousand_draws_per_case():
    start = time.perf_counter()
    failures = 0
    total = 0
    for case, seed in (("low", 202), ("high", 203)):
        rng = random.Random(seed)
        for _ in range(10_000):
            p = draw_case_params(rng, case)
            chk = verify_nhat_bracketing(p, epsilon=1e-9)
            total += 1
            if not chk.passed:
                failures += 1
    elapsed = time.perf_counter() - start
    assert failures == 0, f"{failures} bracketing failures out of {total}"
    assert elapsed < 5.0, f"bracketing sweep took {elapsed:.3f} s"
    print(f"PASS criterion 2: n_hat inside the boundary bracket in all "
          f"{total} draws ({elapsed:.2f} s)")


def test_criterion_3_root_annihilates_quadratic_and_signs_oppose():
    rng = random.Random(303)
    worst_root = 0.0
    sign_checked = 0
    for _ in range(10_000):
        p = draw_params(rng, n=(0.05, 8.0))
        r = ratio_analysis(p)
        at_root = ratio_analysis(p._replace(n=r.n_hat))
        rel_residual = abs(at_root.f_value) / (p.b * r.n_hat**2)
        worst_root = max(worst_root, rel_residual)
        assert rel_residual <= 1e-9, (p, at_root.f_value)

        # Sign opposition of the quadratic and the quotient rate.
        f_scale = p.b * p.n**2 + abs(p.a - p.a_star) * p.lam * p.n + p.b_star
        if abs(r.f_value) > 1e-12 * f_scale:
            sign_checked += 1
            assert (r.f_value > 0) == (r.g_rate < 0), (p, r)
    assert sign_checked > 9_000
    print(f"PASS criterion 3: worst |f(n_hat)| = {worst_root:.3e} relative "
          f"to b*n_hat^2; signs opposed in {sign_checked} non-degenerate draws")


def test_criterion_4_integrator_matches_closed_forms():
    rng = random.Random(404)
    worst = 0.0
    for _ in range(100):
        p = draw_params(rng)
        worst = max(worst, cross_validate(p, 50.0, step=0.01))
    assert worst < 1e-6, f"worst relative deviation {worst:.3e}"

    ratios = []
    for params in (
        ScenarioParams(a=1.0, a_star=1.0, b=0.3, b_star=2.0, lam=0.2,
                       n=4.0, B0=1.0, B0_star=1.0, p0=1.0),
        ScenarioParams(a=2.0, a_star=2.0, b=0.04, b_star=0.3, lam=0.6,
                       n=1.0, B0=1.0, B0_star=1.0, p0=1.0),
    ):
        coarse = cross_validate(params, 50.0, step=0.01)
        fine = cross_validate(params, 50.0, step=0.005)
        ratios.append(coarse / fine)
        assert 12.0 < coarse / fine < 20.0, f"halving ratio {coarse / fine:.2f}"
    printable = ", ".join(f"{r:.1f}" for r in ratios)
    print(f"PASS criterion 4: worst deviation {worst:.3e} over 100 scenarios; "
          f"step-halving ratios {printable} (fourth order)")


def test_criterion_5_general_form_against_references():
    rng = random.Random(505)
    worst_exp = 0.0
    for _ in range(20):
        p = draw_params(rng)
        inc_p = ExponentialIncome(p.p0, p.lam, p.t0)
        inc_q = ExponentialIncome(p.n * p.p0, p.lam, p.t0)
        t = p.t0 + uniform(rng, 5.0, 50.0)
        got = general_wellbeing(inc_p, inc_q, a=p.a, b=p.b, B0=p.B0,
                                t0=p.t0, t=t, quad_tol=1e-10)
        ref = closed_form_B(p, t)
        worst_exp = max(worst_exp, abs(got - ref) / ref)
        got_star = general_wellbeing(inc_q, inc_p, a=p.a_star, b=p.b_star,
                                     B0=p.B0_star, t0=p.t0, t=t, quad_tol=1e-10)
        ref_star = closed_form_B_star(p, t)
        worst_exp = max(worst_exp, abs(got_star - ref_star) / ref_star)
    assert worst_exp < 1e-9, f"worst exponential deviation {worst_exp:.3e}"

    worst_lin = 0.0
    for _ in range(20):
        a = uniform(rng, 0.5, 2.0)
        b = uniform(rng, 0.02, 0.3)
        n = uniform(rng, 0.25, 4.0)
        p0 = uniform(rng, 0.5, 10.0)
        slope = uniform(rng, 0.0, 0.5) * p0
        t = uniform(rng, 5.0, 30.0)
        inc_p = LinearIncome(p0, slope)
        inc_q = LinearIncome(n * p0, n * slope)
        got = general_wellbeing(inc_p, inc_q, a=a, b=b, B0=1.0, t0=0.0, t=t)
        ref = ((p0 + slope * t) / p0) ** a * math.exp(-b * n * t)
        worst_lin = max(worst_lin, abs(got - ref) / ref)
    assert worst_lin < 1e-6, f"worst linear deviation {worst_lin:.3e}"
    print(f"PASS criterion 5: general solution within {worst_exp:.3e} of the "
          f"exponential closed form and {worst_lin:.3e} of the linear analytic "
          f"solution")


def test_criterion_6_beyond_max_boundary_roles_are_fixed():
    rng = random.Random(606)
    for _ in range(100):
        p = draw_params(rng)
        r = classify(p)
        big = max(r.boundary_g, r.boundary_g_star) + 1.0
        shifted = p._replace(n=big)
        assert exponent_g(shifted) < 0.0, (p, big)
        assert exponent_g_star(shifted) > 0.0, (p, big)
        rep = classify(shifted)
        assert rep.band is Band.HIGH
        assert rep.behavior_g is Behavior.DECAYS
        assert rep.behavior_g_star is Behavior.DIVERGES
    print("PASS criterion 6: one unit past the larger boundary the plain "
          "group always decays while the starred group diverges (100 draws)")


def test_criterion_7_symmetric_low_band_is_infeasible():
    rng = random.Random(707)
    for _ in range(1_000):
        p = draw_params(rng)
        sym = p._replace(a_star=p.a, b_star=p.b)
        r = classify(sym)
        assert min(r.boundary_g, r.boundary_g_star) <= 1.0, sym
    asym = ScenarioParams(a=10.0, a_star=0.1, b=0.05, b_star=0.5, lam=0.1,
                          n=0.5, B0=1.0, B0_star=1.0, p0=1.0)
    r = classify(asym)
    assert min(r.boundary_g, r.boundary_g_star) > 1.0
    print("PASS criterion 7: equal-coefficient scenarios never admit a "
          "feasible low band (1000 draws); the asymmetric example does")


def test_criterion_8_growth_calibration():
    fit = fit_growth_rate(chile_gdp_series())
    assert abs(fit.lam - 0.072256) < 1e-4, fit.lam

    rng = random.Random(808)
    worst = 0.0
    for _ in range(25):
        lam = uniform(rng, 0.01, 0.2)
        p0 = uniform(rng, 100.0, 50_000.0)
        series = IncomeSeries(tuple(
            (1990.0 + k, p0 * math.exp(lam * k)) for k in range(12)
        ))
        got = fit_growth_rate(series)
        worst = max(worst, abs(got.lam - lam) / lam,
                    abs(got.p0 - p0) / p0)
    assert worst < 1e-10, f"worst synthetic round-trip error {worst:.3e}"
    print(f"PASS criterion 8: bundled series gives lambda = {fit.lam:.6f} "
          f"(within 1e-4 of 0.072256); synthetic round-trips within {worst:.3e}")


def test_criterion_9_cli_determinism_and_failure_mapping(tmp_path):
    # The first run is in-process, the repeat in a child: two processes, two hash seeds.
    scenario = write_scenario(tmp_path / "scenario.json")
    first = run_cli("classify", "--scenario", scenario)
    second = run_cli("classify", "--scenario", scenario, process=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout != ""

    tables = []
    for name, process in (("one.csv", False), ("two.csv", True)):
        out = tmp_path / name
        r = run_cli("simulate", "--scenario", scenario, "--t-end", "10",
                    "--mode", "both", "--out", str(out), process=process)
        assert r.returncode == 0
        tables.append((r.stdout, out.read_bytes()))
    assert tables[0] == tables[1]

    r = run_cli("classify", "--scenario", write_scenario(tmp_path / "bad.json", surprise=1.0))
    assert r.returncode == 2
    assert "surprise" in r.stderr
    assert r.stdout == ""

    r = run_cli("classify", "--scenario", str(tmp_path / "missing.json"))
    assert r.returncode == 2
    print("PASS criterion 9: classify and simulate are byte-identical across "
          "repeat runs; malformed scenarios exit with code 2")
