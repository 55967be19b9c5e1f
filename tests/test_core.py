"""Closed forms, ratio algebra, and parameter validation."""

from __future__ import annotations

import math
import random

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wellbeing_dynamics import (
    DomainError,
    ExponentialIncome,
    LinearIncome,
    ScenarioParams,
    closed_form_B,
    closed_form_B_star,
    exponent_g,
    exponent_g_star,
    general_wellbeing,
    ratio_analysis,
    wellbeing_ratio,
)
from conftest import draw_params, uniform

mp.mp.dps = 50

# Symmetric low-growth reference set: both boundaries land on 0.5 and 2.
SYM = ScenarioParams(
    a=1.0, a_star=1.0, b=0.2, b_star=0.2, lam=0.1,
    n=1.0, B0=1.0, B0_star=1.0, p0=1.0,
)

# High-growth reference set used throughout the suite: boundaries at
# 0.5 and 2, sign-quadratic root at n = 1, quotient rate exactly -1/24.
HIGH = ScenarioParams(
    a=1.0, a_star=1.0, b=0.05, b_star=0.05, lam=0.1,
    n=1.5, B0=1.0, B0_star=1.0, p0=2.0,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False)


class TestScenarioParams:
    def test_accepts_positive_values(self):
        p = ScenarioParams(a=1, a_star=2, b=0.1, b_star=0.2, lam=0.05,
                           n=3, B0=1, B0_star=2, p0=100)
        assert p.a == 1.0 and isinstance(p.a, float)
        assert p.t0 == 0.0

    def test_negative_t0_allowed(self):
        p = SYM._replace(t0=-5.0)
        assert p.t0 == -5.0

    @pytest.mark.parametrize("field", [
        "a", "a_star", "b", "b_star", "lam", "n", "B0", "B0_star", "p0",
    ])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan,
                                     pytest.param(10**400, id="10**400")])
    def test_rejects_nonpositive_and_nonfinite(self, field, bad):
        with pytest.raises(DomainError, match=field.replace("_", ".")):
            SYM._replace(**{field: bad})

    def test_negative_zero_stored_as_zero(self):
        # A -0.0 field would print "-0" where +0.0 prints "0".
        p = SYM._replace(t0=-0.0)
        assert math.copysign(1.0, p.t0) == 1.0

    def test_rejects_nonfinite_t0(self):
        with pytest.raises(DomainError):
            SYM._replace(t0=math.inf)

    def test_rejects_nonnumeric(self):
        with pytest.raises(DomainError):
            SYM._replace(a="fast")


class TestExponents:
    def test_plain_decay(self):
        p = SYM._replace(n=1.0)
        oracle = float(mp.mpf(1.0) * mp.mpf(0.1) - mp.mpf(0.2) * mp.mpf(1.0))
        assert math.isclose(exponent_g(p), oracle, rel_tol=1e-12)
        assert exponent_g(p) < 0

    def test_high_growth_example(self):
        oracle_g = float(mp.mpf(1.0) * mp.mpf(0.1) - mp.mpf(0.05) * mp.mpf(1.5))
        oracle_gs = float(mp.mpf(1.0) * mp.mpf(0.1) - mp.mpf(0.05) / mp.mpf(1.5))
        assert math.isclose(exponent_g(HIGH), oracle_g, rel_tol=1e-12)
        assert math.isclose(exponent_g_star(HIGH), oracle_gs, rel_tol=1e-12)
        assert exponent_g(HIGH) > 0 and exponent_g_star(HIGH) > 0

    def test_zero_at_own_boundary(self):
        # n = a*lam/b is exactly representable here: 0.1/0.2 == 0.5.
        p = SYM._replace(n=0.5)
        assert exponent_g(p) == 0.0
        q = SYM._replace(n=2.0)
        assert exponent_g_star(q) == 0.0

    @given(st.floats(min_value=0.1, max_value=5.0),
           st.floats(min_value=0.1, max_value=5.0))
    def test_monotone_in_n(self, n1, n2):
        lo, hi = sorted((n1, n2))
        p_lo, p_hi = SYM._replace(n=lo), SYM._replace(n=hi)
        assert exponent_g(p_lo) >= exponent_g(p_hi)
        assert exponent_g_star(p_lo) <= exponent_g_star(p_hi)


class TestClosedForms:
    def test_exponential_growth_value(self):
        # a=1, lam=0.05, b=0.05, n=0.5 gives rate 0.025 over 10 years.
        p = ScenarioParams(a=1.0, a_star=1.0, b=0.05, b_star=0.05, lam=0.05,
                           n=0.5, B0=1.0, B0_star=1.0, p0=1.0)
        oracle = float(mp.e ** (mp.mpf(exponent_g(p)) * 10))
        assert math.isclose(closed_form_B(p, 10.0), oracle, rel_tol=1e-12)

    def test_initial_time_returns_B0(self):
        p = HIGH._replace(B0=3.25)
        assert closed_form_B(p, p.t0) == 3.25
        assert closed_form_B_star(HIGH._replace(B0_star=0.75), HIGH.t0) == 0.75

    def test_before_initial_time_rejected(self):
        with pytest.raises(DomainError):
            closed_form_B(HIGH, HIGH.t0 - 1e-9)
        with pytest.raises(DomainError):
            closed_form_B_star(HIGH, HIGH.t0 - 1.0)

    def test_tiny_loss_coefficient_approaches_pure_growth(self):
        p = SYM._replace(b=1e-15, n=1.0)
        pure = SYM.B0 * math.exp(SYM.a * SYM.lam * 20.0)
        assert math.isclose(closed_form_B(p, 20.0), pure, rel_tol=1e-9)

    def test_star_matches_swapped_plain(self):
        # Swapping roles (a<->a_star, b<->b_star, n<->1/n) maps B* onto B.
        rng = random.Random(101)
        for _ in range(50):
            p = draw_params(rng)
            swapped = p._replace(a=p.a_star, a_star=p.a, b=p.b_star,
                              b_star=p.b, n=1.0 / p.n, B0=p.B0_star,
                              B0_star=p.B0)
            t = p.t0 + 17.0
            assert math.isclose(closed_form_B_star(p, t),
                                closed_form_B(swapped, t), rel_tol=1e-12)

    def test_overflow_names_t_and_log_value(self):
        # For B the exponential overflows; for B* it is finite and its
        # product with B0_star is not.
        p = HIGH._replace(a=10.0, B0_star=1e300)
        with pytest.raises(OverflowError, match=r"^B overflows at t = 800: ln B = 740$"):
            closed_form_B(p, 800.0)
        with pytest.raises(OverflowError, match=r"^B_star overflows at t = 300: ln B_star = 710\.77"):
            closed_form_B_star(p, 300.0)
        assert closed_form_B_star(p, 10.0) == 1e300 * math.exp(exponent_g_star(p) * 10.0)

    @pytest.mark.parametrize("t", [15000.0, 14800.0])
    def test_from_logarithm_when_exponential_underflows(self, t):
        # exp(-0.05 * t) is 0.0 at t = 15000 and subnormal at t = 14800, while
        # B = 1e300 * exp(-0.05 * t) is a normal float at both.
        p = HIGH._replace(B0=1e300, n=3.0)
        oracle = mp.exp(mp.log(mp.mpf(1e300)) + mp.mpf(exponent_g(p)) * mp.mpf(t))
        assert math.isclose(closed_form_B(p, t), float(oracle), rel_tol=1e-12)

    @given(st.floats(min_value=0.0, max_value=50.0))
    @settings(deadline=None)
    def test_strictly_positive(self, dt):
        assert closed_form_B(HIGH, HIGH.t0 + dt) > 0.0
        assert closed_form_B_star(HIGH, HIGH.t0 + dt) > 0.0


class TestGeneralWellbeing:
    def test_matches_exponential_closed_form(self):
        p = ExponentialIncome(p0=2.0, rate=0.1)
        q = ExponentialIncome(p0=3.0, rate=0.1)
        got = general_wellbeing(p, q, a=1.0, b=0.05, B0=1.0, t0=0.0, t=10.0)
        want = closed_form_B(HIGH, 10.0)
        assert math.isclose(got, want, rel_tol=1e-8)

    def test_equal_incomes_zero_elasticity(self):
        # p = q and a = 0 leaves pure exponential decay at rate b.
        p = ExponentialIncome(p0=5.0, rate=0.03)
        got = general_wellbeing(p, p, a=0.0, b=0.07, B0=2.0, t0=0.0, t=12.0)
        oracle = float(2 * mp.e ** (-mp.mpf(0.07) * 12))
        assert math.isclose(got, oracle, rel_tol=1e-9)

    def test_linear_income_analytic_solution(self):
        # p = p0*(1+t), q = n*p, a = 1: B = B0*(1+t)^a * exp(-b*n*t).
        p = LinearIncome(p0=2.0, slope=2.0)
        q = LinearIncome(p0=3.0, slope=3.0)
        b, n, t = 0.05, 1.5, 10.0
        got = general_wellbeing(p, q, a=1.0, b=b, B0=1.0, t0=0.0, t=t)
        want = (1.0 + t) ** 1.0 * math.exp(-b * n * t)
        assert math.isclose(got, want, rel_tol=1e-6)

    def test_zero_loss_coefficient(self):
        p = ExponentialIncome(p0=1.0, rate=0.1)
        q = ExponentialIncome(p0=4.0, rate=0.1)
        got = general_wellbeing(p, q, a=2.0, b=0.0, B0=1.0, t0=0.0, t=5.0)
        assert math.isclose(got, math.exp(2.0 * 0.1 * 5.0), rel_tol=1e-10)

    def test_initial_time(self):
        p = ExponentialIncome(p0=1.0, rate=0.1)
        assert general_wellbeing(p, p, a=1.0, b=0.1, B0=7.5, t0=3.0, t=3.0) == 7.5

    def test_rejects_backwards_time(self):
        p = ExponentialIncome(p0=1.0, rate=0.1)
        with pytest.raises(DomainError):
            general_wellbeing(p, p, a=1.0, b=0.1, B0=1.0, t0=0.0, t=-1.0)

    def test_rejects_negative_coefficients(self):
        p = ExponentialIncome(p0=1.0, rate=0.1)
        with pytest.raises(DomainError):
            general_wellbeing(p, p, a=-0.5, b=0.1, B0=1.0, t0=0.0, t=1.0)
        with pytest.raises(DomainError):
            general_wellbeing(p, p, a=0.5, b=-0.1, B0=1.0, t0=0.0, t=1.0)

    @pytest.mark.parametrize("p,q,message", [
        # q crosses zero at t = 4; the quadrature's first evaluation past it is at t = 5.
        (ExponentialIncome(1.0, 0.0), LinearIncome(1.0, -0.25), "non-positive income at t = 5.0"),
        # p is -4 at t = 5.
        (LinearIncome(1.0, -1.0), ExponentialIncome(1.0, 0.0),
         "income p must be positive at the window endpoints"),
    ])
    def test_rejects_nonpositive_income_on_path(self, p, q, message):
        with pytest.raises(DomainError) as exc_info:
            general_wellbeing(p, q, a=1.0, b=0.1, B0=1.0, t0=0.0, t=5.0)
        assert str(exc_info.value) == message

    def test_beyond_float_range_of_the_income_ratio(self):
        # (p(800)/p(0))**10 = e^800 overflows; B = e^(800 - 0.5 * 1.5 * 800) does not.
        p = ExponentialIncome(p0=1.0, rate=0.1)
        got = general_wellbeing(p, p.scaled(1.5), a=10.0, b=0.5, B0=1.0, t0=0.0, t=800.0)
        assert math.isclose(got, math.exp(200.0), rel_tol=1e-12)

    def test_overflow_names_t_and_log_value(self):
        p = ExponentialIncome(p0=1.0, rate=0.1)
        with pytest.raises(OverflowError, match=r"^B overflows at t = 800: ln B = 792$"):
            general_wellbeing(p, p.scaled(0.2), a=10.0, b=0.05, B0=1.0, t0=0.0, t=800.0)

    def test_income_overflow_names_t(self):
        p = ExponentialIncome(p0=1.0, rate=1.0)
        with pytest.raises(OverflowError, match=r"^income overflows at t = 800$"):
            general_wellbeing(p, p.scaled(1.5), a=10.0, b=0.5, B0=1.0, t0=0.0, t=800.0)

    def test_income_overflow_without_exp_overflow_names_t(self):
        # exp(690) is finite, p0 times it is not: value returns inf instead of raising.
        p = ExponentialIncome(p0=1e10, rate=1000.0)
        assert p.value(0.69) == math.inf
        with pytest.raises(OverflowError, match=r"^income overflows at t = 0.69$"):
            general_wellbeing(p, p.scaled(1.5), a=1.0, b=0.05, B0=1.0, t0=0.0, t=0.69)

    def test_income_gap_overflow_names_t(self):
        # q/p = 1e310 leaves the float range while both incomes are finite.
        p, q = ExponentialIncome(p0=1e-300, rate=0.0), ExponentialIncome(p0=1e10, rate=0.0)
        with pytest.raises(OverflowError, match=r"^income gap q/p overflows at t = 0$"):
            general_wellbeing(p, q, a=1.0, b=0.05, B0=1.0, t0=0.0, t=1.0)

    def test_scale_invariance_of_income_units(self):
        rng = random.Random(7)
        for _ in range(20):
            rate = uniform(rng, 0.01, 0.1)
            p0 = uniform(rng, 0.5, 8.0)
            n = uniform(rng, 0.3, 3.0)
            c = uniform(rng, 0.01, 100.0)
            a, b = uniform(rng, 0.2, 2.0), uniform(rng, 0.01, 0.2)
            base = general_wellbeing(ExponentialIncome(p0, rate),
                                     ExponentialIncome(n * p0, rate),
                                     a=a, b=b, B0=1.0, t0=0.0, t=8.0)
            scaled = general_wellbeing(ExponentialIncome(c * p0, rate),
                                       ExponentialIncome(c * n * p0, rate),
                                       a=a, b=b, B0=1.0, t0=0.0, t=8.0)
            assert math.isclose(base, scaled, rel_tol=1e-9)


class TestRatioAnalysis:
    def test_symmetric_root_is_one(self):
        r = ratio_analysis(SYM)
        assert math.isclose(r.n_hat, 1.0, rel_tol=1e-12)
        assert r.g_rate == pytest.approx(0.0, abs=1e-15)

    def test_discriminant_and_root(self):
        p = ScenarioParams(a=2.0, a_star=1.0, b=0.1, b_star=0.2, lam=0.5,
                           n=1.0, B0=1.0, B0_star=1.0, p0=1.0)
        r = ratio_analysis(p)
        d_oracle = float((mp.mpf(2) - 1) ** 2 * mp.mpf(0.5) ** 2
                         + 4 * mp.mpf(0.1) * mp.mpf(0.2))
        assert math.isclose(r.discriminant, d_oracle, rel_tol=1e-12)
        n_oracle = float(((mp.mpf(2) - 1) * mp.mpf(0.5)
                          + mp.sqrt(mp.mpf(d_oracle))) / (2 * mp.mpf(0.1)))
        assert math.isclose(r.n_hat, n_oracle, rel_tol=1e-12)
        # The root annihilates the sign quadratic.
        at_root = ratio_analysis(p._replace(n=r.n_hat))
        assert abs(at_root.f_value) <= 1e-9 * p.b * r.n_hat ** 2

    def test_root_when_gap_term_dwarfs_loss_rates(self):
        # (a - a_star)*lam = -1e6 and 4*b*b_star = 4e-6: gap_term + sqrt(discriminant)
        # cancels to 0.0, while the positive root is about b_star/|gap_term| = 1e-9.
        p = ScenarioParams(a=1e-3, a_star=1e3, b=1e-3, b_star=1e-3, lam=1e3,
                           n=1.0, B0=1.0, B0_star=1.0, p0=1.0)
        gap = (mp.mpf(1e-3) - mp.mpf(1e3)) * mp.mpf(1e3)
        n_oracle = (gap + mp.sqrt(gap**2 + 4 * mp.mpf(1e-3) ** 2)) / (2 * mp.mpf(1e-3))
        assert math.isclose(ratio_analysis(p).n_hat, float(n_oracle), rel_tol=1e-12)

    def test_quadratic_and_rate_oppose(self):
        r = ratio_analysis(HIGH)
        assert math.isclose(r.f_value, 0.0625, rel_tol=1e-12)
        oracle_g = float(-(mp.mpf(0.05) * mp.mpf(1.5) - mp.mpf(0.05) / mp.mpf(1.5)))
        assert math.isclose(r.g_rate, oracle_g, rel_tol=1e-12)
        assert r.f_value > 0 > r.g_rate

    @given(st.floats(min_value=0.05, max_value=20.0))
    @settings(deadline=None)
    def test_quotient_identity(self, n):
        # g(n) == -f(n)/n up to roundoff.
        r = ratio_analysis(HIGH._replace(n=n))
        scale = max(abs(r.g_rate), abs(r.f_value / n), 1e-12)
        assert abs(r.g_rate + r.f_value / n) <= 1e-12 * max(scale, 1.0)

    def test_discriminant_always_positive(self):
        rng = random.Random(23)
        for _ in range(200):
            assert ratio_analysis(draw_params(rng)).discriminant > 0


class TestWellbeingRatio:
    def test_initial_ratio(self):
        p = HIGH._replace(B0=3.0, B0_star=2.0)
        assert wellbeing_ratio(p, p.t0) == 1.5

    def test_fully_symmetric_stays_one(self):
        p = SYM._replace(n=1.0)
        for t in (0.0, 1.0, 10.0, 50.0):
            assert wellbeing_ratio(p, t) == 1.0

    def test_overflow_names_t_and_log_value(self):
        # Rate 0.24 at n = 0.2: ln(B/B*) = 2400 at t = 1e4.
        p = HIGH._replace(n=0.2)
        message = r"^B/B_star overflows at t = 10000: ln B/B_star = 2400$"
        with pytest.raises(OverflowError, match=message):
            wellbeing_ratio(p, 1e4)

    def test_representable_through_overflowing_product(self):
        # exp(480) * 1e200 overflows; the ratio exp(480) does not.
        p = HIGH._replace(n=0.2, B0=1e200, B0_star=1e200)
        assert math.isclose(wellbeing_ratio(p, 2000.0), math.exp(480.0), rel_tol=1e-12)
        # A quotient past the float range at t0 that the decay brings back.
        p = HIGH._replace(B0=1e200, B0_star=1e-200)
        g = ratio_analysis(p).g_rate
        assert wellbeing_ratio(p, 9000.0) == math.exp(g * 9000.0) * 1e200 / 1e-200

    def test_from_logarithm_when_exponential_underflows(self):
        # exp(g * 17900) = e^-745.8 underflows; B0/B0_star = 1e400 brings the ratio back.
        p = HIGH._replace(B0=1e200, B0_star=1e-200)
        g = ratio_analysis(p).g_rate
        oracle = mp.exp(mp.log(mp.mpf(1e200)) - mp.log(mp.mpf(1e-200)) + mp.mpf(g) * 17900)
        assert math.isclose(wellbeing_ratio(p, 17900.0), float(oracle), rel_tol=1e-12)

    def test_high_growth_reference_value(self):
        # Rate is exactly -(3/40 - 1/30) = -1/24; over 10 years e^(-5/12).
        oracle = float(mp.e ** (mp.mpf(-5) / 12))
        assert math.isclose(wellbeing_ratio(HIGH, 10.0), oracle, rel_tol=1e-12)

    def test_matches_closed_form_quotient(self):
        rng = random.Random(41)
        for _ in range(100):
            p = draw_params(rng)
            t = p.t0 + uniform(rng, 0.0, 50.0)
            direct = wellbeing_ratio(p, t)
            quotient = closed_form_B(p, t) / closed_form_B_star(p, t)
            assert math.isclose(direct, quotient, rel_tol=1e-12)
