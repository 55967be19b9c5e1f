"""Income models, integrators, quadrature, and cross-validation."""

from __future__ import annotations

import math
import random
import tracemalloc
from dataclasses import replace

import mpmath as mp
import pytest

from wellbeing_dynamics import (
    DomainError,
    ExponentialIncome,
    IntegrationError,
    LinearIncome,
    QuadratureError,
    ScenarioParams,
    TabulatedIncome,
    Trajectory,
    closed_form_B,
    closed_form_B_star,
    cross_validate,
    integrate,
    time_grid,
)
from wellbeing_dynamics.dynamics import MAX_GRID_STEPS, _run_rk4, _run_rkf45, uniform_grid
from wellbeing_dynamics.numerics import adaptive_simpson
from conftest import draw_params, uniform

mp.mp.dps = 50

HIGH = ScenarioParams(a=1.0, a_star=1.0, b=0.05, b_star=0.05, lam=0.1,
                      n=1.5, B0=1.0, B0_star=1.0, p0=2.0)


class TestExponentialIncome:
    def test_value_and_derivative(self):
        m = ExponentialIncome(p0=2.0, rate=0.1, t0=1.0)
        assert m.value(1.0) == 2.0
        assert math.isclose(m.value(3.0), 2.0 * math.exp(0.2), rel_tol=1e-15)
        assert m.derivative(3.0) == 0.1 * m.value(3.0)

    def test_negative_rate_allowed(self):
        m = ExponentialIncome(p0=1.0, rate=-0.5)
        assert m.value(2.0) == math.exp(-1.0)

    def test_rejects_nonpositive_level(self):
        with pytest.raises(DomainError):
            ExponentialIncome(p0=0.0, rate=0.1)


class TestLinearIncome:
    def test_value_and_derivative(self):
        m = LinearIncome(p0=5.0, slope=0.5, t0=2.0)
        assert m.value(2.0) == 5.0
        assert m.value(4.0) == 6.0
        assert m.derivative(100.0) == 0.5

    def test_goes_negative_without_complaint_until_sampled(self):
        # The model itself is a straight line; positivity is enforced by
        # the consumers that sample it.
        m = LinearIncome(p0=1.0, slope=-1.0)
        assert m.value(2.0) == -1.0


class TestTabulatedIncome:
    POINTS = ((0.0, 1.0), (1.0, 2.0), (2.0, 4.0))

    def test_nodes_exact(self):
        m = TabulatedIncome(self.POINTS)
        assert m.value(0.0) == 1.0
        assert m.value(1.0) == 2.0
        assert m.value(2.0) == 4.0

    def test_log_linear_between_nodes(self):
        m = TabulatedIncome(self.POINTS)
        assert math.isclose(m.value(0.5), math.sqrt(2.0), rel_tol=1e-15)
        assert math.isclose(m.value(1.5), math.sqrt(8.0), rel_tol=1e-15)

    def test_derivative_from_node_slopes(self):
        m = TabulatedIncome(self.POINTS)
        # One-sided at the ends, centered difference inside.
        assert m.derivative(0.0) == 1.0
        assert m.derivative(1.0) == 1.5
        assert m.derivative(2.0) == 2.0
        assert m.derivative(0.5) == pytest.approx(1.25, rel=1e-15)

    def test_outside_range_rejected(self):
        m = TabulatedIncome(self.POINTS)
        with pytest.raises(DomainError, match="outside"):
            m.value(-0.1)
        with pytest.raises(DomainError, match="outside"):
            m.derivative(2.0000001)

    def test_needs_two_points(self):
        with pytest.raises(DomainError):
            TabulatedIncome(((0.0, 1.0),))

    def test_rejects_nonpositive_values(self):
        with pytest.raises(DomainError, match="must be > 0"):
            TabulatedIncome(((0.0, 1.0), (1.0, 0.0)))

    def test_rejects_unsorted_times(self):
        with pytest.raises(DomainError):
            TabulatedIncome(((0.0, 1.0), (0.0, 2.0)))
        with pytest.raises(DomainError):
            TabulatedIncome(((1.0, 1.0), (0.0, 2.0)))

    def test_exactly_recovers_exponential_samples(self):
        # Log-linear interpolation is exact for exponential data.
        rate, p0 = 0.08, 3.0
        pts = tuple((t, p0 * math.exp(rate * t)) for t in range(11))
        m = TabulatedIncome(pts)
        for t in (0.25, 3.7, 9.99):
            assert math.isclose(m.value(t), p0 * math.exp(rate * t),
                                rel_tol=1e-12)


class TestTimeGrid:
    def test_even_division(self):
        g = time_grid(0.0, 50.0, 0.01)
        assert len(g) == 5001
        assert g[0] == 0.0
        assert g[-1] == 50.0

    def test_ragged_tail_appends_endpoint(self):
        g = time_grid(0.0, 1.0, 0.3)
        assert g[-1] == 1.0
        assert len(g) == 5
        assert g[3] == pytest.approx(0.9, rel=1e-15)

    def test_inexact_step_still_hits_endpoint(self):
        g = time_grid(0.0, 0.3, 0.1)
        assert len(g) == 4
        assert g[-1] == 0.3

    def test_degenerate_span(self):
        assert time_grid(5.0, 5.0, 0.1) == [5.0]

    def test_step_larger_than_span(self):
        assert time_grid(0.0, 1.0, 3.0) == [0.0, 1.0]

    def test_validation(self):
        with pytest.raises(DomainError):
            time_grid(0.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            time_grid(1.0, 0.0, 0.1)

    def test_request_just_over_the_cap_allocates_nothing(self):
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="exceeds the limit"):
                time_grid(0.0, MAX_GRID_STEPS + 1.0, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A grid at the cap would hold a million floats (tens of MB).
        assert peak < 100_000

    def test_infinite_step_count_refused(self):
        with pytest.raises(DomainError, match="exceeds the limit"):
            time_grid(-1e308, 1e308, 1.0)
        with pytest.raises(DomainError, match="exceeds the limit"):
            uniform_grid(0.0, 1e308, 1e-308)


class TestIntegrate:
    def exponential_pair(self, params):
        p = ExponentialIncome(params.p0, params.lam, params.t0)
        q = ExponentialIncome(params.n * params.p0, params.lam, params.t0)
        return p, q

    def test_matches_closed_form(self):
        p, q = self.exponential_pair(HIGH)
        tr = integrate(p, q, HIGH, 10.0, step=0.01)
        for t, B, S in zip(tr.times, tr.B, tr.B_star):
            assert math.isclose(B, closed_form_B(HIGH, t), rel_tol=1e-6)
            assert math.isclose(S, closed_form_B_star(HIGH, t), rel_tol=1e-6)

    def test_trajectory_metadata(self):
        p, q = self.exponential_pair(HIGH)
        tr = integrate(p, q, HIGH, 2.0, step=0.1)
        assert tr.method == "rk4"
        assert tr.step == 0.1
        assert tr.tolerance is None
        assert tr.times[0] == HIGH.t0 and tr.times[-1] == 2.0
        assert tr.p[0] == HIGH.p0
        assert tr.q[0] == HIGH.n * HIGH.p0

    def test_single_sample_when_span_zero(self):
        p, q = self.exponential_pair(HIGH)
        tr = integrate(p, q, HIGH, HIGH.t0)
        assert tr.times == (HIGH.t0,)
        assert tr.B == (HIGH.B0,)
        assert tr.B_star == (HIGH.B0_star,)

    def test_exactly_cancelling_rates_hold_levels_constant(self):
        # a*lam == b*n and a_star*lam == b_star/n: both derivatives are
        # exactly zero, so every sample equals the initial level.
        params = ScenarioParams(a=1.0, a_star=1.0, b=0.05, b_star=0.2,
                                lam=0.1, n=2.0, B0=1.25, B0_star=0.75, p0=1.0)
        p, q = self.exponential_pair(params)
        tr = integrate(p, q, params, 20.0, step=0.05)
        assert set(tr.B) == {1.25}
        assert set(tr.B_star) == {0.75}

    def test_zero_rhs_leaves_state_untouched(self):
        seen = []
        _run_rk4(lambda t, B, S: (0.0, 0.0), HIGH, 5.0, 0.5,
                 lambda t, B, S: seen.append((t, B, S)))
        assert len(seen) == 10
        assert all(B == HIGH.B0 and S == HIGH.B0_star for _, B, S in seen)

    def test_linear_income_analytic_solution(self):
        # p = p0*(1+t), q = n*p, a = a* = 1: closed solutions
        # B = B0*(1+t)*exp(-b*n*t), B* = B0*(1+t)*exp(-b_star*t/n).
        params = ScenarioParams(a=1.0, a_star=1.0, b=0.05, b_star=0.08,
                                lam=0.1, n=1.5, B0=1.0, B0_star=2.0, p0=2.0)
        p = LinearIncome(params.p0, params.p0)
        q = LinearIncome(params.n * params.p0, params.n * params.p0)
        tr = integrate(p, q, params, 10.0, step=0.01)
        for t, B, S in zip(tr.times, tr.B, tr.B_star):
            want_B = (1.0 + t) * math.exp(-params.b * params.n * t)
            want_S = 2.0 * (1.0 + t) * math.exp(-params.b_star * t / params.n)
            assert math.isclose(B, want_B, rel_tol=1e-6)
            assert math.isclose(S, want_S, rel_tol=1e-6)

    def test_income_hitting_zero_aborts_with_last_state(self):
        params = replace(HIGH, p0=1.0)
        p = LinearIncome(1.0, -0.3)  # crosses zero at t = 10/3
        q = ExponentialIncome(params.n, params.lam)
        with pytest.raises(IntegrationError) as exc_info:
            integrate(p, q, params, 5.0, step=0.01)
        err = exc_info.value
        assert err.last_time is not None
        assert 0.0 <= err.last_time < 10.0 / 3.0 + 0.02
        assert err.last_state is not None
        assert all(v > 0 for v in err.last_state)

    def test_tabulated_window_too_short_rejected(self):
        m = TabulatedIncome(((0.0, 1.0), (1.0, 2.0)))
        with pytest.raises((DomainError, IntegrationError)):
            integrate(m, m, replace(HIGH, p0=1.0), 5.0, step=0.1)

    def test_invalid_method_and_times(self):
        p, q = self.exponential_pair(HIGH)
        with pytest.raises(DomainError):
            integrate(p, q, HIGH, 1.0, method="euler")
        with pytest.raises(DomainError):
            integrate(p, q, HIGH, HIGH.t0 - 1.0)
        with pytest.raises(DomainError):
            integrate(p, q, HIGH, 1.0, step=-0.1)

    def test_positivity_preserved_on_random_draws(self):
        rng = random.Random(53)
        for _ in range(10):
            params = draw_params(rng)
            p, q = self.exponential_pair(params)
            tr = integrate(p, q, params, params.t0 + 20.0, step=0.05)
            assert all(v > 0 for v in tr.B)
            assert all(v > 0 for v in tr.B_star)

    def test_time_translation_invariance(self):
        base = replace(HIGH, t0=0.0)
        shifted = replace(HIGH, t0=37.0)
        tr0 = integrate(*self.exponential_pair(base), base, 12.0, step=0.01)
        tr1 = integrate(*self.exponential_pair(shifted), shifted, 49.0, step=0.01)
        assert len(tr0.times) == len(tr1.times)
        for x, y in zip(tr0.B, tr1.B):
            assert math.isclose(x, y, rel_tol=1e-9)
        for x, y in zip(tr0.B_star, tr1.B_star):
            assert math.isclose(x, y, rel_tol=1e-9)


class TestAdaptiveIntegrate:
    def test_meets_tolerance_against_closed_form(self):
        dev = cross_validate(HIGH, 30.0, method="rkf45", tol=1e-8)
        assert dev < 1e-5

    def test_tighter_tolerance_is_more_accurate(self):
        loose = cross_validate(HIGH, 30.0, method="rkf45", tol=1e-5)
        tight = cross_validate(HIGH, 30.0, method="rkf45", tol=1e-10)
        assert tight < loose

    def test_records_strictly_increasing_times(self):
        p = ExponentialIncome(HIGH.p0, HIGH.lam)
        q = ExponentialIncome(HIGH.n * HIGH.p0, HIGH.lam)
        tr = integrate(p, q, HIGH, 25.0, method="rkf45", tol=1e-8)
        assert tr.method == "rkf45"
        assert tr.tolerance == 1e-8
        assert all(t1 < t2 for t1, t2 in zip(tr.times, tr.times[1:]))
        assert tr.times[-1] == pytest.approx(25.0, abs=1e-10)

    def test_step_underflow_raises_with_last_state(self):
        # A right-hand side that stays rough at every scale keeps the
        # embedded error estimate large, so the controller shrinks the
        # step to the floor and gives up with the last good state.
        calls = iter(range(10**9))

        def rough(t, B, S):
            return 1e8 * (next(calls) % 6), 0.0

        with pytest.raises(IntegrationError, match="underflow") as exc_info:
            _run_rkf45(rough, HIGH, 1.0, 0.01, 1e-8, lambda t, B, S: None)
        assert exc_info.value.last_time == HIGH.t0
        assert exc_info.value.last_state == (HIGH.B0, HIGH.B0_star)


class TestQuadrature:
    def test_constant_integrand_exact(self):
        value, err = adaptive_simpson(lambda s: 2.5, 1.0, 4.0)
        assert value == 7.5
        assert err == 0.0

    def test_exponential_integrand(self):
        value, err = adaptive_simpson(math.exp, 0.0, 1.0, tol=1e-10)
        oracle = float(mp.e - 1)
        assert abs(value - oracle) < 1e-10
        assert err <= 1e-10

    def test_income_ratio_integrand(self):
        # q/p constant at n: integral over [t0, t] is exactly n*(t - t0).
        p = ExponentialIncome(1.0, 0.07)
        q = ExponentialIncome(3.0, 0.07)
        value, _ = adaptive_simpson(lambda s: q.value(s) / p.value(s), 2.0, 9.0)
        assert math.isclose(value, 3.0 * 7.0, rel_tol=1e-14)

    def test_oscillatory_integrand_against_oracle(self):
        value, _ = adaptive_simpson(lambda s: math.sin(3.0 * s), 0.0, 2.0, tol=1e-12)
        oracle = float((1 - mp.cos(mp.mpf(6))) / 3)
        assert math.isclose(value, oracle, rel_tol=1e-9)

    def test_degenerate_interval(self):
        assert adaptive_simpson(math.exp, 2.0, 2.0) == (0.0, 0.0)

    def test_reversed_interval_rejected(self):
        with pytest.raises(DomainError):
            adaptive_simpson(math.exp, 1.0, 0.0)

    def test_bad_tolerance_rejected(self):
        with pytest.raises(DomainError):
            adaptive_simpson(math.exp, 0.0, 1.0, tol=0.0)

    def test_depth_exhaustion_reports_partial(self):
        with pytest.raises(QuadratureError) as exc_info:
            adaptive_simpson(lambda s: math.sin(40.0 * s), 0.0, 10.0,
                             tol=1e-13, max_depth=3)
        err = exc_info.value
        assert err.partial is not None
        assert math.isfinite(err.partial)


class TestCrossValidate:
    def test_fixed_step_reference_accuracy(self):
        assert cross_validate(HIGH, 50.0, step=0.01) < 1e-6

    def test_zero_horizon(self):
        assert cross_validate(HIGH, 0.0) == 0.0

    def test_negative_horizon_rejected(self):
        with pytest.raises(DomainError):
            cross_validate(HIGH, -1.0)

    def test_fourth_order_convergence(self):
        # |exponents| near 1 so truncation dominates roundoff; halving the
        # step should shrink the worst deviation by about 2^4.
        params = ScenarioParams(a=1.0, a_star=1.0, b=0.3, b_star=2.0,
                                lam=0.2, n=4.0, B0=1.0, B0_star=1.0, p0=1.0)
        coarse = cross_validate(params, 10.0, step=0.01)
        fine = cross_validate(params, 10.0, step=0.005)
        assert coarse / fine == pytest.approx(16.0, abs=4.0)


class TestDiscreteUpdateAgreement:
    def test_first_order_increment_matches_flow(self):
        # One explicit increment B*(1 + a*dp/p - b*dt*q/p) agrees with the
        # exact flow to second order in dt.
        a, b, lam, n = 1.0, 0.05, 0.1, 1.5

        def discrete(dt):
            growth = a * (math.exp(lam * dt) - 1.0)
            return 1.0 + growth - b * dt * n

        def exact(dt):
            return math.exp((a * lam - b * n) * dt)

        e1 = abs(discrete(1e-3) - exact(1e-3))
        e2 = abs(discrete(5e-4) - exact(5e-4))
        assert e1 < 1e-8
        assert e1 / e2 == pytest.approx(4.0, abs=1.0)


class TestTrajectoryValidation:
    def test_mismatched_columns_rejected(self):
        with pytest.raises(DomainError):
            Trajectory(times=(0.0, 1.0), B=(1.0,), B_star=(1.0, 1.0),
                       p=(1.0, 1.0), q=(1.0, 1.0), method="rk4",
                       step=0.1, tolerance=None)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            Trajectory(times=(), B=(), B_star=(), p=(), q=(),
                       method="rk4", step=0.1, tolerance=None)
