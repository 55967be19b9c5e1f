"""Income models, integrators, quadrature, and cross-validation."""

from __future__ import annotations

import math
import random
import sys
import tracemalloc
import typing
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Callable, Sequence
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    general_wellbeing,
    integrate,
    time_grid,
)
from wellbeing_dynamics import core, dynamics
from wellbeing_dynamics.dynamics import MAX_GRID_STEPS, _run_rk4, _run_rkf45, uniform_grid
from wellbeing_dynamics.numerics import adaptive_simpson
from wellbeing_dynamics.scenario import load_scenario
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

    def test_derivative_is_rate_times_value_bit_for_bit(self):
        rng = random.Random(11)
        for _ in range(2000):
            m = ExponentialIncome(rng.uniform(0.1, 1e4), rng.uniform(-0.5, 0.5),
                                  rng.uniform(-50.0, 50.0))
            t = rng.uniform(-100.0, 200.0)
            assert m.derivative(t).hex() == (m.rate * m.value(t)).hex()

    def test_negative_rate_allowed(self):
        m = ExponentialIncome(p0=1.0, rate=-0.5)
        assert m.value(2.0) == math.exp(-1.0)

    def test_rejects_nonpositive_level(self):
        with pytest.raises(DomainError):
            ExponentialIncome(p0=0.0, rate=0.1)

    @pytest.mark.parametrize("method", ["value", "derivative"])
    def test_overflow_names_t(self, method):
        # e^800 is past the float range: the message integrate and general_wellbeing give.
        with pytest.raises(OverflowError, match=r"^income overflows at t = 800$"):
            getattr(ExponentialIncome(1.0, 1.0), method)(800.0)


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

    @pytest.mark.parametrize("v0,v1", [(1e-200, 1e200), (1e200, 1e-200)])
    def test_log_linear_when_node_ratio_leaves_the_float_range(self, v0, v1):
        # The ratios 1e400 and 1e-400 are not normal floats; the midpoint value is 1.
        assert TabulatedIncome(((0.0, v0), (10.0, v1))).value(5.0) == pytest.approx(1.0, rel=1e-12)

    def test_derivative_is_value_times_segment_log_slope(self):
        # Log-slopes ln 2 on [0, 1] and ln 4 on [1, 2]: p'/p is constant on each segment.
        m = TabulatedIncome(((0.0, 1.0), (1.0, 2.0), (2.0, 8.0)))
        ln2, ln4 = math.log(2.0), math.log(4.0)
        assert m.derivative(0.5) == m.value(0.5) * ln2
        assert m.derivative(1.5) == pytest.approx(4.0 * ln4, rel=1e-15)
        # A node takes the segment after it, or with left the one before; an end node its one.
        assert (m.derivative(1.0), m.derivative(1.0, True)) == (2.0 * ln4, 2.0 * ln2)
        assert (m.derivative(0.0), m.derivative(0.0, True)) == (ln2, ln2)
        assert (m.derivative(2.0), m.derivative(2.0, True)) == (8.0 * ln4, 8.0 * ln4)

    def test_derivative_reuses_the_value_call_at_the_same_time_only(self):
        m, fresh = TabulatedIncome(self.POINTS), TabulatedIncome(self.POINTS)
        for t in (0.3, 1.0, 1.7):
            m.value(t)
            assert m.derivative(t) == fresh.derivative(t)
            assert m.derivative(t + 0.1) == fresh.derivative(t + 0.1)

    def test_outside_range_rejected(self):
        m = TabulatedIncome(self.POINTS)
        with pytest.raises(DomainError, match="outside"):
            m.value(-0.1)
        with pytest.raises(DomainError, match="outside"):
            m.derivative(2.0000001)

    def test_needs_two_points(self):
        with pytest.raises(DomainError):
            TabulatedIncome(((0.0, 1.0),))

    def test_rejects_points_that_are_not_pairs(self):
        with pytest.raises(DomainError) as exc_info:
            TabulatedIncome(((0.0, 1.0, 2.0), (1.0, 2.0, 3.0)))
        assert str(exc_info.value) == "tabulated income points must be (time, value) pairs"

    def test_rejects_nonpositive_values(self):
        with pytest.raises(DomainError, match="must be > 0"):
            TabulatedIncome(((0.0, 1.0), (1.0, 0.0)))

    def test_rejects_unsorted_times(self):
        with pytest.raises(DomainError):
            TabulatedIncome(((0.0, 1.0), (0.0, 2.0)))
        with pytest.raises(DomainError):
            TabulatedIncome(((1.0, 1.0), (0.0, 2.0)))

    @pytest.mark.parametrize("points", [((-1e308, 1.0), (1e308, 4.0)),
                                        ((-1e308, 1.0), (0.0, 2.0), (1e308, 4.0))])
    def test_rejects_times_whose_span_overflows(self, points):
        # 1e308 - (-1e308) is inf, which would make the segment weight 0: value(0.0) would be
        # 1.0, not the log-linear 2.0, and general_wellbeing would fail at t = -inf.
        with pytest.raises(DomainError) as exc_info:
            TabulatedIncome(points)
        assert str(exc_info.value) == ("tabulated income times -1e+308 and 1e+308 are too far "
                                       "apart: their difference overflows")

    def test_exactly_recovers_exponential_samples(self):
        # Log-linear interpolation is exact for exponential data.
        rate, p0 = 0.08, 3.0
        pts = tuple((t, p0 * math.exp(rate * t)) for t in range(11))
        m = TabulatedIncome(pts)
        for t in (0.25, 3.7, 9.99):
            assert math.isclose(m.value(t), p0 * math.exp(rate * t),
                                rel_tol=1e-12)


def reference_tabulated(points, t, derivative=False, left=False):
    """TabulatedIncome.value/derivative as three lookups per call (bisect_left,
    range check, bisect_right): the oracle for the single shared lookup. The
    derivative is the value times the log-slope of the segment holding t: at a
    node the one after it, or with left the one before it (an end node has one)."""
    times = [pt[0] for pt in points]
    values = [pt[1] for pt in points]
    i = bisect_left(times, t)
    if i < len(times) and times[i] == t:
        value, seg = values[i], i - 1 if left or i == len(times) - 1 else i
        seg = min(max(seg, 0), len(times) - 2)
    elif t < times[0] or t > times[-1]:
        raise DomainError(f"t = {t} outside the tabulated range [{times[0]}, {times[-1]}]")
    else:
        seg = min(bisect_right(times, t) - 1, len(times) - 2)
        w = (t - times[seg]) / (times[seg + 1] - times[seg])
        value = values[seg] * (values[seg + 1] / values[seg]) ** w
    if not derivative:
        return value
    ratio = values[seg + 1] / values[seg]
    log_ratio = (math.log(ratio) if sys.float_info.min <= ratio < math.inf
                 else math.log(values[seg + 1]) - math.log(values[seg]))
    return value * (log_ratio / (times[seg + 1] - times[seg]))


@st.composite
def tables(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    times = draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n, unique=True))
    values = draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    return tuple(zip(sorted(times), values))


class TestTabulatedLookup:
    @given(st.data())
    def test_matches_three_lookup_reference_bit_for_bit(self, data):
        points = data.draw(tables())
        m = TabulatedIncome(points)
        lo, hi = points[0][0], points[-1][0]
        t = data.draw(st.one_of(st.sampled_from([pt[0] for pt in points]),
                                st.floats(min_value=lo, max_value=hi)))
        assert m.value(t).hex() == reference_tabulated(points, t).hex()
        for left in (False, True):
            assert m.derivative(t, left).hex() == reference_tabulated(points, t, True, left).hex()

    @given(tables())
    def test_nodes_return_stored_value_and_either_side_slope(self, points):
        m = TabulatedIncome(points)
        for t, v in points:
            assert m.value(t) == v
            for left in (False, True):
                want = reference_tabulated(points, t, True, left)
                assert m.derivative(t, left).hex() == want.hex()

    @given(tables())
    def test_just_outside_either_end_raises_same_text(self, points):
        m = TabulatedIncome(points)
        lo, hi = points[0][0], points[-1][0]
        for t in (math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)):
            for method in (m.value, m.derivative):
                with pytest.raises(DomainError) as exc_info:
                    method(t)
                assert str(exc_info.value) == f"t = {t} outside the tabulated range [{lo}, {hi}]"
        # nan compares false both ways and is refused like any t not in range.
        with pytest.raises(DomainError, match="t = nan outside"):
            m.value(math.nan)


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

    def test_span_within_rounding_of_zero_keeps_t0(self):
        # 0 < t_end - t0 <= 1e-9 * step: the one grid point is t0, and t_end follows it.
        assert time_grid(0.0, 1e-12, 0.01) == [0.0, 1e-12]
        assert time_grid(3.0, 3.0 + 4.5e-16, 1.0) == [3.0, 3.0 + 4.5e-16]

    @pytest.mark.parametrize("method", ["rk4", "rkf45"])
    def test_span_within_rounding_of_zero_integrates_to_t_end(self, method):
        p = ExponentialIncome(HIGH.p0, HIGH.lam)
        tr = integrate(p, p.scaled(HIGH.n), HIGH, 1e-12, method=method)
        assert tr.times == (0.0, 1e-12)
        assert tr.B[-1] == pytest.approx(closed_form_B(HIGH, 1e-12), rel=1e-15)

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
        return p, p.scaled(params.n)

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

    @pytest.mark.parametrize("method", ["rk4", "rkf45"])
    def test_single_sample_when_span_zero(self, method):
        p, q = self.exponential_pair(HIGH)
        tr = integrate(p, q, HIGH, HIGH.t0, method=method)
        assert tr.times == (HIGH.t0,)
        assert tr.B == (HIGH.B0,)
        assert tr.B_star == (HIGH.B0_star,)

    @pytest.mark.parametrize("method", ["rk4", "rkf45"])
    def test_income_overflow_raises_with_last_state(self, method):
        # exp(1e100 * t) overflows at the first stage after t0.
        params = HIGH._replace(lam=1e100)
        p, q = self.exponential_pair(params)
        with pytest.raises(IntegrationError, match=r"^income overflows at t = ") as exc_info:
            integrate(p, q, params, 5.0, method=method)
        assert exc_info.value.last_time == params.t0
        assert exc_info.value.last_state == (params.B0, params.B0_star)

    def test_state_overflow_raises_with_last_finite_state(self):
        # b = 1e3 makes h * c_B = -15, outside RK4's stability region: each
        # step multiplies B by about 1.6e3 until it overflows at t = 0.95.
        params = HIGH._replace(b=1e3)
        p, q = self.exponential_pair(params)
        with pytest.raises(IntegrationError,
                           match=r"^state left the positive domain at t = 0\.95") as exc_info:
            integrate(p, q, params, 5.0, step=0.01)
        B, S = exc_info.value.last_state
        assert math.isfinite(B) and math.isfinite(S) and B > 0.0 and S > 0.0

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
        # _run_rk4 takes coefficients(t) -> (c_B, c_S, p, q), their value
        # at t0 and record(t, B, S, sample); zero coefficients make a zero RHS.
        _run_rk4(lambda t: (0.0, 0.0, 1.0, 1.0), (0.0, 0.0, 1.0, 1.0), HIGH, 5.0, 0.5,
                 lambda t, B, S, sample: seen.append((t, B, S)))
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
        params = HIGH._replace(p0=1.0)
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
            integrate(m, m, HIGH._replace(p0=1.0), 5.0, step=0.1)

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
        base = HIGH._replace(t0=0.0)
        shifted = HIGH._replace(t0=37.0)
        tr0 = integrate(*self.exponential_pair(base), base, 12.0, step=0.01)
        tr1 = integrate(*self.exponential_pair(shifted), shifted, 49.0, step=0.01)
        assert len(tr0.times) == len(tr1.times)
        for x, y in zip(tr0.B, tr1.B):
            assert math.isclose(x, y, rel_tol=1e-9)
        for x, y in zip(tr0.B_star, tr1.B_star):
            assert math.isclose(x, y, rel_tol=1e-9)


def reference_rhs(p, q, params):
    """(rhs, record, columns) of the reference loops below: the right-hand
    side from four income calls, and a record that samples both incomes again.
    rhs(..., left=True) asks the incomes for their rates from the left."""
    a, b, a_s, b_s = params.a, params.b, params.a_star, params.b_star
    cols = ([], [], [], [], [])

    def rhs(t, B, S, left=False):
        pv, qv = p.value(t), q.value(t)
        dp, dq = p.derivative(t, left), q.derivative(t, left)
        return (a * dp / pv - b * qv / pv) * B, (a_s * dq / qv - b_s * pv / qv) * S

    def record(t, B, S):
        for col, x in zip(cols, (t, B, S, p.value(t), q.value(t))):
            col.append(x)

    return rhs, record, cols


def reference_nodes(p, q, t0, t_end):
    """Both incomes' node times in (t0, t_end], where the integrators end steps."""
    return sorted({s for s in (*p.nodes, *q.nodes) if t0 < s <= t_end})


def reference_rk4(p, q, params, grid):
    """Four right-hand-side evaluations per step plus an income sample per
    record: the RK4 loop that stage sharing replaced, kept as the oracle. Steps
    end on the grid times and on the incomes' nodes, where k4 takes the rates
    left of the node and the next k1 those right of it; only grid times are
    recorded."""
    rhs, record, cols = reference_rhs(p, q, params)
    rows, nodes = set(grid), set(reference_nodes(p, q, grid[0], grid[-1]))
    t = grid[0]
    B, S = params.B0, params.B0_star
    record(t, B, S)
    for t_next in sorted(rows | nodes)[1:]:
        h = t_next - t
        k1B, k1S = rhs(t, B, S)
        k2B, k2S = rhs(t + 0.5 * h, B + 0.5 * h * k1B, S + 0.5 * h * k1S)
        k3B, k3S = rhs(t + 0.5 * h, B + 0.5 * h * k2B, S + 0.5 * h * k2S)
        if t_next in nodes:
            k4B, k4S = rhs(t_next, B + h * k3B, S + h * k3S, left=True)
        else:
            k4B, k4S = rhs(t + h, B + h * k3B, S + h * k3S)
        B += h / 6.0 * (k1B + 2.0 * k2B + 2.0 * k3B + k4B)
        S += h / 6.0 * (k1S + 2.0 * k2S + 2.0 * k3S + k4S)
        t = t_next
        if t in rows:
            record(t, B, S)
    return tuple(tuple(col) for col in cols)


def left_sum(terms) -> float:
    """The terms added left to right from 0.0; sum() compensates its float additions
    from Python 3.12 on."""
    total = 0.0
    for term in terms:
        total += term
    return total


def reference_rkf45(p, q, params, t_end, step, tol):
    """Six right-hand-side evaluations per attempt plus an income sample per
    record: the RKF45 loop before it stepped on the coefficients, kept as
    the oracle. The stops are the nodes of either income, then t_end. A step
    that would reach the next stop, or end short of it by less than h_min, ends
    exactly on it, with its last stage from the left of the stop, and once
    accepted the next step resumes the size that was cut."""
    rhs, record, cols = reference_rhs(p, q, params)
    t, h = params.t0, step
    B, S = params.B0, params.B0_star
    record(t, B, S)
    h_min = 1e-14 * max(1.0, abs(t), abs(t_end))
    nodes = iter((*reference_nodes(p, q, t, t_end), t_end))
    node = next(nodes)
    while t < t_end:
        end, cut = t + h, t + h > node - h_min
        if cut:
            wanted, h, end = h, node - t, node
        ks = []
        for c, row in zip(dynamics._RKF_C, dynamics._RKF_A):
            Bi = B + h * left_sum(aij * ks[j][0] for j, aij in enumerate(row))
            Si = S + h * left_sum(aij * ks[j][1] for j, aij in enumerate(row))
            ks.append(rhs(end, Bi, Si, left=cut) if c == 1.0 else rhs(t + c * h, Bi, Si))
        B5 = B + h * left_sum(w * k[0] for w, k in zip(dynamics._RKF_B5, ks))
        S5 = S + h * left_sum(w * k[1] for w, k in zip(dynamics._RKF_B5, ks))
        B4 = B + h * left_sum(w * k[0] for w, k in zip(dynamics._RKF_B4, ks))
        S4 = S + h * left_sum(w * k[1] for w, k in zip(dynamics._RKF_B4, ks))
        err = max(abs(B5 - B4) / (tol * max(abs(B), abs(B5), 1e-300)),
                  abs(S5 - S4) / (tol * max(abs(S), abs(S5), 1e-300)))
        if err <= 1.0:
            t = end
            B, S = B5, S5
            record(t, B, S)
            if cut:
                h, node = wanted, next(nodes, t_end)
                continue
        h *= min(5.0, max(0.2, 5.0 if err == 0.0 else 0.9 * err**-0.2))
    return tuple(tuple(col) for col in cols)


def count_income_calls(monkeypatch) -> Counter:
    """Count value/derivative calls on every income class from now on, by
    method name (str keys) and by evaluated time (float keys)."""
    counts = Counter()
    for cls in (ExponentialIncome, LinearIncome, TabulatedIncome):
        for name in ("value", "derivative"):
            def counting(self, t, *left, fn=getattr(cls, name), name=name):
                counts[name] += 1
                counts[t] += 1
                return fn(self, t, *left)
            monkeypatch.setattr(cls, name, counting)
    return counts


class TestRK4StageSharing:
    """integrate's RK4 evaluates each distinct stage time once and gives the
    same floats as the four-evaluation loop."""

    def assert_matches_reference(self, p, q, params, t_end, step):
        tr = integrate(p, q, params, t_end, method="rk4", step=step)
        want = reference_rk4(p, q, params, dynamics.time_grid(params.t0, t_end, step))
        assert (tr.times, tr.B, tr.B_star, tr.p, tr.q) == want

    def test_exponential(self):
        p = ExponentialIncome(HIGH.p0, HIGH.lam)
        self.assert_matches_reference(p, p.scaled(HIGH.n), HIGH, 20.0, 0.01)

    def test_linear(self):
        params = HIGH._replace(b=0.07, a_star=0.6)
        self.assert_matches_reference(LinearIncome(2.0, 0.3), LinearIncome(3.0, 0.1),
                                      params, 10.0, 0.05)

    def test_tabulated_with_nodes_on_grid_times(self):
        # Nodes every 0.5 on a 0.05 grid: grid times and midpoints land on nodes.
        rng = random.Random(5)
        p = TabulatedIncome(tuple((0.5 * k, 2.0 * math.exp(0.05 * k + rng.uniform(0, 0.1)))
                                  for k in range(21)))
        assert set(p.nodes) & set(time_grid(0.0, 10.0, 0.05))
        self.assert_matches_reference(p, p.scaled(1.7), HIGH, 10.0, 0.05)

    def test_tabulated_with_nodes_off_the_grid(self):
        # Nodes every 0.37 on a 0.1 grid: 26 of the 27 split a step and add no row.
        p, q = income_pairs()[2].values
        inside = {s for s in p.nodes if 0.0 < s <= 10.0}
        assert (len(inside), inside & set(time_grid(0.0, 10.0, 0.1))) == (27, {3.7})
        self.assert_matches_reference(p, q, HIGH, 10.0, 0.1)

    def test_grid_starting_below_zero(self):
        # The last step crosses zero, and there t + h != t_next.
        params = HIGH._replace(t0=-1.18)
        grid = time_grid(params.t0, 0.01, 0.1)
        assert grid[-2] + (grid[-1] - grid[-2]) != grid[-1]
        # A steep income anchored at 0, so that a time one ulp off changes the floats.
        p = ExponentialIncome(params.p0, 20.0)
        self.assert_matches_reference(p, p.scaled(params.n), params, 0.01, 0.1)

    def test_inexact_step_inside_the_grid(self, monkeypatch):
        # t + h != t_next on the first step, so the next step's k1 is
        # evaluated afresh rather than reused.
        grid = [-0.1, 0.3, 0.7, 1.1]
        assert grid[0] + (grid[1] - grid[0]) != grid[1]
        monkeypatch.setattr(dynamics, "time_grid", lambda t0, t_end, step: list(grid))
        params = HIGH._replace(t0=-0.1)
        p = ExponentialIncome(params.p0, 20.0)
        self.assert_matches_reference(p, p.scaled(params.n), params, 1.1, 0.4)
        # The income at 0.3 serves both its record and the next k1: one
        # evaluation, four calls, at every time the step evaluates.
        counts = count_income_calls(monkeypatch)
        integrate(p, p.scaled(params.n), params, 1.1, method="rk4", step=0.4)
        times = {t: n for t, n in counts.items() if isinstance(t, float)}
        assert 0.3 in times
        assert set(times.values()) == {4}

    def test_at_most_eight_income_calls_per_step(self, monkeypatch):
        p = ExponentialIncome(HIGH.p0, HIGH.lam)
        q = p.scaled(HIGH.n)
        counts = count_income_calls(monkeypatch)
        tr = integrate(p, q, HIGH, 5.0, method="rk4", step=0.01)
        steps = len(tr.times) - 1
        assert steps == 500
        # Four calls at t0, then two stage times per step at four calls each;
        # the four-evaluation loop made 26N + 2.
        assert counts["value"] + counts["derivative"] == 8 * steps + 4

    def test_rkf45_calls_both_derivatives_six_times_per_attempt(self, monkeypatch):
        # Benchmarks recover RKF45 attempts as derivative calls inside the
        # attempts / 12; t0 costs 2 derivative calls outside them. A step that
        # ends on a node costs no more.
        counts = count_income_calls(monkeypatch)
        tab, _ = income_pairs()[2].values
        for p, t_end in ((ExponentialIncome(HIGH.p0, HIGH.lam), 50.0), (tab, 14.0)):
            counts.clear()
            tr = integrate(p, p.scaled(HIGH.n), HIGH, t_end, method="rkf45", step=0.5)
            samples = len(tr.times)
            attempts, rest = divmod(counts["derivative"] - 2, 12)
            assert rest == 0
            assert attempts >= samples - 1
            assert counts["value"] == counts["derivative"]


def income_pairs():
    """(p, q) on exponential, linear and tabulated income, each defined from t = -3.7 on."""
    rng = random.Random(17)
    tab = TabulatedIncome(tuple((0.37 * k - 3.7, 2.0 * math.exp(0.05 * k + rng.uniform(0, 0.1)))
                                for k in range(50)))
    exp = ExponentialIncome(HIGH.p0, HIGH.lam)
    return [pytest.param(exp, exp.scaled(HIGH.n), id="exponential"),
            pytest.param(LinearIncome(2.0, 0.3), LinearIncome(3.0, 0.1), id="linear"),
            pytest.param(tab, tab.scaled(1.7), id="tabulated")]


class TestOneEvaluationPerTime:
    """Every income call inside integrate comes from one evaluation of
    (p, q, p', q') at one time, and each recorded (p, q) is that evaluation's."""

    @pytest.mark.parametrize("case,t0,t_end,step,tol,coefficients", [
        ("mid-range", 0.0, 12.0, 0.3, 1e-9, {}),
        ("negative t0", -3.7, 10.0, 0.3, 1e-9, {}),
        ("first step beyond the span", 0.0, 2.5, 10.0, 1e-9, {}),
        ("shortened final step", 0.0, 1.5, 0.2, 1e-4, {}),
        ("tight tol, large first step", 0.0, 10.0, 5.0, 1e-12, {}),
        # h*|c_B| of 0.1 to 0.7 on exponential income (0.02 above), so that B + h*(sum)
        # keeps a last-bit change of the sum: reordering a stage's sum changes the bits.
        ("large h*c, decaying", 0.0, 12.0, 0.5, 1e-4,
         {"a": 4.0, "a_star": 4.0, "b": 3.0, "b_star": 3.0}),
        ("large h*c, growing", 0.0, 12.0, 0.5, 1e-4, {"a": 20.0, "a_star": 20.0}),
    ])
    @pytest.mark.parametrize("p,q", income_pairs())
    def test_rkf45_matches_resampling_loop(self, monkeypatch, p, q, case, t0, t_end, step, tol,
                                           coefficients):
        params = HIGH._replace(t0=t0, **coefficients)
        counts = count_income_calls(monkeypatch)
        tr = integrate(p, q, params, t_end, method="rkf45", step=step, tol=tol)
        attempts, accepted = (counts["derivative"] - 2) / 12, len(tr.times) - 1
        want = reference_rkf45(p, q, params, t_end, step, tol)
        assert (tr.times, tr.B, tr.B_star, tr.p, tr.q) == want
        assert step > t_end - t0 if case == "first step beyond the span" else step < t_end - t0
        if case == "shortened final step":
            # No attempt failed, and an accepted step lets the next grow at least 0.9-fold,
            # so only t_end can have cut the last one below that.
            assert attempts == accepted
            assert tr.times[-1] - tr.times[-2] < 0.9 * (tr.times[-2] - tr.times[-3])
        if case == "tight tol, large first step":
            assert attempts > accepted

    @pytest.mark.parametrize("method", ["rk4", "rkf45"])
    @pytest.mark.parametrize("p,q", income_pairs())
    def test_value_calls_equal_derivative_calls(self, monkeypatch, method, p, q):
        counts = count_income_calls(monkeypatch)
        integrate(p, q, HIGH, 12.0, method=method, step=0.37)
        assert counts["value"] > 0
        assert counts["value"] == counts["derivative"]


def translated(model, shift):
    """The income model with its time axis moved by shift."""
    if isinstance(model, TabulatedIncome):
        return TabulatedIncome(tuple((t + shift, v) for t, v in model.points))
    return model._replace(t0=model.t0 + shift)


class TestTimeTranslation:
    """Moving t0, t_end and the incomes by the same shift moves only the times. RK4's grid
    keeps its steps, so it moves by rounding alone. RKF45's accepted steps move with the
    rounding of t, so its end state moves within its error: below 1e-12 on smooth incomes
    (tol 1e-8), and on tabulated ones too (1.2e-12 at worst over 300 draws), whose steps
    end on the moved nodes, where the log-slope changes."""

    RKF45_BOUND = {"exponential": 1e-9, "linear": 1e-9, "tabulated": 1e-9}

    @given(seed=st.integers(0, 2**32 - 1), shift=st.floats(-1e3, 1e3),
           kind=st.sampled_from(["exponential", "linear", "tabulated"]))
    @settings(max_examples=30, deadline=None)
    def test_integrate(self, seed, shift, kind):
        rng = random.Random(seed)
        params = draw_params(rng, t0=uniform(rng, -100.0, 100.0))
        t0, t_end = params.t0, params.t0 + uniform(rng, 1.0, 50.0)
        if kind == "exponential":
            p = ExponentialIncome(params.p0, params.lam, t0)
        elif kind == "linear":
            p = LinearIncome(params.p0, params.lam * params.p0, t0)
        else:
            logs = [params.lam * k + uniform(rng, 0.0, 0.1) for k in range(52)]
            p = TabulatedIncome(tuple((t0 + k, params.p0 * math.exp(x))
                                      for k, x in enumerate(logs)))
        moved = params._replace(t0=t0 + shift)
        p_moved = translated(p, shift)
        for method, bound in (("rk4", 1e-12), ("rkf45", self.RKF45_BOUND[kind])):
            tr = integrate(p, p.scaled(params.n), params, t_end, method=method, step=0.1)
            tr_moved = integrate(p_moved, p_moved.scaled(params.n), moved, t_end + shift,
                                 method=method, step=0.1)
            if method == "rk4":
                assert len(tr.times) == len(tr_moved.times)
                pairs = list(zip(tr.B + tr.B_star, tr_moved.B + tr_moved.B_star))
            else:
                pairs = [(tr.B[-1], tr_moved.B[-1]), (tr.B_star[-1], tr_moved.B_star[-1])]
            assert all(math.isclose(x, y, rel_tol=bound) for x, y in pairs), method


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

        def rough(t, left=False):
            return 1e8 * (next(calls) % 6), 0.0, 1.0, 1.0

        with pytest.raises(IntegrationError, match="underflow") as exc_info:
            _run_rkf45(rough, HIGH, 1.0, 0.01, 1e-8, lambda t, B, S, sample: None)
        assert exc_info.value.last_time == HIGH.t0
        assert exc_info.value.last_state == (HIGH.B0, HIGH.B0_star)

    @pytest.mark.parametrize("method,t_named", [("rk4", "354.55"), ("rkf45", "354.8")])
    def test_income_derivative_overflow_names_t(self, method, t_named):
        # p(354.8) = 1.497e308 is finite, but p' = 2p is inf from t = 354.5448 on. RKF45's error
        # estimate is then NaN at every step size: an income overflow, not step underflow.
        p = ExponentialIncome(1.0, 2.0)
        params = ScenarioParams(a=1e-3, a_star=1e-3, b=1e-3, b_star=1e-3, lam=2.0, n=1.0,
                                B0=1.0, B0_star=1.0, p0=1.0)
        with pytest.raises(IntegrationError,
                           match=rf"^income overflows at t = {t_named}$") as exc_info:
            integrate(p, p.scaled(1.0), params, 354.8, method=method)
        last_time, (B, S) = exc_info.value.last_time, exc_info.value.last_state
        assert last_time < 354.5448
        assert B == pytest.approx(closed_form_B(params, last_time), rel=1e-6)
        assert S == pytest.approx(closed_form_B_star(params, last_time), rel=1e-6)


class TestTheoremBeyondExponentialIncome:
    # The paper's claim for any pair with q/p >= n and p'/p <= lam at all times: when
    # b*n > a*lam, dB/dt = (a*p'/p - b*q/p)*B <= (a*lam - b*n)*B < 0. Here p = p0*(1 + lam*t)
    # and q/p = n*(1.5 + lam*t)/(1 + lam*t), which falls from 1.5*n towards n.
    LAM, N, A, B = 0.1, 2.0, 1.0, 1.0
    P = LinearIncome(p0=2.0, slope=2.0 * LAM)
    Q = LinearIncome(p0=1.5 * N * 2.0, slope=N * 2.0 * LAM)

    def test_rkf45_well_being_never_rises(self):
        params = ScenarioParams(a=self.A, a_star=0.01, b=self.B, b_star=0.01, lam=self.LAM,
                                n=self.N, B0=1e300, B0_star=1.0, p0=2.0)
        B = integrate(self.P, self.Q, params, 100.0, method="rkf45").B
        assert all(later <= earlier for earlier, later in zip(B, B[1:]))
        assert B[-1] < 1e205

    def test_general_wellbeing_never_rises(self):
        # From B0 = 1e300, ln B is about -142 at t = 400 and -727 at t = 690 (subnormal), below
        # the float range after. exp(-b * I) alone underflows past t = 355.
        times = (0.0, 10.0, 100.0, 200.0, 400.0, 600.0, 680.0, 690.0, 700.0, 1000.0)
        B = [general_wellbeing(self.P, self.Q, self.A, self.B, 1e300, 0.0, t) for t in times]
        assert all(later <= earlier for earlier, later in zip(B, B[1:]))
        assert B[times.index(690.0)] > 0.0
        assert B[-1] == 0.0


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

    def test_points_split_the_tolerance_by_length(self):
        # 100 pieces with tol/100 each: the estimates sum to at most tol. With the
        # whole tol per piece they would sum to 2.5e-9.
        points = [0.04 * k for k in range(1, 100)]
        value, err = adaptive_simpson(math.exp, 0.0, 4.0, tol=1e-10, points=points)
        assert abs(value - float(mp.e**4 - 1)) < 1e-10
        assert err <= 1e-10

    def test_depth_exhaustion_with_points_counts_pending_pieces(self):
        # s**4 on the first piece fails at depth 0; the three pieces where f is 1 are
        # still pending, and the partial value counts them.
        with pytest.raises(QuadratureError) as exc_info:
            adaptive_simpson(lambda s: s**4 if s < 1.0 else 1.0, 0.0, 4.0,
                             tol=1e-15, max_depth=0, points=[1.0, 2.0, 3.0])
        assert abs(exc_info.value.partial - (0.2 + 3.0)) < 0.01

    @pytest.mark.parametrize("points", [[0.0], [4.0], [2.0, 1.0], [1.0, 1.0], [math.nan],
                                        [-1.0, 2.0]])
    def test_points_must_increase_strictly_inside(self, points):
        with pytest.raises(DomainError, match="points must increase strictly inside"):
            adaptive_simpson(math.exp, 0.0, 4.0, points=points)

    def test_type_hints_resolve(self):
        hints = typing.get_type_hints(adaptive_simpson)
        assert hints["f"] == Callable[[float], float]
        assert hints["points"] == Sequence[float]


def log_income(model, s):
    """ln model(s) in mpmath from the model's own parameters: exponential income, or
    tabulated income, which is log-linear between its nodes."""
    s = mp.mpf(s)
    if isinstance(model, ExponentialIncome):
        return mp.log(model.p0) + model.rate * (s - model.t0)
    times = [t for t, _ in model.points]
    i = min(max(bisect_right(times, s) - 1, 0), len(times) - 2)
    (t_lo, v_lo), (t_hi, v_hi) = model.points[i], model.points[i + 1]
    return mp.log(v_lo) + (s - t_lo) * (mp.log(v_hi) - mp.log(v_lo)) / (t_hi - t_lo)


def piecewise_exponential_wellbeing(p, q, a, b, B0, t0, t):
    """B0 * exp(a * ln(p(t)/p(t0)) - b * I) for exponential or tabulated p and q, with
    no quadrature and no ODE: between consecutive nodes of either income, ln(q/p) is
    linear, so q/p = exp(alpha + gamma*s) there and its integral has a closed form."""
    cuts = [mp.mpf(t0), *sorted({mp.mpf(s) for m in (p, q) if isinstance(m, TabulatedIncome)
                                 for s, _ in m.points if t0 < s < t}), mp.mpf(t)]
    integral = mp.mpf(0)
    for u, v in zip(cuts, cuts[1:]):
        gap_u, gap_v = log_income(q, u) - log_income(p, u), log_income(q, v) - log_income(p, v)
        gamma = (gap_v - gap_u) / (v - u)
        integral += ((mp.exp(gap_v) - mp.exp(gap_u)) / gamma if gamma else
                     mp.exp(gap_u) * (v - u))
    return float(B0 * mp.exp(a * (log_income(p, t) - log_income(p, t0)) - b * integral))


def node_times(count, end, seed):
    """0, count random times inside (0, end), and end."""
    rng = random.Random(seed)
    return [0.0, *sorted(rng.uniform(0.0, end) for _ in range(count)), end]


def kinked_income(times, seed, level=2.0):
    """Tabulated income on times, growing by -2..8% a year on each segment."""
    rng, points = random.Random(seed), [(times[0], level)]
    for t_lo, t_hi in zip(times, times[1:]):
        points.append((t_hi, points[-1][1] * math.exp(rng.uniform(-0.02, 0.08) * (t_hi - t_lo))))
    return TabulatedIncome(tuple(points))


def spy_points(monkeypatch) -> list:
    """The points argument of every adaptive_simpson call general_wellbeing makes."""
    seen = []

    def spy(*args, points=(), **kwargs):
        seen.append(list(points))
        return adaptive_simpson(*args, points=points, **kwargs)

    monkeypatch.setattr(core, "adaptive_simpson", spy)
    return seen


class TestQuadratureSplitAtNodes:
    """general_wellbeing splits the quadrature at both incomes' nodes inside (t0, t)."""

    P = kinked_income(node_times(13, 20.0, seed=23), seed=1)
    Q = kinked_income(node_times(9, 20.5, seed=24), seed=2)
    EXP = ExponentialIncome(1.3, 0.08, t0=2.0)

    def assert_matches_oracle(self, p, q, t0, t, a=1.0, b=0.3, B0=1.5):
        got = general_wellbeing(p, q, a, b, B0, t0, t)
        want = piecewise_exponential_wellbeing(p, q, a, b, B0, t0, t)
        assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("p,q", [
        pytest.param(P, Q, id="different node sets"),
        pytest.param(Q, P, id="different node sets, roles swapped"),
        pytest.param(EXP, Q, id="exponential p, tabulated q"),
        pytest.param(P, EXP, id="tabulated p, exponential q"),
    ])
    def test_against_per_segment_closed_form(self, p, q):
        self.assert_matches_oracle(p, q, 0.7, 18.2)

    def test_nodes_at_both_ends_and_outside_the_window(self, monkeypatch):
        seen = spy_points(monkeypatch)
        t0, t = self.P.nodes[3], self.P.nodes[11]
        self.assert_matches_oracle(self.P, self.Q, t0, t)
        inside = sorted({s for s in self.P.nodes + self.Q.nodes if t0 < s < t})
        assert seen == [inside]
        assert len(inside) < len(self.P.nodes) + len(self.Q.nodes) - 2

    def test_shared_nodes_once(self, monkeypatch):
        seen = spy_points(monkeypatch)
        self.assert_matches_oracle(self.P, self.P.scaled(1.7), 0.5, 19.0)
        assert seen == [[s for s in self.P.nodes if 0.5 < s < 19.0]]

    def test_empty_window(self, monkeypatch):
        seen = spy_points(monkeypatch)
        t0 = self.P.nodes[4]
        assert general_wellbeing(self.P, self.Q, 1.0, 0.3, 1.5, t0, t0) == 1.5
        assert seen == [[]]

    def test_fewer_than_half_the_integrand_calls(self):
        # 21 nodes over [0, 40]: the whole-interval rule bisects deep at every kink.
        times = [2.0 * k for k in range(21)]
        p, q = kinked_income(times, seed=3), kinked_income(times, seed=4, level=3.0)
        calls = []

        def gap(s):
            calls.append(s)
            return q.value(s) / p.value(s)

        whole, _ = adaptive_simpson(gap, 0.0, 40.0)
        n_whole = len(calls)
        calls.clear()
        split, _ = adaptive_simpson(gap, 0.0, 40.0, points=times[1:-1])
        assert 2 * len(calls) < n_whole  # 501 against 2,005
        want = piecewise_exponential_wellbeing(p, q, 0.0, 1.0, 1.0, 0.0, 40.0)
        for value in (whole, split):
            assert abs(math.exp(-value) - want) <= 1e-12 * want

    @pytest.mark.parametrize("p,q", [
        pytest.param(ExponentialIncome(2.0, 0.1), ExponentialIncome(3.0, 0.07), id="exponential"),
        pytest.param(LinearIncome(2.0, 0.3), LinearIncome(3.0, 0.1), id="linear"),
    ])
    def test_smooth_incomes_take_one_piece_bit_for_bit(self, monkeypatch, p, q):
        seen = spy_points(monkeypatch)
        got = general_wellbeing(p, q, 1.2, 0.05, 2.0, 0.5, 13.0)
        assert seen == [[]]
        integral, _ = adaptive_simpson(lambda s: q.value(s) / p.value(s), 0.5, 13.0)
        log_growth = 1.2 * (math.log(p.value(13.0)) - math.log(p.value(0.5))) - 0.05 * integral
        assert got == core.grown(2.0, log_growth, "B", 13.0)


def log_income_exact(model, s):
    """ln model(s) in mpmath for any of the three income models."""
    if isinstance(model, LinearIncome):
        return mp.log(model.p0 + model.slope * (mp.mpf(s) - model.t0))
    return log_income(model, s)


def exact_wellbeing(params, p, t):
    """(B, B*) at t for the scenario pair (p, n*p), on any income model: q/p = n, so
    ln B = ln B0 + a*ln(p(t)/p(t0)) - b*n*(t - t0) and the same with a*, b*/n."""
    growth, dt = log_income_exact(p, t) - log_income_exact(p, params.t0), mp.mpf(t) - params.t0
    return (params.B0 * mp.exp(params.a * growth - params.b * params.n * dt),
            params.B0_star * mp.exp(params.a_star * growth - params.b_star / params.n * dt))


def scenario_incomes():
    """One income of each model from t = -3.7 on, the tabulated one kinked at every node."""
    rng = random.Random(17)
    tab = TabulatedIncome(tuple((0.37 * k - 3.7, 2.0 * math.exp(0.111 * k + rng.uniform(0, 0.3)))
                                for k in range(50)))
    return [pytest.param(ExponentialIncome(2.0, 0.3, -1.3), id="exponential"),
            pytest.param(LinearIncome(2.0, 0.9, -1.3), id="linear"),
            pytest.param(tab, id="tabulated")]


class TestExactForm:
    """Both integrators against the exact well-being of a scenario pair q = n*p, and RKF45
    against general_wellbeing on mixed pairs: one model of the income on both paths."""

    PARAMS = ScenarioParams(a=2.0, a_star=1.5, b=0.5, b_star=0.9, lam=0.3, n=1.5,
                            B0=1.0, B0_star=2.0, p0=2.0, t0=-1.3)

    def row_errors(self, p, tr):
        errors = []
        for t, B, S in zip(tr.times, tr.B, tr.B_star):
            B_exact, S_exact = exact_wellbeing(self.PARAMS, p, t)
            errors.append(float(max(abs(B - B_exact) / B_exact, abs(S - S_exact) / S_exact)))
        return errors

    @pytest.mark.parametrize("p", scenario_incomes())
    def test_rk4_is_fourth_order_on_every_row(self, p):
        # Rows k, 2k and 4k of the grids at h, h/2 and h/4 share a time up to rounding.
        # Tabulated nodes fall off these grids, so they split steps.
        errors = [self.row_errors(p, integrate(p, p.scaled(self.PARAMS.n), self.PARAMS, 8.7,
                                               step=h))
                  for h in (0.1, 0.05, 0.025)]
        coarse, mid, fine = errors
        assert len(coarse) == 101 and errors[0][0] == 0.0
        for k in range(1, len(coarse)):
            assert coarse[k] >= 12.0 * mid[2 * k] >= 144.0 * fine[4 * k] > 0.0, k

    @pytest.mark.parametrize("p", scenario_incomes())
    def test_rkf45_end_state(self, p):
        tr = integrate(p, p.scaled(self.PARAMS.n), self.PARAMS, 8.7, method="rkf45", step=0.1)
        assert max(self.row_errors(p, tr)) < 1e-7

    def test_tabulated_golden_table(self):
        # The checked-in simulate_tabulated_ode table, printed to 12 digits: 4.9e-10 at worst.
        golden = Path(__file__).parent / "golden"
        scenario = load_scenario(golden / "inputs" / "tabulated.json")
        rows = (golden / "simulate_tabulated_ode" / "out.csv").read_text().splitlines()[1:]
        assert len(rows) == 36
        for row in rows:
            t, B, S = map(float, row.split(",")[:3])
            B_exact, S_exact = exact_wellbeing(scenario.params, scenario.income, t)
            assert abs(B - B_exact) < 1e-9 * B_exact and abs(S - S_exact) < 1e-9 * S_exact

    P = kinked_income(node_times(13, 20.0, seed=23), seed=1)
    Q = kinked_income(node_times(9, 20.5, seed=24), seed=2, level=3.0)

    @pytest.mark.parametrize("p,q", [
        pytest.param(P, Q, id="different node sets"),
        pytest.param(Q, P, id="different node sets, roles swapped"),
        pytest.param(P, ExponentialIncome(3.1, 0.04, t0=2.0), id="tabulated p, exponential q"),
        pytest.param(ExponentialIncome(3.1, 0.04, t0=2.0), Q, id="exponential p, tabulated q"),
        pytest.param(P, LinearIncome(2.6, 0.09, t0=1.0), id="tabulated p, linear q"),
        pytest.param(LinearIncome(2.6, 0.09, t0=1.0), Q, id="linear p, tabulated q"),
    ])
    @pytest.mark.parametrize("t_end", [18.2, P.nodes[10]], ids=["inside a segment", "on a node"])
    def test_rkf45_matches_general_wellbeing_on_mixed_pairs(self, p, q, t_end):
        # 7e-9 at worst here; 5.9e-2 when derivative interpolated finite-difference slopes.
        params = ScenarioParams(a=1.2, a_star=0.8, b=0.07, b_star=0.05, lam=0.03, n=1.5,
                                B0=1.3, B0_star=0.7, p0=2.0, t0=0.7)
        tr = integrate(p, q, params, t_end, method="rkf45")
        want_B = general_wellbeing(p, q, params.a, params.b, params.B0, params.t0, t_end,
                                   quad_tol=1e-13)
        want_S = general_wellbeing(q, p, params.a_star, params.b_star, params.B0_star,
                                   params.t0, t_end, quad_tol=1e-13)
        assert tr.times[-1] == t_end
        assert abs(tr.B[-1] - want_B) < 1e-7 * want_B
        assert abs(tr.B_star[-1] - want_S) < 1e-7 * want_S


class TestStepsEndOnNodes:
    # ln p rises by ln 2 on [0, 1] and falls by ln 2 on [1, 2]: c_B jumps at t = 1.
    P = TabulatedIncome(((0.0, 1.0), (1.0, 2.0), (2.0, 1.0)))
    PARAMS = ScenarioParams(a=1.0, a_star=0.5, b=0.2, b_star=0.1, lam=0.1, n=2.0,
                            B0=1.0, B0_star=1.0, p0=1.0)

    def test_nodes_closer_than_the_step_floor(self):
        # h_min is 3e-14 on [0, 3]; the step from the node at 1 to the next is 1.1e-15.
        p = TabulatedIncome(((0.0, 1.0), (1.0, 1.1), (1.0 + 1e-15, 1.1 * (1.0 + 1e-9)),
                             (3.0, 1.5)))
        tr = integrate(p, p.scaled(self.PARAMS.n), self.PARAMS, 3.0, method="rkf45")
        assert p.nodes[1] in tr.times and p.nodes[2] in tr.times
        B_exact, S_exact = exact_wellbeing(self.PARAMS, p, 3.0)
        assert abs(tr.B[-1] - B_exact) < 1e-8 * B_exact
        assert abs(tr.B_star[-1] - S_exact) < 1e-8 * S_exact

    def test_no_step_ends_within_the_floor_of_a_node(self):
        # A step from 0 would land on 0.37, an ulp short of the node 0.3700000000000001; it
        # ends on the node instead of leaving a 1.1e-16 step, and a whole attempt, for later.
        p, q = income_pairs()[2].values
        tr = integrate(p, q, HIGH, 12.0, method="rkf45", step=0.37)
        h_min = 1e-14 * 12.0
        assert 0.37 not in tr.times and p.nodes[11] in tr.times
        assert min(t1 - t0 for t0, t1 in zip(tr.times, tr.times[1:])) >= h_min
        assert len(tr.times) == 44  # 45 with the ulp step

    @pytest.mark.parametrize("t0", [-3.7, 0.0, 1990.0])
    @pytest.mark.parametrize("where", ["on a node", "off the nodes", "short of the first step",
                                       "an ulp past a node"])
    def test_rkf45_ends_exactly_on_t_end(self, t0, where):
        # Nodes every 0.37 from t0 on; t_end is the loop's last stop, like a node, and a stop
        # an ulp past the one before it still gets its own step.
        tab, _ = income_pairs()[2].values
        p = TabulatedIncome(tuple((t0 + 0.37 * k, v) for k, (_, v) in enumerate(tab.points)))
        t_end = {"on a node": p.nodes[20], "off the nodes": t0 + 7.5,
                 "short of the first step": t0 + 0.2,
                 "an ulp past a node": math.nextafter(p.nodes[20], math.inf)}[where]
        params = HIGH._replace(t0=t0)
        for q in (p.scaled(1.7), ExponentialIncome(3.0, 0.1, t0), LinearIncome(3.0, 0.1, t0)):
            tr = integrate(p, q, params, t_end, method="rkf45", step=0.37)
            assert tr.times[-1] == t_end
            tr = integrate(q, q.scaled(1.7), params, t_end, method="rkf45", step=0.37)
            assert tr.times[-1] == t_end

    @pytest.mark.parametrize("method", ["rk4", "rkf45"])
    def test_t_end_on_an_interior_node_takes_the_left_rates(self, method):
        # On [0, 1] c_B = a*ln 2 - b*n is constant, so each RK4 step multiplies B by
        # 1 + x + x^2/2 + x^3/6 + x^4/24 with x = c_B*h; the right rates would give k4 another.
        params, p = self.PARAMS, self.P
        tr = integrate(p, p.scaled(params.n), params, 1.0, method=method, step=0.25)
        assert tr.times[-1] == 1.0
        c_B = params.a * math.log(2.0) - params.b * params.n
        if method == "rk4":
            x = c_B * 0.25
            assert tr.B[-1] == pytest.approx((1 + x + x**2 / 2 + x**3 / 6 + x**4 / 24) ** 4,
                                             rel=1e-14)
        else:
            assert tr.B[-1] == pytest.approx(math.exp(c_B), rel=1e-8)

    def test_rk4_node_off_the_grid_adds_no_row(self):
        params, p = self.PARAMS, self.P
        grid = time_grid(0.0, 2.0, 0.3)
        assert 1.0 not in grid
        tr = integrate(p, p.scaled(params.n), params, 2.0, step=0.3)
        assert tr.times == tuple(grid)
        B_exact, _ = exact_wellbeing(params, p, 2.0)
        assert abs(tr.B[-1] - B_exact) < 1e-3 * B_exact  # 9.3e-5: RK4 at h = 0.3

    def test_grid_cap_still_applies(self):
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="exceeds the limit"):
                integrate(self.P, self.P.scaled(2.0), self.PARAMS, 2.0,
                          step=2.0 / (MAX_GRID_STEPS + 1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000


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
