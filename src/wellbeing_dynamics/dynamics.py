"""Independent numerical path: income models and ODE integration.

The coupled system

    dB/dt  = (a * p'(t)/p(t) - b * q(t)/p(t)) * B
    dB*/dt = (a_star * q'(t)/q(t) - b_star * p(t)/q(t)) * B*

is integrated for arbitrary positive income paths, providing a route to
the solution that shares no code with the closed forms in `core` and is
used to cross-validate them. The right-hand side is linear in the state,
dB/dt = c_B(t) * B and dB*/dt = c_S(t) * B*, so both integrators step on
the coefficients, which RK4 evaluates once per distinct stage time.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from operator import sub, truediv

from .core import _NORMAL, INCOME_OVERFLOW, ScenarioParams, closed_form_columns
from .errors import DomainError, IntegrationError, NumericError, Record, checked, checked_points

DEFAULT_STEP = 0.01
DEFAULT_ADAPTIVE_TOL = 1e-8
#: Left end of RK4's real stability interval, where 1 + z + z²/2 + z³/6 + z⁴/24 = 1.
RK4_STABLE = -2.785293563405282

#: Most steps a uniform grid (simulate's time grid, a sweep) may span.
#: Larger requests raise DomainError before anything is allocated.
MAX_GRID_STEPS = 1_000_000


class ExponentialIncome(Record):
    """Income path p(t) = p0 * exp(rate * (t - t0))."""

    p0: float
    rate: float
    t0: float = 0.0
    nodes = ()  # no break times: smooth everywhere
    _bounds = {"p0": 0.0, "rate": None, "t0": None}

    def value(self, t: float) -> float:
        try:
            return self.p0 * math.exp(self.rate * (t - self.t0))
        except OverflowError:
            raise NumericError(INCOME_OVERFLOW % t) from None

    def derivative(self, t: float, left: bool = False) -> float:
        try:
            return self.rate * (self.p0 * math.exp(self.rate * (t - self.t0)))
        except OverflowError:
            raise NumericError(INCOME_OVERFLOW % t) from None

    def scaled(self, n: float) -> ExponentialIncome:
        """The path n * p(t)."""
        return ExponentialIncome(n * self.p0, self.rate, self.t0)


class LinearIncome(Record):
    """Income path p(t) = p0 + slope * (t - t0).

    The value turns non-positive at t0 + p0/|slope| for negative slopes;
    consumers check positivity wherever they evaluate.
    """

    p0: float
    slope: float
    t0: float = 0.0
    nodes = ()  # no break times: smooth everywhere
    _bounds = {"p0": 0.0, "slope": None, "t0": None}

    def value(self, t: float) -> float:
        return self.p0 + self.slope * (t - self.t0)

    def derivative(self, t: float, left: bool = False) -> float:
        return self.slope

    def scaled(self, n: float) -> LinearIncome:
        """The path n * p(t)."""
        return LinearIncome(n * self.p0, n * self.slope, self.t0)


class TabulatedIncome(Record):
    """Income path given by samples, log-linear between the nodes.

    points must have strictly increasing times and positive values. On
    the segment from node i to node i + 1, p'/p is its constant log-slope
    ln(v_{i+1} / v_i) / (t_{i+1} - t_i), as in general_wellbeing; at a
    node, derivative takes the segment on the side IncomeModel names (an
    end node has one). A lookup is one bisect_right over the nodes into a
    segment table: entry k holds (t_lo, span, v_lo, v_hi, ratio, the right
    rate, the left rate at t_lo) of the segment from node k - 1. A node
    gives its stored value exactly, else v_lo * ratio ** w at t's weight w;
    value keeps (t, p(t), entry) for derivative at the same t. Queries
    outside the sampled range are refused rather than extrapolated.
    """

    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        pts = checked_points(self.points, "tabulated income")
        # Entry 0 and the last node's have no span: t is out of range there off a node. A ratio
        # that is not a normal float is None: rate and value then come from the logarithms.
        segments, left = [(None,) * 7], None
        for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
            ratio = r if _NORMAL <= (r := v1 / v0) < math.inf else None
            rate = (math.log(ratio) if ratio else math.log(v1) - math.log(v0)) / (t1 - t0)
            segments.append((t0, t1 - t0, v0, v1, ratio, rate, rate if left is None else left))
            left = rate
        segments.append((pts[-1][0], None, pts[-1][1], None, None, left, left))
        vars(self).update(points=pts, nodes=tuple(t for t, _ in pts),
                          _segments=tuple(segments), _last=(None, None, None))

    def value(self, t: float) -> float:
        t_lo, span, v_lo, v_hi, ratio, _, _ = segment = self._segments[bisect_right(self.nodes, t)]
        if t == t_lo:
            v = v_lo
        elif span is None:  # t before the first node, past the last, or nan
            lo, hi = self.nodes[0], self.nodes[-1]
            raise DomainError(f"t = {t} outside the tabulated range [{lo}, {hi}]")
        else:
            w = (t - t_lo) / span
            v = (v_lo * ratio ** w if ratio is not None
                 else math.exp((1.0 - w) * math.log(v_lo) + w * math.log(v_hi)))
        self.__dict__["_last"] = (t, v, segment)
        return v

    def derivative(self, t: float, left: bool = False) -> float:
        last_t, v, segment = self._last
        if last_t != t:
            v, segment = self.value(t), self._last[2]
        return v * segment[6 if left and t == segment[0] else 5]

    def scaled(self, n: float) -> TabulatedIncome:
        """The path n * p(t), sampled at the same nodes."""
        return TabulatedIncome(tuple((t, n * v) for t, v in self.points))


#: value(t) is p(t); derivative(t, left=False) is p'(t), from the left of a node if left (smooth
#: incomes ignore the side); nodes: the times where p'/p jumps, () if smooth; scaled(n): n * p.
IncomeModel = ExponentialIncome | LinearIncome | TabulatedIncome


class Trajectory(Record):
    """Time-sampled solution (t, B, B_star, p, q) with step metadata.

    method is "rk4" or "rkf45"; step holds the fixed step size and
    tolerance the adaptive error target, whichever applies.
    """

    times: tuple[float, ...]
    B: tuple[float, ...]
    B_star: tuple[float, ...]
    p: tuple[float, ...]
    q: tuple[float, ...]
    method: str
    step: float | None = None
    tolerance: float | None = None

    def __post_init__(self) -> None:
        lengths = {len(self.times), len(self.B), len(self.B_star), len(self.p), len(self.q)}
        if lengths != {len(self.times)} or not self.times:
            raise DomainError("trajectory columns must be nonempty and equally long")


def uniform_grid(start: float, span: float, step: float) -> list[float]:
    """start, start + step, ... over every whole step in span, counting a
    step that falls short of span by rounding alone. DomainError when the
    grid would span more than MAX_GRID_STEPS steps."""
    steps = span / step * (1.0 + 1e-12) + 1e-9
    # floor(steps) <= MAX_GRID_STEPS; also false for inf and nan.
    if not steps < MAX_GRID_STEPS + 1:
        raise DomainError(f"grid of {steps:.10g} steps exceeds the limit of {MAX_GRID_STEPS}")
    return [start + k * step for k in range(int(steps) + 1)]


def time_grid(t0: float, t_end: float, step: float) -> list[float]:
    """Uniform sample times from t0 to t_end inclusive: t0 first, exactly t_end last.

    A last grid point past t_end or short of it by rounding alone becomes
    t_end, unless it is t0; else t_end is appended, a shorter last interval.
    """
    t0 = checked(t0, "t0")
    t_end = checked(t_end, "t_end")
    step = checked(step, "step", above=0.0)
    if t_end < t0:
        raise DomainError(f"t_end must be >= t0, got t_end = {t_end} < t0 = {t0}")
    if t_end == t0:
        return [t0]
    times = uniform_grid(t0, t_end - t0, step)
    if len(times) > 1 and (times[-1] >= t_end or t_end - times[-1] <= 1e-9 * step):
        times[-1] = t_end
    else:
        times.append(t_end)
    return times


def integrate(
    p: IncomeModel,
    q: IncomeModel,
    params: ScenarioParams,
    t_end: float,
    *,
    method: str = "rk4",
    step: float = DEFAULT_STEP,
    tol: float = DEFAULT_ADAPTIVE_TOL,
) -> Trajectory:
    """Integrate the coupled well-being system from params.t0 to t_end.

    Initial conditions (B0, B0_star) and the four sensitivities come
    from params; p and q supply the income paths. Each recorded (p, q)
    comes from the evaluation the integrator made at that time. t_end ==
    t0 yields a single-sample trajectory.

    Args:
        p: income model of group G.
        q: income model of the favored group.
        params: scenario parameters.
        t_end: final time, >= params.t0.
        method: "rk4" (fixed step) or "rkf45" (embedded adaptive pair).
        step: step size for "rk4" and initial step for "rkf45", > 0.
        tol: per-step relative error target for "rkf45", > 0.

    Raises:
        DomainError: invalid arguments; a window [t0, t_end] outside a tabulated income's
            range, before any income call; c_B or c_S at t0 past the float range.
        IntegrationError: a non-positive or overflowing income sample
            mid-run, a state that leaves the positive finite range, an
            unstable RK4 step or adaptive step underflow; carries the last good state.
    """
    if method not in ("rk4", "rkf45"):
        raise DomainError(f"method must be 'rk4' or 'rkf45', got {method!r}")
    t_end = checked(t_end, "t_end")
    if t_end < params.t0:
        raise DomainError(f"t_end must be >= t0 = {params.t0}, got {t_end!r}")
    for lo, hi in ((m.nodes[0], m.nodes[-1]) for m in (p, q) if m.nodes):
        if params.t0 < lo or t_end > hi:
            raise DomainError(f"window [{params.t0}, {t_end}] leaves the tabulated range "
                              f"[{lo}, {hi}]")

    a, b = params.a, params.b
    a_s, b_s = params.a_star, params.b_star
    p_value, q_value, p_rate, q_rate = p.value, q.value, p.derivative, q.derivative
    samples = []  # one (t, B, B_star, p, q) per recorded time

    def failure(message: str) -> IntegrationError:
        # Carries the last recorded sample; none exists before t0 is recorded.
        t, B, S, _, _ = samples[-1] if samples else (None,) * 5
        return IntegrationError(message, last_time=t, last_state=None if t is None else (B, S))

    def coefficients(t: float, left: bool = False) -> tuple[float, float, float, float]:
        # The only income call site: (c_B, c_S, p, q) at t, for the RHS (c_B * B, c_S * S).
        # left: a step ends at t, so the incomes' rates come from the left (IncomeModel).
        try:
            pv, qv = p_value(t), q_value(t)
            if pv <= 0.0 or qv <= 0.0:
                raise failure(f"non-positive income sample at t = {t}")
            dp, dq = p_rate(t, left), q_rate(t, left)
            return a * dp / pv - b * qv / pv, a_s * dq / qv - b_s * pv / qv, pv, qv
        except OverflowError:
            raise failure(INCOME_OVERFLOW % t) from None

    def record(t: float, B: float, S: float, sample) -> None:
        if B <= 0.0 or S <= 0.0 or not (math.isfinite(B) and math.isfinite(S)):
            # An income or its derivative can reach inf without an OverflowError.
            if not all(map(math.isfinite, sample)):
                raise failure(INCOME_OVERFLOW % t)
            raise failure(f"state left the positive domain at t = {t}")
        samples.append((t, B, S, sample[2], sample[3]))

    start = coefficients(params.t0)
    checked(start[0], f"c_B = a * p'/p - b * q/p at t = {params.t0:.12g}")
    checked(start[1], f"c_S = a_star * q'/q - b_star * p/q at t = {params.t0:.12g}")
    record(params.t0, params.B0, params.B0_star, start)
    nodes = {s for s in (*p.nodes, *q.nodes) if params.t0 < s <= t_end}
    if method == "rk4":
        _run_rk4(coefficients, start, params, t_end, step, record, nodes)
    else:
        _run_rkf45(coefficients, params, t_end, step, tol, record, nodes)

    times, cols_B, cols_S, cols_p, cols_q = zip(*samples)
    return Trajectory(times=times, B=cols_B, B_star=cols_S, p=cols_p, q=cols_q, method=method,
                      step=step if method == "rk4" else None,
                      tolerance=tol if method == "rkf45" else None)


def _run_rk4(coefficients, start, params: ScenarioParams, t_end, step, record, nodes=()) -> None:
    # start: the coefficients at t0. k2 and k3 share the midpoint ones; those at t + h serve
    # k4, the record and the next k1 unless t + h != t_next. Steps also end on the nodes (in
    # (t0, t_end]): k4 takes the left rates, the next k1 the right ones; off the grid, no row.
    grid = time_grid(params.t0, t_end, step)
    off_grid = {s for s in nodes if grid[bisect_left(grid, s)] != s}
    t, B, S = grid[0], params.B0, params.B0_star
    for t_next in sorted((*grid, *off_grid))[1:]:
        half = 0.5 * (h := t_next - t)
        c1B, c1S, _, _ = start
        if h * c1B < RK4_STABLE or h * c1S < RK4_STABLE:  # the step would amplify a decay
            raise IntegrationError(f"RK4 step {h:.12g} is unstable at t = {t:.12g}: step * rate "
                                   f"= {h * min(c1B, c1S):.12g} is below {RK4_STABLE:.12g}",
                                   last_time=t, last_state=(B, S))
        at_node = t_next in nodes
        c2B, c2S, _, _ = coefficients(t + half)
        end = coefficients(t_next, True) if at_node else coefficients(t + h)
        k1B, k1S = c1B * B, c1S * S
        k2B, k2S = c2B * (B + half * k1B), c2S * (S + half * k1S)
        k3B, k3S = c2B * (B + half * k2B), c2S * (S + half * k2S)
        k4B, k4S = end[0] * (B + h * k3B), end[1] * (S + h * k3S)
        B += h / 6.0 * (k1B + 2.0 * k2B + 2.0 * k3B + k4B)
        S += h / 6.0 * (k1S + 2.0 * k2S + 2.0 * k3S + k4S)
        start = end if t + h == t_next and not at_node else coefficients(t_next)
        t = t_next
        if not at_node or t not in off_grid:
            record(t, B, S, start)


# Fehlberg 4(5) tableau: nodes, stage weights, and the paired solution
# weights. The fifth-order combination is propagated.
_RKF_C = (0.0, 0.25, 0.375, 12.0 / 13.0, 1.0, 0.5)
_RKF_A = (
    (),
    (0.25,),
    (3.0 / 32.0, 9.0 / 32.0),
    (1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0),
    (439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0),
    (-8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0),
)
_RKF_B5 = (16.0 / 135.0, 0.0, 6656.0 / 12825.0, 28561.0 / 56430.0, -9.0 / 50.0, 2.0 / 55.0)
_RKF_B4 = (25.0 / 216.0, 0.0, 1408.0 / 2565.0, 2197.0 / 4104.0, -1.0 / 5.0, 0.0)


def _run_rkf45(coefficients, params: ScenarioParams, t_end, step, tol, record, nodes=()) -> None:
    # Straight-line stages: sums add left to right, zero weights too. Stage 4 (t + h) is an
    # accepted step's record, not the next stage 0: six evaluations an attempt. Steps stop on
    # the nodes (as in _run_rk4) and on t_end alike: a step that would reach the next stop,
    # or end short of it by less than h_min, ends on it, exempt from h_min, with stage 4 from
    # the left; once accepted, the next step resumes the size it was cut from.
    step = checked(step, "step", above=0.0)
    tol = checked(tol, "tol", above=0.0)
    c0, c1, c2, c3, _, c5 = _RKF_C
    _, (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43), (a50, a51, a52, a53, a54) = _RKF_A
    b50, b51, b52, b53, b54, b55 = _RKF_B5
    b40, b41, b42, b43, b44, b45 = _RKF_B4
    t, h = params.t0, step
    B, S = params.B0, params.B0_star
    h_min = 1e-14 * max(1.0, abs(params.t0), abs(t_end))
    nodes = iter((*sorted(nodes), t_end))
    node = next(nodes)
    while t < t_end:
        end = t + h
        if end > node - h_min:
            wanted, h, end = h, node - t, node
        elif h < h_min:  # with the rates and incomes at t, where an income may vanish
            raise IntegrationError("adaptive step underflow at t = %r (h = %r): c_B = %.12g, c_S = "
                                   "%.12g, p = %.12g, q = %.12g" % (t, h, *coefficients(t)),
                                   last_time=t, last_state=(B, S))
        s0 = coefficients(t + c0 * h)
        k0B, k0S = s0[0] * B, s0[1] * S
        s1 = coefficients(t + c1 * h)
        k1B, k1S = s1[0] * (B + h * (a10 * k0B)), s1[1] * (S + h * (a10 * k0S))
        s2 = coefficients(t + c2 * h)
        k2B = s2[0] * (B + h * (a20 * k0B + a21 * k1B))
        k2S = s2[1] * (S + h * (a20 * k0S + a21 * k1S))
        s3 = coefficients(t + c3 * h)
        k3B = s3[0] * (B + h * (a30 * k0B + a31 * k1B + a32 * k2B))
        k3S = s3[1] * (S + h * (a30 * k0S + a31 * k1S + a32 * k2S))
        s4 = coefficients(end, end == node)
        k4B = s4[0] * (B + h * (a40 * k0B + a41 * k1B + a42 * k2B + a43 * k3B))
        k4S = s4[1] * (S + h * (a40 * k0S + a41 * k1S + a42 * k2S + a43 * k3S))
        s5 = coefficients(t + c5 * h)
        k5B = s5[0] * (B + h * (a50 * k0B + a51 * k1B + a52 * k2B + a53 * k3B + a54 * k4B))
        k5S = s5[1] * (S + h * (a50 * k0S + a51 * k1S + a52 * k2S + a53 * k3S + a54 * k4S))
        B5 = B + h * (b50 * k0B + b51 * k1B + b52 * k2B + b53 * k3B + b54 * k4B + b55 * k5B)
        S5 = S + h * (b50 * k0S + b51 * k1S + b52 * k2S + b53 * k3S + b54 * k4S + b55 * k5S)
        B4 = B + h * (b40 * k0B + b41 * k1B + b42 * k2B + b43 * k3B + b44 * k4B + b45 * k5B)
        S4 = S + h * (b40 * k0S + b41 * k1S + b42 * k2S + b43 * k3S + b44 * k4S + b45 * k5S)
        scale_B = tol * max(abs(B), abs(B5), 1e-300)
        scale_S = tol * max(abs(S), abs(S5), 1e-300)
        err = max(abs(B5 - B4) / scale_B, abs(S5 - S4) / scale_S)
        if err <= 1.0:
            t = end
            B, S = B5, S5
            record(t, B, S, s4)
            if end == node:
                h, node = wanted, next(nodes, t_end)
                continue
        elif not err < math.inf:  # NaN or inf, never accepted: name the income that caused it
            for c, sample in zip(_RKF_C, (s0, s1, s2, s3, s4, s5)):
                if not all(map(math.isfinite, sample)):
                    raise IntegrationError(INCOME_OVERFLOW % (t + c * h),
                                           last_time=t, last_state=(B, S))
        factor = 5.0 if err == 0.0 else 0.9 * err**-0.2
        h *= min(5.0, max(0.2, factor))


def cross_validate(
    params: ScenarioParams,
    horizon: float,
    *,
    method: str = "rk4",
    step: float = DEFAULT_STEP,
    tol: float = DEFAULT_ADAPTIVE_TOL,
) -> float:
    """Worst relative deviation of the integrator from the closed forms.

    Builds the exponential income pair implied by params, integrates to
    t0 + horizon, and compares both components at every sample time.
    horizon 0 compares initial conditions only and returns 0.
    """
    horizon = checked(horizon, "horizon", at_least=0.0)
    p = ExponentialIncome(params.p0, params.lam, params.t0)
    trajectory = integrate(
        p, p.scaled(params.n), params, params.t0 + horizon, method=method, step=step, tol=tol
    )
    B_ref, S_ref = closed_form_columns(params, trajectory.times)
    return max_relative_deviation(trajectory.times, trajectory.B, B_ref, trajectory.B_star, S_ref)


def max_relative_deviation(times, B, B_ref, S, S_ref) -> float:
    """Worst |x - ref| / ref over both well-being columns; 0 for no rows. The columns must be
    sequences, not iterators: each reference is read twice. A reference of 0.0 (an underflowed
    closed form) raises NumericError naming the column and the first such t, B first."""
    try:
        return max(max(map(truediv, map(abs, map(sub, B, B_ref)), B_ref), default=0.0),
                   max(map(truediv, map(abs, map(sub, S, S_ref)), S_ref), default=0.0))
    except ZeroDivisionError:
        at, name = min((ref.index(0.0), name) for name, ref in (("B", B_ref), ("B_star", S_ref))
                       if 0.0 in ref)
        raise NumericError(f"{name} underflows to 0 at t = {times[at]:.12g}: "
                           "no relative deviation from it") from None
