"""Closed-form layer of the two-group well-being model.

Two groups share an economy: G earns income p(t), the favored group G*
earns q(t) = n * p(t). Well-being of each group grows with its own
income growth and decays with the income gap against the other group.
This module holds the parameter container, the exponential-income
closed forms, the general-income solution driven by quadrature, and the
two kernels that write each classification formula once: n_free_terms
(growth case, boundaries, and the critical inequality n_hat separating
which group eventually dominates) and n_terms, which adds n.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from math import isclose, isfinite

from .errors import DomainError, NumericError, Record, checked, squared
from .numerics import adaptive_simpson


class GrowthCase(str, Enum):
    LOW = "LowGrowth"      # lam**2 < b*b_star/(a*a_star)
    HIGH = "HighGrowth"    # lam**2 > b*b_star/(a*a_star)
    CRITICAL = "Critical"  # equal within tolerance


class Band(str, Enum):
    LOW = "Low"            # n below both boundaries
    MEDIUM = "Medium"      # n strictly between the boundaries
    HIGH = "High"          # n above both boundaries
    BOUNDARY = "Boundary"  # n within tolerance of a boundary


class Behavior(str, Enum):
    DIVERGES = "DivergesToInfinity"
    CONSTANT = "ConstantPositive"
    DECAYS = "DecaysToZero"


# Members under module names: an Enum class attribute costs ~0.2 us a lookup on CPython 3.11.
_CRITICAL, _LOW_GROWTH, _HIGH_GROWTH = GrowthCase.CRITICAL, GrowthCase.LOW, GrowthCase.HIGH
_LOW, _MEDIUM, _HIGH, _BOUNDARY = Band.LOW, Band.MEDIUM, Band.HIGH, Band.BOUNDARY
_DIVERGES, _CONSTANT, _DECAYS = Behavior.DIVERGES, Behavior.CONSTANT, Behavior.DECAYS


class ScenarioParams(Record):
    """Parameters of one two-group scenario.

    Attributes:
        a: sensitivity of group G's well-being to own income growth, > 0.
        a_star: the same sensitivity for the favored group G*, > 0.
        b: comparison-loss rate of G, scaled by q/p, per unit time, > 0.
        b_star: comparison-loss rate of G*, scaled by p/q, per unit time, > 0.
        lam: exponential income growth rate per unit time, > 0.
        n: income multiple of the favored group (q = n * p), > 0.
        B0: initial well-being of G at t0, > 0.
        B0_star: initial well-being of G* at t0, > 0.
        p0: income of G at t0, > 0.
        t0: reference time (any finite value).
    """

    a: float
    a_star: float
    b: float
    b_star: float
    lam: float
    n: float
    B0: float
    B0_star: float
    p0: float
    t0: float = 0.0

    # Unannotated, so not a field: each field's strict lower bound (None: any finite value).
    _bounds = {
        "a": 0.0, "a_star": 0.0, "b": 0.0, "b_star": 0.0, "lam": 0.0,
        "n": 0.0, "B0": 0.0, "B0_star": 0.0, "p0": 0.0, "t0": None,
    }


class RatioAnalysis(Record):
    """Exact log-ratio rate and the sign quadratic of B/B*.

    Attributes:
        g_rate: exact rate (a - a_star)*lam - (b*n - b_star/n) of ln(B/B*).
        f_value: quadratic b*n**2 - (a - a_star)*lam*n - b_star at the
            scenario's n; carries the opposite sign of g_rate (g = -f/n).
        discriminant: (a - a_star)**2 * lam**2 + 4*b*b_star, > 0; inf if a square overflows.
        n_hat: unique positive root of the quadratic, the critical
            inequality separating eventual dominance.
    """

    g_rate: float
    f_value: float
    discriminant: float
    n_hat: float

    # Unannotated, so not a field: floats that must be finite (the discriminant may be inf).
    _bounds = {"g_rate": None, "f_value": None, "n_hat": None}


def _elapsed(params: ScenarioParams, t) -> float:
    return checked(t, "t", at_least=params.t0) - params.t0


def exponent_g(params: ScenarioParams) -> float:
    """Net exponential rate a*lam - b*n of group G under exponential income, finite."""
    return checked(_terms(params)[1][3], EXPONENT_G)


def exponent_g_star(params: ScenarioParams) -> float:
    """Net exponential rate a_star*lam - b_star/n of the favored group, finite."""
    return checked(_terms(params)[1][4], EXPONENT_G_STAR)


_NORMAL = sys.float_info.min  # the smallest normal float
INCOME_OVERFLOW = "income overflows at t = %.12g"  # for any income past the float range


def grown(level: float, log_growth: float, name: str, t, per: float = 1.0) -> float:
    """exp(log_growth) * level / per: that product when exp(log_growth) and it are normal
    floats, else exp(ln level - ln per + log_growth), 0.0 below the float range. Past it, or
    when nan (an overflowed rate times 0), a NumericError naming name, t and the log value."""
    if log_growth < 709.78:  # exp stays below the largest float
        factor = math.exp(log_growth)
        value = factor * level / per
        if factor >= _NORMAL and _NORMAL <= value < math.inf:
            return value
    log_value = math.log(level) - math.log(per) + log_growth
    try:
        return math.exp(log_value if log_value < 1e308 else 1e308)  # inf and nan raise
    except OverflowError:
        raise NumericError(
            f"{name} overflows at t = {float(t):.12g}: ln {name} = {log_value:.12g}") from None


def incomes(p: "IncomeModel", q: "IncomeModel", t: float) -> tuple[float, float]:
    """(p(t), q(t)); a NumericError with INCOME_OVERFLOW when either leaves the float range.
    An exponential one raises it itself only when exp overflows; inf values raise it here."""
    pair = p.value(t), q.value(t)
    if math.inf in pair:
        raise NumericError(INCOME_OVERFLOW % t)
    return pair


def closed_form_B(params: ScenarioParams, t) -> float:
    """Well-being of G at time t >= t0 under the exponential income pair."""
    return grown(params.B0, exponent_g(params) * _elapsed(params, t), "B", t)


def closed_form_B_star(params: ScenarioParams, t) -> float:
    """Well-being of G* at time t >= t0 under the exponential income pair."""
    return grown(params.B0_star, exponent_g_star(params) * _elapsed(params, t), "B_star", t)


def closed_form_columns(params: ScenarioParams, times) -> tuple[list[float], list[float]]:
    """([closed_form_B(params, t) for t in times], the same for B_star) bit for bit, with the same
    first error, for float times: one exponent each, grown's fast path inline, else grown."""
    columns, t0, exp, inf = [], params.t0, math.exp, math.inf
    for level, rate, name in ((params.B0, exponent_g(params), "B"),
                              (params.B0_star, exponent_g_star(params), "B_star")):
        columns.append(column := [])
        for t in times:
            if ((elapsed := t - t0) >= 0.0 and (log_growth := rate * elapsed) < 709.78
                    and (factor := exp(log_growth)) >= _NORMAL
                    and _NORMAL <= (value := factor * level) < inf):
                column.append(value)
            else:  # log space, or the error the scalar form raises
                column.append(grown(level, rate * _elapsed(params, t), name, t))
    return columns[0], columns[1]


def general_wellbeing(
    p: "IncomeModel",
    q: "IncomeModel",
    a,
    b,
    B0,
    t0,
    t,
    quad_tol: float = 1e-10,
) -> float:
    """Well-being at time t for arbitrary positive income paths.

    Evaluates B0 * exp(a * (ln p(t) - ln p(t0)) - b * I) through grown,
    where I, the integral of q(s)/p(s) over [t0, t], comes from adaptive
    quadrature split at both incomes' nodes. Swapping the roles (p and q
    exchanged, starred sensitivities) yields the favored group's value.

    Args:
        p: own-group income model.
        q: comparison-group income model.
        a: sensitivity to own income growth, >= 0.
        b: sensitivity to the income gap, >= 0.
        B0: well-being at t0, > 0.
        t0: start of the evaluation window.
        t: evaluation time, >= t0.
        quad_tol: absolute tolerance for the quadrature, > 0.

    Raises:
        DomainError: t < t0, negative sensitivities, non-positive B0, or
            a non-positive income wherever the integrand is evaluated.
        NumericError: "income overflows at t = ..." when p or q leaves
            the float range at an evaluated time, "income gap q/p
            overflows at t = ..." when their ratio does, or "B overflows
            at t = ...: ln B = ..." when the result itself does.
    """
    a = checked(a, "a", at_least=0.0)
    b = checked(b, "b", at_least=0.0)
    B0 = checked(B0, "B0", above=0.0)
    t0 = checked(t0, "t0")
    t = checked(t, "t", at_least=t0)

    def gap_ratio(s: float) -> float:
        ps, qs = incomes(p, q, s)
        if ps <= 0.0 or qs <= 0.0:
            raise DomainError(f"non-positive income at t = {s}")
        ratio = qs / ps
        if ratio == math.inf:
            raise NumericError(f"income gap q/p overflows at t = {s:.12g}")
        return ratio

    p_start, p_end = incomes(p, q, t0)[0], incomes(p, q, t)[0]
    if p_start <= 0.0 or p_end <= 0.0:
        raise DomainError("income p must be positive at the window endpoints")
    points = sorted({s for s in (*p.nodes, *q.nodes) if t0 < s < t})
    integral, _ = adaptive_simpson(gap_ratio, t0, t, tol=quad_tol, points=points)
    return grown(B0, a * (math.log(p_end) - math.log(p_start)) - b * integral, "B", t)


EXPONENT_G = "exponent_g = a * lam - b * n"  # the names in n_terms' DomainErrors
EXPONENT_G_STAR = "exponent_g_star = a_star * lam - b_star / n"


def n_free_terms(a: float, a_star: float, b: float, b_star: float, lam: float,
                 epsilon: float | None = None) -> tuple:
    """(growth case, boundary_g = a*lam/b, boundary_g_star = b_star/(a_star*lam), gap =
    (a - a_star)*lam, discriminant = gap**2 + 4*b*b_star, inf when a square overflows, n_hat
    the positive root of b*n**2 - gap*n - b_star, a*lam, a_star*lam). With epsilon None (else
    a checked tolerance) the first three are None and nothing raises; else DomainError when
    a_star*lam underflows to 0, lam**2 overflows, a*a_star underflows to 0, in that order."""
    growth, growth_star, gap = a * lam, a_star * lam, (a - a_star) * lam
    try:
        discriminant = gap**2 + 4.0 * b * b_star
    except OverflowError:
        discriminant = math.inf
    root = math.sqrt(discriminant)  # n_hat's second form: the same root, without cancellation
    n_hat = (gap + root) / (2.0 * b) if gap >= 0.0 else 2.0 * b_star / (root - gap)
    if root == math.inf:  # a square overflows: the same two forms on half the gap and root
        half, root = 0.5 * gap, math.hypot(0.5 * gap, math.sqrt(b) * math.sqrt(b_star))
        n_hat = (half + root) / b if half >= 0.0 else b_star / (root - half)
    if epsilon is None:
        return None, None, None, gap, discriminant, n_hat, growth, growth_star
    try:  # each step in the order of the errors
        boundary_g_star = b_star / growth_star
        lhs, rhs = squared(lam, "lam"), (b * b_star) / (a * a_star)
    except ZeroDivisionError:  # a_star*lam, else a*a_star, underflowed to 0
        label, x, y = ("a * a_star", a, a_star) if growth_star else ("a_star * lam", a_star, lam)
        raise DomainError(f"{label} = {x!r} * {y!r} underflows to 0; cannot classify") from None
    case = (_CRITICAL if isclose(lhs, rhs, rel_tol=epsilon)
            else _LOW_GROWTH if lhs < rhs else _HIGH_GROWTH)
    return case, growth / b, boundary_g_star, gap, discriminant, n_hat, growth, growth_star


def n_terms(free: tuple, b: float, b_star: float, n: float,
            epsilon: float | None = None) -> tuple:
    """From n_free_terms' result free: (behavior_g, behavior_g_star, band, exponent_g =
    a*lam - b*n, exponent_g_star = a_star*lam - b_star/n, f_value = b*n**2 - gap*n - b_star,
    g_rate = gap - (b*n - b_star/n)). With epsilon None the first three are None and nothing
    raises (f_value is inf when n**2 overflows); else DomainError when an exponent is past
    the float range, n**2 overflows, gap**2 overflows, f_value is non-finite, in that order."""
    gap, discriminant, _, growth, growth_star = free[3:]
    loss, loss_star = b * n, b_star / n
    exponent, exponent_star = growth - loss, growth_star - loss_star
    try:
        n_squared = n**2
    except OverflowError:
        n_squared = math.inf
    f_value, g_rate = b * n_squared - gap * n - b_star, gap - (loss - loss_star)
    if epsilon is None:
        return None, None, None, exponent, exponent_star, f_value, g_rate
    behavior_g = (_CONSTANT if isclose(growth, loss, rel_tol=epsilon)
                  else _DIVERGES if growth > loss else _DECAYS)
    behavior_g_star = (_CONSTANT if isclose(growth_star, loss_star, rel_tol=epsilon)
                       else _DIVERGES if growth_star > loss_star else _DECAYS)
    # n < boundary_g exactly when G diverges, n > boundary_g_star when G* does: the band.
    band = (_BOUNDARY if behavior_g is _CONSTANT or behavior_g_star is _CONSTANT
            else _MEDIUM if behavior_g is behavior_g_star
            else _LOW if behavior_g is _DIVERGES else _HIGH)
    # A sweep row pays no call unless a number fails or 4*b*b_star overflows.
    if not (isfinite(exponent) and isfinite(exponent_star) and isfinite(f_value)
            and discriminant < math.inf):
        checked(exponent, EXPONENT_G)
        checked(exponent_star, EXPONENT_G_STAR)
        squared(n, "n")
        squared(gap, "(a - a_star) * lam")
        checked(f_value, "f_value = b * n**2 - (a - a_star) * lam * n - b_star")
    return behavior_g, behavior_g_star, band, exponent, exponent_star, f_value, g_rate


def _terms(p: ScenarioParams) -> tuple:
    """Both kernels' results without labels or checks."""
    free = n_free_terms(p.a, p.a_star, p.b, p.b_star, p.lam)
    return free, n_terms(free, p.b, p.b_star, p.n)


def ratio_analysis(params: ScenarioParams) -> RatioAnalysis:
    """RatioAnalysis's fields (it says why each exists) from the two kernels without labels.
    DomainError when g_rate, f_value or n_hat is non-finite (f_value is if n**2 overflows)."""
    free, terms = _terms(params)
    return RatioAnalysis(terms[6], terms[5], free[4], free[5])


def wellbeing_ratio(params: ScenarioParams, t) -> float:
    """Ratio B(t)/B*(t) from the exact rate g_rate (refused if non-finite), without B and B*."""
    g_rate = checked(_terms(params)[1][6], "g_rate")
    return grown(params.B0, g_rate * _elapsed(params, t), "B/B_star", t, params.B0_star)
