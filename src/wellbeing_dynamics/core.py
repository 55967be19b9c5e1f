"""Closed-form layer of the two-group well-being model.

Two groups share an economy: G earns income p(t), the favored group G*
earns q(t) = n * p(t). Well-being of each group grows with its own
income growth and decays with the income gap against the other group.
This module holds the parameter container, the exponential-income
closed forms, the general-income solution driven by quadrature, and the
ratio analysis that locates the critical inequality n_hat separating
which group eventually dominates.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError, Record, checked, squared
from .numerics import adaptive_simpson


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
        discriminant: (a - a_star)**2 * lam**2 + 4*b*b_star, always > 0.
        n_hat: unique positive root of the quadratic, the critical
            inequality separating eventual dominance.
    """

    g_rate: float
    f_value: float
    discriminant: float
    n_hat: float


def _elapsed(params: ScenarioParams, t) -> float:
    t = checked(t, "t")
    if t < params.t0:
        raise DomainError(f"t must be >= t0 = {params.t0}, got {t}")
    return t - params.t0


def exponent_g(params: ScenarioParams) -> float:
    """Net exponential rate a*lam - b*n of group G under exponential income."""
    return params.a * params.lam - params.b * params.n


def exponent_g_star(params: ScenarioParams) -> float:
    """Net exponential rate a_star*lam - b_star/n of the favored group."""
    return params.a_star * params.lam - params.b_star / params.n


_NORMAL = sys.float_info.min  # the smallest normal float
INCOME_OVERFLOW = "income overflows at t = %.12g"  # for any income past the float range


def grown(level: float, log_growth: float, name: str, t, per: float = 1.0) -> float:
    """exp(log_growth) * level / per: that product when exp(log_growth) and it are normal
    floats, else exp(ln level - ln per + log_growth), 0.0 below the float range. Past it,
    an OverflowError naming name, t and the log value."""
    if log_growth < 709.78:  # exp stays below the largest float
        factor = math.exp(log_growth)
        value = factor * level / per
        if factor >= _NORMAL and _NORMAL <= value < math.inf:
            return value
    log_value = math.log(level) - math.log(per) + log_growth
    try:
        return math.exp(log_value)
    except OverflowError:
        raise OverflowError(
            f"{name} overflows at t = {float(t):.12g}: ln {name} = {log_value:.12g}") from None


def incomes(p: "IncomeModel", q: "IncomeModel", t: float) -> tuple[float, float]:
    """(p(t), q(t)); an OverflowError with INCOME_OVERFLOW when either leaves the float range.
    An exponential one raises it itself only when exp overflows; inf values raise it here."""
    pair = p.value(t), q.value(t)
    if math.inf in pair:
        raise OverflowError(INCOME_OVERFLOW % t)
    return pair


def closed_form_B(params: ScenarioParams, t) -> float:
    """Well-being of G at time t >= t0 under the exponential income pair."""
    return grown(params.B0, exponent_g(params) * _elapsed(params, t), "B", t)


def closed_form_B_star(params: ScenarioParams, t) -> float:
    """Well-being of G* at time t >= t0 under the exponential income pair."""
    return grown(params.B0_star, exponent_g_star(params) * _elapsed(params, t), "B_star", t)


def closed_form_columns(params: ScenarioParams, times) -> tuple[list[float], list[float]]:
    """([closed_form_B(params, t) for t in times], the same for B_star) bit for bit, with the same
    first error, for float times: one exponent each, grown's fast path inline, else the scalar."""
    columns, t0, exp, inf = [], params.t0, math.exp, math.inf
    for level, rate, scalar in ((params.B0, exponent_g(params), closed_form_B),
                                (params.B0_star, exponent_g_star(params), closed_form_B_star)):
        columns.append(column := [])
        for t in times:
            if ((elapsed := t - t0) >= 0.0 and (log_growth := rate * elapsed) < 709.78
                    and (factor := exp(log_growth)) >= _NORMAL
                    and _NORMAL <= (value := factor * level) < inf):
                column.append(value)
            else:  # log space, or the error the scalar form raises
                column.append(scalar(params, t))
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
        OverflowError: "income overflows at t = ..." when p or q leaves
            the float range at an evaluated time, "income gap q/p
            overflows at t = ..." when their ratio does, or "B overflows
            at t = ...: ln B = ..." when the result itself does.
    """
    a = checked(a, "a", at_least=0.0)
    b = checked(b, "b", at_least=0.0)
    B0 = checked(B0, "B0", above=0.0)
    t0 = checked(t0, "t0")
    t = checked(t, "t")
    if t < t0:
        raise DomainError(f"t must be >= t0 = {t0}, got {t}")

    def gap_ratio(s: float) -> float:
        ps, qs = incomes(p, q, s)
        if ps <= 0.0 or qs <= 0.0:
            raise DomainError(f"non-positive income at t = {s}")
        ratio = qs / ps
        if ratio == math.inf:
            raise OverflowError(f"income gap q/p overflows at t = {s:.12g}")
        return ratio

    p_start, p_end = incomes(p, q, t0)[0], incomes(p, q, t)[0]
    if p_start <= 0.0 or p_end <= 0.0:
        raise DomainError("income p must be positive at the window endpoints")
    points = sorted({s for s in (*p.nodes, *q.nodes) if t0 < s < t})
    integral, _ = adaptive_simpson(gap_ratio, t0, t, tol=quad_tol, points=points)
    return grown(B0, a * (math.log(p_end) - math.log(p_start)) - b * integral, "B", t)


def sign_quadratic(a: float, a_star: float, b: float, b_star: float, lam: float,
                   n: float) -> tuple[float, float, float]:
    """(gap, f, gap**2), gap = (a - a_star)*lam and f = b*n**2 - gap*n - b_star the sign quadratic
    at n, for ratio_analysis and sweep rows. DomainError when n, then gap, overflows squared."""
    gap = (a - a_star) * lam
    return gap, b * squared(n, "n") - gap * n - b_star, squared(gap, "(a - a_star) * lam")


def ratio_terms(a: float, a_star: float, b: float, b_star: float, lam: float,
                n: float) -> tuple[float, float, float, float]:
    """The fields of RatioAnalysis, (g_rate, f_value, discriminant, n_hat), as plain floats."""
    gap_term, f_value, gap_squared = sign_quadratic(a, a_star, b, b_star, lam, n)
    g_rate = gap_term - (b * n - b_star / n)
    discriminant = gap_squared + 4.0 * b * b_star
    root = math.sqrt(discriminant)  # n_hat's second form: the same root, without cancellation
    n_hat = (gap_term + root) / (2.0 * b) if gap_term >= 0.0 else 2.0 * b_star / (root - gap_term)
    return g_rate, f_value, discriminant, n_hat


def ratio_analysis(params: ScenarioParams) -> RatioAnalysis:
    """Exact ratio rate, sign quadratic, discriminant, and root n_hat (RatioAnalysis says
    why each exists) from ratio_terms. DomainError when n or (a - a_star)*lam overflows squared."""
    p = params
    return RatioAnalysis(*ratio_terms(p.a, p.a_star, p.b, p.b_star, p.lam, p.n))


def wellbeing_ratio(params: ScenarioParams, t) -> float:
    """Ratio B(t)/B*(t) from the exact rate, without forming B and B*."""
    g_rate = ratio_analysis(params).g_rate
    return grown(params.B0, g_rate * _elapsed(params, t), "B/B_star", t, params.B0_star)
