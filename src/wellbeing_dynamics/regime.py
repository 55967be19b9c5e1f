"""Long-run regime classification by income multiple and growth rate.

The sign pattern of the two closed-form exponents splits the n axis at
boundary_g = a*lam/b (where G's exponent vanishes) and boundary_g_star
= b_star/(a_star*lam) (where G*'s does). Which boundary comes first is
decided by the growth case: lam**2 below or above b*b_star/(a*a_star).

classify and `wbdyn sweep` share one label routine, coefficient_labels,
so a sweep row's growth case, band and behaviors are exactly classify's;
it also returns the two exponents, the floats of core's exponent_g and
exponent_g_star, which sweep rows print.
"""

from __future__ import annotations

import math
from enum import Enum
from math import isclose

from .core import ScenarioParams, ratio_analysis
from .errors import DomainError, Record, checked, squared

DEFAULT_EPSILON = 1e-9


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


class Dominance(str, Enum):
    G = "G"
    G_STAR = "G_star"
    EQUAL = "Equal"


class RegimeReport(Record):
    """Full classification of one scenario.

    interval_j is the open interval where both exponents are positive;
    it exists exactly in the HighGrowth case. dominance assumes equal
    initial well-being; when B0 != B0_star, crossover_time holds the
    elapsed time after t0 at which B and B* meet (negative if the
    crossing lies in the past), or None when the ratio is constant.
    roles_reversed flags n < 1, where the nominally favored group
    actually earns less. g_rate (the exact rate of ln(B/B*)) and f_value
    (the sign quadratic at n) are those of the scenario's RatioAnalysis.
    """

    growth_case: GrowthCase
    boundary_g: float
    boundary_g_star: float
    band: Band
    behavior_g: Behavior
    behavior_g_star: Behavior
    n_hat: float
    g_rate: float
    f_value: float
    interval_j: tuple[float, float] | None
    dominance: Dominance
    roles_reversed: bool
    crossover_time: float | None


class FeasibilityRecord(Record):
    """Whether any admissible n >= 1 falls in the Low band.

    The Low band is ]0, low_band_upper[ with low_band_upper the smaller
    of the two boundaries, so feasibility is equivalent to
    favored_margin = a_star*lam/b_star < 1 < a*lam/b = own_margin.
    """

    growth_case: GrowthCase
    low_band_upper: float
    feasible: bool
    own_margin: float
    favored_margin: float


class BracketCheck(Record):
    """Placement of n_hat relative to the middle band of its case."""

    growth_case: GrowthCase
    lower: float
    n_hat: float
    upper: float
    passed: bool


def checked_epsilon(value, name: str = "epsilon") -> float:
    """value as a relative tolerance in [1e-15, 1), the one rule for every tolerance. Below
    the floor, the growth case's lam**2 test can disagree with the boundary floats' order."""
    return checked(value, name, above=0.0, below=1.0, at_least=1e-15)


def _underflow(label: str, x: float, y: float) -> DomainError:
    return DomainError(f"{label} = {x!r} * {y!r} underflows to 0; cannot classify")


# Members under module names: an Enum class attribute costs ~0.2 us a lookup on CPython 3.11.
_CRITICAL, _LOW_GROWTH, _HIGH_GROWTH = GrowthCase.CRITICAL, GrowthCase.LOW, GrowthCase.HIGH
_LOW, _MEDIUM, _HIGH, _BOUNDARY = Band.LOW, Band.MEDIUM, Band.HIGH, Band.BOUNDARY
_DIVERGES, _CONSTANT, _DECAYS = Behavior.DIVERGES, Behavior.CONSTANT, Behavior.DECAYS
_Labels = tuple[GrowthCase, float, float, Band, Behavior, Behavior]


def _growth_case(a, a_star, b, b_star, lam, epsilon: float) -> GrowthCase:
    lhs = squared(lam, "lam")
    try:
        rhs = (b * b_star) / (a * a_star)
    except ZeroDivisionError:
        raise _underflow("a * a_star", a, a_star) from None
    if isclose(lhs, rhs, rel_tol=epsilon):
        return _CRITICAL
    return _LOW_GROWTH if lhs < rhs else _HIGH_GROWTH


def growth_case(params: ScenarioParams, epsilon: float = DEFAULT_EPSILON) -> GrowthCase:
    """Compare lam**2 against b*b_star/(a*a_star) with relative tolerance."""
    p = params
    return _growth_case(p.a, p.a_star, p.b, p.b_star, p.lam, checked_epsilon(epsilon))


def coefficient_labels(a: float, a_star: float, b: float, b_star: float, lam: float,
                       n: float, epsilon: float
                       ) -> tuple[GrowthCase, float, float, Band, Behavior, Behavior, float, float]:
    """Growth case, boundary_g, boundary_g_star, band, behavior_g, behavior_g_star
    and the exponents a*lam - b*n and a_star*lam - b_star/n (the floats of core's
    exponent_g and exponent_g_star) from the six coefficients, for an epsilon the
    caller has checked. classify (through regime_labels) and sweep rows share it.

    Raises:
        DomainError: a_star*lam underflows to 0, lam**2 overflows, or
            a*a_star underflows to 0, checked in that order.
    """
    boundary_g = a * lam / b
    try:
        boundary_g_star = b_star / (a_star * lam)
    except ZeroDivisionError:
        raise _underflow("a_star * lam", a_star, lam) from None
    case = _growth_case(a, a_star, b, b_star, lam, epsilon)
    growth, loss = a * lam, b * n
    behavior_g = (_CONSTANT if isclose(growth, loss, rel_tol=epsilon)
                  else _DIVERGES if growth > loss else _DECAYS)
    growth_star, loss_star = a_star * lam, b_star / n
    behavior_g_star = (_CONSTANT if isclose(growth_star, loss_star, rel_tol=epsilon)
                       else _DIVERGES if growth_star > loss_star else _DECAYS)
    # n < boundary_g exactly when G diverges, n > boundary_g_star exactly when G* does:
    # the band is read off the behaviors, so it always agrees with them.
    band = (_BOUNDARY if behavior_g is _CONSTANT or behavior_g_star is _CONSTANT
            else _MEDIUM if behavior_g is behavior_g_star
            else _LOW if behavior_g is _DIVERGES else _HIGH)
    return (case, boundary_g, boundary_g_star, band, behavior_g, behavior_g_star,
            growth - loss, growth_star - loss_star)


def regime_labels(params: ScenarioParams, epsilon: float) -> _Labels:
    """The six labels of coefficient_labels of params, for an epsilon the caller has checked."""
    p = params
    return coefficient_labels(p.a, p.a_star, p.b, p.b_star, p.lam, p.n, epsilon)[:6]


def classify(params: ScenarioParams, epsilon: float = DEFAULT_EPSILON) -> RegimeReport:
    """Classify a scenario's long-run behavior.

    Behaviors come from the exponent signs alone, Constant within
    epsilon; the band places n among the ordered boundaries through
    them, with a Constant behavior reported as Boundary. Dominance
    compares n against n_hat under the equal-start convention.
    """
    epsilon = checked_epsilon(epsilon)
    case, boundary_g, boundary_g_star, band, behavior_g, behavior_g_star = regime_labels(
        params, epsilon
    )
    analysis = ratio_analysis(params)
    interval_j = (boundary_g_star, boundary_g) if case is GrowthCase.HIGH else None

    if math.isclose(params.n, analysis.n_hat, rel_tol=epsilon):
        dominance = Dominance.EQUAL
    elif params.n < analysis.n_hat:
        dominance = Dominance.G
    else:
        dominance = Dominance.G_STAR

    crossover_time = None
    if params.B0 != params.B0_star and analysis.g_rate != 0.0:
        level_ratio = params.B0 / params.B0_star
        if 0.0 < level_ratio < math.inf:
            log_ratio = math.log(level_ratio)
        else:  # the quotient under- or overflows; the logarithms do not
            log_ratio = math.log(params.B0) - math.log(params.B0_star)
        crossover_time = log_ratio / (-analysis.g_rate)

    return RegimeReport(
        growth_case=case, boundary_g=boundary_g, boundary_g_star=boundary_g_star, band=band,
        behavior_g=behavior_g, behavior_g_star=behavior_g_star, n_hat=analysis.n_hat,
        g_rate=analysis.g_rate, f_value=analysis.f_value, interval_j=interval_j,
        dominance=dominance, roles_reversed=params.n < 1.0, crossover_time=crossover_time)


def low_band_feasibility(
    params: ScenarioParams, epsilon: float = DEFAULT_EPSILON
) -> FeasibilityRecord:
    """Report whether {n : 1 <= n < Low band's upper edge} is nonempty."""
    case, boundary_g, boundary_g_star = regime_labels(params, checked_epsilon(epsilon))[:3]
    low_band_upper = min(boundary_g, boundary_g_star)
    return FeasibilityRecord(growth_case=case, low_band_upper=low_band_upper,
                             feasible=low_band_upper > 1.0, own_margin=boundary_g,
                             favored_margin=params.a_star * params.lam / params.b_star)


def verify_nhat_bracketing(
    params: ScenarioParams, epsilon: float = DEFAULT_EPSILON
) -> BracketCheck:
    """Check that n_hat falls strictly inside its case's middle band.

    LowGrowth expects a*lam/b < n_hat < b_star/(a_star*lam); HighGrowth
    expects the reversed ordering. Endpoint comparisons allow a relative
    slack of epsilon.

    Raises:
        DomainError: for the Critical case, where the middle band
            collapses and the check does not apply.
    """
    epsilon = checked_epsilon(epsilon)
    case, boundary_g, boundary_g_star = regime_labels(params, epsilon)[:3]
    if case is GrowthCase.CRITICAL:
        raise DomainError("bracketing check does not apply to the Critical growth case")
    if case is GrowthCase.LOW:
        lower, upper = boundary_g, boundary_g_star
    else:
        lower, upper = boundary_g_star, boundary_g
    n_hat = ratio_analysis(params).n_hat
    passed = lower * (1.0 - epsilon) < n_hat < upper * (1.0 + epsilon)
    return BracketCheck(growth_case=case, lower=lower, n_hat=n_hat, upper=upper, passed=passed)
