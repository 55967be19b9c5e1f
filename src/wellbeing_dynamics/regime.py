"""Long-run regime classification by income multiple and growth rate.

The sign pattern of the two closed-form exponents splits the n axis at
boundary_g = a*lam/b (where G's exponent vanishes) and boundary_g_star
= b_star/(a_star*lam) (where G*'s does). Which boundary comes first is
decided by the growth case: lam**2 below or above b*b_star/(a*a_star).

classify and `wbdyn sweep` rows read both of core's kernels, n_free_terms
and n_terms, so a row is exactly classify's; growth_case and
verify_nhat_bracketing read n_free_terms alone, so they never read n.
"""

from __future__ import annotations

import math
from enum import Enum

# The benchmark's traced run wraps ratio_analysis here, though no regime code calls it.
from .core import (Band, Behavior, GrowthCase, ScenarioParams, n_free_terms, n_terms,
                   ratio_analysis)
from .errors import DomainError, Record, checked

DEFAULT_EPSILON = 1e-9


class Dominance(str, Enum):
    G = "G"
    G_STAR = "G_star"
    EQUAL = "Equal"


class RegimeReport(Record):
    """Full classification of one scenario: `wbdyn classify` prints n, then these fields in order.

    interval_j is the open interval where both exponents are positive; it exists exactly in
    the HighGrowth case. dominance assumes equal initial well-being; when B0 != B0_star,
    crossover_time holds the elapsed time after t0 at which B and B* meet (negative if the
    crossing lies in the past), or None when the ratio is constant. roles_reversed flags n < 1,
    where the nominally favored group actually earns less. The exponents are core's floats;
    g_rate (the exact rate of ln(B/B*)) and f_value (the sign quadratic at n) are those of the
    scenario's RatioAnalysis. The Low band ends at min(boundary_g, boundary_g_star), so some
    n >= 1 falls in it exactly when that edge is above 1.
    """

    growth_case: GrowthCase
    boundary_g: float
    boundary_g_star: float
    band: Band
    behavior_g: Behavior
    behavior_g_star: Behavior
    exponent_g: float
    exponent_g_star: float
    g_rate: float
    f_value: float
    n_hat: float
    dominance: Dominance
    interval_j: tuple[float, float] | None
    roles_reversed: bool
    crossover_time: float | None

    # Unannotated, so not a field: floats that must be finite (classify checks crossover_time).
    _bounds = {"boundary_g": None, "boundary_g_star": None, "exponent_g": None,
               "exponent_g_star": None, "n_hat": None, "g_rate": None, "f_value": None}


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


def growth_case(params: ScenarioParams, epsilon: float = DEFAULT_EPSILON) -> GrowthCase:
    """Compare lam**2 against b*b_star/(a*a_star) with relative tolerance; n is not read."""
    p = params
    return n_free_terms(p.a, p.a_star, p.b, p.b_star, p.lam, checked_epsilon(epsilon))[0]


def classify(params: ScenarioParams, epsilon: float = DEFAULT_EPSILON) -> RegimeReport:
    """Classify a scenario's long-run behavior.

    Behaviors come from the exponent signs alone, Constant within epsilon; the band places n
    among the ordered boundaries through them, with a Constant behavior reported as Boundary.
    Dominance compares n against n_hat under the equal-start convention.
    """
    epsilon, p = checked_epsilon(epsilon), params
    free = n_free_terms(p.a, p.a_star, p.b, p.b_star, p.lam, epsilon)
    case, boundary_g, boundary_g_star, _, _, n_hat = free[:6]
    behavior_g, behavior_g_star, band, e_g, e_g_star, f_value, g_rate = n_terms(
        free, p.b, p.b_star, p.n, epsilon)
    interval_j = (boundary_g_star, boundary_g) if case is GrowthCase.HIGH else None
    dominance = (Dominance.EQUAL if math.isclose(p.n, n_hat, rel_tol=epsilon)
                 else Dominance.G if p.n < n_hat else Dominance.G_STAR)

    crossover_time = None
    if p.B0 != p.B0_star and g_rate != 0.0:
        level_ratio = p.B0 / p.B0_star
        if 0.0 < level_ratio < math.inf:
            log_ratio = math.log(level_ratio)
        else:  # the quotient under- or overflows; the logarithms do not
            log_ratio = math.log(p.B0) - math.log(p.B0_star)
        crossover_time = checked(log_ratio / (-g_rate), "crossover_time")

    return RegimeReport(
        growth_case=case, boundary_g=boundary_g, boundary_g_star=boundary_g_star, band=band,
        behavior_g=behavior_g, behavior_g_star=behavior_g_star, exponent_g=e_g,
        exponent_g_star=e_g_star, g_rate=g_rate, f_value=f_value, n_hat=n_hat,
        dominance=dominance, interval_j=interval_j, roles_reversed=p.n < 1.0,
        crossover_time=crossover_time)


def verify_nhat_bracketing(params: ScenarioParams, epsilon: float = DEFAULT_EPSILON
                           ) -> BracketCheck:
    """Check that n_hat falls strictly inside its case's middle band.

    LowGrowth expects a*lam/b < n_hat < b_star/(a_star*lam); HighGrowth expects the reversed
    ordering. Endpoint comparisons allow a relative slack of epsilon. Nothing here reads n.

    Raises:
        DomainError: n_free_terms' errors; a*lam or a_star*lam past the float range; for the
            Critical case, where the middle band collapses; an n_hat past the float range.
    """
    epsilon, p = checked_epsilon(epsilon), params
    case, boundary_g, boundary_g_star, _, _, n_hat, growth, growth_star = n_free_terms(
        p.a, p.a_star, p.b, p.b_star, p.lam, epsilon)
    checked(growth, "a * lam"), checked(growth_star, "a_star * lam")  # else a boundary is wrong
    if case is GrowthCase.CRITICAL:
        raise DomainError("bracketing check does not apply to the Critical growth case")
    lower, upper = ((boundary_g, boundary_g_star) if case is GrowthCase.LOW
                    else (boundary_g_star, boundary_g))
    n_hat = checked(n_hat, "n_hat")  # a boundary may be inf, n_hat may not
    passed = lower * (1.0 - epsilon) < n_hat < upper * (1.0 + epsilon)
    return BracketCheck(growth_case=case, lower=lower, n_hat=n_hat, upper=upper, passed=passed)
