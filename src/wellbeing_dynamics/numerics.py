"""Adaptive Simpson quadrature with interval bisection."""

from __future__ import annotations

from .errors import DomainError, QuadratureError, checked


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
    max_depth: int = 50,
) -> tuple[float, float]:
    """Integrate f over [a, b] by adaptive Simpson bisection.

    Each interval is accepted when the Richardson estimate
    |S(left) + S(right) - S(whole)| / 15 falls below its tolerance share;
    the share halves on every split, so the accepted pieces sum to at
    most tol. Accepted values include the Richardson correction.

    Args:
        f: integrand, called with a single float argument.
        a: lower limit.
        b: upper limit; must satisfy a <= b.
        tol: absolute error target for the whole interval, > 0.
        max_depth: bisection depth limit before giving up.

    Returns:
        Pair (value, error_estimate); the estimate accumulates the
        per-interval Richardson terms of the accepted pieces.

    Raises:
        DomainError: reversed interval, non-finite limits, or tol <= 0.
        QuadratureError: max_depth exceeded; carries the partial value
            assembled from everything processed or pending so far.
    """
    a = checked(a, "lower integration limit")
    b = checked(b, "upper integration limit")
    if b < a:
        raise DomainError(f"integration interval is reversed: [{a}, {b}]")
    tol = checked(tol, "tol", above=0.0)
    if a == b:
        return 0.0, 0.0

    def simpson(lo: float, flo: float, hi: float, fhi: float) -> tuple[float, float, float]:
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        return mid, fmid, (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    fa = f(a)
    fb = f(b)
    m, fm, whole = simpson(a, fa, b, fb)
    # Stack entries: (lo, flo, mid, fmid, hi, fhi, simpson_estimate, tol_share, depth).
    # The right half is pushed first so intervals resolve left to right.
    stack = [(a, fa, m, fm, b, fb, whole, tol, 0)]
    total = 0.0
    err_total = 0.0
    while stack:
        lo, flo, mid, fmid, hi, fhi, s_whole, tol_here, depth = stack.pop()
        lm, flm, s_left = simpson(lo, flo, mid, fmid)
        rm, frm, s_right = simpson(mid, fmid, hi, fhi)
        delta = s_left + s_right - s_whole
        # Second disjunct: the interval has no interior floats left to split on.
        if abs(delta) <= 15.0 * tol_here or lm <= lo or rm <= mid:
            total += s_left + s_right + delta / 15.0
            err_total += abs(delta) / 15.0
        elif depth >= max_depth:
            partial = total + s_left + s_right + sum(entry[6] for entry in stack)
            raise QuadratureError(
                f"quadrature did not converge on [{lo}, {hi}] after {depth} bisections",
                partial=partial,
                error_estimate=err_total + abs(delta) / 15.0,
            )
        else:
            stack.append((mid, fmid, rm, frm, hi, fhi, s_right, 0.5 * tol_here, depth + 1))
            stack.append((lo, flo, lm, flm, mid, fmid, s_left, 0.5 * tol_here, depth + 1))
    return total, err_total
