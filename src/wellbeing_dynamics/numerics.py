"""Adaptive Simpson quadrature with interval bisection."""

from __future__ import annotations

from collections.abc import Callable, Sequence

from .errors import DomainError, QuadratureError, checked


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
    max_depth: int = 50,
    points: Sequence[float] = (),
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
        points: f's kinks, strictly increasing inside (a, b). Each piece
            between them starts with a tolerance share proportional to its length.

    Returns:
        Pair (value, error_estimate); the estimate accumulates the
        per-interval Richardson terms of the accepted pieces.

    Raises:
        DomainError: reversed interval, non-finite limits, tol <= 0, or
            points not strictly increasing inside (a, b).
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

    edges = [a, *points, b]
    if not all(lo < hi for lo, hi in zip(edges, edges[1:])):
        raise DomainError(f"points must increase strictly inside ({a}, {b})")
    fs = [f(x) for x in edges]
    # Stack entries: (lo, flo, hi, fhi, mid, fmid, simpson_estimate, tol_share, depth).
    # Right pieces and halves are pushed first so intervals resolve left to right.
    stack = [(lo, flo, hi, fhi, *simpson(lo, flo, hi, fhi), tol * ((hi - lo) / (b - a)), 0)
             for lo, flo, hi, fhi in reversed(tuple(zip(edges, fs, edges[1:], fs[1:])))]
    total = 0.0
    err_total = 0.0
    while stack:
        lo, flo, hi, fhi, mid, fmid, s_whole, tol_here, depth = stack.pop()
        lm, flm, s_left = simpson(lo, flo, mid, fmid)
        rm, frm, s_right = simpson(mid, fmid, hi, fhi)
        delta = s_left + s_right - s_whole
        # Second disjunct: the interval has no interior floats left to split on.
        if abs(delta) <= 15.0 * tol_here or lm <= lo or rm <= mid:
            total += s_left + s_right + delta / 15.0
            err_total += abs(delta) / 15.0
        elif depth >= max_depth:
            raise QuadratureError(
                f"quadrature did not converge on [{lo}, {hi}] after {depth} bisections",
                partial=total + s_left + s_right + sum(entry[6] for entry in stack),
                error_estimate=err_total + abs(delta) / 15.0)
        else:
            stack.append((mid, fmid, hi, fhi, rm, frm, s_right, 0.5 * tol_here, depth + 1))
            stack.append((lo, flo, mid, fmid, lm, flm, s_left, 0.5 * tol_here, depth + 1))
    return total, err_total
