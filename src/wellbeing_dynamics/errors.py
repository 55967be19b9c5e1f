"""Exception types, and the input checks and text-file read shared across the package."""

import math


class WellbeingError(Exception):
    """Base class for every error raised by this package."""


class DomainError(WellbeingError, ValueError):
    """Invalid input: violated precondition, bad parameter, malformed file."""


class IntegrationError(WellbeingError, RuntimeError):
    """ODE integration aborted before reaching the end time.

    Attributes:
        last_time: last time at which a valid state was accepted, or None.
        last_state: (B, B_star) at last_time, or None.
    """

    def __init__(self, message, *, last_time=None, last_state=None):
        super().__init__(message)
        self.last_time = last_time
        self.last_state = last_state


class QuadratureError(WellbeingError, RuntimeError):
    """Adaptive quadrature exhausted its bisection depth.

    Attributes:
        partial: best available estimate of the whole integral, or None.
        error_estimate: accumulated error estimate at the point of failure.
    """

    def __init__(self, message, *, partial=None, error_estimate=None):
        super().__init__(message)
        self.partial = partial
        self.error_estimate = error_estimate


def checked(value, name: str, above=None, below=None, at_least=None) -> float:
    """Return value as a finite float within the given bounds.

    above and below are strict bounds, at_least is inclusive; None skips
    a bound. The DomainError names the value and quotes it as given.
    """
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a real number, got {value!r}") from None
    except OverflowError:  # an integer past the float range, whose repr may itself fail
        raise DomainError(f"{name} must be finite, got a number past the float range") from None
    if not math.isfinite(out):
        raise DomainError(f"{name} must be finite, got {value!r}")
    if above is not None and out <= above:
        raise DomainError(f"{name} must be > {above:g}, got {value!r}")
    if below is not None and out >= below:
        raise DomainError(f"{name} must be < {below:g}, got {value!r}")
    if at_least is not None and out < at_least:
        raise DomainError(f"{name} must be >= {at_least:g}, got {value!r}")
    return out


def squared(x: float, name: str) -> float:
    """x**2, or a DomainError naming the quantity name and x when it overflows."""
    try:
        return x**2
    except OverflowError:
        raise DomainError(f"{name} = {x!r} overflows when squared") from None


def check_fields(obj, bounds: dict) -> None:
    """Store each frozen-dataclass field named in bounds as checked(value, name, bound),
    with -0.0 stored as 0.0 so that a field prints the same wherever it goes."""
    for name, bound in bounds.items():
        object.__setattr__(obj, name, checked(getattr(obj, name), name, bound) + 0.0)


def checked_points(points, label: str) -> tuple[tuple[float, float], ...]:
    """Validate (time, value) samples: at least two, finite, positive
    values, strictly increasing times whose span is a finite float.
    Returns them as float pairs."""
    try:
        pairs = [(t, v) for t, v in points]
    except (TypeError, ValueError):
        raise DomainError(f"{label} points must be (time, value) pairs") from None
    if len(pairs) < 2:
        raise DomainError(f"{label} needs at least 2 points")
    pts = tuple(
        (checked(t, f"{label} time"), checked(v, f"{label} value at t = {t}", above=0.0))
        for t, v in pairs
    )
    if any(t1 >= t2 for (t1, _), (t2, _) in zip(pts, pts[1:])):
        raise DomainError(f"{label} times must be strictly increasing")
    first, last = pts[0][0], pts[-1][0]
    if last - first == math.inf:
        raise DomainError(f"{label} times {first!r} and {last!r} are too far apart: "
                          "their difference overflows")
    return pts


def read_text(path, what: str) -> str:
    """The text of the UTF-8 file at path; a DomainError naming it as what when it cannot
    be opened, read or decoded."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {what} {path}: {exc}") from None
