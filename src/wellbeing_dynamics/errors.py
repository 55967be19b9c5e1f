"""Exception types, the immutable record base, and the input checks and
text-file read shared across the package."""

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


class Record:
    """Base of the package's immutable records, which generates no code.

    A subclass's annotated names, in order, are its fields; a value in its
    body is a default. Each field is given once, by position or keyword.
    One named in _bounds is stored as checked(value, name, bound) + 0.0,
    so -0.0 as 0.0; then __post_init__ runs. ==, hash, repr and pickling
    are a frozen dataclass's, and setting or deleting an attribute raises
    dataclasses.FrozenInstanceError.
    """

    _bounds = {}  # field -> strict lower bound of checked (None: any finite value)

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)
        cls._template = {name: getattr(cls, name, None) for name in cls._fields}
        cls._required = frozenset(name for name in cls._fields if name not in vars(cls))

    def __init__(self, *args, **kwargs) -> None:
        fields, call = self._fields, type(self).__qualname__
        if args:
            if len(args) > len(fields) or not kwargs.keys().isdisjoint(fields[:len(args)]):
                raise TypeError(f"{call}() takes {len(fields)} arguments, each once; got "
                                f"{len(args)} positional and {sorted(kwargs)} by keyword")
            kwargs.update(zip(fields, args))
        values = {**self._template, **kwargs}  # in field order, an unknown name last
        if len(values) != len(fields) or not kwargs.keys() >= self._required:
            raise TypeError(f"{call}() got unknown arguments {sorted(values.keys() - fields)} "
                            f"and lacks {sorted(self._required - kwargs.keys())}")
        for name, bound in self._bounds.items():
            values[name] = checked(values[name], name, bound) + 0.0
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Checks that need the stored fields; none by default."""

    def _astuple(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def _replace(self, **changes) -> "Record":
        """A copy with the named fields changed, checked as a new record is."""
        return type(self)(**dict(zip(self._fields, self._astuple()), **changes))

    def __eq__(self, other) -> bool:
        same = other.__class__ is self.__class__
        return self._astuple() == other._astuple() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        pairs = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self._astuple()))
        return f"{type(self).__qualname__}({pairs})"

    def __setattr__(self, name: str, value) -> None:
        from dataclasses import FrozenInstanceError  # only on this error path
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError  # only on this error path
        raise FrozenInstanceError(f"cannot delete field {name!r}")


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
