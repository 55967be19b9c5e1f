"""Fitting the income growth rate from an income series.

The growth rate comes from a least-squares line through ln(income)
versus time, anchored so that p0 is the fitted income at the first
sample time. Chilean reference figures ship with the package.
"""

from __future__ import annotations

import math

from .core import ScenarioParams
from .errors import DomainError, Record, checked_points, read_text


class IncomeSeries(Record):
    """Ordered (time, income) observations.

    At least two points, strictly increasing times, positive incomes.
    """

    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        vars(self)["points"] = checked_points(self.points, "income series")


class GrowthFit(Record):
    """Result of the log-linear growth fit.

    Attributes:
        lam: fitted growth rate per unit time (the regression slope).
        p0: fitted income at the first sample time.
        residual: RMS of the log-space residuals.
        t0: first sample time, the anchor for p0.
    """

    lam: float
    p0: float
    residual: float
    t0: float


def fit_growth_rate(series: IncomeSeries) -> GrowthFit:
    """Least-squares exponential growth fit in log space.

    Fits ln(income) = lam * (t - t_first) + ln(p0). Exact through the
    data for two points; the constant series gives lam = 0 exactly. The
    times are scaled by the power of two 2**-e that puts their span in
    [0.5, 1), which is exact, so no square of theirs leaves the float
    range. DomainError when lam = slope * 2**-e overflows.
    """
    import statistics  # on use, so that importing the package does not load it
    t_first, t_last = series.points[0][0], series.points[-1][0]
    e = math.frexp(t_last - t_first)[1]
    xs = [math.ldexp(t - t_first, -e) for t, _ in series.points]
    ys = [math.log(v) for _, v in series.points]
    line = statistics.linear_regression(xs, ys)
    try:
        lam = math.ldexp(line.slope, -e)
    except OverflowError:
        raise DomainError(
            f"income series times {t_first!r} to {t_last!r} are too close together: "
            "the fitted growth rate overflows") from None
    residual = math.sqrt(
        statistics.fmean((y - (line.slope * x + line.intercept)) ** 2 for x, y in zip(xs, ys))
    )
    return GrowthFit(lam=lam, p0=math.exp(line.intercept), residual=residual, t0=t_first)


def scenario_from_data(
    fit: GrowthFit, n_estimate: float, a: float, a_star: float, b: float, b_star: float
) -> ScenarioParams:
    """Assemble scenario parameters from a growth fit.

    lam and p0 come from the fit, t0 is the first sample time, and the
    initial well-being of both groups is 1 by convention. Sensitivities
    are user inputs; no data in scope identifies them.

    Raises:
        DomainError: when the fitted growth rate is not positive, or the
            supplied n_estimate / sensitivities are invalid.
    """
    if fit.lam <= 0.0:
        raise DomainError(
            f"fitted growth rate {fit.lam} is not positive; cannot assemble a scenario"
        )
    return ScenarioParams(a=a, a_star=a_star, b=b, b_star=b_star, lam=fit.lam, n=n_estimate,
                          B0=1.0, B0_star=1.0, p0=fit.p0, t0=fit.t0)


def _parse_series_text(text: str, origin: str) -> IncomeSeries:
    points = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise DomainError(
                f"{origin}, line {lineno}: expected two columns (year, value), got {len(parts)}"
            )
        try:
            points.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise DomainError(
                f"{origin}, line {lineno}: could not parse numbers from {line!r}"
            ) from None
    if not points:
        raise DomainError(f"{origin}: no data rows found")
    return IncomeSeries(tuple(points))


def read_income_series(path) -> IncomeSeries:
    """Read a series file: two columns (year, value) per line.

    Columns may be separated by commas or whitespace; blank lines and
    lines starting with '#' are ignored.
    """
    return _parse_series_text(read_text(path, "series file"), str(path))


def chile_gdp_series() -> IncomeSeries:
    """Bundled Chile GDP per capita observations (2000 and 2018)."""
    from importlib import resources  # on use, so that importing the package does not load it
    text = resources.files(__package__).joinpath("data/chile_gdp_percapita.txt").read_text(
        encoding="utf-8"
    )
    return _parse_series_text(text, "chile_gdp_percapita.txt")


#: GDP per capita projection for 2019, current US dollars (not fitted).
CHILE_GDP_PROJECTION_2019 = 21190.0

#: Mean annual GDP growth by decade, as published (fractions per year).
CHILE_DECADE_MEAN_GROWTH = (
    (1980, 1989, 0.036),
    (1990, 1999, 0.061),
    (2000, 2009, 0.042),
    (2010, 2019, 0.035),
)
