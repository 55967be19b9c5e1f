"""Fitting the income growth rate and summarizing inequality indicators.

The growth rate comes from a least-squares line through ln(income)
versus time, anchored so that p0 is the fitted income at the first
sample time. Inequality indicators are ingested as published values
(Gini, Palma, quintile and decile ratios), never recomputed from
microdata. Chilean reference figures ship with the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .core import ScenarioParams
from .errors import DomainError, checked, checked_points


@dataclass(frozen=True)
class IncomeSeries:
    """Ordered (time, income) observations.

    At least two points, strictly increasing times, positive incomes.
    """

    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", checked_points(self.points, "income series"))

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(t for t, _ in self.points)

    @property
    def incomes(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.points)


class Indicator(str, Enum):
    GINI = "Gini"
    PALMA = "Palma"
    Q5Q1 = "Q5Q1"    # top-to-bottom quintile income ratio
    D10D1 = "D10D1"  # top-to-bottom decile income ratio


@dataclass(frozen=True)
class InequalityRecord:
    """One published indicator value for one year."""

    indicator: Indicator
    year: int
    value: float

    def __post_init__(self) -> None:
        if not isinstance(self.indicator, Indicator):
            raise DomainError(f"indicator must be an Indicator, got {self.indicator!r}")
        if self.indicator is Indicator.GINI:
            value = checked(self.value, "Gini", above=0.0, below=1.0)
        else:
            value = checked(self.value, f"{self.indicator.value} ratio", at_least=1.0)
        object.__setattr__(self, "value", value)


@dataclass(frozen=True)
class GrowthFit:
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


@dataclass(frozen=True)
class InequalitySummary:
    indicator: Indicator
    count: int
    mean: float
    minimum: float
    maximum: float


@dataclass(frozen=True)
class PublishedSummary:
    """A period summary quoted from a source, not recomputed here."""

    indicator: Indicator
    period: tuple[int, int]
    mean: float
    minimum: float
    maximum: float


def fit_growth_rate(series: IncomeSeries) -> GrowthFit:
    """Least-squares exponential growth fit in log space.

    Fits ln(income) = lam * (t - t_first) + ln(p0). Exact through the
    data for two points; the constant series gives lam = 0 exactly.
    DomainError when the times are too close together for their variance
    to stay above 0.
    """
    import statistics  # on use, so that importing the package does not load it
    t_first = series.points[0][0]
    xs = [t - t_first for t, _ in series.points]
    ys = [math.log(v) for _, v in series.points]
    try:
        line = statistics.linear_regression(xs, ys)
    except statistics.StatisticsError:  # "x is constant": the times' spread squared is 0
        raise DomainError(
            f"income series times {t_first!r} to {series.points[-1][0]!r} are too close "
            "together to fit a growth rate: their variance underflows to 0") from None
    residual = math.sqrt(
        statistics.fmean((y - (line.slope * x + line.intercept)) ** 2 for x, y in zip(xs, ys))
    )
    return GrowthFit(
        lam=line.slope, p0=math.exp(line.intercept), residual=residual, t0=t_first
    )


def summarize_inequality(records, indicator: Indicator) -> InequalitySummary:
    """Arithmetic mean and range over the records matching the indicator."""
    import statistics
    values = [r.value for r in records if r.indicator is indicator]
    if not values:
        raise DomainError(f"no records for indicator {indicator.value}")
    return InequalitySummary(
        indicator=indicator,
        count=len(values),
        mean=statistics.fmean(values),
        minimum=min(values),
        maximum=max(values),
    )


def scenario_from_data(
    series: IncomeSeries, n_estimate: float, a: float, a_star: float, b: float, b_star: float
) -> ScenarioParams:
    """Assemble scenario parameters from a fitted series.

    lam and p0 come from the fit, t0 is the first sample time, and the
    initial well-being of both groups is 1 by convention. Sensitivities
    are user inputs; no data in scope identifies them.

    Raises:
        DomainError: when the series cannot be fitted, the fitted growth
            rate is not positive, or the supplied n_estimate / sensitivities
            are invalid.
    """
    fit = fit_growth_rate(series)
    if fit.lam <= 0.0:
        raise DomainError(
            f"fitted growth rate {fit.lam} is not positive; cannot assemble a scenario"
        )
    return ScenarioParams(
        a=a,
        a_star=a_star,
        b=b,
        b_star=b_star,
        lam=fit.lam,
        n=n_estimate,
        B0=1.0,
        B0_star=1.0,
        p0=fit.p0,
        t0=fit.t0,
    )


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
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise DomainError(f"cannot read series file {path}: {exc}") from None
    return _parse_series_text(text, str(path))


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

#: Published indicator values by year.
CHILE_INEQUALITY_RECORDS = (
    InequalityRecord(Indicator.GINI, 1990, 0.521),
    InequalityRecord(Indicator.GINI, 2013, 0.488),
    InequalityRecord(Indicator.PALMA, 1990, 3.58),
    InequalityRecord(Indicator.PALMA, 2013, 2.96),
    InequalityRecord(Indicator.Q5Q1, 1990, 14.8),
    InequalityRecord(Indicator.Q5Q1, 2013, 11.6),
)

#: Period summaries quoted from the source for 1990-2003.
CHILE_PUBLISHED_SUMMARIES = (
    PublishedSummary(Indicator.Q5Q1, (1990, 2003), mean=14.5, minimum=13.2, maximum=15.5),
    PublishedSummary(Indicator.D10D1, (1990, 2003), mean=32.7, minimum=27.9, maximum=38.5),
)
