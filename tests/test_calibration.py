"""Growth-rate fitting, inequality summaries, and the bundled dataset."""

from __future__ import annotations

import math
import random

import pytest

from wellbeing_dynamics import (
    CHILE_DECADE_MEAN_GROWTH,
    CHILE_GDP_PROJECTION_2019,
    CHILE_INEQUALITY_RECORDS,
    CHILE_PUBLISHED_SUMMARIES,
    DomainError,
    IncomeSeries,
    Indicator,
    InequalityRecord,
    chile_gdp_series,
    fit_growth_rate,
    read_income_series,
    scenario_from_data,
    summarize_inequality,
)
from conftest import uniform


def synthetic_series(lam: float, p0: float, years, t0: float = 2000.0) -> IncomeSeries:
    return IncomeSeries(tuple(
        (t0 + k, p0 * math.exp(lam * k)) for k in years
    ))


class TestIncomeSeries:
    def test_needs_two_points(self):
        with pytest.raises(DomainError):
            IncomeSeries(((2000.0, 1.0),))

    def test_rejects_unsorted_and_duplicate_times(self):
        with pytest.raises(DomainError):
            IncomeSeries(((2001.0, 1.0), (2000.0, 2.0)))
        with pytest.raises(DomainError):
            IncomeSeries(((2000.0, 1.0), (2000.0, 2.0)))

    def test_rejects_nonpositive_incomes(self):
        with pytest.raises(DomainError):
            IncomeSeries(((2000.0, 1.0), (2001.0, 0.0)))

    def test_accessors(self):
        s = IncomeSeries(((2000, 5064), (2018, 18592)))
        assert s.times == (2000.0, 2018.0)
        assert s.incomes == (5064.0, 18592.0)


class TestFitGrowthRate:
    def test_two_point_chilean_pair(self):
        s = IncomeSeries(((2000.0, 5064.0), (2018.0, 18592.0)))
        fit = fit_growth_rate(s)
        oracle = math.log(18592.0 / 5064.0) / 18.0
        assert math.isclose(fit.lam, oracle, rel_tol=1e-10)
        assert abs(fit.lam - 0.072256) < 1e-4
        assert math.isclose(fit.p0, 5064.0, rel_tol=1e-10)
        assert fit.t0 == 2000.0
        assert fit.residual < 1e-12

    def test_times_whose_variance_underflows_rejected(self):
        # Distinct times, but (1e-300 / 2)**2 underflows to 0: statistics used to raise
        # "x is constant". scenario_from_data fits through the same routine.
        s = IncomeSeries(((0.0, 1.0), (1e-300, 4.0)))
        message = (r"^income series times 0\.0 to 1e-300 are too close together to fit a "
                   r"growth rate: their variance underflows to 0$")
        with pytest.raises(DomainError, match=message):
            fit_growth_rate(s)
        with pytest.raises(DomainError, match=message):
            scenario_from_data(s, n_estimate=2.0, a=1.0, a_star=1.0, b=0.05, b_star=0.05)

    def test_constant_series_gives_zero_rate(self):
        s = IncomeSeries(tuple((2000.0 + k, 750.0) for k in range(6)))
        fit = fit_growth_rate(s)
        assert fit.lam == 0.0
        assert fit.residual == 0.0
        assert math.isclose(fit.p0, 750.0, rel_tol=1e-12)

    def test_exact_exponential_recovered(self):
        fit = fit_growth_rate(synthetic_series(0.1, 1000.0, range(10)))
        assert abs(fit.lam - 0.1) < 1e-12
        assert math.isclose(fit.p0, 1000.0, rel_tol=1e-10)
        assert fit.residual < 1e-12

    def test_round_trip_random_draws(self):
        rng = random.Random(61)
        for _ in range(50):
            lam = uniform(rng, 0.005, 0.2)
            p0 = uniform(rng, 100.0, 50000.0)
            years = sorted(rng.sample(range(40), 8))
            fit = fit_growth_rate(synthetic_series(lam, p0, years))
            assert math.isclose(fit.lam, lam, rel_tol=1e-10)
            # The fitted level anchors at the first sample time.
            assert fit.t0 == 2000.0 + years[0]
            assert math.isclose(fit.p0, p0 * math.exp(lam * years[0]),
                                rel_tol=1e-10)

    def test_scale_invariance_of_rate(self):
        base = synthetic_series(0.07, 2000.0, range(12))
        scaled = IncomeSeries(tuple((t, 1000.0 * v) for t, v in base.points))
        f0, f1 = fit_growth_rate(base), fit_growth_rate(scaled)
        assert math.isclose(f0.lam, f1.lam, rel_tol=1e-10, abs_tol=1e-14)
        assert math.isclose(f1.p0, 1000.0 * f0.p0, rel_tol=1e-10)

    def test_time_shift_invariance_of_rate(self):
        base = synthetic_series(0.07, 2000.0, range(12), t0=1980.0)
        shifted = IncomeSeries(tuple((t + 37.0, v) for t, v in base.points))
        f0, f1 = fit_growth_rate(base), fit_growth_rate(shifted)
        assert f0.lam == f1.lam
        assert f1.t0 == f0.t0 + 37.0

    def test_noisy_series_reports_residual(self):
        pts = tuple((2000.0 + k, 1000.0 * math.exp(0.05 * k) * (1.1 if k % 2 else 0.9))
                    for k in range(8))
        fit = fit_growth_rate(IncomeSeries(pts))
        assert fit.residual > 0.01
        assert 0.0 < fit.lam < 0.2


class TestInequalityRecords:
    def test_gini_bounds(self):
        with pytest.raises(DomainError):
            InequalityRecord(Indicator.GINI, 1990, 1.2)
        with pytest.raises(DomainError):
            InequalityRecord(Indicator.GINI, 1990, 0.0)

    def test_indicator_must_be_an_indicator(self):
        with pytest.raises(DomainError) as exc_info:
            InequalityRecord("Gini", 1990, 0.5)
        assert str(exc_info.value) == "indicator must be an Indicator, got 'Gini'"

    def test_ratio_at_least_one(self):
        with pytest.raises(DomainError):
            InequalityRecord(Indicator.Q5Q1, 1990, 0.8)
        assert InequalityRecord(Indicator.PALMA, 2013, 2.96).value == 2.96

    def test_summary_of_bundled_quintile_records(self):
        s = summarize_inequality(CHILE_INEQUALITY_RECORDS, Indicator.Q5Q1)
        assert s.count == 2
        assert s.mean == pytest.approx((14.8 + 11.6) / 2, rel=1e-12)
        assert s.minimum == 11.6
        assert s.maximum == 14.8

    def test_single_record_summary(self):
        recs = (InequalityRecord(Indicator.GINI, 1990, 0.521),)
        s = summarize_inequality(recs, Indicator.GINI)
        assert s.count == 1
        assert s.mean == s.minimum == s.maximum == 0.521

    def test_empty_selection_rejected(self):
        with pytest.raises(DomainError, match="no records"):
            summarize_inequality(CHILE_INEQUALITY_RECORDS, Indicator.D10D1)

    def test_published_summary_constants(self):
        by_ind = {s.indicator: s for s in CHILE_PUBLISHED_SUMMARIES}
        q = by_ind[Indicator.Q5Q1]
        assert (q.mean, q.minimum, q.maximum) == (14.5, 13.2, 15.5)
        d = by_ind[Indicator.D10D1]
        assert (d.mean, d.minimum, d.maximum) == (32.7, 27.9, 38.5)
        assert q.minimum <= q.mean <= q.maximum
        assert d.minimum <= d.mean <= d.maximum


class TestBundledData:
    def test_chile_series_contents(self):
        s = chile_gdp_series()
        assert s.points == ((2000.0, 5064.0), (2018.0, 18592.0))

    def test_fitted_rate_matches_published_growth(self):
        fit = fit_growth_rate(chile_gdp_series())
        assert abs(fit.lam - 0.072256) < 1e-4

    def test_projection_follows_fitted_trend(self):
        # One more year at the fitted rate lands near the recorded
        # projection for 2019.
        fit = fit_growth_rate(chile_gdp_series())
        implied = 18592.0 * math.exp(fit.lam)
        assert abs(implied - CHILE_GDP_PROJECTION_2019) / CHILE_GDP_PROJECTION_2019 < 0.06

    def test_decade_growth_table(self):
        by_decade = {start: g for start, _, g in CHILE_DECADE_MEAN_GROWTH}
        assert by_decade[1980] == 0.036
        assert by_decade[1990] == 0.061
        assert by_decade[2000] == 0.042
        assert by_decade[2010] == 0.035
        for start, end, _ in CHILE_DECADE_MEAN_GROWTH:
            assert end == start + 9


class TestScenarioFromData:
    def test_chilean_assembly(self):
        sc = scenario_from_data(chile_gdp_series(), n_estimate=14.8,
                                a=1.0, a_star=1.0, b=0.05, b_star=0.05)
        assert abs(sc.lam - 0.072256) < 1e-4
        assert sc.n == 14.8
        assert sc.B0 == sc.B0_star == 1.0
        assert sc.t0 == 2000.0
        assert math.isclose(sc.p0, 5064.0, rel_tol=1e-10)

    def test_flat_series_rejected(self):
        s = IncomeSeries(tuple((2000.0 + k, 750.0) for k in range(4)))
        with pytest.raises(DomainError, match="not positive"):
            scenario_from_data(s, n_estimate=2.0, a=1.0, a_star=1.0,
                               b=0.05, b_star=0.05)

    def test_round_trip_through_synthetic_series(self):
        sc = scenario_from_data(synthetic_series(0.08, 1200.0, range(10)),
                                n_estimate=3.0, a=1.5, a_star=0.8,
                                b=0.1, b_star=0.2)
        assert math.isclose(sc.lam, 0.08, rel_tol=1e-10)
        assert math.isclose(sc.p0, 1200.0, rel_tol=1e-10)
        assert (sc.a, sc.a_star, sc.b, sc.b_star) == (1.5, 0.8, 0.1, 0.2)


class TestSeriesParsing:
    def test_whitespace_and_comments(self, tmp_path):
        f = tmp_path / "series.txt"
        f.write_text("# gdp per capita\n\n2000 5064\n2018\t18592\n")
        s = read_income_series(f)
        assert s.points == ((2000.0, 5064.0), (2018.0, 18592.0))

    def test_comma_separated(self, tmp_path):
        f = tmp_path / "series.csv"
        f.write_text("2000, 5064\n2009,9929\n2018, 18592\n")
        s = read_income_series(f)
        assert len(s.points) == 3
        assert s.points[1] == (2009.0, 9929.0)

    def test_bad_column_count_names_line(self, tmp_path):
        f = tmp_path / "series.txt"
        f.write_text("2000 5064\n2001 5200 extra\n")
        with pytest.raises(DomainError, match="line 2"):
            read_income_series(f)

    def test_non_numeric_rejected(self, tmp_path):
        f = tmp_path / "series.txt"
        f.write_text("2000 5064\nyear value\n")
        with pytest.raises(DomainError):
            read_income_series(f)

    def test_empty_file_rejected(self, tmp_path):
        f = tmp_path / "series.txt"
        f.write_text("# nothing but comments\n")
        with pytest.raises(DomainError):
            read_income_series(f)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            read_income_series(tmp_path / "absent.txt")
