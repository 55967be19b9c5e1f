"""Scenario-file parsing, income overrides, and sweep grids."""

from __future__ import annotations

import json
import math

import pytest

from wellbeing_dynamics import (
    DomainError,
    ExponentialIncome,
    LinearIncome,
    NumericsOptions,
    SweepSpec,
    TabulatedIncome,
    load_scenario,
    parse_scenario,
    parse_sweep,
)

BASE = {
    "a": 1.0, "a_star": 1.0, "b": 0.05, "b_star": 0.05,
    "lambda": 0.1, "n": 1.5, "B0": 1.0, "B0_star": 1.0,
    "p0": 2.0, "t0": 0.0,
}


def doc(**overrides):
    d = dict(BASE)
    d.update(overrides)
    return d


class TestParseScenario:
    def test_minimal_document(self):
        sc = parse_scenario(doc(), "test")
        assert sc.params.lam == 0.1
        assert sc.params.n == 1.5
        assert sc.income is None
        assert sc.numerics == NumericsOptions()

    def test_unknown_key_named(self):
        with pytest.raises(DomainError, match="unknown key 'lamda'"):
            d = doc()
            d.pop("lambda")
            d["lamda"] = 0.1
            parse_scenario(d, "test")

    def test_missing_key_named(self):
        d = doc()
        d.pop("b_star")
        with pytest.raises(DomainError, match="missing key 'b_star'"):
            parse_scenario(d, "test")

    def test_origin_in_message(self):
        with pytest.raises(DomainError, match="budget.json"):
            parse_scenario(doc(extra=1), "budget.json")

    def test_non_numeric_value_rejected(self):
        with pytest.raises(DomainError, match="'n' must be a number"):
            parse_scenario(doc(n="big"), "test")

    def test_bool_rejected_as_number(self):
        with pytest.raises(DomainError, match="must be a number"):
            parse_scenario(doc(a=True), "test")

    def test_non_object_rejected(self):
        with pytest.raises(DomainError):
            parse_scenario([1, 2, 3], "test")

    def test_domain_validation_still_applies(self):
        with pytest.raises(DomainError, match="n must be > 0"):
            parse_scenario(doc(n=-2.0), "test")


class TestIncomeOverrides:
    def test_exponential_default_rate_is_lambda(self):
        sc = parse_scenario(doc(income_model={"type": "exponential"}), "test")
        assert isinstance(sc.income, ExponentialIncome)
        assert sc.income.rate == 0.1
        assert sc.exponential_rate() == 0.1

    def test_exponential_rate_override(self):
        sc = parse_scenario(
            doc(income_model={"type": "exponential", "rate": 0.03}), "test")
        assert sc.income.rate == 0.03
        assert sc.exponential_rate() == 0.03
        assert sc.closed_form_params().lam == 0.03

    def test_linear_income(self):
        sc = parse_scenario(
            doc(income_model={"type": "linear", "slope": 0.2}), "test")
        assert isinstance(sc.income, LinearIncome)
        assert sc.income.slope == 0.2
        assert sc.exponential_rate() is None
        with pytest.raises(DomainError, match="exponential"):
            sc.closed_form_params()

    def test_linear_requires_slope(self):
        with pytest.raises(DomainError, match="slope"):
            parse_scenario(doc(income_model={"type": "linear"}), "test")

    def test_tabulated_income(self):
        sc = parse_scenario(
            doc(income_model={"type": "tabulated",
                              "points": [[0, 2.0], [5, 3.0], [10, 5.0]]}),
            "test")
        assert isinstance(sc.income, TabulatedIncome)
        assert sc.income.value(0.0) == 2.0

    def test_tabulated_rejects_nonpositive_entries(self):
        with pytest.raises(DomainError, match="must be > 0"):
            parse_scenario(
                doc(income_model={"type": "tabulated",
                                  "points": [[0, 2.0], [5, 0.0]]}),
                "test")

    def test_unknown_income_type(self):
        with pytest.raises(DomainError, match="type"):
            parse_scenario(doc(income_model={"type": "quadratic"}), "test")

    def test_unknown_income_key(self):
        with pytest.raises(DomainError, match="rate"):
            parse_scenario(
                doc(income_model={"type": "linear", "slope": 1.0, "rate": 2.0}),
                "test")

    def test_income_pair_scales_by_n(self):
        sc = parse_scenario(
            doc(income_model={"type": "linear", "slope": 0.2}), "test")
        p, q = sc.income_pair()
        assert q.p0 == sc.params.n * p.p0
        assert q.slope == sc.params.n * p.slope

        sc2 = parse_scenario(
            doc(income_model={"type": "tabulated",
                              "points": [[0, 2.0], [10, 4.0]]}), "test")
        p2, q2 = sc2.income_pair()
        assert q2.value(10.0) == pytest.approx(1.5 * 4.0, rel=1e-15)

    def test_default_income_pair_is_exponential(self):
        sc = parse_scenario(doc(), "test")
        p, q = sc.income_pair()
        assert isinstance(p, ExponentialIncome)
        assert p.rate == sc.params.lam
        assert q.p0 == sc.params.n * sc.params.p0


class TestNumericsBlock:
    def test_defaults(self):
        opts = NumericsOptions()
        assert opts.step == 0.01
        assert opts.epsilon == 1e-9
        assert opts.quad_tol == 1e-10

    def test_override(self):
        sc = parse_scenario(
            doc(numerics={"step": 0.05, "epsilon": 1e-7, "quad_tol": 1e-8}),
            "test")
        assert sc.numerics == NumericsOptions(step=0.05, epsilon=1e-7,
                                              quad_tol=1e-8)

    def test_unknown_numerics_key(self):
        with pytest.raises(DomainError, match="h_size"):
            parse_scenario(doc(numerics={"h_size": 0.1}), "test")

    def test_validation(self):
        with pytest.raises(DomainError):
            NumericsOptions(step=0.0)
        with pytest.raises(DomainError):
            NumericsOptions(epsilon=1.0)
        with pytest.raises(DomainError):
            NumericsOptions(quad_tol=-1e-3)


class TestLoadScenario:
    def test_round_trip(self, tmp_path):
        f = tmp_path / "sc.json"
        f.write_text(json.dumps(doc()))
        sc = load_scenario(f)
        assert sc.params.p0 == 2.0

    def test_invalid_json(self, tmp_path):
        f = tmp_path / "sc.json"
        f.write_text("{not json")
        with pytest.raises(DomainError, match="invalid JSON"):
            load_scenario(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DomainError, match="cannot read"):
            load_scenario(tmp_path / "absent.json")


class TestSweepSpec:
    def test_parse(self):
        spec = parse_sweep("n=0.5:2.5:0.5")
        assert spec == SweepSpec("n", 0.5, 2.5, 0.5)
        grid = spec.grid()
        assert grid[0] == 0.5
        assert grid[-1] == pytest.approx(2.5, rel=1e-12)
        assert len(grid) == 5

    def test_grid_handles_inexact_steps(self):
        grid = parse_sweep("lambda=0.01:0.1:0.01").grid()
        assert len(grid) == 10
        assert grid[-1] == pytest.approx(0.1, rel=1e-12)

    def test_single_point_grid(self):
        grid = parse_sweep("n=1.5:1.6:0.5").grid()
        assert grid == [1.5]

    def test_only_model_parameters_sweepable(self):
        with pytest.raises(DomainError, match="B0"):
            parse_sweep("B0=1:2:0.5")
        with pytest.raises(DomainError):
            parse_sweep("step=1:2:0.5")

    def test_malformed_text(self):
        for bad in ("n=1:2", "n:1:2:0.5", "n=a:b:c", "n=2:1:0.5", "n=1:2:0"):
            with pytest.raises(DomainError):
                parse_sweep(bad)

    def test_values_must_be_finite(self):
        with pytest.raises(DomainError):
            parse_sweep(f"n=1:{math.inf}:1")

    def test_grid_size_is_capped(self):
        with pytest.raises(DomainError, match="exceeds the limit"):
            parse_sweep("n=0:1e308:1e-308").grid()
        with pytest.raises(DomainError, match="exceeds the limit"):
            parse_sweep("n=1:1000002:1").grid()
