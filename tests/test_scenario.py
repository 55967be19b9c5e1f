"""Scenario-file parsing, income overrides, and sweep grids."""

from __future__ import annotations

import json
import math
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wellbeing_dynamics import (
    DomainError,
    ExponentialIncome,
    LinearIncome,
    NumericsOptions,
    ScenarioParams,
    SweepSpec,
    TabulatedIncome,
    load_scenario,
    parse_scenario,
    parse_sweep,
)
from wellbeing_dynamics.scenario import PARAM_KEYS, SWEEPABLE, with_param

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

    def test_override(self):
        sc = parse_scenario(
            doc(numerics={"step": 0.05, "epsilon": 1e-7}),
            "test")
        assert sc.numerics == NumericsOptions(step=0.05, epsilon=1e-7)

    @pytest.mark.parametrize("key", ["h_size", "quad_tol"])
    def test_unknown_numerics_key(self, key):
        # quad_tol was parsed and validated but read by no command; it is refused.
        with pytest.raises(DomainError, match=f"unknown key '{key}' in numerics"):
            parse_scenario(doc(numerics={key: 0.1}), "test")

    def test_validation(self):
        with pytest.raises(DomainError):
            NumericsOptions(step=0.0)
        with pytest.raises(DomainError):
            NumericsOptions(epsilon=1.0)


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


positive = st.floats(min_value=1e-6, max_value=1e6)
valid_params = st.builds(
    ScenarioParams, a=positive, a_star=positive, b=positive, b_star=positive,
    lam=positive, n=positive, B0=positive, B0_star=positive, p0=positive,
    t0=st.floats(min_value=-1e6, max_value=1e6),
)
# Any float (nan and +-inf included), small integers, and the edges a sweep grid hits.
swept_values = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, math.nan, math.inf, -math.inf]),
    st.floats(),
    st.integers(min_value=-3, max_value=3),
)


class TestWithParam:
    @given(valid_params, swept_values)
    def test_same_result_or_error_as_full_construction(self, params, value):
        before = vars(params).copy()
        for name in SWEEPABLE:
            fields = {**vars(params), PARAM_KEYS[name]: value}
            try:
                expected = ScenarioParams(**fields)
            except DomainError as exc:
                with pytest.raises(DomainError) as got:
                    with_param(params, name, value)
                assert str(got.value) == str(exc)
                continue
            result = with_param(params, name, value)
            assert result == expected
            with pytest.raises(FrozenInstanceError):
                result.n = 1.0
        assert vars(params) == before

    def test_unknown_name_rejected(self):
        params = parse_scenario(doc()).params
        for name in ("B1", "lam", ""):
            with pytest.raises(DomainError, match="unknown parameter name"):
                with_param(params, name, 1.0)

    def test_closed_form_params_checks_the_rate(self):
        scenario = parse_scenario(doc(income_model={"type": "exponential", "rate": -0.1}))
        with pytest.raises(DomainError, match="lam must be > 0, got -0.1"):
            scenario.closed_form_params()
        scenario = parse_scenario(doc(income_model={"type": "exponential", "rate": 0.03}))
        assert scenario.closed_form_params() == ScenarioParams(
            **{**vars(scenario.params), "lam": 0.03}
        )
