"""One failure contract: every error the package raises is a WellbeingError, cli.main maps
the class tree to exit codes in one handler, and an exponent or rate past the float range
is refused by name wherever a run would read it."""

from __future__ import annotations

import ast
import json
import math
from pathlib import Path

import pytest

from wellbeing_dynamics import (ExponentialIncome, ScenarioParams, classify, closed_form_B,
                                closed_form_B_star, core, dynamics, general_wellbeing,
                                integrate, regime, verify_nhat_bracketing, wellbeing_ratio)
from wellbeing_dynamics import cli
from wellbeing_dynamics.errors import (DomainError, IntegrationError, NumericError,
                                       QuadratureError, WellbeingError)
from wellbeing_dynamics.core import n_free_terms, n_terms
from conftest import SRC, exact_n_hat, run_cli

HIGH = Path(__file__).parent / "golden" / "inputs" / "high.json"


def high_with(tmp_path, **fields) -> str:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(json.loads(HIGH.read_text()), **fields)))
    return str(path)


def gap_ratio_overflow():
    # q/p = 1e310 leaves the float range while both incomes are finite.
    p, q = ExponentialIncome(p0=1e-300, rate=0.0), ExponentialIncome(p0=1e10, rate=0.0)
    general_wellbeing(p, q, a=1.0, b=0.05, B0=1.0, t0=0.0, t=1.0)


def labels(a, a_star, b, b_star, lam, n, epsilon=1e-9):
    """Both kernels with labels and checks, as classify and sweep rows run them."""
    return n_terms(n_free_terms(a, a_star, b, b_star, lam, epsilon), b, b_star, n, epsilon)


class TestNumericError:
    """The six sites that raised a bare OverflowError or ZeroDivisionError raise a
    NumericError with the same message: both a WellbeingError and an OverflowError."""

    @pytest.mark.parametrize("call,message", [
        (lambda: ExponentialIncome(1.0, 1.0).value(800.0), "income overflows at t = 800"),
        (lambda: ExponentialIncome(1.0, 1.0).derivative(800.0), "income overflows at t = 800"),
        (lambda: core.grown(1.0, 800.0, "B", 800.0), "B overflows at t = 800: ln B = 800"),
        # exp(690) is finite, 1e10 times it is not: value returns inf, incomes raises.
        (lambda: core.incomes(ExponentialIncome(1e10, 1000.0), ExponentialIncome(1.0, 0.0), 0.69),
         "income overflows at t = 0.69"),
        (gap_ratio_overflow, "income gap q/p overflows at t = 0"),
        (lambda: dynamics.max_relative_deviation([0.0, 0.5], [1.0, 1.0], [1.0, 0.0],
                                                 [1.0, 1.0], [1.0, 1.0]),
         "B underflows to 0 at t = 0.5: no relative deviation from it"),
    ], ids=["value", "derivative", "grown", "incomes", "gap_ratio", "max_relative_deviation"])
    def test_site_raises_numeric_error(self, call, message):
        with pytest.raises(NumericError) as exc_info:
            call()
        assert isinstance(exc_info.value, WellbeingError)
        assert isinstance(exc_info.value, OverflowError)
        assert str(exc_info.value) == message

    def test_no_bare_builtin_raised_in_src(self):
        raised = []
        for path in sorted(Path(SRC, "wellbeing_dynamics").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                    name = getattr(node.exc.func, "id", None)
                    if name in ("OverflowError", "ZeroDivisionError"):
                        raised.append(f"{path.name}:{node.lineno} {name}")
        assert raised == []


class TestOneHandler:
    def test_main_has_one_except_clause(self):
        tree = ast.parse(Path(cli.__file__).read_text())
        main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
        handlers = [n for n in ast.walk(main) if isinstance(n, ast.ExceptHandler)]
        assert [ast.unparse(h.type) for h in handlers] == ["WellbeingError"]

    @pytest.mark.parametrize("error,code,line", [
        (DomainError("bad input"), 2, "error: bad input"),
        (NumericError("B overflows"), 1, "error: B overflows"),
        (QuadratureError("no convergence", partial=1.0), 1, "error: no convergence"),
        (IntegrationError("stopped", last_time=2.5), 1, "error: stopped (last good t = 2.5)"),
        (IntegrationError("stopped before t0"), 1, "error: stopped before t0"),
        (WellbeingError("any other"), 1, "error: any other"),
    ])
    def test_class_tree_decides_the_exit_code(self, monkeypatch, error, code, line):
        def fail(args):
            raise error
        monkeypatch.setattr(cli, "cmd_classify", fail)
        r = run_cli("classify", "--scenario", str(HIGH))
        assert (r.returncode, r.stdout, r.stderr) == (code, "", line + "\n")

    def test_builtin_error_is_not_caught(self, monkeypatch):
        def fail(args):
            raise OverflowError("a bug, not a failure of the model")
        monkeypatch.setattr(cli, "cmd_classify", fail)
        with pytest.raises(OverflowError):
            run_cli("classify", "--scenario", str(HIGH))


class TestExponentPastTheFloatRange:
    """high.json with n = 1e-300 and b_star = 1e10: b_star/n = 1e310, so exponent_g_star
    and c_S are -inf. Each path refuses it with exit 2 in checked's words."""

    G_STAR = "exponent_g_star = a_star * lam - b_star / n must be finite, got -inf"

    @pytest.mark.parametrize("argv,message", [
        (["classify"], G_STAR),
        (["simulate", "--mode", "closed", "--t-end", "1"], G_STAR),
        (["simulate", "--mode", "both", "--t-end", "1"], G_STAR),
        (["simulate", "--mode", "ode", "--t-end", "1"],
         "c_S = a_star * q'/q - b_star * p/q at t = 0 must be finite, got -inf"),
    ])
    def test_run_exits_2_naming_it(self, tmp_path, argv, message):
        scenario = high_with(tmp_path, n=1e-300, b_star=1e10)
        out = tmp_path / "out.csv"
        extra = ["--out", str(out)] if argv[0] == "simulate" else []
        r = run_cli(*argv, "--scenario", scenario, *extra)
        assert (r.returncode, r.stdout, r.stderr) == (2, "", f"error: {message}\n")
        assert not out.exists()

    def test_sweep_stops_mid_grid(self, tmp_path):
        # With n = 0.9, b_star/n leaves the float range between b_star = 1.6e308 and 1.7e308.
        out = tmp_path / "out.csv"
        r = run_cli("sweep", "--scenario", high_with(tmp_path, n=0.9),
                    "--vary", "b_star=1e308:1.7e308:1e307", "--out", str(out))
        assert (r.returncode, r.stdout, r.stderr) == (2, "", f"error: {self.G_STAR}\n")
        assert not out.exists()
        ok = run_cli("sweep", "--scenario", high_with(tmp_path, n=0.9),
                     "--vary", "b_star=1e308:1.6e308:1e307", "--out", str(out))
        assert ok.returncode == 0 and len(out.read_text().splitlines()) == 8

    def test_labels_refuse_nan_and_inf(self):
        # a * lam and b * n both overflow: exponent_g is inf - inf = nan.
        with pytest.raises(DomainError, match=r"^exponent_g = a \* lam - b \* n must be finite, "
                                              r"got nan$"):
            labels(1e300, 1.0, 1e300, 1.0, 1e10, 1e10)
        with pytest.raises(DomainError, match=r"^exponent_g = .* got inf$"):
            labels(1e300, 1.0, 1.0, 1.0, 1e10, 1.0)

    def test_library_classify_family_refuses(self):
        p = ScenarioParams(a=1.0, a_star=1.0, b=0.05, b_star=1e10, lam=0.1, n=1e-300,
                           B0=1.0, B0_star=1.0, p0=2.0)
        with pytest.raises(DomainError) as exc_info:
            classify(p)
        assert str(exc_info.value) == self.G_STAR
        # The bracketing check reads no n, so b_star/n past the float range does not reach it.
        assert verify_nhat_bracketing(p) == verify_nhat_bracketing(p._replace(n=1.5))

    @pytest.mark.parametrize("method", ["rk4", "rkf45"])
    def test_integrate_refuses_before_any_step(self, method, monkeypatch):
        p = ScenarioParams(a=1.0, a_star=1.0, b=0.05, b_star=1e10, lam=0.1, n=1e-300,
                           B0=1.0, B0_star=1.0, p0=2.0)
        steps = []
        for name in ("_run_rk4", "_run_rkf45"):
            monkeypatch.setattr(dynamics, name, lambda *args: steps.append(args))
        income = ExponentialIncome(p.p0, p.lam)
        with pytest.raises(DomainError, match=r"^c_S = .* at t = 0 must be finite, got -inf$"):
            integrate(income, income.scaled(p.n), p, 1.0, method=method)
        assert steps == []


class TestGrownPastInfinity:
    # B's exponent is 10 - 0.075 > 0, so ln B = 9.925e308 is inf: exp(inf) would be inf.
    P = ScenarioParams(a=1.0, a_star=1.0, b=0.05, b_star=0.05, lam=10.0, n=1.5,
                       B0=1.0, B0_star=1.0, p0=1.0)

    @pytest.mark.parametrize("call,name", [(closed_form_B, "B"), (closed_form_B_star, "B_star")])
    def test_closed_form_raises(self, call, name):
        with pytest.raises(NumericError, match=f"^{name} overflows at t = 1e\\+308: "
                                               f"ln {name} = inf$"):
            call(self.P, 1e308)

    def test_ratio_underflows_to_zero(self):
        # ln(B/B*) = (exponent_g - exponent_g_star) * t = -0.0417 * 1e308 is -inf.
        assert wellbeing_ratio(self.P, 1e308) == 0.0


class TestExponentsCheckThemselves:
    """exponent_g and exponent_g_star refuse a value past the float range, so every closed
    form does too, where each used to return nan (-inf times an elapsed time of 0)."""

    P = ScenarioParams(a=1.0, a_star=1.0, b=0.05, b_star=1e10, lam=0.1, n=1e-300,
                       B0=1.0, B0_star=1.0, p0=2.0)
    G_STAR = TestExponentPastTheFloatRange.G_STAR

    @pytest.mark.parametrize("call", [
        lambda p: core.exponent_g_star(p),
        lambda p: closed_form_B_star(p, 0.0),
        lambda p: core.closed_form_columns(p, [0.0, 1.0]),
    ], ids=["exponent_g_star", "closed_form_B_star", "closed_form_columns"])
    def test_refuses_naming_the_exponent(self, call):
        with pytest.raises(DomainError) as exc_info:
            call(self.P)
        assert str(exc_info.value) == self.G_STAR

    def test_exponent_g_refuses_nan(self):
        p = ScenarioParams(a=1e300, a_star=1.0, b=1e300, b_star=1.0, lam=1e10, n=1e10,
                           B0=1.0, B0_star=1.0, p0=1.0)
        with pytest.raises(DomainError, match=r"^exponent_g = a \* lam - b \* n must be finite, "
                                              r"got nan$"):
            core.exponent_g(p)

    def test_helper_is_gone(self):
        assert not hasattr(regime, "finite_exponents")

    def test_ratio_at_t0_raises_numeric_error(self):
        # b_star/n overflows, so g_rate is inf: refused by name before any time is read.
        with pytest.raises(DomainError, match=r"^g_rate must be finite, got inf$"):
            wellbeing_ratio(self.P, 0.0)

    def test_ratio_analysis_refuses_a_non_finite_rate(self):
        with pytest.raises(DomainError, match=r"^g_rate must be finite, got inf$"):
            core.ratio_analysis(self.P)
        # The discriminant alone may be inf: 4*b*b_star overflows, n_hat does not.
        p = self.P._replace(b=1e155, b_star=1e155, n=1.5)
        assert core.ratio_analysis(p).discriminant == math.inf

    def test_grown_refuses_a_nan_log_growth(self):
        with pytest.raises(NumericError, match=r"^B overflows at t = 3: ln B = nan$"):
            core.grown(1.0, math.nan, "B", 3.0)


class TestNhatWhenTheDiscriminantOverflows:
    """4*b*b_star past the float range makes the discriminant inf; n_hat still fits and is
    computed from half the gap and half the root."""

    @pytest.mark.parametrize("b,b_star", [(6e153, 6e153), (7e153, 7e153), (1e155, 1e155),
                                          (1e200, 1e250), (1e300, 1e-10), (1.7e308, 5e307)])
    @pytest.mark.parametrize("a,a_star", [(1.0, 1.0), (2.0, 1.0), (1.0, 2.0),
                                          (1e151, 1.0), (1.0, 1e151)])
    def test_n_hat_is_exact_to_a_few_ulps(self, a, a_star, b, b_star):
        n_hat = n_free_terms(a, a_star, b, b_star, 0.1)[5]
        assert math.isfinite(n_hat) and n_hat > 0.0
        assert n_hat == pytest.approx(exact_n_hat(a, a_star, b, b_star, 0.1), rel=1e-15)

    def test_discriminant_stays_inf(self):
        analysis = core.ratio_analysis(ScenarioParams(
            a=1.0, a_star=1.0, b=1e155, b_star=1e155, lam=0.1, n=1.5, B0=1.0, B0_star=1.0,
            p0=2.0))
        assert analysis.discriminant == math.inf
        assert analysis.n_hat == pytest.approx(1.0, rel=1e-15)  # sqrt(b) * sqrt(b_star) rounds

    def test_classify_prints_n_hat_and_dominance(self, tmp_path):
        r = run_cli("classify", "--scenario", high_with(tmp_path, b=1e155, b_star=1e155))
        assert r.returncode == 0 and r.stderr == ""
        assert {"n_hat: 1", "dominance: G_star"} <= set(r.stdout.splitlines())


F_VALUE = "f_value = b * n**2 - (a - a_star) * lam * n - b_star must be finite, got inf"


class TestPrintedNumbersAreFinite:
    """classify and sweep refuse a number that would print as inf where it is made: f_value in
    n_terms, the report's floats in RegimeReport, crossover_time in classify."""

    def test_sign_quadratic_refuses_f_after_the_squares(self):
        with pytest.raises(DomainError) as exc_info:
            labels(1.0, 1.0, 1e10, 0.05, 0.1, 1e150)
        assert str(exc_info.value) == F_VALUE
        # Both n**2 and f overflow: the square is named first, as before.
        with pytest.raises(DomainError, match=r"^n = 1e\+155 overflows when squared$"):
            labels(1.0, 1.0, 1e10, 0.05, 0.1, 1e155)

    @pytest.mark.parametrize("argv", [
        ["classify"],
        ["sweep", "--vary", "b_star=0.04:0.06:0.01", "--out", "OUT"],
    ], ids=["classify", "sweep"])
    def test_f_value_overflow_exits_2(self, tmp_path, argv):
        out = tmp_path / "out.csv"
        argv = [str(out) if arg == "OUT" else arg for arg in argv]
        r = run_cli(*argv, "--scenario", high_with(tmp_path, b=1e10, n=1e150))
        assert (r.returncode, r.stdout, r.stderr) == (2, "", f"error: {F_VALUE}\n")
        assert not out.exists()

    def test_boundary_past_the_float_range_exits_2(self, tmp_path):
        # b_star / (a_star * lam) = 1e200 / 1e-201 = 1e401.
        r = run_cli("classify", "--scenario", high_with(tmp_path, a_star=1e-200, b_star=1e200))
        assert (r.returncode, r.stdout, r.stderr) == (
            2, "", "error: boundary_g_star must be finite, got inf\n")

    def test_crossover_time_past_the_float_range(self):
        # a - a_star is one ulp and lam is 1e-300: g_rate is subnormal, ln(B0/B0_star) is not.
        p = ScenarioParams(a=1.0, a_star=1.0 - 2.0**-53, b=1.0, b_star=1.0, lam=1e-300, n=1.0,
                           B0=1e300, B0_star=1e-300, p0=1.0)
        with pytest.raises(DomainError, match=r"^crossover_time must be finite, got -inf$"):
            classify(p)

    @pytest.mark.parametrize("field", ["boundary_g", "boundary_g_star", "n_hat", "g_rate",
                                       "f_value"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_report_refuses_a_non_finite_field(self, field, value):
        report = classify(ScenarioParams(a=1.0, a_star=1.0, b=0.05, b_star=0.05, lam=0.1,
                                         n=1.5, B0=1.0, B0_star=1.0, p0=2.0))
        with pytest.raises(DomainError, match=f"^{field} must be finite, got {value!r}$"):
            report._replace(**{field: value})
        assert math.copysign(1.0, getattr(report._replace(**{field: -0.0}), field)) == 1.0
