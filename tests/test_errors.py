"""One failure contract: every error the package raises is a WellbeingError, cli.main maps
the class tree to exit codes in one handler, and an exponent or rate past the float range
is refused by name wherever a run would read it."""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from wellbeing_dynamics import (ExponentialIncome, ScenarioParams, classify, closed_form_B,
                                closed_form_B_star, core, dynamics, general_wellbeing,
                                integrate, low_band_feasibility, verify_nhat_bracketing,
                                wellbeing_ratio)
from wellbeing_dynamics import cli
from wellbeing_dynamics.errors import (DomainError, IntegrationError, NumericError,
                                       QuadratureError, WellbeingError)
from wellbeing_dynamics.regime import coefficient_labels
from conftest import SRC, run_cli

HIGH = Path(__file__).parent / "golden" / "inputs" / "high.json"


def high_with(tmp_path, **fields) -> str:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(json.loads(HIGH.read_text()), **fields)))
    return str(path)


def gap_ratio_overflow():
    # q/p = 1e310 leaves the float range while both incomes are finite.
    p, q = ExponentialIncome(p0=1e-300, rate=0.0), ExponentialIncome(p0=1e10, rate=0.0)
    general_wellbeing(p, q, a=1.0, b=0.05, B0=1.0, t0=0.0, t=1.0)


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
            coefficient_labels(1e300, 1.0, 1e300, 1.0, 1e10, 1e10, 1e-9)
        with pytest.raises(DomainError, match=r"^exponent_g = .* got inf$"):
            coefficient_labels(1e300, 1.0, 1.0, 1.0, 1e10, 1.0, 1e-9)

    def test_library_classify_family_refuses(self):
        p = ScenarioParams(a=1.0, a_star=1.0, b=0.05, b_star=1e10, lam=0.1, n=1e-300,
                           B0=1.0, B0_star=1.0, p0=2.0)
        for call in (classify, low_band_feasibility, verify_nhat_bracketing):
            with pytest.raises(DomainError) as exc_info:
                call(p)
            assert str(exc_info.value) == self.G_STAR

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
