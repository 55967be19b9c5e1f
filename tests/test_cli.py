"""End-to-end command-line behavior via subprocess."""

from __future__ import annotations

import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wellbeing_dynamics import ScenarioParams, cli, core, regime
from wellbeing_dynamics.errors import DomainError
from wellbeing_dynamics.scenario import PARAM_KEYS, SWEEPABLE, parse_sweep, with_param

BASE = {
    "a": 1.0, "a_star": 1.0, "b": 0.05, "b_star": 0.05,
    "lambda": 0.1, "n": 1.5, "B0": 1.0, "B0_star": 1.0,
    "p0": 2.0, "t0": 0.0,
}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "wellbeing_dynamics", *args],
        capture_output=True, text=True,
    )


def write_scenario(path, **overrides):
    d = dict(BASE)
    d.update(overrides)
    path.write_text(json.dumps(d))
    return str(path)


def parse_report(stdout):
    out = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(":")
        out[key.strip()] = value.strip()
    return out


@pytest.fixture
def scenario(tmp_path):
    return write_scenario(tmp_path / "scenario.json")


class TestClassify:
    def test_high_growth_report(self, scenario):
        r = run_cli("classify", "--scenario", scenario)
        assert r.returncode == 0
        rep = parse_report(r.stdout)
        assert rep["growth_case"] == "HighGrowth"
        assert rep["band"] == "Medium"
        assert rep["behavior_g"] == "DivergesToInfinity"
        assert rep["behavior_g_star"] == "DivergesToInfinity"
        assert rep["interval_J"] == "]0.5, 2["
        assert rep["dominance"] == "G_star"
        assert rep["roles_reversed"] == "false"
        assert float(rep["f_value"]) == pytest.approx(0.0625, rel=1e-10)
        assert float(rep["g_rate"]) == pytest.approx(-1.0 / 24.0, rel=1e-10)
        assert "crossover_time" not in rep

    def test_line_order_stable(self, scenario):
        r = run_cli("classify", "--scenario", scenario)
        keys = [line.split(":")[0] for line in r.stdout.splitlines()]
        assert keys == ["n", "growth_case", "boundary_g", "boundary_g_star",
                        "band", "behavior_g", "behavior_g_star", "exponent_g",
                        "exponent_g_star", "g_rate", "f_value", "n_hat",
                        "dominance", "interval_J", "roles_reversed"]

    def test_boundary_band(self, tmp_path):
        sc = write_scenario(tmp_path / "b.json", b=0.2, b_star=0.2, n=0.5)
        rep = parse_report(run_cli("classify", "--scenario", sc).stdout)
        assert rep["band"] == "Boundary"
        assert rep["behavior_g"] == "ConstantPositive"
        assert rep["interval_J"] == "none"

    def test_crossover_reported_when_levels_differ(self, tmp_path):
        sc = write_scenario(tmp_path / "c.json", B0=2.0)
        rep = parse_report(run_cli("classify", "--scenario", sc).stdout)
        want = 24.0 * math.log(2.0)
        assert float(rep["crossover_time"]) == pytest.approx(want, rel=1e-9)

    def test_reversed_roles_flagged(self, tmp_path):
        sc = write_scenario(tmp_path / "r.json", n=0.7)
        rep = parse_report(run_cli("classify", "--scenario", sc).stdout)
        assert rep["roles_reversed"] == "true"
        assert rep["dominance"] == "G"

    def test_unknown_key_exits_2(self, tmp_path):
        d = dict(BASE)
        del d["lambda"]
        d["lamda"] = 0.1
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(d))
        r = run_cli("classify", "--scenario", str(f))
        assert r.returncode == 2
        assert "lamda" in r.stderr
        assert r.stdout == ""

    def test_malformed_json_exits_2(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("{broken")
        r = run_cli("classify", "--scenario", str(f))
        assert r.returncode == 2
        assert "error:" in r.stderr

    def test_missing_file_exits_2(self, tmp_path):
        r = run_cli("classify", "--scenario", str(tmp_path / "none.json"))
        assert r.returncode == 2

    def test_bad_tolerance_exits_2(self, scenario):
        r = run_cli("classify", "--scenario", scenario, "--tolerance", "2.0")
        assert r.returncode == 2

    def test_numerics_epsilon_is_the_default_tolerance(self, tmp_path):
        # n = 2.1 lies 5% above boundary_g = a*lambda/b = 2.
        sc = write_scenario(tmp_path / "e.json", n=2.1, numerics={"epsilon": 0.1})
        assert parse_report(run_cli("classify", "--scenario", sc).stdout)["band"] == "Boundary"
        r = run_cli("classify", "--scenario", sc, "--tolerance", "1e-9")
        assert parse_report(r.stdout)["band"] == "High"
        out = tmp_path / "sweep.csv"
        r = run_cli("sweep", "--scenario", sc, "--vary", "n=2.1:2.2:0.5", "--out", str(out))
        assert r.returncode == 0
        assert out.read_text().splitlines()[1].split(",")[4] == "Boundary"


class TestSimulate:
    def test_closed_mode_table(self, scenario, tmp_path):
        out = tmp_path / "traj.csv"
        r = run_cli("simulate", "--scenario", scenario, "--t-end", "10",
                    "--out", str(out))
        assert r.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,B,B_star,p,q"
        assert len(lines) == 1002  # header + 1001 samples at step 0.01
        first = lines[1].split(",")
        assert first == ["0", "1", "1", "2", "3"]
        last = lines[-1].split(",")
        assert float(last[0]) == 10.0
        assert float(last[1]) == pytest.approx(math.exp(0.25), rel=1e-10)

    def test_both_mode_reports_deviation(self, scenario, tmp_path):
        out = tmp_path / "traj.csv"
        r = run_cli("simulate", "--scenario", scenario, "--t-end", "10",
                    "--mode", "both", "--out", str(out))
        assert r.returncode == 0
        label, _, value = r.stdout.strip().partition(":")
        assert label == "max_relative_deviation"
        assert 0.0 <= float(value) < 1e-6
        lines = out.read_text().splitlines()
        assert lines[0] == "t,B,B_star,p,q,B_ode,B_star_ode"

    def test_ode_mode_with_tabulated_income(self, tmp_path):
        sc = write_scenario(
            tmp_path / "tab.json",
            income_model={"type": "tabulated",
                          "points": [[0, 2.0], [5, 3.0], [10, 5.0]]},
            numerics={"step": 0.05},
        )
        out = tmp_path / "traj.csv"
        r = run_cli("simulate", "--scenario", sc, "--t-end", "10",
                    "--mode", "ode", "--out", str(out))
        assert r.returncode == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 202
        assert all(float(x) > 0 for x in lines[-1].split(","))

    def test_single_sample_when_t_end_equals_t0(self, scenario, tmp_path):
        out = tmp_path / "traj.csv"
        r = run_cli("simulate", "--scenario", scenario, "--t-end", "0",
                    "--out", str(out))
        assert r.returncode == 0
        assert len(out.read_text().splitlines()) == 2

    def test_t_end_before_t0_exits_2(self, scenario, tmp_path):
        r = run_cli("simulate", "--scenario", scenario, "--t-end", "-1",
                    "--out", str(tmp_path / "x.csv"))
        assert r.returncode == 2

    def test_closed_mode_rejects_linear_override(self, tmp_path):
        sc = write_scenario(tmp_path / "lin.json",
                            income_model={"type": "linear", "slope": 0.1})
        r = run_cli("simulate", "--scenario", sc, "--t-end", "5",
                    "--out", str(tmp_path / "x.csv"))
        assert r.returncode == 2
        assert "exponential" in r.stderr

    def test_closed_mode_uses_rate_override(self, tmp_path):
        sc = write_scenario(tmp_path / "ov.json",
                            income_model={"type": "exponential", "rate": 0.2})
        out = tmp_path / "traj.csv"
        r = run_cli("simulate", "--scenario", sc, "--t-end", "10",
                    "--out", str(out))
        assert r.returncode == 0
        last = out.read_text().splitlines()[-1].split(",")
        # rate 0.2: exponent a*rate - b*n = 0.125 over 10 years.
        assert float(last[1]) == pytest.approx(math.exp(1.25), rel=1e-10)

    def test_income_collapse_fails_with_exit_1(self, tmp_path):
        # A falling linear income crosses zero inside the window: the
        # integrator must abort and the CLI maps it to exit code 1.
        sc = write_scenario(tmp_path / "fall.json", p0=1.0,
                            income_model={"type": "linear", "slope": -0.3})
        r = run_cli("simulate", "--scenario", sc, "--t-end", "5",
                    "--mode", "ode", "--out", str(tmp_path / "x.csv"))
        assert r.returncode == 1
        assert "last good t" in r.stderr

    def test_tabulated_window_too_short_exits_2(self, tmp_path):
        sc = write_scenario(
            tmp_path / "short.json",
            income_model={"type": "tabulated", "points": [[0, 2.0], [5, 3.0]]})
        r = run_cli("simulate", "--scenario", sc, "--t-end", "10",
                    "--mode", "ode", "--out", str(tmp_path / "x.csv"))
        assert r.returncode in (1, 2)
        assert r.stderr.startswith("error:")

    @pytest.mark.parametrize("mode", ["ode", "both"])
    def test_income_overflow_mid_run_exits_1(self, tmp_path, mode):
        # exp(1e100 * t) overflows at the first midpoint; the integrator
        # reports it with the last good t instead of a bare OverflowError.
        sc = write_scenario(tmp_path / "huge.json", **{"lambda": 1e100})
        r = run_cli("simulate", "--scenario", sc, "--t-end", "5",
                    "--mode", mode, "--out", str(tmp_path / "x.csv"))
        assert r.returncode == 1
        assert r.stderr == "error: income overflows at t = 0.005 (last good t = 0)\n"
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("mode", ["closed", "ode", "both"])
    def test_one_time_grid_per_run(self, scenario, tmp_path, monkeypatch, mode):
        # A deterministic work counter: each module's binding of time_grid
        # counts into the same list, and both paths of --mode both share one grid.
        from wellbeing_dynamics import dynamics

        calls = []
        time_grid = dynamics.time_grid

        def counting(t0, t_end, step):
            calls.append((t0, t_end, step))
            return time_grid(t0, t_end, step)

        monkeypatch.setattr(dynamics, "time_grid", counting)
        monkeypatch.setattr(cli, "time_grid", counting)
        out = tmp_path / "traj.csv"
        assert cli.main(["simulate", "--scenario", scenario, "--t-end", "3",
                         "--mode", mode, "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 302
        assert calls == [(0.0, 3.0, 0.01)]

    @pytest.mark.parametrize("mode", ["closed", "ode", "both"])
    def test_negative_zero_t0_prints_zero(self, tmp_path, mode):
        sc = write_scenario(tmp_path / "negzero.json", t0=-0.0)
        out = tmp_path / "traj.csv"
        assert cli.main(["simulate", "--scenario", sc, "--t-end", "1",
                         "--mode", mode, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].split(",")[0] == "0"


class TestRowTemplate:
    """simulate formats a row with one "%.12g" template per column."""

    @given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
    @example(-0.0)
    @example(5e-324)
    def test_percent_format_equals_format_spec(self, x):
        assert "%.12g" % x == format(x, ".12g")

    @given(st.lists(st.floats(), min_size=1, max_size=7))
    def test_row_template_equals_joined_fields(self, row):
        template = ",".join(["%.12g"] * len(row))
        assert template % tuple(row) == ",".join(format(x, ".12g") for x in row)


class TestSweep:
    def test_band_transitions_across_n(self, scenario, tmp_path):
        out = tmp_path / "sweep.csv"
        r = run_cli("sweep", "--scenario", scenario, "--vary",
                    "n=0.1:10:0.1", "--out", str(out))
        assert r.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("value,exponent_g,exponent_g_star,f_value,band,"
                            "behavior_g,behavior_g_star,growth_case")
        rows = [ln.split(",") for ln in lines[1:] if not ln.startswith("#")]
        bands = {float(row[0]): row[4] for row in rows}
        assert bands[0.1] == "Low"
        assert bands[0.5] == "Boundary"
        assert bands[1.0] == "Medium"
        assert bands[2.0] == "Boundary"
        assert bands[5.0] == "High"
        assert len(rows) == 100

    def test_growth_case_flips_across_lambda(self, tmp_path):
        sc = write_scenario(tmp_path / "s.json")
        out = tmp_path / "sweep.csv"
        r = run_cli("sweep", "--scenario", sc, "--vary",
                    "lambda=0.03:0.07:0.01", "--out", str(out))
        assert r.returncode == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        cases = [row[7] for row in rows]
        assert cases[0] == "LowGrowth"
        assert cases[-1] == "HighGrowth"
        assert "LowGrowth" in cases and "HighGrowth" in cases

    def test_invalid_values_skipped_with_warning(self, scenario, tmp_path):
        out = tmp_path / "sweep.csv"
        r = run_cli("sweep", "--scenario", scenario, "--vary",
                    "a=-0.5:0.5:0.5", "--out", str(out))
        assert r.returncode == 0
        assert "warning: skipped" in r.stderr
        lines = out.read_text().splitlines()
        rows = [ln for ln in lines[1:] if not ln.startswith("#")]
        trailers = [ln for ln in lines[1:] if ln.startswith("# skipped")]
        assert len(rows) == 1
        assert len(trailers) == 2

    def test_unsweepable_parameter_exits_2(self, scenario, tmp_path):
        r = run_cli("sweep", "--scenario", scenario, "--vary", "B0=1:2:0.5",
                    "--out", str(tmp_path / "x.csv"))
        assert r.returncode == 2

    def test_oversized_grid_exits_2(self, scenario, tmp_path):
        out = tmp_path / "x.csv"
        r = run_cli("sweep", "--scenario", scenario, "--vary", "n=0:1e308:1e-308",
                    "--out", str(out))
        assert r.returncode == 2
        assert "exceeds the limit" in r.stderr
        assert not out.exists()
        r = run_cli("simulate", "--scenario", scenario, "--t-end", "1e12",
                    "--mode", "ode", "--out", str(out))
        assert r.returncode == 2
        assert "exceeds the limit" in r.stderr

    def test_malformed_vary_exits_2(self, scenario, tmp_path):
        r = run_cli("sweep", "--scenario", scenario, "--vary", "n=1:2",
                    "--out", str(tmp_path / "x.csv"))
        assert r.returncode == 2

    def test_one_ratio_analysis_per_row(self, scenario, tmp_path, monkeypatch):
        # A deterministic work counter, not a timing: each module's binding
        # of ratio_analysis counts into the same list.
        from wellbeing_dynamics import cli, core, regime

        calls = []

        def counting(params):
            calls.append(params)
            return core.ratio_analysis(params)

        monkeypatch.setattr(regime, "ratio_analysis", counting)
        monkeypatch.setattr(cli, "ratio_analysis", counting)
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--scenario", scenario, "--vary", "n=0.1:10:0.1",
                         "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 100
        assert len(calls) == len(rows)

    def test_no_classify_per_row(self, scenario, tmp_path, monkeypatch):
        # Rows take their labels from regime_labels; no RegimeReport is built.
        calls = []
        classify = regime.classify

        def counting(params, epsilon=regime.DEFAULT_EPSILON):
            calls.append(params)
            return classify(params, epsilon)

        monkeypatch.setattr(regime, "classify", counting)
        monkeypatch.setattr(cli, "classify", counting)
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--scenario", scenario, "--vary", "n=0.1:10:0.1",
                         "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()[1:]) == 100
        assert calls == []


def _oracle_labels(p, eps):
    """Growth case, band and behaviors as classify computed them when each
    sweep row built a full RegimeReport (a frozen reference copy)."""
    boundary_g = p.a * p.lam / p.b
    boundary_g_star = p.b_star / (p.a_star * p.lam)
    lhs, rhs = p.lam**2, (p.b * p.b_star) / (p.a * p.a_star)
    if math.isclose(lhs, rhs, rel_tol=eps):
        case = "Critical"
    else:
        case = "LowGrowth" if lhs < rhs else "HighGrowth"

    def behavior(growth_term, loss_term):
        if math.isclose(growth_term, loss_term, rel_tol=eps):
            return "ConstantPositive"
        return "DivergesToInfinity" if growth_term > loss_term else "DecaysToZero"

    if math.isclose(p.n, boundary_g, rel_tol=eps) or math.isclose(
        p.n, boundary_g_star, rel_tol=eps
    ):
        band = "Boundary"
    else:
        lo, hi = sorted((boundary_g, boundary_g_star))
        band = "Low" if p.n < lo else "High" if p.n > hi else "Medium"
    g = behavior(p.a * p.lam, p.b * p.n)
    g_star = behavior(p.a_star * p.lam, p.b_star / p.n)
    return case, band, g, g_star


def _oracle_table(params, vary, eps):
    """The sweep table of the per-row classify loop and its f-string rows."""
    spec = parse_sweep(vary)
    rows = ["value,exponent_g,exponent_g_star,f_value,band,behavior_g,behavior_g_star,growth_case"]
    skipped = []
    for value in spec.grid():
        try:
            p = with_param(params, spec.name, value)
        except DomainError as exc:
            skipped.append((value, str(exc)))
            continue
        case, band, g, g_star = _oracle_labels(p, eps)
        f_value = core.ratio_analysis(p).f_value
        rows.append(
            f"{value:.12g},{core.exponent_g(p):.12g},{core.exponent_g_star(p):.12g},"
            f"{f_value:.12g},{band},{g},{g_star},{case}"
        )
    for value, reason in skipped:
        rows.append(f"# skipped {spec.name}={value:.12g}: {reason}")
    return "\n".join(rows) + "\n"


def _breakpoints(name, p):
    """Values of the swept parameter where n meets boundary_g or
    boundary_g_star, lam**2 meets b*b_star/(a*a_star), or n meets n_hat."""
    a, a_s, b, b_s, lam, n = p.a, p.a_star, p.b, p.b_star, p.lam, p.n
    return {
        "n": [a * lam / b, b_s / (a_s * lam), core.ratio_analysis(p).n_hat],
        "lambda": [b * n / a, b_s / (a_s * n), math.sqrt(b * b_s / (a * a_s))],
        "a": [b * n / lam, b * b_s / (lam**2 * a_s)],
        "a_star": [b_s / (n * lam), b * b_s / (lam**2 * a)],
        "b": [a * lam / n, lam**2 * a * a_s / b_s],
        "b_star": [n * a_s * lam, lam**2 * a * a_s / b],
    }[name]


coefficient = st.floats(min_value=1e-2, max_value=10.0)
sweep_params = st.builds(
    ScenarioParams, a=coefficient, a_star=coefficient, b=coefficient,
    b_star=coefficient, lam=coefficient, n=coefficient,
    B0=st.just(1.0), B0_star=st.just(2.0), p0=st.just(1.0), t0=st.just(0.0),
)
tolerance = st.builds(lambda m, k: m * 10.0**k, st.floats(1.0, 9.9), st.integers(-12, -2))


class TestSweepRowsMatchClassify:
    @pytest.mark.parametrize("name", SWEEPABLE)
    @given(params=sweep_params, eps=tolerance, which=st.integers(0, 2),
           width=st.floats(0.5, 4.0), jitter=st.floats(-1.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_rows_equal_per_row_oracle(self, name, params, eps, which, width, jitter):
        # A grid of 13 points a few tolerances wide, centred near one breakpoint.
        points = _breakpoints(name, params)
        centre = points[which % len(points)] * (1.0 + jitter * eps)
        half = width * eps * centre
        vary = f"{name}={centre - half!r}:{centre + half!r}:{half / 6.0!r}"
        doc = {key: getattr(params, field) for key, field in PARAM_KEYS.items()}
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp, "s.json"), Path(tmp, "out.csv")
            path.write_text(json.dumps(doc))
            assert cli.main(["sweep", "--scenario", str(path), "--vary", vary,
                             "--tolerance", repr(eps), "--out", str(out)]) == 0
            assert out.read_text() == _oracle_table(params, vary, eps)


class TestExtremeInputs:
    """Valid inputs whose intermediate quotients leave the float range."""

    def test_level_ratio_underflow_classifies(self, tmp_path):
        sc = write_scenario(tmp_path / "s.json", B0=1e-200, B0_star=1e200)
        r = run_cli("classify", "--scenario", sc)
        assert r.returncode == 0
        assert "Traceback" not in r.stderr
        rep = parse_report(r.stdout)
        g_rate = float(rep["g_rate"])
        want = (math.log(1e-200) - math.log(1e200)) / -g_rate
        assert float(rep["crossover_time"]) == pytest.approx(want, rel=1e-9)
        r = run_cli("sweep", "--scenario", sc, "--vary", "n=1:2:0.5",
                    "--out", str(tmp_path / "x.csv"))
        assert r.returncode == 0
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("fields,product,vary,failure", [
        ({"a": 1e-200, "a_star": 1e-200}, "a * a_star", "n=1:2:0.5", "underflows to 0"),
        ({"a_star": 1e-200, "lambda": 1e-200}, "a_star * lam", "n=1:2:0.5", "underflows to 0"),
        # Squares that overflow: lam**2, n**2 and ((a - a_star) * lam)**2.
        ({"lambda": 1e200}, "lam", "b_star=0.04:0.06:0.01", "overflows when squared"),
        ({"n": 1e200}, "n", "b_star=0.04:0.06:0.01", "overflows when squared"),
        ({"a": 1e160}, "(a - a_star) * lam", "b_star=0.04:0.06:0.01",
         "overflows when squared"),
    ])
    def test_underflowed_product_exits_2(self, tmp_path, fields, product, vary, failure):
        sc = write_scenario(tmp_path / "s.json", **fields)
        out = tmp_path / "x.csv"
        for args in (("classify", "--scenario", sc),
                     ("sweep", "--scenario", sc, "--vary", vary, "--out", str(out))):
            r = run_cli(*args)
            assert r.returncode == 2
            assert "Traceback" not in r.stderr
            assert r.stderr.startswith(f"error: {product} = ")
            assert failure in r.stderr
        assert not out.exists()


class TestCalibrate:
    def write_series(self, path, rows):
        path.write_text("".join(f"{t} {v}\n" for t, v in rows))
        return str(path)

    def test_two_point_fit(self, tmp_path):
        series = self.write_series(tmp_path / "gdp.txt",
                                   [(2000, 5064), (2018, 18592)])
        r = run_cli("calibrate", "--series", series)
        assert r.returncode == 0
        rep = parse_report(r.stdout)
        assert float(rep["lambda"]) == pytest.approx(0.072254, abs=1e-5)
        assert float(rep["p0"]) == pytest.approx(5064.0, rel=1e-9)
        assert rep["points"] == "2"

    def test_synthetic_recovery(self, tmp_path):
        rows = [(2000 + k, 1000.0 * math.exp(0.1 * k)) for k in range(10)]
        series = self.write_series(tmp_path / "s.txt", rows)
        rep = parse_report(run_cli("calibrate", "--series", series).stdout)
        assert abs(float(rep["lambda"]) - 0.1) < 1e-10
        assert float(rep["residual"]) < 1e-10

    def test_write_scenario_round_trips(self, tmp_path):
        series = self.write_series(tmp_path / "gdp.txt",
                                   [(2000, 5064), (2018, 18592)])
        out = tmp_path / "fitted.json"
        r = run_cli("calibrate", "--series", series,
                    "--write-scenario", str(out), "--n", "14.8")
        assert r.returncode == 0
        assert f"scenario_written: {out}" in r.stdout
        doc = json.loads(out.read_text())
        assert doc["n"] == 14.8
        assert doc["t0"] == 2000.0
        assert abs(doc["lambda"] - 0.072254) < 1e-5
        rep = parse_report(run_cli("classify", "--scenario", str(out)).stdout)
        # lambda^2 = 0.0052 > b*b_star/(a*a_star) = 0.0025 at the default
        # coefficients, and n = 14.8 sits far above both boundaries.
        assert rep["growth_case"] == "HighGrowth"
        assert rep["band"] == "High"

    def test_write_scenario_requires_n(self, tmp_path):
        series = self.write_series(tmp_path / "gdp.txt",
                                   [(2000, 5064), (2018, 18592)])
        r = run_cli("calibrate", "--series", series,
                    "--write-scenario", str(tmp_path / "x.json"))
        assert r.returncode == 2
        assert "--n" in r.stderr

    def test_write_scenario_into_missing_directory_exits_2(self, tmp_path):
        # Same writer and error as simulate's --out.
        series = self.write_series(tmp_path / "gdp.txt",
                                   [(2000, 5064), (2018, 18592)])
        target = tmp_path / "missing" / "f.json"
        r = run_cli("calibrate", "--series", series,
                    "--write-scenario", str(target), "--n", "2")
        assert r.returncode == 2
        assert r.stderr.startswith(f"error: cannot write output file {target}: ")
        assert "Traceback" not in r.stderr

    def test_flat_series_assembly_refused(self, tmp_path):
        series = self.write_series(tmp_path / "flat.txt",
                                   [(2000, 750), (2001, 750), (2002, 750)])
        r = run_cli("calibrate", "--series", series,
                    "--write-scenario", str(tmp_path / "x.json"), "--n", "2")
        assert r.returncode == 2
        rep = parse_report(r.stdout)
        assert float(rep["lambda"]) == 0.0

    def test_bad_series_file_exits_2(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("2000 5064\n2001 5100 extra\n")
        r = run_cli("calibrate", "--series", str(f))
        assert r.returncode == 2
        assert "line 2" in r.stderr


class TestDeterminism:
    def test_classify_byte_identical(self, scenario):
        a = run_cli("classify", "--scenario", scenario)
        b = run_cli("classify", "--scenario", scenario)
        assert a.stdout == b.stdout
        assert a.stdout.endswith("\n")

    def test_simulate_byte_identical(self, scenario, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            r = run_cli("simulate", "--scenario", scenario, "--t-end", "10",
                        "--mode", "both", "--out", str(out))
            outs.append((r.stdout, out.read_bytes()))
        assert outs[0] == outs[1]

    def test_sweep_byte_identical(self, scenario, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            run_cli("sweep", "--scenario", scenario, "--vary", "n=0.5:3:0.25",
                    "--out", str(out))
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestArgumentErrors:
    def test_no_command_exits_2(self):
        assert run_cli().returncode == 2

    def test_unknown_command_exits_2(self):
        assert run_cli("transmogrify").returncode == 2

    def test_missing_required_option_exits_2(self, scenario):
        assert run_cli("simulate", "--scenario", scenario).returncode == 2

    def test_unwritable_output_exits_2(self, scenario, tmp_path):
        r = run_cli("simulate", "--scenario", scenario, "--t-end", "1",
                    "--out", str(tmp_path / "no_dir" / "x.csv"))
        assert r.returncode == 2
