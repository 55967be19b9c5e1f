"""End-to-end command-line behavior, in-process through conftest.run_cli.

No test here starts an interpreter; test_golden replays one case per
subcommand and exit code through `python -m`.
"""

from __future__ import annotations

import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from wellbeing_dynamics import ScenarioParams, calibration, cli, core, regime
from wellbeing_dynamics.errors import DomainError
from wellbeing_dynamics.scenario import (PARAM_KEYS, SWEEPABLE, parse_scenario, parse_sweep,
                                         scenario_text, with_param)
from conftest import BASE, run_cli, write_scenario


def parse_report(stdout):
    return {key.strip(): value.strip()
            for key, _, value in (line.partition(":") for line in stdout.splitlines())}


def count_calls(monkeypatch, owners, attr):
    """The list that each call of attr, on any of the owner modules, appends its arguments to."""
    calls = []
    for owner in owners:
        def call(*args, wrapped=getattr(owner, attr), **kwargs):
            calls.append(args)
            return wrapped(*args, **kwargs)
        monkeypatch.setattr(owner, attr, call)
    return calls


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
        f = tmp_path / "bad.json"  # BASE with the key lambda misspelt
        f.write_text(json.dumps({("lamda" if k == "lambda" else k): v for k, v in BASE.items()}))
        r = run_cli("classify", "--scenario", str(f))
        assert r.returncode == 2
        assert "lamda" in r.stderr
        assert r.stdout == ""

    @pytest.mark.parametrize("content,message", [
        (b"{broken", "invalid JSON"),
        (b"\xff\xfe{}", "cannot read scenario file"),
        # json.loads refuses an integer literal past 4,300 digits with a plain ValueError.
        (b"1" * 5000, "invalid JSON"),
        (b"[" * 100_000, "invalid JSON"),  # RecursionError
        (json.dumps(dict(BASE, a=10**400)).encode(), "key 'a' must be finite"),
        # A repeated key in any object: json.loads would keep the last value.
        (json.dumps(BASE)[:-1].encode() + b', "n": 0.5}', "duplicate key 'n'"),
        (json.dumps(dict(BASE, income_model={"type": "linear", "slope": 1.0}))[:-2].encode()
         + b', "slope": 2.0}}', "duplicate key 'slope'"),
        (json.dumps(dict(BASE, numerics={"step": 0.1}))[:-2].encode() + b', "step": 0.2}}',
         "duplicate key 'step'"),
    ], ids=["syntax", "not UTF-8", "5000 digits", "deep nesting", "int past the float range",
            "repeated key", "repeated income_model key", "repeated numerics key"])
    def test_malformed_json_exits_2(self, tmp_path, content, message):
        f = tmp_path / "bad.json"
        f.write_bytes(content)
        r = run_cli("classify", "--scenario", str(f))
        assert r.returncode == 2
        assert r.stderr.startswith("error:") and r.stderr.count("\n") == 1
        assert message in r.stderr

    def test_missing_file_exits_2(self, tmp_path):
        r = run_cli("classify", "--scenario", str(tmp_path / "none.json"))
        assert r.returncode == 2

    def test_bad_tolerance_exits_2(self, scenario, tmp_path):
        r = run_cli("classify", "--scenario", scenario, "--tolerance", "2.0")
        assert r.returncode == 2
        # Below the floor of 1e-15 the growth case could contradict the boundaries' order.
        out = str(tmp_path / "sweep.csv")
        for argv in (["classify", "--scenario", scenario],
                     ["sweep", "--scenario", scenario, "--vary", "n=1:2:0.5", "--out", out]):
            r = run_cli(*argv, "--tolerance", "1e-16")
            assert (r.returncode, r.stdout) == (2, "")
            assert r.stderr == "error: --tolerance must be >= 1e-15, got 1e-16\n"

    def test_numerics_epsilon_below_floor_exits_2(self, tmp_path):
        sc = write_scenario(tmp_path / "e.json", numerics={"epsilon": 1e-16})
        r = run_cli("classify", "--scenario", sc)
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr.startswith("error:") and r.stderr.count("\n") == 1
        assert "numerics key 'epsilon' must be >= 1e-15, got 1e-16" in r.stderr

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

    @pytest.mark.parametrize("mode", ["closed", "ode", "both"])
    def test_span_within_rounding_of_zero_keeps_the_t0_row(self, scenario, tmp_path, mode):
        # 1e-12 is less than 1e-9 of the step 0.01: rows at t0 and at t_end, in every mode.
        out = tmp_path / "traj.csv"
        r = run_cli("simulate", "--scenario", scenario, "--t-end", "1e-12", "--mode", mode,
                    "--out", str(out))
        assert r.returncode == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == ["0", "1e-12"]
        assert rows[0][1:3] == ["1", "1"]

    def test_t_end_before_t0_exits_2(self, scenario, tmp_path):
        r = run_cli("simulate", "--scenario", scenario, "--t-end", "-1",
                    "--out", str(tmp_path / "x.csv"))
        assert r.returncode == 2

    @pytest.mark.parametrize("mode", ["closed", "ode", "both"])
    @pytest.mark.parametrize("t_end", ["nan", "inf", "-inf"])
    def test_non_finite_t_end_names_the_flag(self, scenario, tmp_path, t_end, mode):
        out = tmp_path / "x.csv"
        r = run_cli("simulate", "--scenario", scenario, f"--t-end={t_end}", "--mode", mode,
                    "--out", str(out))
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr == f"error: --t-end must be finite, got {t_end}\n"
        assert not out.exists()

    def test_closed_mode_rejects_linear_override(self, tmp_path):
        sc = write_scenario(tmp_path / "lin.json",
                            income_model={"type": "linear", "slope": 0.1})
        r = run_cli("simulate", "--scenario", sc, "--t-end", "5",
                    "--out", str(tmp_path / "x.csv"))
        assert r.returncode == 2
        assert "exponential" in r.stderr

    @pytest.mark.parametrize("income_model", [None, {"type": "exponential"}])
    def test_closed_mode_reads_lambda(self, tmp_path, income_model):
        block = {} if income_model is None else {"income_model": income_model}
        sc = write_scenario(tmp_path / "l.json", **{"lambda": 0.2}, **block)
        out = tmp_path / "traj.csv"
        r = run_cli("simulate", "--scenario", sc, "--t-end", "10",
                    "--out", str(out))
        assert r.returncode == 0
        last = out.read_text().splitlines()[-1].split(",")
        # lambda 0.2: exponent a*lambda - b*n = 0.125 over 10 years, and p = 2 * exp(2).
        assert float(last[1]) == pytest.approx(math.exp(1.25), rel=1e-10)
        assert float(last[3]) == pytest.approx(2.0 * math.exp(2.0), rel=1e-10)

    def test_income_collapse_fails_with_exit_1(self, tmp_path):
        # A falling linear income crosses zero inside the window: the
        # integrator must abort and the CLI maps it to exit code 1.
        sc = write_scenario(tmp_path / "fall.json", p0=1.0,
                            income_model={"type": "linear", "slope": -0.3})
        r = run_cli("simulate", "--scenario", sc, "--t-end", "5",
                    "--mode", "ode", "--out", str(tmp_path / "x.csv"))
        assert r.returncode == 1
        assert "last good t" in r.stderr

    def test_non_positive_income_sample_exits_1(self, tmp_path):
        # p = 1 - t reaches 0 on the grid at t = 1.0, where RK4 refuses the sample.
        sc = write_scenario(tmp_path / "zero.json", a=0.01, a_star=0.01, p0=1.0,
                            income_model={"type": "linear", "slope": -1},
                            numerics={"step": 0.1})
        out = tmp_path / "x.csv"
        r = run_cli("simulate", "--scenario", sc, "--t-end", "2", "--mode", "ode",
                    "--out", str(out))
        assert (r.returncode, r.stdout) == (1, "")
        assert r.stderr == ("error: non-positive income sample at t = 1.0 "
                            "(last good t = 0.9)\n")
        assert not out.exists()

    @pytest.mark.parametrize("t0,points,t_end,window", [
        (0.0, [[0, 2.0], [5, 3.0]], "10", "[0.0, 10.0] leaves the tabulated range [0.0, 5.0]"),
        # Integrating up to the last node would have succeeded: the window is refused first.
        (5.0, [[0, 2.0], [5, 3.0], [10, 5.0]], "12",
         "[5.0, 12.0] leaves the tabulated range [0.0, 10.0]"),
        (-1.0, [[0, 2.0], [5, 3.0]], "4", "[-1.0, 4.0] leaves the tabulated range [0.0, 5.0]"),
    ], ids=["past the last node", "from inside past the last node", "before the first node"])
    def test_tabulated_window_too_short_exits_2(self, tmp_path, t0, points, t_end, window):
        sc = write_scenario(tmp_path / "short.json", t0=t0,
                            income_model={"type": "tabulated", "points": points})
        out = tmp_path / "x.csv"
        r = run_cli("simulate", "--scenario", sc, "--t-end", t_end, "--mode", "ode",
                    "--out", str(out))
        assert (r.returncode, r.stdout, r.stderr) == (2, "", f"error: window {window}\n")
        assert not out.exists()

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

    @pytest.mark.parametrize("mode", ["ode", "both"])
    def test_unstable_rk4_step_exits_1(self, tmp_path, mode):
        # c_S = a* * lambda - b* / n = -15.984375, so step 0.25 puts h * c_S past RK4's
        # stability bound: B_star would go 1 -> 4.98 -> 7.6e27 where classify says it decays.
        sc = write_scenario(tmp_path / "s.json", b=0.5, b_star=0.5, n=0.03125, p0=1.0,
                            numerics={"step": 0.25}, **{"lambda": 0.015625})
        out = tmp_path / "x.csv"
        r = run_cli("simulate", "--scenario", sc, "--t-end", "10", "--mode", mode,
                    "--out", str(out))
        assert (r.returncode, r.stdout) == (1, "")
        assert r.stderr == ("error: RK4 step 0.25 is unstable at t = 0: step * rate = "
                            "-3.99609375 is below -2.78529356341 (last good t = 0)\n")
        assert not out.exists()

    @pytest.mark.parametrize("p0,t", [
        (2.0, "0.71"),   # exp(1000 * t) itself overflows
        (1e10, "0.69"),  # exp(690) is finite; its product with p0 and n is not
    ])
    def test_closed_income_overflow_names_t(self, tmp_path, p0, t):
        # a * lambda = 1, so B and B* stay finite while p and q leave the float range.
        sc = write_scenario(tmp_path / "s.json", p0=p0, a=1e-3, a_star=1e-3, **{"lambda": 1000.0})
        out = tmp_path / "x.csv"
        r = run_cli("simulate", "--scenario", sc, "--t-end", "5", "--mode", "closed",
                    "--out", str(out))
        assert r.returncode == 1
        assert r.stderr == f"error: income overflows at t = {t}\n"
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["ode", "both"])
    def test_ode_income_overflow_not_blamed_on_state(self, tmp_path, mode):
        # p' = 1000 * p is inf at t = 0.68 without an OverflowError, one step before p
        # itself (closed mode above names t = 0.69).
        sc = write_scenario(tmp_path / "s.json", p0=1e10, a=1e-3, a_star=1e-3, **{"lambda": 1000.0})
        r = run_cli("simulate", "--scenario", sc, "--t-end", "5", "--mode", mode,
                    "--out", str(tmp_path / "x.csv"))
        err = "error: income overflows at t = 0.68 (last good t = 0.67)\n"
        assert (r.returncode, r.stderr) == (1, err)

    @pytest.mark.parametrize("field,name,t,log_value", [
        ("a", "B", "71.52", "709.836"),            # exponent 10 - 0.05 * 1.5
        ("a_star", "B_star", "71.22", "709.826"),  # exponent 10 - 0.05 / 1.5
    ])
    def test_closed_form_overflow_names_t_and_log_value(self, tmp_path, field, name, t,
                                                        log_value):
        # With a sensitivity of 10 and lambda = 1, exp leaves the float range
        # at the first grid time t where the exponent times t exceeds ln(DBL_MAX).
        sc = write_scenario(tmp_path / "s.json", **{field: 10.0, "lambda": 1.0})
        out = tmp_path / "x.csv"
        r = run_cli("simulate", "--scenario", sc, "--t-end", "80", "--out", str(out))
        assert r.returncode == 1
        assert r.stderr == f"error: {name} overflows at t = {t}: ln {name} = {log_value}\n"
        assert not out.exists()

    def test_underflowed_closed_form_in_both_mode_exits_1(self, tmp_path):
        # B's exponent is -1.19: from t = 626.17 closed-form B is 0.0 while RK4's B is
        # subnormal, so no relative deviation exists. The run writes nothing.
        sc = write_scenario(tmp_path / "s.json", a=0.5, b=0.3, **{"lambda": 0.02}, n=4.0, p0=1.0)
        out = tmp_path / "x.csv"
        r = run_cli("simulate", "--scenario", sc, "--t-end", "700", "--mode", "both",
                    "--out", str(out))
        err = "error: B underflows to 0 at t = 626.17: no relative deviation from it\n"
        assert (r.returncode, r.stdout, r.stderr) == (1, "", err)
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["closed", "ode", "both"])
    def test_one_time_grid_per_run(self, scenario, tmp_path, monkeypatch, mode):
        # A deterministic work counter: each module's binding of time_grid
        # counts into the same list, and both paths of --mode both share one grid.
        from wellbeing_dynamics import dynamics

        calls = count_calls(monkeypatch, (dynamics, cli), "time_grid")
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

    @given(st.integers(1, 7).flatmap(lambda width: st.lists(
        st.lists(st.floats(allow_subnormal=True), min_size=width, max_size=width),
        min_size=1, max_size=30)))
    def test_one_format_for_the_table_equals_one_per_row(self, rows):
        # simulate's table: one template for all rows, applied once to the flattened columns.
        row = ",".join(["%.12g"] * len(rows[0]))
        table = "\n".join([row] * len(rows)) % tuple(x for values in rows for x in values)
        assert table == "\n".join(row % tuple(values) for values in rows)


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

    def test_no_ratio_analysis_or_with_param_per_row(self, scenario, tmp_path, monkeypatch):
        # A deterministic work counter, not a timing: every module's binding
        # of ratio_analysis, and of with_param, counts into one list.
        from wellbeing_dynamics import scenario as scenario_module

        calls = (count_calls(monkeypatch, (cli, regime), "ratio_analysis"),
                 count_calls(monkeypatch, (cli, scenario_module), "with_param"))
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--scenario", scenario, "--vary", "n=-0.2:10:0.1",
                         "--out", str(out)]) == 0
        lines = out.read_text().splitlines()[1:]
        assert len([line for line in lines if not line.startswith("#")]) == 100
        assert calls == ([], [])

    def test_no_classify_per_row(self, scenario, tmp_path, monkeypatch):
        # Rows take their labels from core's two kernels; no RegimeReport is built.
        calls = count_calls(monkeypatch, (regime, cli), "classify")
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--scenario", scenario, "--vary", "n=0.1:10:0.1",
                         "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()[1:]) == 100
        assert calls == []


GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


class TestOneEconomyPerFile:
    """A scenario file describes one exponential-income economy for classify, sweep and the
    closed forms of simulate: lambda is its one rate, and a linear or tabulated income is
    refused there through Scenario.closed_form_params; simulate --mode ode takes all three."""

    @pytest.mark.parametrize("kind", ["linear", "tabulated"])
    @pytest.mark.parametrize("argv", [
        ["classify"],
        ["classify", "--tolerance", "2.0"],  # the gate comes before the tolerance is read
        ["sweep", "--vary", "n=1:2:0.5"],
        ["sweep", "--vary", "B0=1:2"],  # and before the grid is parsed
        ["simulate", "--t-end", "3"],
        ["simulate", "--t-end", "3", "--mode", "both"],
    ], ids=["classify", "classify, bad tolerance", "sweep", "sweep, bad grid", "closed", "both"])
    def test_non_exponential_income_refused(self, tmp_path, kind, argv):
        out = tmp_path / "out.csv"
        tail = [] if argv[0] == "classify" else ["--out", str(out)]
        r = run_cli(argv[0], "--scenario", str(GOLDEN_INPUTS / f"{kind}.json"), *argv[1:], *tail)
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr == ("error: closed-form evaluation requires an exponential income, "
                            f"not {kind}\n")
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["linear", "tabulated"])
    def test_ode_mode_takes_every_income(self, tmp_path, kind):
        out = tmp_path / "out.csv"
        r = run_cli("simulate", "--scenario", str(GOLDEN_INPUTS / f"{kind}.json"), "--t-end", "3",
                    "--mode", "ode", "--out", str(out))
        assert r.returncode == 0 and out.exists()

    @pytest.mark.parametrize("argv", [
        ["classify"],
        ["sweep", "--vary", "lambda=0.01:0.02:0.01"],
        ["simulate", "--t-end", "3", "--mode", "ode"],
    ], ids=["classify", "sweep", "simulate"])
    def test_rate_key_refused(self, tmp_path, argv):
        sc = write_scenario(tmp_path / "rate.json", income_model={"type": "exponential",
                                                                  "rate": 0.03})
        out = tmp_path / "out.csv"
        tail = [] if argv[0] == "classify" else ["--out", str(out)]
        r = run_cli(argv[0], "--scenario", sc, *argv[1:], *tail)
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr == f"error: {sc}: unknown key 'rate' in income_model\n"
        assert not out.exists()

    @given(fields=st.fixed_dictionaries({
               "a": st.floats(0.1, 3.0), "a_star": st.floats(0.1, 3.0),
               "b": st.floats(0.01, 0.5), "b_star": st.floats(0.01, 0.5),
               "lambda": st.floats(0.005, 0.3), "n": st.floats(0.1, 10.0),
               "B0": st.floats(0.1, 10.0), "B0_star": st.floats(0.1, 10.0),
               "p0": st.floats(0.5, 1e4), "t0": st.floats(-100.0, 2100.0)}),
           pin=st.sampled_from([None, "g", "g_star"]), horizon=st.floats(10.0, 40.0))
    # No explain phase: on a failing example it ran for minutes, where generating and
    # shrinking take seconds.
    @settings(max_examples=80, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink])
    def test_exponent_signs_match_the_simulated_trend(self, fields, pin, horizon):
        # pin sets one group's b or b_star so that its exponent vanishes: a Constant behaviour.
        # Every |exponent| stays below 5, so the RK4 steps of 0.25 stay stable.
        if pin == "g":
            fields["b"] = fields["a"] * fields["lambda"] / fields["n"]
        elif pin == "g_star":
            fields["b_star"] = fields["a_star"] * fields["lambda"] * fields["n"]
        a, a_s, b, b_s, lam, n = (fields[k] for k in ("a", "a_star", "b", "b_star", "lambda", "n"))
        epsilon = 1e-6
        with tempfile.TemporaryDirectory() as work:
            sc = write_scenario(Path(work) / "s.json", **fields,
                                numerics={"epsilon": epsilon, "step": 0.25})
            report = parse_report(run_cli("classify", "--scenario", sc).stdout)
            out = Path(work) / "out.csv"
            r = run_cli("simulate", "--scenario", sc, "--t-end", repr(fields["t0"] + horizon),
                        "--mode", "both", "--out", str(out))
            assert r.returncode == 0
            rows = [[float(x) for x in line.split(",")]
                    for line in out.read_text().splitlines()[1:]]
        for group, scale, columns in (("g", max(a * lam, b * n), (1, 5)),
                                      ("g_star", max(a_s * lam, b_s / n), (2, 6))):
            behavior, exponent = report[f"behavior_{group}"], float(report[f"exponent_{group}"])
            for column in columns:  # the closed form, then the integrator
                first, last = rows[0][column], rows[-1][column]
                if behavior == "ConstantPositive":  # flat within the tolerance
                    assert math.isclose(last, first, rel_tol=2.0 * epsilon * scale * horizon)
                else:
                    assert (exponent > 0.0) == (last > first) == (behavior == "DivergesToInfinity")
                    assert (exponent < 0.0) == (last < first)


def _oracle_labels(p, eps):
    """Growth case, band and behaviors as classify computed them when each
    sweep row built a full RegimeReport (a frozen reference copy), except
    that the band is read off the behaviors: placing n against the boundary
    floats could call a Constant behavior's n High within a few ulps of the
    tolerance's edge."""
    lhs, rhs = p.lam**2, (p.b * p.b_star) / (p.a * p.a_star)
    if math.isclose(lhs, rhs, rel_tol=eps):
        case = "Critical"
    else:
        case = "LowGrowth" if lhs < rhs else "HighGrowth"

    def behavior(growth_term, loss_term):
        if math.isclose(growth_term, loss_term, rel_tol=eps):
            return "ConstantPositive"
        return "DivergesToInfinity" if growth_term > loss_term else "DecaysToZero"

    g = behavior(p.a * p.lam, p.b * p.n)
    g_star = behavior(p.a_star * p.lam, p.b_star / p.n)
    # n < a*lam/b exactly when G diverges, n > b_star/(a_star*lam) exactly when G* does.
    if "ConstantPositive" in (g, g_star):
        band = "Boundary"
    elif g == g_star:
        band = "Medium"
    else:
        band = "Low" if g == "DivergesToInfinity" else "High"
    return case, band, g, g_star


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


def coefficient_params(x):
    """ScenarioParams with the six coefficients drawn from x and fixed levels."""
    return st.builds(ScenarioParams, a=x, a_star=x, b=x, b_star=x, lam=x, n=x, B0=st.just(1.0),
                     B0_star=st.just(2.0), p0=st.just(1.0), t0=st.just(0.0))


sweep_params = coefficient_params(st.floats(min_value=1e-2, max_value=10.0))
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
        code, _, table = _run_sweep(params, vary, eps)
        assert code == 0
        assert table == _reference_sweep(params, vary, eps, _oracle_labels)[2]


def _kernels(p, eps):
    """Both of core's kernels on one ScenarioParams, with labels and checks."""
    free = core.n_free_terms(p.a, p.a_star, p.b, p.b_star, p.lam, eps)
    return free, core.n_terms(free, p.b, p.b_star, p.n, eps)


def _regime_labels(p, eps):
    """Growth case, band and behaviors from core's two kernels, as strings."""
    free, (g, g_star, band, *_) = _kernels(p, eps)
    return free[0].value, band.value, g.value, g_star.value


def _reference_sweep(params, vary, eps, labels=_regime_labels):
    """(exit code, stderr, table or None) of the per-row chain sweep rows
    ran before they became one pass on floats: with_param, labels, both
    kernels for f_value and the exponents, all on a ScenarioParams per row."""
    spec = parse_sweep(vary)
    rows = ["value,exponent_g,exponent_g_star,f_value,band,behavior_g,behavior_g_star,growth_case"]
    stderr, skipped = [], []
    for value in spec.grid():
        try:
            p = with_param(params, spec.name, value)
        except DomainError as exc:
            stderr.append(f"warning: skipped {spec.name}={value:.12g}: {exc}\n")
            skipped.append((value, str(exc)))
            continue
        try:
            case, band, g, g_star = labels(p, eps)
            f_value = _kernels(p, eps)[1][5]
        except DomainError as exc:
            return 2, "".join(stderr) + f"error: {exc}\n", None
        rows.append(
            f"{value:.12g},{core.exponent_g(p):.12g},{core.exponent_g_star(p):.12g},"
            f"{f_value:.12g},{band},{g},{g_star},{case}"
        )
    rows += [f"# skipped {spec.name}={value:.12g}: {reason}" for value, reason in skipped]
    return 0, "".join(stderr), "\n".join(rows) + "\n"


def _run_sweep(params, vary, eps):
    """(exit code, stderr, table or None) of wbdyn sweep on params. A directory
    per call: Hypothesis examples cannot share the function-scoped tmp_path."""
    with tempfile.TemporaryDirectory() as tmp:
        out, scenario = Path(tmp, "out.csv"), Path(tmp, "s.json")
        scenario.write_text(scenario_text(params))
        r = run_cli("sweep", "--scenario", str(scenario),
                    "--vary", vary, "--tolerance", repr(eps), "--out", str(out))
        return r.returncode, r.stderr, out.read_text() if out.exists() else None


# Any magnitude from 1e-300 to 1e300: squares overflow and products underflow.
wide_params = coefficient_params(
    st.builds(lambda m, k: m * 10.0**k, st.floats(1.0, 9.9), st.integers(-300, 300)))


def base_params(fields):
    """BASE as ScenarioParams, with file-keyed fields replaced."""
    return parse_scenario(dict(BASE, **fields)).params


class TestSweepKernel:
    """Sweep tables and stderr against the per-row reference, over full
    ranges: grids from below, at or above 0, and rows that raise."""

    @pytest.mark.parametrize("name", SWEEPABLE)
    @given(params=wide_params, eps=tolerance, start=st.sampled_from([-1.0, 0.0, 0.001, 0.5]),
           span=st.floats(1.0, 1e4), points=st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_table_and_stderr_equal_reference(self, name, params, eps, start, span, points):
        centre = getattr(params, PARAM_KEYS[name])
        stop = centre * span
        first = start * centre
        vary = f"{name}={first!r}:{stop!r}:{(stop - first) / points!r}"
        assert _run_sweep(params, vary, eps) == _reference_sweep(params, vary, eps)

    @pytest.mark.parametrize("fields,vary,error", [
        # Two rows, then n**2 overflows.
        ({}, "n=5e153:1e155:5e153", "error: n = 1.5e+154 overflows when squared"),
        # lam**2 and ((a - a_star) * lam)**2 both overflow; labels come first.
        ({"a": 2.0}, "lambda=1:1e200:2e199", "error: lam = 2e+199 overflows when squared"),
        # n**2 and ((a - a_star) * lam)**2 both overflow; f_value's square comes first.
        ({"n": 1e155, "a": 1e160}, "b_star=0.04:0.06:0.01",
         "error: n = 1e+155 overflows when squared"),
        # Three skipped rows, then a_star*lam and a*a_star both underflow;
        # the boundary comes first.
        ({"a": 1e-200, "a_star": 1e-200}, "lambda=-2e-200:1e-200:1e-200",
         "error: a_star * lam = 1e-200 * 1e-200 underflows to 0; cannot classify"),
    ])
    def test_domain_error_mid_grid(self, fields, vary, error):
        params = base_params(fields)
        code, stderr, table = _run_sweep(params, vary, 1e-9)
        assert (code, stderr, table) == _reference_sweep(params, vary, 1e-9)
        assert code == 2 and table is None
        assert stderr.splitlines()[-1] == error


class TestSweepNFreeHalf:
    """An n grid forms the n-free half once, at its first valid row, so its errors come
    after the skipped rows' warnings and only when some row is valid."""

    def test_error_waits_for_the_first_valid_row(self, tmp_path):
        sc = write_scenario(tmp_path / "s.json", **{"lambda": 1e200})
        out = tmp_path / "out.csv"
        r = run_cli("sweep", "--scenario", sc, "--vary", "n=-1:1:0.5", "--out", str(out))
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr.splitlines() == [
            "warning: skipped n=-1: n must be > 0, got -1.0",
            "warning: skipped n=-0.5: n must be > 0, got -0.5",
            "warning: skipped n=0: n must be > 0, got 0.0",
            "error: lam = 1e+200 overflows when squared"]
        assert not out.exists()
        r = run_cli("sweep", "--scenario", sc, "--vary", "n=-2:-1:0.5", "--out", str(out))
        assert (r.returncode, r.stdout, r.stderr.count("warning: skipped")) == (0, "", 3)
        assert out.read_text().splitlines()[1:] == [
            "# skipped n=-2: n must be > 0, got -2.0",
            "# skipped n=-1.5: n must be > 0, got -1.5",
            "# skipped n=-1: n must be > 0, got -1.0"]

    @pytest.mark.parametrize("vary,calls", [("n=-0.2:10:0.1", 1), ("lambda=0.01:0.1:0.01", 10)])
    def test_once_per_n_grid(self, scenario, tmp_path, monkeypatch, vary, calls):
        # A deterministic work counter: n_free_terms calls through cli's binding.
        free = count_calls(monkeypatch, (cli,), "n_free_terms")
        assert cli.main(["sweep", "--scenario", scenario, "--vary", vary,
                         "--out", str(tmp_path / "out.csv")]) == 0
        assert len(free) == calls


# "inf" or "nan" as a token: "dominance" holds "nan", "DivergesToInfinity" holds "Inf".
NON_FINITE = re.compile(r"(?<![A-Za-z])(inf|nan)(?![A-Za-z])")


def high_coefficients(**fields):
    """high.json's coefficients with the levels of wide_params."""
    return base_params(fields)._replace(B0=1.0, B0_star=2.0, p0=1.0)


class TestNoNonFiniteOutput:
    """A run that exits 0 prints no inf or nan: each number is refused where it is made."""

    @given(params=wide_params)
    @example(high_coefficients(b=1e155, b_star=1e155))  # 4*b*b_star overflows; n_hat is 1
    @example(high_coefficients(b=1e10, n=1e150))  # b*n**2 overflows: f_value
    @example(high_coefficients(a_star=1e-200, b_star=1e200))  # boundary_g_star is 1e401
    @example(high_coefficients(n=1e-300, b_star=1e10))  # b_star/n overflows: exponent_g_star
    @settings(max_examples=200, deadline=None)
    def test_exit_0_prints_only_finite_numbers(self, params):
        with tempfile.TemporaryDirectory() as tmp:
            scenario, out = Path(tmp, "s.json"), Path(tmp, "out.csv")
            scenario.write_text(scenario_text(params))
            n = params.n
            for args in (["classify"],
                         ["sweep", "--vary", f"n={n / 2!r}:{n * 2!r}:{n / 2!r}", "--out", str(out)],
                         ["simulate", "--mode", "closed", "--t-end", "2", "--out", str(out)]):
                out.unlink(missing_ok=True)
                r = run_cli(args[0], "--scenario", str(scenario), *args[1:])
                assert r.returncode in (0, 1, 2) and "Traceback" not in r.stderr
                if r.returncode == 0:
                    printed = r.stdout + (out.read_text() if out.exists() else "")
                    assert NON_FINITE.search(printed) is None, (args[0], printed[:2000])


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


def write_series(path, rows):
    path.write_text("".join(f"{t} {v}\n" for t, v in rows))
    return str(path)


@pytest.fixture
def gdp(tmp_path):
    """A two-point series file: 5064 in 2000, 18592 in 2018."""
    return write_series(tmp_path / "gdp.txt", [(2000, 5064), (2018, 18592)])


class TestCalibrate:
    def test_two_point_fit(self, gdp):
        r = run_cli("calibrate", "--series", gdp)
        assert r.returncode == 0
        rep = parse_report(r.stdout)
        assert float(rep["lambda"]) == pytest.approx(0.072254, abs=1e-5)
        assert float(rep["p0"]) == pytest.approx(5064.0, rel=1e-9)
        assert rep["points"] == "2"

    def test_synthetic_recovery(self, tmp_path):
        rows = [(2000 + k, 1000.0 * math.exp(0.1 * k)) for k in range(10)]
        series = write_series(tmp_path / "s.txt", rows)
        rep = parse_report(run_cli("calibrate", "--series", series).stdout)
        assert abs(float(rep["lambda"]) - 0.1) < 1e-10
        assert float(rep["residual"]) < 1e-10

    def test_write_scenario_round_trips(self, tmp_path, gdp):
        out = tmp_path / "fitted.json"
        r = run_cli("calibrate", "--series", gdp,
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

    def test_write_scenario_requires_n(self, tmp_path, gdp):
        r = run_cli("calibrate", "--series", gdp,
                    "--write-scenario", str(tmp_path / "x.json"))
        assert (r.returncode, r.stdout) == (2, "")
        assert "--n" in r.stderr

    def test_write_scenario_into_missing_directory_exits_2(self, tmp_path, gdp):
        # Same writer and error as simulate's --out.
        target = tmp_path / "missing" / "f.json"
        r = run_cli("calibrate", "--series", gdp,
                    "--write-scenario", str(target), "--n", "2")
        # Nothing is printed unless the write succeeds: no fit lines before the error.
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr.startswith(f"error: cannot write output file {target}: ")
        assert "Traceback" not in r.stderr

    def test_one_fit_per_run(self, tmp_path, gdp, monkeypatch):
        fits = count_calls(monkeypatch, (cli, calibration), "fit_growth_rate")
        r = run_cli("calibrate", "--series", gdp,
                    "--write-scenario", str(tmp_path / "f.json"), "--n", "2")
        assert r.returncode == 0
        assert len(fits) == 1

    def test_flat_series_assembly_refused(self, tmp_path):
        series = write_series(tmp_path / "flat.txt", [(2000, 750), (2001, 750), (2002, 750)])
        r = run_cli("calibrate", "--series", series,
                    "--write-scenario", str(tmp_path / "x.json"), "--n", "2")
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr == ("error: fitted growth rate 0.0 is not positive; "
                            "cannot assemble a scenario\n")

    @pytest.mark.parametrize("rows,message", [
        # The span is inf: the fit used to print lambda, p0 and residual as nan and exit 0.
        ([(-1e308, 1), (1e308, 4)],
         "income series times -1e+308 and 1e+308 are too far apart: their difference overflows"),
        ([(-1e308, 1), (0, 2), (1e308, 4)],
         "income series times -1e+308 and 1e+308 are too far apart: their difference overflows"),
        # ln 4 / 1e-310 overflows: "math range error" with exit 1.
        ([(0, 1), (1e-310, 4)],
         "income series times 0.0 to 1e-310 are too close together: "
         "the fitted growth rate overflows"),
    ], ids=["span overflows", "span of three overflows", "rate overflows"])
    def test_unfittable_times_exit_2(self, tmp_path, rows, message):
        r = run_cli("calibrate", "--series", write_series(tmp_path / "s.txt", rows))
        assert (r.returncode, r.stdout, r.stderr) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("rows,lam", [
        # Fitted on the raw times, the first printed lambda 0 and residual 0.69314718056,
        # the second lambda 1.38630979465e+160 and residual 7.7e-06, the third exited 2.
        ([(-1e200, 1), (1e200, 4)], "6.9314718056e-201"),
        ([(0, 1), (1e-160, 4)], "1.38629436112e+160"),
        ([(0, 1), (1e-300, 4)], "1.38629436112e+300"),
    ], ids=["spread overflows", "spread subnormal", "spread underflows"])
    def test_times_at_the_float_range_edges_fit(self, tmp_path, rows, lam):
        r = run_cli("calibrate", "--series", write_series(tmp_path / "s.txt", rows))
        assert r.returncode == 0
        rep = parse_report(r.stdout)
        assert (rep["lambda"], rep["p0"]) == (lam, "1")
        assert float(rep["residual"]) < 1e-15

    @pytest.mark.parametrize("content,message", [
        (b"2000 5064\n2001 5100 extra\n", "line 2"),
        (b"\xff\xfe2000 5064\n", "cannot read series file"),
    ], ids=["three columns", "not UTF-8"])
    def test_bad_series_file_exits_2(self, tmp_path, content, message):
        f = tmp_path / "bad.txt"
        f.write_bytes(content)
        r = run_cli("calibrate", "--series", str(f))
        assert r.returncode == 2
        assert r.stderr.startswith("error:") and r.stderr.count("\n") == 1
        assert message in r.stderr


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
    @pytest.mark.parametrize("argv", [
        ["simulate", "--scenario", "SCENARIO", "--t-end", "-inf", "--out", "OUT"],
        ["simulate", "--scenario", "SCENARIO", "--t-end", "-NaN", "--out", "OUT"],
        ["classify", "--scenario", "SCENARIO", "--tolerance", "-nan"],
        ["classify", "--scenario", "SCENARIO", "--tolerance", "-Infinity"],
        ["calibrate", "--series", "SERIES", "--write-scenario", "OUT", "--n", "-inf"],
    ], ids=["t-end -inf", "t-end -NaN", "tolerance -nan", "tolerance -Infinity", "n -inf"])
    def test_negative_non_finite_value_after_a_space(self, scenario, gdp, tmp_path, argv):
        # argparse reads "-inf" as an option; main joins it to its flag, so the value reaches
        # the flag's check and prints what the "=" form prints.
        out = tmp_path / "out"
        argv = [{"SCENARIO": scenario, "SERIES": gdp, "OUT": str(out)}.get(arg, arg)
                for arg in argv]
        spaced = run_cli(*argv)
        joined = run_cli(*argv[:-2], f"{argv[-2]}={argv[-1]}")
        assert spaced.returncode == joined.returncode == 2
        assert spaced.stdout == joined.stdout == ""
        assert spaced.stderr == joined.stderr
        assert re.fullmatch(r"error: (--t-end|--tolerance|n) must be finite, got (-inf|nan)\n",
                            spaced.stderr)
        assert not out.exists()

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

