"""The package surface: the names `wellbeing_dynamics` exports, the objects they
are, and which submodules an import loads."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from importlib import import_module

import pytest

import wellbeing_dynamics as wd
from conftest import SRC

#: __all__ in its order: sorted, except that Dominance comes before DomainError.
ALL = """
    Band Behavior BracketCheck CHILE_DECADE_MEAN_GROWTH CHILE_GDP_PROJECTION_2019 Dominance
    DomainError ExponentialIncome GrowthCase GrowthFit IncomeModel
    IncomeSeries IntegrationError LinearIncome NumericError NumericsOptions QuadratureError
    RatioAnalysis RegimeReport Scenario ScenarioParams SweepSpec TabulatedIncome Trajectory
    WellbeingError
    chile_gdp_series classify closed_form_B closed_form_B_star cross_validate exponent_g
    exponent_g_star fit_growth_rate general_wellbeing growth_case integrate load_scenario
    parse_scenario parse_sweep ratio_analysis read_income_series
    scenario_from_data time_grid verify_nhat_bracketing wellbeing_ratio
""".split()

#: The submodule that defines each public name.
HOMES = {
    "calibration": """CHILE_DECADE_MEAN_GROWTH CHILE_GDP_PROJECTION_2019 GrowthFit IncomeSeries
        chile_gdp_series fit_growth_rate read_income_series scenario_from_data""",
    "core": """RatioAnalysis ScenarioParams closed_form_B closed_form_B_star exponent_g
        exponent_g_star general_wellbeing ratio_analysis wellbeing_ratio""",
    "dynamics": """ExponentialIncome IncomeModel LinearIncome TabulatedIncome Trajectory
        cross_validate integrate time_grid""",
    "errors": "DomainError IntegrationError NumericError QuadratureError WellbeingError",
    "regime": """Band Behavior BracketCheck Dominance GrowthCase RegimeReport
        classify growth_case verify_nhat_bracketing""",
    "scenario": "NumericsOptions Scenario SweepSpec load_scenario parse_scenario parse_sweep",
}

#: The submodules that `import wellbeing_dynamics` binds as attributes; cli is not one.
SUBMODULES = ["calibration", "core", "dynamics", "errors", "numerics", "regime", "scenario"]


def test_all_lists_the_public_names_in_order():
    assert wd.__all__ == ALL
    assert sorted(ALL) == sorted(name for names in HOMES.values() for name in names.split())


@pytest.mark.parametrize("home,names", HOMES.items())
def test_each_name_is_its_home_modules_object(home, names):
    module = import_module(f"wellbeing_dynamics.{home}")
    for name in names.split():
        assert getattr(wd, name) is getattr(module, name)


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from wellbeing_dynamics import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(ALL)
    assert all(namespace[name] is getattr(wd, name) for name in ALL)


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(wd, "no_such_name")
    with pytest.raises(AttributeError, match="^module 'wellbeing_dynamics' has no attribute "
                                             "'no_such_name'$"):
        wd.no_such_name


def test_low_band_feasibility_has_one_route():
    # classify's two boundaries answer it; the second route and its record are gone.
    regime = import_module("wellbeing_dynamics.regime")
    for name in ("FeasibilityRecord", "low_band_feasibility"):
        assert not hasattr(regime, name) and not hasattr(wd, name)


def test_python_m_cli_runs_no_command():
    # The entry points are wbdyn and `python -m wellbeing_dynamics`; running the cli module
    # only imports it.
    runs = [subprocess.run([sys.executable, "-m", module, "--help"], capture_output=True,
                           text=True, env={**os.environ, "PYTHONPATH": SRC})
            for module in ("wellbeing_dynamics.cli", "wellbeing_dynamics")]
    assert (runs[0].returncode, runs[0].stdout, runs[0].stderr) == (0, "", "")
    assert runs[1].returncode == 0 and runs[1].stdout.startswith("usage: ")


def test_imports_load_only_the_submodules_they_use():
    # A fresh interpreter; -S keeps site .pth files from preloading modules, so this sees
    # the package's own imports. Each line the child prints is one Python literal.
    code = """if True:
        import sys

        def loaded():
            return sorted(m for m in sys.modules if m.startswith("wellbeing_dynamics."))

        import wellbeing_dynamics as wd
        print((loaded(), [n for n in dir(wd) if not n.startswith("_")], hasattr(wd, "cli")))
        from wellbeing_dynamics import ScenarioParams, classify, cross_validate
        print(loaded())
        print(([getattr(wd, m) is sys.modules["wellbeing_dynamics." + m] for m in %r],
               hasattr(wd, "cli")))
        import wellbeing_dynamics.cli
        unused = {"pathlib", "importlib.resources", "typing", "dataclasses", "inspect"}
        print((wd.cli.__name__, sorted(unused & set(sys.modules))))
    """ % SUBMODULES
    r = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": SRC})
    assert (r.returncode, r.stderr) == (0, "")
    bare, readme, submodules, cli = map(ast.literal_eval, r.stdout.splitlines())
    # A bare import loads no submodule, yet lists every public name and submodule.
    assert bare == ([], sorted(ALL + SUBMODULES), False)
    # README's example line loads neither scenario nor calibration.
    assert readme == [f"wellbeing_dynamics.{m}"
                      for m in ("core", "dynamics", "errors", "numerics", "regime")]
    # Reading a submodule imports it; cli stays unbound until it is imported.
    assert submodules == ([True] * len(SUBMODULES), False)
    # The CLI reads files with open(), loads the bundled data's importlib.resources only on
    # use, its annotations are strings, and its records are errors.Record, not dataclasses.
    assert cli == ("wellbeing_dynamics.cli", [])
