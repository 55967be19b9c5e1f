"""Two-group well-being dynamics under income inequality.

Closed-form solutions, long-run regime classification, an independent
ODE/quadrature path for validation, growth-rate calibration from income
series, and a deterministic command-line interface.

Each public name loads its submodule on first use (PEP 562), so that a
caller pays only for the modules it touches.
"""

__version__ = "0.1.0"

#: Each public name and the submodule that defines it, in __all__ order.
_HOMES = {
    "Band": "regime", "Behavior": "regime", "BracketCheck": "regime",
    "CHILE_DECADE_MEAN_GROWTH": "calibration", "CHILE_GDP_PROJECTION_2019": "calibration",
    "Dominance": "regime", "DomainError": "errors", "ExponentialIncome": "dynamics",
    "FeasibilityRecord": "regime", "GrowthCase": "regime", "GrowthFit": "calibration",
    "IncomeModel": "dynamics", "IncomeSeries": "calibration", "IntegrationError": "errors",
    "LinearIncome": "dynamics", "NumericsOptions": "scenario", "QuadratureError": "errors",
    "RatioAnalysis": "core", "RegimeReport": "regime", "Scenario": "scenario",
    "ScenarioParams": "core", "SweepSpec": "scenario", "TabulatedIncome": "dynamics",
    "Trajectory": "dynamics", "WellbeingError": "errors", "chile_gdp_series": "calibration",
    "classify": "regime", "closed_form_B": "core", "closed_form_B_star": "core",
    "cross_validate": "dynamics", "exponent_g": "core", "exponent_g_star": "core",
    "fit_growth_rate": "calibration", "general_wellbeing": "core", "growth_case": "regime",
    "integrate": "dynamics", "load_scenario": "scenario", "low_band_feasibility": "regime",
    "parse_scenario": "scenario", "parse_sweep": "scenario", "ratio_analysis": "core",
    "read_income_series": "calibration", "scenario_from_data": "calibration",
    "time_grid": "dynamics", "verify_nhat_bracketing": "regime", "wellbeing_ratio": "core",
}

__all__ = list(_HOMES)

#: The submodules bound as attributes; numerics has no name in __all__.
_SUBMODULES = frozenset(_HOMES.values()) | {"numerics"}


def __getattr__(name: str):
    home = name if name in _SUBMODULES else _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module  # on use: a bare package import loads nothing
    value = import_module(f"{__name__}.{home}")
    if home != name:
        value = getattr(value, name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOMES.keys() | _SUBMODULES)
