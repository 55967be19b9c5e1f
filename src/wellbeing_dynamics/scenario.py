"""Scenario and sweep file handling for the command-line tools.

Scenario files are JSON objects with the ten parameter keys, an
optional income_model override, and an optional numerics block. The
schema is strict: unknown keys anywhere are rejected with a diagnostic
naming the key, so a typo in a parameter name can never pass silently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .core import ScenarioParams
from .dynamics import (DEFAULT_STEP, ExponentialIncome, IncomeModel, LinearIncome,
                       TabulatedIncome, uniform_grid)
from .errors import DomainError, checked
from .regime import DEFAULT_EPSILON

#: file key -> ScenarioParams field; only "lambda", a Python keyword, is renamed
PARAM_KEYS = {
    key: "lam" if key == "lambda" else key
    for key in ("a", "a_star", "b", "b_star", "lambda", "n", "B0", "B0_star", "p0", "t0")
}

_TOP_LEVEL_KEYS = set(PARAM_KEYS) | {"income_model", "numerics"}
_INCOME_KEYS = {
    "exponential": {"type", "rate"},
    "linear": {"type", "slope"},
    "tabulated": {"type", "points"},
}
_NUMERICS_KEYS = {"step", "epsilon"}

SWEEPABLE = ("a", "a_star", "b", "b_star", "lambda", "n")


@dataclass(frozen=True)
class NumericsOptions:
    """Numerical knobs a scenario file may override.

    step is simulate's integrator step and epsilon the default tolerance
    of classify and sweep.
    """

    step: float = DEFAULT_STEP
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self) -> None:
        for name, below in (("step", None), ("epsilon", 1.0)):
            value = checked(getattr(self, name), f"numerics key '{name}'", above=0.0, below=below)
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class Scenario:
    """A parsed scenario file: parameters, income override, numerics."""

    params: ScenarioParams
    income: IncomeModel | None
    numerics: NumericsOptions

    def income_pair(self) -> tuple[IncomeModel, IncomeModel]:
        """Build the (p, q) pair with q = n * p pointwise."""
        p = self.income
        if p is None:
            p = ExponentialIncome(self.params.p0, self.params.lam, self.params.t0)
        return p, p.scaled(self.params.n)

    def exponential_rate(self) -> float | None:
        """Growth rate when the effective income is exponential, else None."""
        if self.income is None:
            return self.params.lam
        if isinstance(self.income, ExponentialIncome):
            return self.income.rate
        return None

    def closed_form_params(self) -> ScenarioParams:
        """Parameters with lam set to the effective exponential rate.

        Raises:
            DomainError: when the income path is not exponential, so no
                closed form applies, or its rate is not positive.
        """
        rate = self.exponential_rate()
        if rate is None:
            raise DomainError("closed-form evaluation requires an exponential income path")
        if rate == self.params.lam:
            return self.params
        return with_param(self.params, "lambda", rate)


def _require_number(value, key: str, origin: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(f"{origin}: key '{key}' must be a number, got {value!r}")
    return float(value)


def _check_keys(block, allowed: set, origin: str, where: str) -> None:
    """Reject a block that is not a JSON object or has a key outside allowed."""
    if not isinstance(block, dict):
        raise DomainError(f"{origin}: {where} must be an object")
    unknown = sorted(set(block) - allowed)
    if unknown:
        raise DomainError(f"{origin}: unknown key '{unknown[0]}' in {where}")


def parse_scenario(doc, origin: str = "scenario") -> Scenario:
    """Validate a decoded scenario document and build a Scenario."""
    _check_keys(doc, _TOP_LEVEL_KEYS, origin, "scenario")
    missing = sorted(set(PARAM_KEYS) - set(doc))
    if missing:
        raise DomainError(f"{origin}: missing key '{missing[0]}'")
    fields = {
        field: _require_number(doc[key], key, origin) for key, field in PARAM_KEYS.items()
    }
    params = ScenarioParams(**fields)
    income = _parse_income(doc.get("income_model"), params, origin)
    numerics = _parse_numerics(doc.get("numerics"), origin)
    return Scenario(params=params, income=income, numerics=numerics)


def _parse_income(block, params: ScenarioParams, origin: str) -> IncomeModel | None:
    if block is None:
        return None
    if not isinstance(block, dict):
        raise DomainError(f"{origin}: 'income_model' must be an object")
    kind = block.get("type")
    if kind not in _INCOME_KEYS:
        raise DomainError(
            f"{origin}: income_model type must be one of "
            f"{sorted(_INCOME_KEYS)}, got {kind!r}"
        )
    _check_keys(block, _INCOME_KEYS[kind], origin, "income_model")
    if kind == "exponential":
        rate = params.lam
        if "rate" in block:
            rate = _require_number(block["rate"], "rate", origin)
        return ExponentialIncome(params.p0, rate, params.t0)
    if kind == "linear":
        if "slope" not in block:
            raise DomainError(f"{origin}: linear income_model requires key 'slope'")
        slope = _require_number(block["slope"], "slope", origin)
        return LinearIncome(params.p0, slope, params.t0)
    points = block.get("points")
    if not isinstance(points, list) or not all(
        isinstance(pt, list) and len(pt) == 2 for pt in points
    ):
        raise DomainError(
            f"{origin}: tabulated income_model requires 'points' as a list of [t, value] pairs"
        )
    pairs = tuple(
        (_require_number(pt[0], "points", origin), _require_number(pt[1], "points", origin))
        for pt in points
    )
    return TabulatedIncome(pairs)


def _parse_numerics(block, origin: str) -> NumericsOptions:
    if block is None:
        return NumericsOptions()
    _check_keys(block, _NUMERICS_KEYS, origin, "numerics")
    values = {key: _require_number(block[key], key, origin) for key in block}
    return NumericsOptions(**values)


def load_scenario(path) -> Scenario:
    """Read and validate a scenario file."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise DomainError(f"cannot read scenario file {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path}: invalid JSON: {exc}") from None
    return parse_scenario(doc, origin=str(path))


def with_param(params: ScenarioParams, name: str, value: float) -> ScenarioParams:
    """Copy params with one file-keyed parameter replaced. Only that field is
    checked, and stored as check_fields stores it; the others were checked
    when the frozen params was built."""
    field = PARAM_KEYS.get(name)
    if field is None:
        raise DomainError(f"unknown parameter name {name!r}")
    value = checked(value, field, ScenarioParams._bounds[field]) + 0.0
    copy = object.__new__(ScenarioParams)
    copy.__dict__.update(params.__dict__, **{field: value})
    return copy


@dataclass(frozen=True)
class SweepSpec:
    """A one-parameter grid: name and start/stop/step with start < stop."""

    name: str
    start: float
    stop: float
    step: float

    def __post_init__(self) -> None:
        if self.name not in SWEEPABLE:
            raise DomainError(
                f"sweep parameter must be one of {', '.join(SWEEPABLE)}; got {self.name!r}"
            )
        for field, above in (("start", None), ("stop", None), ("step", 0.0)):
            value = checked(getattr(self, field), f"sweep {field}", above=above)
            object.__setattr__(self, field, value)
        if not self.start < self.stop:
            raise DomainError(
                f"sweep start must be < stop, got {self.start} >= {self.stop}"
            )

    def grid(self) -> list[float]:
        """Grid values start, start+step, ... up to stop inclusive.

        Raises:
            DomainError: the grid would span more than MAX_GRID_STEPS steps.
        """
        return uniform_grid(self.start, self.stop - self.start, self.step)


def parse_sweep(text: str) -> SweepSpec:
    """Parse a NAME=START:STOP:STEP sweep argument."""
    name, sep, rest = text.partition("=")
    if not sep:
        raise DomainError(f"sweep must look like NAME=START:STOP:STEP, got {text!r}")
    parts = rest.split(":")
    if len(parts) != 3:
        raise DomainError(f"sweep grid must be START:STOP:STEP, got {rest!r}")
    try:
        start, stop, step = (float(part) for part in parts)
    except ValueError:
        raise DomainError(f"sweep grid values must be numbers, got {rest!r}") from None
    return SweepSpec(name=name.strip(), start=start, stop=stop, step=step)
