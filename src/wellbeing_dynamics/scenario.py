"""Scenario and sweep file handling for the command-line tools.

Scenario files are JSON objects with the ten parameter keys, an optional
income_model block, and an optional numerics block. A file is one economy:
lambda is its only exponential rate, read through Scenario.closed_form_params.
The schema is strict: unknown or repeated keys anywhere are rejected with a
diagnostic naming the key, so a typo or a second value never passes silently.
"""

from __future__ import annotations

import json

from .core import ScenarioParams
from .dynamics import (DEFAULT_STEP, ExponentialIncome, IncomeModel, LinearIncome,
                       TabulatedIncome, uniform_grid)
from .errors import DomainError, Record, checked, read_text
from .regime import DEFAULT_EPSILON, checked_epsilon

#: file key -> ScenarioParams field, in field order; only lam is renamed, to the keyword lambda
PARAM_KEYS = {"lambda" if field == "lam" else field: field for field in ScenarioParams._fields}

_TOP_LEVEL_KEYS = set(PARAM_KEYS) | {"income_model", "numerics"}
_INCOME_KEYS = {
    "exponential": {"type"},
    "linear": {"type", "slope"},
    "tabulated": {"type", "points"},
}

SWEEPABLE = ("a", "a_star", "b", "b_star", "lambda", "n")


class NumericsOptions(Record):
    """Numerical knobs a scenario file may override.

    step is simulate's integrator step and epsilon the default tolerance
    of classify and sweep.
    """

    step: float = DEFAULT_STEP
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self) -> None:
        vars(self).update(step=checked(self.step, "numerics key 'step'", above=0.0),
                          epsilon=checked_epsilon(self.epsilon, "numerics key 'epsilon'"))


class Scenario(Record):
    """A parsed scenario file: parameters, income path (exponential by default), numerics."""

    params: ScenarioParams
    income: IncomeModel
    numerics: NumericsOptions

    def income_pair(self) -> tuple[IncomeModel, IncomeModel]:
        """The (p, q) pair with q = n * p pointwise. Scaling p past the float range
        raises a DomainError that names n."""
        try:
            return self.income, self.income.scaled(self.params.n)
        except DomainError as exc:
            raise DomainError(f"q = n * p with n = {self.params.n:.12g} leaves the float range: "
                              f"{exc}") from None

    def closed_form_params(self) -> ScenarioParams:
        """The parameters, through the one gate to the closed forms and the regimes.

        Raises:
            DomainError: the income path is linear or tabulated, so no
                closed form applies; the message names the type.
        """
        if not isinstance(self.income, ExponentialIncome):
            kind = "linear" if isinstance(self.income, LinearIncome) else "tabulated"
            raise DomainError(f"closed-form evaluation requires an exponential income, not {kind}")
        return self.params


def _require_number(value, key: str, origin: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(f"{origin}: key '{key}' must be a number, got {value!r}")
    # An int may lie past the float range: checked refuses it under the key's name.
    return checked(value, f"{origin}: key '{key}'") if isinstance(value, int) else float(value)


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


def _parse_income(block, params: ScenarioParams, origin: str) -> IncomeModel:
    if block is None:  # the model's default: p = p0 * exp(lambda * (t - t0))
        block = {"type": "exponential"}
    if not isinstance(block, dict):
        raise DomainError(f"{origin}: 'income_model' must be an object")
    kind = block.get("type")
    if not isinstance(kind, str) or kind not in _INCOME_KEYS:  # a list or dict is unhashable
        raise DomainError(
            f"{origin}: income_model type must be one of "
            f"{sorted(_INCOME_KEYS)}, got {kind!r}"
        )
    _check_keys(block, _INCOME_KEYS[kind], origin, "income_model")
    if kind == "exponential":
        return ExponentialIncome(params.p0, params.lam, params.t0)
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
    _check_keys(block, set(NumericsOptions._fields), origin, "numerics")
    values = {key: _require_number(block[key], key, origin) for key in block}
    return NumericsOptions(**values)


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict; a DomainError naming a key that repeats."""
    block = {}
    for key, value in pairs:
        if key in block:
            raise DomainError(f"duplicate key {key!r}")
        block[key] = value
    return block


def load_scenario(path) -> Scenario:
    """Read and validate a scenario file."""
    text = read_text(path, "scenario file")
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:  # also too many digits, or too deep nesting
        raise DomainError(f"{path}: invalid JSON: {exc}") from None
    return parse_scenario(doc, origin=str(path))


def scenario_text(params: ScenarioParams) -> str:
    """The JSON text of a scenario file holding params, as load_scenario reads it."""
    return json.dumps({key: getattr(params, field) for key, field in PARAM_KEYS.items()}, indent=2)


def with_param(params: ScenarioParams, name: str, value: float) -> ScenarioParams:
    """Copy params with one file-keyed parameter replaced and checked."""
    field = PARAM_KEYS.get(name)
    if field is None:
        raise DomainError(f"unknown parameter name {name!r}")
    return params._replace(**{field: value})


class SweepSpec(Record):
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
        start = checked(self.start, "sweep start")
        vars(self).update(start=start, stop=checked(self.stop, "sweep stop", above=start),
                          step=checked(self.step, "sweep step", above=0.0))

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
