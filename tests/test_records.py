"""The record contract: what the package's 14 immutable record classes share.

Each class is built from one example, its fields in order. A record must take
them by position or keyword, compare, hash and print as a frozen dataclass of
the same fields does, pickle, refuse assignment and deletion, and check a
_replace copy as it checks a new record.
"""

from __future__ import annotations

import itertools
import math
import pickle
from dataclasses import FrozenInstanceError, make_dataclass

import pytest

from wellbeing_dynamics import (BracketCheck, DomainError, ExponentialIncome, FeasibilityRecord,
                                GrowthFit, IncomeSeries, LinearIncome, NumericsOptions,
                                RatioAnalysis, RegimeReport, Scenario, ScenarioParams, SweepSpec,
                                TabulatedIncome, Trajectory, classify, low_band_feasibility,
                                verify_nhat_bracketing)

PARAMS = dict(a=1.0, a_star=0.8, b=0.05, b_star=0.04, lam=0.03, n=2.0, B0=1.0, B0_star=1.5,
              p0=2.0, t0=0.0)
P = ScenarioParams(**PARAMS)


def fields_of(record) -> dict:
    return {name: getattr(record, name) for name in type(record)._fields}


#: One valid example per record class: its fields in order, as stored.
EXAMPLES = {
    ScenarioParams: PARAMS,
    RatioAnalysis: dict(g_rate=-0.074, f_value=0.148, discriminant=0.0073, n_hat=0.956),
    ExponentialIncome: dict(p0=2.0, rate=0.03, t0=0.0),
    LinearIncome: dict(p0=2.0, slope=0.5, t0=-1.0),
    TabulatedIncome: dict(points=((0.0, 1.0), (1.0, 2.0), (3.0, 2.5))),
    Trajectory: dict(times=(0.0, 1.0), B=(1.0, 1.1), B_star=(1.0, 0.9), p=(2.0, 2.06),
                     q=(4.0, 4.12), method="rk4", step=1.0, tolerance=None),
    RegimeReport: fields_of(classify(P)),
    FeasibilityRecord: fields_of(low_band_feasibility(P)),
    BracketCheck: fields_of(verify_nhat_bracketing(P)),
    NumericsOptions: dict(step=0.05, epsilon=1e-6),
    Scenario: dict(params=P, income=ExponentialIncome(2.0, 0.03), numerics=NumericsOptions()),
    SweepSpec: dict(name="n", start=0.5, stop=2.0, step=0.25),
    IncomeSeries: dict(points=((2000.0, 100.0), (2018.0, 150.0))),
    GrowthFit: dict(lam=0.03, p0=100.0, residual=0.0, t0=2000.0),
}

#: A change per validating class that its check refuses.
BAD_CHANGES = {
    ScenarioParams: {"n": -1.0},
    ExponentialIncome: {"p0": 0.0},
    LinearIncome: {"slope": math.inf},
    TabulatedIncome: {"points": ((0.0, 1.0),)},
    Trajectory: {"B": (1.0,)},
    NumericsOptions: {"epsilon": 1.0},
    SweepSpec: {"step": 0.0},
    IncomeSeries: {"points": ((2000.0, 100.0), (2000.0, 150.0))},
}

classes = pytest.mark.parametrize("cls", EXAMPLES, ids=lambda cls: cls.__name__)


def test_every_record_class_has_an_example():
    assert len(EXAMPLES) == 14
    for cls, example in EXAMPLES.items():
        assert cls._fields == tuple(example)


@classes
def test_keyword_and_positional_construction(cls):
    example = EXAMPLES[cls]
    record = cls(**example)
    assert fields_of(record) == example
    assert cls(*example.values()) == record
    assert cls(*list(example.values())[:1], **dict(list(example.items())[1:])) == record
    # vars() holds the fields in order; TabulatedIncome keeps its lookup tables after them.
    stored = list(vars(record).items())
    assert dict(stored[:len(example)]) == example
    assert len(stored) == len(example) or cls is TabulatedIncome


def test_defaults():
    assert NumericsOptions() == NumericsOptions(step=0.01, epsilon=1e-9)
    assert ExponentialIncome(1.0, 0.03).t0 == 0.0
    assert LinearIncome(1.0, 0.5).t0 == 0.0
    assert ScenarioParams(**{k: v for k, v in PARAMS.items() if k != "t0"}).t0 == 0.0
    tr = Trajectory(times=(0.0,), B=(1.0,), B_star=(1.0,), p=(1.0,), q=(2.0,), method="rk4")
    assert (tr.step, tr.tolerance) == (None, None)


@classes
def test_missing_unknown_or_repeated_argument_is_a_type_error(cls):
    example = EXAMPLES[cls]
    first = next(iter(example))
    if cls is NumericsOptions:  # every field has a default
        assert cls() == NumericsOptions(0.01, 1e-9)
    else:
        with pytest.raises(TypeError):
            cls()
    with pytest.raises(TypeError, match="'bogus'"):
        cls(**example, bogus=1.0)
    with pytest.raises(TypeError):
        cls(example[first], **example)  # the first field twice
    with pytest.raises(TypeError):
        cls(*example.values(), 1.0)  # one positional argument too many


def test_type_error_names_the_missing_field():
    with pytest.raises(TypeError, match=r"ScenarioParams\(\) got unknown arguments \[\] "
                                        r"and lacks \['p0'\]"):
        ScenarioParams(**{k: v for k, v in PARAMS.items() if k != "p0"})


@classes
def test_equality_hash_and_repr_match_a_frozen_dataclass(cls):
    example = EXAMPLES[cls]
    record, twin = cls(**example), cls(**example)
    assert record == twin and not record != twin and hash(record) == hash(twin)
    mirror = make_dataclass(cls.__qualname__, list(example), frozen=True)(**example)
    assert repr(record) == repr(mirror)
    assert hash(record) == hash(mirror)
    assert record != mirror and record != tuple(example.values())


def test_records_of_different_classes_never_compare_equal():
    records = [cls(**example) for cls, example in EXAMPLES.items()]
    records.append(LinearIncome(*EXAMPLES[ExponentialIncome].values()))  # the same values
    for x, y in itertools.permutations(records, 2):
        assert type(x) is type(y) or x != y


def test_repr_strings():
    assert repr(ScenarioParams(**{**PARAMS, "t0": -0.0})) == (
        "ScenarioParams(a=1.0, a_star=0.8, b=0.05, b_star=0.04, lam=0.03, n=2.0, B0=1.0, "
        "B0_star=1.5, p0=2.0, t0=0.0)")
    assert repr(NumericsOptions()) == "NumericsOptions(step=0.01, epsilon=1e-09)"
    assert repr(NumericsOptions(0.5, 1e-6)) == "NumericsOptions(step=0.5, epsilon=1e-06)"


@classes
def test_pickle_round_trip(cls):
    record = cls(**EXAMPLES[cls])
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and copy == record and hash(copy) == hash(record)


def test_unpickled_tabulated_income_evaluates():
    income = TabulatedIncome(EXAMPLES[TabulatedIncome]["points"])
    copy = pickle.loads(pickle.dumps(income))
    for t in (0.0, 0.5, 1.0, 2.0, 3.0):
        assert (copy.value(t), copy.derivative(t)) == (income.value(t), income.derivative(t))
    assert copy.nodes == (0.0, 1.0, 3.0)


@classes
def test_assignment_and_deletion_raise_frozen_instance_error(cls):
    example = EXAMPLES[cls]
    record = cls(**example)
    for name in (*example, "not_a_field"):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, 1.0)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    assert fields_of(record) == example


@classes
def test_replace_copies_and_checks(cls):
    example = EXAMPLES[cls]
    record = cls(**example)
    assert record._replace() == record
    with pytest.raises(TypeError, match="'bogus'"):
        record._replace(bogus=1.0)
    if cls in BAD_CHANGES:
        change = BAD_CHANGES[cls]
        with pytest.raises(DomainError) as built:
            cls(**{**example, **change})
        with pytest.raises(DomainError) as replaced:
            record._replace(**change)
        assert str(replaced.value) == str(built.value)
    assert fields_of(record) == example


def test_replace_changes_only_the_named_fields():
    moved = P._replace(n=3, t0=-0.0)
    assert fields_of(moved) == {**PARAMS, "n": 3.0, "t0": 0.0}
    assert isinstance(moved.n, float) and math.copysign(1.0, moved.t0) == 1.0
    assert fields_of(P) == PARAMS
