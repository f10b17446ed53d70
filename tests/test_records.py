"""The package's thirteen records: equality, hash, repr, immutability, and
pickle and copy round trips, one table over every class."""

import copy
import gc
import inspect
import pickle
from fractions import Fraction

import pytest

from alexinv.alexander_modules import Presentation
from alexinv.aomoto_complex import GradedAlgebra
from alexinv.cli import Report
from alexinv.constructions import (
    CharvarScan,
    CyclotomicNumber,
    ExactMatrix,
    IdealGenerators,
    OneForm,
    TorsionPoint,
    charvar_scan,
)
from alexinv.corpus import load_bundled_scenario
from alexinv.errors import Record
from alexinv.invariant_pipeline import MonodromyPolynomial, Scenario
from alexinv.laurent_ring import parse_poly
from alexinv.residue_systems import ResidueRow, ResidueSystem

F = Fraction


def torus_fields(cls):
    """The fields of a freshly loaded ``torus`` scenario, or of one of its
    parts, as constructor arguments: equal each call, never the same objects."""
    scenario = load_bundled_scenario("torus")
    value = {Scenario: scenario, GradedAlgebra: scenario.algebra,
             ResidueSystem: scenario.residue_system,
             CharvarScan: charvar_scan(scenario, 2, 1)}[cls]
    return [getattr(value, name) for name in cls._fields]


# Each class and a function that returns its constructor arguments afresh.
RECORDS = [
    (Presentation, lambda: (2, 1, 2, ((parse_poly("t1 - 1", 2), parse_poly("t2^2 - 1/2", 2)),))),
    (IdealGenerators, lambda: ((parse_poly("t1 - 1", 2),),)),
    (GradedAlgebra, lambda: torus_fields(GradedAlgebra)),
    (OneForm, lambda: ((1, F(1, 2)),)),
    (Report, lambda: (["alexinv", "validate", "torus"], "sha256:0", {"valid": True}, ["w"])),
    (CyclotomicNumber, lambda: (5, (F(1), F(0), F(2), F(0)))),
    (ExactMatrix, lambda: (1, 2, (F(1), F(2, 3)))),
    (Scenario, lambda: torus_fields(Scenario)),
    (CharvarScan, lambda: torus_fields(CharvarScan)),
    (MonodromyPolynomial, lambda: (3, (2, 0, 0))),
    (TorsionPoint, lambda: (6, (1, 2))),
    (ResidueRow, lambda: ("L1", (1, 0, -1), True)),
    (ResidueSystem, lambda: torus_fields(ResidueSystem)),
]
# A field is unhashable: a dict, or the scenario's algebra.
UNHASHABLE_FIELDS = {CharvarScan, GradedAlgebra, Report, Scenario}

record_table = pytest.mark.parametrize(
    "cls, arguments", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])


def test_the_table_has_every_record():
    assert {cls for cls, _ in RECORDS} == set(Record.__subclasses__())
    assert len(RECORDS) == 13


@record_table
def test_equal_records_compare_and_hash_equal(cls, arguments):
    a, b = cls(*arguments()), cls(*arguments())
    assert a is not b and a == b and not a != b
    assert a.__eq__(object()) is NotImplemented and a != object()
    if cls in UNHASHABLE_FIELDS:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(tuple(arguments()))


@record_table
def test_the_repr_lists_exactly_the_constructor_fields(cls, arguments):
    record = cls(*arguments())
    names = list(inspect.signature(cls).parameters)
    assert names == list(cls._fields)
    body = ", ".join(f"{name}={getattr(record, name)!r}" for name in names)
    assert repr(record) == f"{cls.__name__}({body})"


def test_reprs_are_pinned():
    assert repr(TorsionPoint(6, (1, 2))) == "TorsionPoint(level=6, numerators=(1, 2))"
    assert repr(ResidueRow("E1", [1, -2], False)) == (
        "ResidueRow(label='E1', coeffs=(1, -2), is_component=False)")


@record_table
def test_a_frozen_record_refuses_to_set_or_delete_a_field(cls, arguments):
    record = cls(*arguments())
    before = repr(record)
    for name in cls._fields:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
    assert repr(record) == before


def test_a_record_takes_no_class_keyword():
    with pytest.raises(TypeError, match="keyword"):
        class Mutable(Record, frozen=False):
            _fields = ("value",)
    # The refused class is a cycle that stays among Record's subclasses
    # until collected.
    gc.collect()
    assert set(Record.__subclasses__()) == {cls for cls, _ in RECORDS}


@record_table
def test_pickles_and_copies_are_equal_records(cls, arguments):
    record = cls(*arguments())
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    for again in [pickle.loads(pickle.dumps(record, k)) for k in protocols] + [
            copy.copy(record), copy.deepcopy(record)]:
        assert type(again) is cls and again == record and repr(again) == repr(record)


def test_constructor_defaults():
    scenario = Scenario(*torus_fields(Scenario)[:6])
    assert (scenario.include_infinity_in_milnor, scenario.intersection_points,
            scenario.max_shift) == (True, None, None)
    first, second = Report(["alexinv"], "sha256:0", {}), Report(["alexinv"], "sha256:0", {})
    assert first.results == {} and first.warnings == []
    assert first.warnings is not second.warnings
