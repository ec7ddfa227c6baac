"""The record types: immutable named tuples that validate on every construction
path, that do not fall back to tuple behaviour where it would change their
meaning, and that keep dataclass definitions off the CLI's import path."""

import copy
import inspect
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from genus3 import chowcurve, classify, surflat, tablecli
from genus3.chowcurve import BaseCurve, DivisorClass, ProjBundleModel, SplittingType
from genus3.surflat import WeightSequence, make_plane

DATACLASS_SCAN = """
import genus3.tablecli
from genus3 import chowcurve, classify, surflat, tablecli
found = {
    f"{value.__module__}.{value.__qualname__}"
    for module in (chowcurve, classify, surflat, tablecli)
    for value in vars(module).values()
    if isinstance(value, type) and hasattr(value, "__dataclass_fields__")
}
print(*sorted(found))
"""


def test_no_record_is_a_dataclass():
    # Defining a dataclass costs about a millisecond, and importing dataclasses
    # loads inspect, ast, dis and tokenize: every CLI call would pay for both.
    src = str(Path(tablecli.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", DATACLASS_SCAN],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []


RECORDS = [
    value
    for module in (chowcurve, classify, surflat, tablecli)
    for value in vars(module).values()
    if isinstance(value, type)
    and issubclass(value, tuple)
    and hasattr(value, "_fields")
    and value.__module__ == module.__name__
]


def test_every_record_annotates_its_fields_and_binds_none_in_its_body():
    # Each record is a subclass of a collections.namedtuple that declares one
    # annotation per field.  A value given to a field there (note: str = "")
    # would shadow the field's property, so every record would read that value.
    # Its __slots__ = () keeps a __dict__ off every instance.
    assert len(RECORDS) == 30
    wrong = {}
    for record in RECORDS:
        annotated = list(inspect.get_annotations(record))
        bound = [name for name in record._fields if name in vars(record)]
        slots = vars(record).get("__slots__")
        if (annotated, bound, slots) != (list(record._fields), [], ()):
            wrong[record.__qualname__] = (annotated, bound, slots)
    assert wrong == {}


# a passing self-test report, built by hand
SELFTEST = tablecli.SelfTestReport(
    2535, 0, 0, 507, 0, 132, 0, (tablecli.IdentityCounterexample(3, 8, 0, 40, 24),)
)


# a valid record of each validating named tuple, and one field value it rejects
VALIDATING = {
    "BaseCurve": (BaseCurve(1), "genus", -1),
    "WeightSequence": (WeightSequence((2, 1)), "weights", (2, 0)),
    "SurfaceLattice": (make_plane(), "gram", ((1, 2),)),
    # integer fields take exact ints only: no silent int() of floats, bools or strings
    "BaseCurve-float": (BaseCurve(1), "genus", 0.5),
    "BaseCurve-bool": (BaseCurve(1), "genus", True),
    "BaseCurve-str": (BaseCurve(1), "genus", "1"),
    "WeightSequence-mixed": (WeightSequence((2, 1)), "weights", (2.7, True, "3")),
    "WeightSequence-bool": (WeightSequence((2, 1)), "weights", (2, True)),
    "SurfaceLattice-A": (make_plane().with_polarization((4,)), "A", (4.0,)),
    "SurfaceLattice-gram-float": (make_plane(), "gram", ((1.5,),)),
    "SurfaceLattice-K-bool": (make_plane(), "K", (True,)),
    "SurfaceLattice-labels": (make_plane(), "labels", (1,)),
    # a bare str is not split into one-letter labels: "h" would pass as ("h",)
    "SurfaceLattice-labels-str": (make_plane(), "labels", "h"),
    "ProjBundleModel-rank": (ProjBundleModel(BaseCurve(0), 3, 2), "rank", 1),
    "ProjBundleModel-c1": (ProjBundleModel(BaseCurve(0), 3, 2), "c1", 2.0),
    "ProjBundleModel-base": (ProjBundleModel(BaseCurve(0), 3, 2), "base", 0),
}


@pytest.mark.parametrize("name", sorted(VALIDATING))
def test_make_and_replace_validate(name):
    record, field, bad = VALIDATING[name]
    values = list(record)
    values[record._fields.index(field)] = bad
    with pytest.raises(ValueError):
        type(record)._make(values)
    with pytest.raises(ValueError):
        record._replace(**{field: bad})
    assert record._replace() == record and type(record._replace()) is type(record)


@pytest.mark.parametrize(
    "record",
    [
        BaseCurve(1),
        SplittingType((0, 1, 1)),
        ProjBundleModel.split((0, 1, 1)),
        ProjBundleModel(BaseCurve(2), 3, -1),
        WeightSequence((2, 1)),
        make_plane().with_polarization((4,)),
        SELFTEST,
    ],
    ids=lambda record: type(record).__name__,
)
def test_copy_and_pickle_rebuild_the_same_record(record):
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert twin == record and type(twin) is type(record)


def test_records_are_immutable():
    bundle = ProjBundleModel.split((0, 1, 1))
    records = (
        (BaseCurve(1), "genus"),
        (DivisorClass(1, 0), "h"),
        (bundle, "rank"),
        (SELFTEST, "grid_mismatches"),
    )
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, 5)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert bundle.rank == 3


def test_bundle_models_compare_by_value():
    # as every named-tuple record does, a bundle equals the plain tuple of its fields
    same = ProjBundleModel(BaseCurve(0), 3, 2)
    assert ProjBundleModel.split((0, 1, 1)) == same
    assert hash(ProjBundleModel.split((0, 1, 1))) == hash(same)
    assert ProjBundleModel(BaseCurve(0), 3, 2) != ProjBundleModel(BaseCurve(1), 3, 2)
    assert same == (BaseCurve(0), 3, 2)
    assert repr(same) == "ProjBundleModel(base=BaseCurve(genus=0), rank=3, c1=2)"


def test_sequence_records_read_their_entries():
    st = SplittingType([0, 1, 1, 2])
    assert len(st) == 4 and list(st) == [0, 1, 1, 2] and st[-1] == 2 and st[1:] == (1, 1, 2)
    assert 2 in st and 3 not in st
    assert (st.degrees, st.c1, st.drop(0)) == ((0, 1, 1, 2), 4, (1, 1, 2))
    assert repr(st) == "SplittingType(degrees=(0, 1, 1, 2))"
    assert len(WeightSequence((3, 2, 2))) == 3 and len(WeightSequence(())) == 0


def test_json_reports_write_nested_records_as_objects():
    selftest = json.loads(tablecli.oracle_selftest().to_json())
    assert selftest["variant_identity_counterexamples"][0] == {
        "n": 3, "d": 8, "g_C": 0, "lhs": 40, "rhs": 24,
    }
    assert list(selftest) == [*tablecli.SelfTestReport._fields, "passed"]
    # a copy perturbed with _replace, as a benchmark check builds one, reports the failure
    perturbed = json.loads(SELFTEST._replace(grid_mismatches=1).to_json())
    assert (perturbed["grid_mismatches"], perturbed["passed"]) == (1, False)
    report = tablecli.verify("4.4", tablecli.load_fixture(tablecli.packaged_fixture_path("4.4")))
    verdict = json.loads(report.to_json())["verdicts"][0]
    assert list(verdict) == [
        "key", "verdict", "note", "expected", "recomputed", "whitelisted", "unexpected",
    ]
