"""The record types: immutable named tuples, each a subclass of ``chowcurve.Record``
whose fields are its annotations, that behave as ``collections.namedtuple``'s do,
validate on every construction path, do not fall back to tuple behaviour where it
would change their meaning, and keep dataclass definitions off the CLI's import
path."""

import copy
import inspect
import json
import os
import pickle
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genus3 import chowcurve, classify, surflat, tablecli
from genus3.chowcurve import BaseCurve, DivisorClass, ProjBundleModel, Record, SplittingType
from genus3.classify import QuadricParams
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
    and value is not Record
]

# the index accessor collections.namedtuple puts on each field
ACCESSOR = type(namedtuple("Point", "x").x)


def test_every_record_annotates_its_fields_and_binds_none_in_its_body():
    # Each record subclasses Record, which reads its fields from its own
    # annotations and replaces whatever the class body bound to a field (its
    # default) with the field's index accessor, so no value can shadow a
    # field.  Its __slots__ = () keeps a __dict__ off every instance.
    assert len(RECORDS) == 27
    wrong = {}
    for record in RECORDS:
        annotated = tuple(inspect.get_annotations(record))
        row = tuple(range(len(annotated)))
        indices = [
            getter.__get__(row, record) if type(getter) is ACCESSOR else getter
            for getter in map(vars(record).get, annotated)
        ]
        slots = vars(record).get("__slots__")
        actual = (issubclass(record, Record), record._fields, indices, slots)
        if actual != (True, annotated, list(row), ()):
            wrong[record.__qualname__] = actual
    assert wrong == {}


def test_a_class_body_value_is_the_field_default():
    class Pair(Record):
        __slots__ = ()
        first: int
        second: str = "none"

    assert (Pair._fields, Pair._field_defaults) == (("first", "second"), {"second": "none"})
    assert Pair(1) == (1, "none") and Pair(1, "b").second == "b"
    assert type(vars(Pair)["second"]) is ACCESSOR


def test_a_record_body_without_slots_gets_empty_slots():
    # Record supplies __slots__ = (), so an instance takes no undeclared attribute
    class Pair(Record):
        first: int
        second: str = "none"

    assert vars(Pair)["__slots__"] == ()
    pair = Pair(1)
    with pytest.raises(AttributeError):
        pair.third = 3
    assert not hasattr(pair, "__dict__")


def test_a_field_without_a_default_after_one_with_a_default_is_rejected():
    with pytest.raises(TypeError, match="'second' has no default"):
        class Pair(Record):
            __slots__ = ()
            first: int = 0
            second: str


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
    "ProjBundleModel-rank": (ProjBundleModel(BaseCurve(0), 3, 2), "rank", 1),
    "ProjBundleModel-c1": (ProjBundleModel(BaseCurve(0), 3, 2), "c1", 2.0),
    "ProjBundleModel-base": (ProjBundleModel(BaseCurve(0), 3, 2), "base", 0),
    "QuadricParams-n": (QuadricParams(0, 3), "n", 2),
    "QuadricParams-g_C": (QuadricParams(0, 3), "g_C", -1),
    "QuadricParams-n-float": (QuadricParams(0, 3), "n", 3.5),
    "QuadricParams-g_C-bool": (QuadricParams(0, 3), "g_C", True),
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


# a valid record of each validating named tuple, by type
VALID = {type(record).__name__: record for record, _, _ in VALIDATING.values()}

# the defaults each record declares, as collections.namedtuple's defaults=
DEFAULTS = {
    "Candidate": (None, None, False),
    "Verdict": ("", "", "", False, False),
    "TableSpec": (tablecli.TableSpec._field_defaults["check"],),
}

# hashable, picklable field values
FIELD_VALUES = (
    st.none() | st.booleans() | st.integers() | st.text(max_size=4) | st.tuples(st.integers())
)


def raised(build):
    try:
        build()
    except Exception as error:
        return type(error)
    return None


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_records_behave_as_the_namedtuple_with_their_fields(record, data):
    fields = tuple(inspect.get_annotations(record))
    oracle = namedtuple(record.__name__, fields, defaults=DEFAULTS.get(record.__name__, ()))
    if record.__name__ in VALID:
        values = tuple(VALID[record.__name__])
        replacement = values[0]
    else:
        values = data.draw(st.tuples(*[FIELD_VALUES] * len(fields)))
        replacement = data.draw(FIELD_VALUES)
    keywords = dict(zip(fields, values))
    built, expected = record(*values), oracle(*values)
    assert type(built) is record and type(record(**keywords)) is record
    assert record(**keywords) == built == expected == values
    assert hash(built) == hash(values)
    required = len(fields) - len(oracle._field_defaults)
    assert record(*values[:required]) == oracle(*values[:required])
    least = dict(zip(fields[:required], values))
    assert record(**least) == oracle(**least) and type(record(**least)) is record
    assert repr(built) == repr(expected)
    assert list(built._asdict().items()) == list(expected._asdict().items())
    made = record._make(values)
    assert made == oracle._make(values) and type(made) is record
    replaced = built._replace(**{fields[0]: replacement})
    assert replaced == expected._replace(**{fields[0]: replacement})
    assert type(replaced) is record
    assert (record._fields, record._field_defaults, record.__match_args__) == (
        oracle._fields, oracle._field_defaults, oracle.__match_args__,
    )
    twins = [copy.copy(built), copy.deepcopy(built)]
    twins += [pickle.loads(pickle.dumps(built, protocol)) for protocol in range(2, 6)]
    assert all(twin == built and type(twin) is record for twin in twins)
    # a missing, extra, unknown or repeated field: the named tuple's TypeError
    for build in (
        lambda cls: cls(**{field: keywords[field] for field in fields[1:]}),
        lambda cls: cls(*values, values[0]),
        lambda cls: cls(*values, not_a_field=0),
        lambda cls: cls(**keywords, not_a_field=0),
        lambda cls: cls(**least, not_a_field=0),
        lambda cls: cls(*values, **{fields[0]: values[0]}),
        lambda cls: cls._make(values[1:]),
    ):
        assert raised(lambda: build(record)) is raised(lambda: build(oracle)) is TypeError
    assert raised(lambda: built._replace(not_a_field=0)) is ValueError
    assert raised(lambda: expected._replace(not_a_field=0)) is ValueError


@pytest.mark.parametrize(
    "record",
    [
        BaseCurve(1),
        SplittingType((0, 1, 1)),
        ProjBundleModel.split((0, 1, 1)),
        ProjBundleModel(BaseCurve(2), 3, -1),
        QuadricParams(1, 4),
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
    assert st.c1 == 4
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
