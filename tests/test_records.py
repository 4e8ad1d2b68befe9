"""The record contract: every immutable data class of wild11 behaves alike.

Each record is a slotted subclass of a collections.namedtuple: fields in
annotation order, construction by position or keyword, equality and
hashing by the fields, a repr naming the class, read-only attributes, and
each record's own check run on construction.  FieldSpec is built from
(p, r) alone, so its copies and pickles rebuild through its checks.
"""

import copy
import pickle
from fractions import Fraction
from unittest import mock

import pytest

from wild11 import ffield
from wild11.analysis import AnalysisReport
from wild11.cyclotomic import EigenTraces
from wild11.equivariant import CharPolyResult, FixTally
from wild11.errors import CapabilityError, InconsistencyError
from wild11.ffield import FieldSpec
from wild11.kodaira import KodairaFiber, LatticeSummary
from wild11.surface import FiberPlace, WeierstrassModel

ZERO = (0,) * 10
ONE = (1,) + ZERO[1:]
NIL = ()
T11_MINUS_T = (0, 10) + (0,) * 9 + (1,)
PLACE = FiberPlace(location=3, degree=1, vdelta=2, vc4=0)

# (record class, valid field values in order, the same with one field changed)
SAMPLES = [
    (
        WeierstrassModel,
        (11, "epsilon", 1, NIL, (1,), NIL, NIL, T11_MINUS_T),
        (11, "epsilon", 2, NIL, (2,), NIL, NIL, T11_MINUS_T),
    ),
    (FiberPlace, (3, 1, 2, 0), (3, 1, 2, None)),
    (KodairaFiber, (PLACE, "I2", 2, 2, "A1"), (PLACE, "I2", 2, 2, None)),
    (LatticeSummary, (4, 4, ("A1", "A1")), (4, 4, ("A1",))),
    (
        AnalysisReport,
        ((Fraction(1), Fraction(-1, 11)), 2, 10, ((Fraction(1, 10), 20),)),
        ((Fraction(1), Fraction(1, 11)), 2, 10, ((Fraction(1, 10), 20),)),
    ),
    (FixTally, (11, (133,) * 11), (121, (133,) * 11)),
    (CharPolyResult, (11, (1, 2), (3, 4), ((ONE, ZERO),)), (11, (1, 2), (3, 4), ())),
    (EigenTraces, (11, (ZERO,) * 10), (11, (ONE,) + (ZERO,) * 9)),
]
IDS = [cls.__name__ for cls, _, _ in SAMPLES]


@pytest.mark.parametrize("cls, values, other", SAMPLES, ids=IDS)
def test_fields_are_the_slots_in_annotation_order(cls, values, other):
    assert cls._fields == tuple(cls.__annotations__)
    record = cls(*values)
    assert tuple(getattr(record, name) for name in cls._fields) == values
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("cls, values, other", SAMPLES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, values, other):
    record = cls(*values)
    assert cls(**dict(zip(cls._fields, values))) == record
    assert cls(*values[:1], **dict(zip(cls._fields[1:], values[1:]))) == record


@pytest.mark.parametrize("cls, values, other", SAMPLES, ids=IDS)
def test_construction_needs_every_field_once(cls, values, other):
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    with pytest.raises(TypeError):
        cls(*values, extra=1)
    with pytest.raises(TypeError):
        cls(*values[:-1], **{cls._fields[0]: values[0]})


@pytest.mark.parametrize("cls, values, other", SAMPLES, ids=IDS)
def test_equality_and_hash_follow_the_fields(cls, values, other):
    record = cls(*values)
    same = cls(*values)
    assert record == same and not record != same
    assert hash(record) == hash(same)
    assert record != cls(*other)
    assert len({record, same, cls(*other)}) == 2


@pytest.mark.parametrize("cls, values, other", SAMPLES, ids=IDS)
def test_repr_names_the_class_and_fields(cls, values, other):
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(cls._fields, values))
    assert repr(cls(*values)) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize("cls, values, other", SAMPLES, ids=IDS)
def test_copies_and_pickles_are_equal_records(cls, values, other):
    record = cls(*values)
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record


@pytest.mark.parametrize("cls, values, other", SAMPLES, ids=IDS)
def test_attributes_are_read_only(cls, values, other):
    record = cls(*values)
    name = cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, values[0])
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) == values[0]


def _model(a2) -> WeierstrassModel:
    return WeierstrassModel(11, "epsilon", 1, NIL, a2, NIL, NIL, NIL)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: _model((0,) * 5 + (1,)), ValueError, "deg a2 = 5 exceeds the K3 bound 4"),
        (lambda: _model([1]), TypeError, r"a coefficient in F_p\[t\] is a tuple of ints, got a2 = \[1\]"),
        (lambda: _model((1.0,)), TypeError, r"a coefficient in F_p\[t\] is a tuple of ints"),
        (lambda: _model((-1,)), ValueError, r"a2 = \(-1,\) is not reduced mod 11: entries lie in 0..10"),
        (lambda: _model((11,)), ValueError, r"a2 = \(11,\) is not reduced mod 11"),
        (lambda: _model((1, 0)), ValueError, r"a2 = \(1, 0\) is not reduced mod 11: .* no trailing zero"),
        (lambda: FixTally(q=11, fix=(1, 2, 3)), ValueError, "expected 11 buckets, got 3"),
        (lambda: EigenTraces(q=11, a=(ZERO,) * 9), ValueError, "expected 10 traces, got 9"),
        (
            lambda: EigenTraces(q=11, a=([0] * 10,) + (ZERO,) * 9),
            TypeError,
            r"an element of Z\[zeta\] is a tuple of ints",
        ),
        (
            lambda: EigenTraces(q=11, a=((0,) * 9,) + (ZERO,) * 9),
            ValueError,
            r"an element of Z\[zeta\] has 10 coordinates, got 9",
        ),
        (
            lambda: AnalysisReport((), picard_upper=23, height=1, newton_slopes=()),
            InconsistencyError,
            r"Picard bound 23 outside \[2, 22\]",
        ),
        (
            lambda: AnalysisReport((), picard_upper=22, height=1, newton_slopes=()),
            InconsistencyError,
            "Picard bound 22 inconsistent with height 1",
        ),
    ],
    ids=[
        "model-degree",
        "model-list",
        "model-float",
        "model-negative",
        "model-unreduced",
        "model-trailing-zero",
        "tally-buckets",
        "traces-count",
        "traces-type",
        "traces-length",
        "report-range",
        "report-height",
    ],
)
def test_record_checks_raise_as_before(build, error, message):
    with pytest.raises(error, match=f"^{message}"):
        build()


SPECS = [FieldSpec(11), FieldSpec(11, 2), FieldSpec(2, 4)]
SPEC_IDS = ["F_11", "F_121", "F_16"]


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_field_spec_copies_and_pickles_rebuild_through_new(spec):
    assert FieldSpec._fields == tuple(FieldSpec.__annotations__) and not hasattr(spec, "__dict__")
    for twin in (copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
        assert type(twin) is FieldSpec and twin == spec
    # the copies pass (p, r) to __new__, which reruns the size check
    pickled = pickle.dumps(spec)
    with mock.patch.object(ffield, "Q_LIMIT", spec.q - 1):
        for rebuild in (lambda: pickle.loads(pickled), lambda: copy.copy(spec), lambda: copy.deepcopy(spec)):
            with pytest.raises(CapabilityError, match="exceeds the supported limit"):
                rebuild()


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_field_spec_equals_and_hashes_like_its_fields(spec):
    fields = (spec.p, spec.r, spec.q, spec.modulus)
    assert spec == fields and hash(spec) == hash(fields)
    assert spec == FieldSpec(spec.p, spec.r) and hash(spec) == hash(FieldSpec(spec.p, spec.r))
    assert len({spec, FieldSpec(spec.p, spec.r), FieldSpec(3)}) == 2


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_field_spec_attributes_are_read_only(spec):
    for name in FieldSpec._fields:
        with pytest.raises(AttributeError):
            setattr(spec, name, getattr(spec, name))
    with pytest.raises(AttributeError):
        spec.not_a_field = 1
