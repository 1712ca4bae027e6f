"""The value semantics of the package's record types.

Every record takes its fields positionally or by keyword, normalises them
in ``__post_init__``, compares equal only to a record of the same class
with equal fields, hashes as its field tuple, refuses assignment and
deletion, and prints as ``Name(field=value, ...)``.
"""

from fractions import Fraction as F

import pytest

from circuitdual.family import CounterexampleVerdict, FamilyParam, SignScanReport
from circuitdual.moments import MomentSeq, MomentVerdict
from circuitdual.operators import (
    ConstantTail,
    OperatorReport,
    ReciprocalXiTail,
    SquaredWeights,
    XiTail,
)
from circuitdual.oracle import BandedOp

WEIGHTS = SquaredWeights((F(1, 2), F(1)), XiTail(F(5, 4)))
REPORT = OperatorReport(
    norm_sq=F(5, 4),
    lower_bound_sq=F(1, 2),
    bounded=True,
    cyclic_sufficient=True,
    two_isometry_residuals=(F(0), F(0)),
)
VERDICT = MomentVerdict("fail", "hausdorff", 5, 6, (5, 1), F(-1, 7))

# each class with its fields, in declaration order, and values already in
# normal form, so that the constructed record reads them back unchanged
CASES = [
    (FamilyParam, {"x": F(1, 3)}),
    (
        SignScanReport,
        {
            "m": 5,
            "x_max": F(1, 10),
            "steps": 2,
            "signs": (-1, 1),
            "negative_prefix": 1,
            "first_nonnegative": F(1, 10),
            "bracket": (F(1, 20), F(1, 10)),
        },
    ),
    (
        CounterexampleVerdict,
        {
            "x": F(1, 10),
            "report": REPORT,
            "residual_depth": 10,
            "moments": (F(1), F(2, 3)),
            "closed_form_agrees": True,
            "hausdorff": VERDICT,
        },
    ),
    (MomentSeq, {"values": (F(1), F(1, 2), F(1, 3))}),
    (
        MomentVerdict,
        {
            "status": "fail",
            "mode": "stieltjes",
            "depth": 2,
            "top_index": 4,
            "witness": ("hankel", 0, 2),
            "detail": F(-1, 12),
        },
    ),
    (ConstantTail, {"value": F(1, 2)}),
    (XiTail, {"w2sq": F(5, 4)}),
    (ReciprocalXiTail, {"w2sq": F(5, 4)}),
    (SquaredWeights, {"head": (F(1, 2), F(1), F(5, 4)), "tail": XiTail(F(5, 4))}),
    (
        OperatorReport,
        {
            "norm_sq": F(2),
            "lower_bound_sq": F(1, 2),
            "bounded": True,
            "cyclic_sufficient": False,
            "two_isometry_residuals": (F(0), F(1, 4)),
        },
    ),
    (BandedOp, {"weights": WEIGHTS, "size": 4}),
]
IDS = [cls.__name__ for cls, _ in CASES]


def field_tuple(record, names):
    return tuple(getattr(record, name) for name in names)


@pytest.mark.parametrize("cls, fields", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, fields):
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    assert by_position == by_keyword
    assert field_tuple(by_position, fields) == tuple(fields.values())
    assert field_tuple(by_keyword, fields) == tuple(fields.values())


@pytest.mark.parametrize("cls, fields", CASES, ids=IDS)
def test_equal_records_hash_as_their_field_tuple(cls, fields):
    a, b = cls(*fields.values()), cls(**fields)
    assert a is not b
    assert hash(a) == hash(b) == hash(tuple(fields.values()))
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls, fields", CASES, ids=IDS)
def test_records_with_different_fields_differ(cls, fields):
    record = cls(**fields)
    name = next(iter(fields))
    other = dict(fields)
    other[name] = {
        FamilyParam: F(1, 5),
        SignScanReport: 6,
        CounterexampleVerdict: F(1, 20),
        MomentSeq: (F(1), F(1, 2)),
        MomentVerdict: "pass",
        ConstantTail: F(2),
        XiTail: F(3, 2),
        ReciprocalXiTail: F(3, 2),
        SquaredWeights: (F(1, 2), F(2), F(5, 4)),
        OperatorReport: F(3),
        BandedOp: SquaredWeights((F(1), F(1)), ConstantTail(1)),
    }[cls]
    assert record != cls(**other)
    assert record != tuple(fields.values())


@pytest.mark.parametrize("cls, fields", CASES, ids=IDS)
def test_records_are_frozen(cls, fields):
    record = cls(**fields)
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert field_tuple(record, fields) == tuple(fields.values())


@pytest.mark.parametrize("cls, fields", CASES, ids=IDS)
def test_repr_names_every_field(cls, fields):
    body = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({body})"


@pytest.mark.parametrize("cls, fields", CASES, ids=IDS)
def test_bad_argument_lists_raise_type_error(cls, fields):
    values = tuple(fields.values())
    first = next(iter(fields))
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*values, bogus=1)
    with pytest.raises(TypeError):
        cls(*values, **{first: values[0]})
    with pytest.raises(TypeError):
        cls(*values, values[0])


def test_repr_text():
    assert repr(FamilyParam(F(1, 3))) == "FamilyParam(x=Fraction(1, 3))"
    assert repr(ConstantTail(1)) == "ConstantTail(value=Fraction(1, 1))"
    assert repr(MomentVerdict("pass", "hausdorff", 3, 4)) == (
        "MomentVerdict(status='pass', mode='hausdorff', depth=3, top_index=4, "
        "witness=None, detail=None)"
    )


def test_moment_verdict_defaults():
    verdict = MomentVerdict("pass", "hausdorff", 3, 4)
    assert verdict.witness is None and verdict.detail is None
    assert verdict == MomentVerdict("pass", "hausdorff", 3, 4, None, None)
    assert MomentVerdict(
        status="fail", mode="hausdorff", depth=3, top_index=4, detail=F(-1)
    ).detail == F(-1)


def test_equality_needs_the_same_class():
    assert ConstantTail(1) != XiTail(1)
    assert XiTail(F(5, 4)) != ReciprocalXiTail(F(5, 4))
    assert hash(XiTail(F(5, 4))) == hash(ReciprocalXiTail(F(5, 4)))
    assert len({XiTail(F(5, 4)), ReciprocalXiTail(F(5, 4))}) == 2
    assert ConstantTail(1) != (F(1),)


def test_post_init_coerces_fields():
    assert type(FamilyParam(1).x) is F and FamilyParam(1).x == 1
    assert FamilyParam(x=F(2, 4)) == FamilyParam(F(1, 2))
    with pytest.raises(TypeError, match="floats are not allowed"):
        FamilyParam(x=0.5)
    assert type(ConstantTail(2).value) is F
    assert type(XiTail(2).w2sq) is F and type(ReciprocalXiTail(2).w2sq) is F
    w = SquaredWeights([1, F(1, 2)], ConstantTail(1))
    assert w.head == (F(1), F(1, 2)) and all(type(v) is F for v in w.head)
    assert MomentSeq.exact([1, 2]) == MomentSeq((F(1), F(2)))


def test_post_init_rejects_bad_fields():
    with pytest.raises(ValueError):
        FamilyParam(-1)
    with pytest.raises(ValueError):
        ConstantTail(-1)
    with pytest.raises(ValueError):
        XiTail(F(1, 2))
    with pytest.raises(ValueError):
        ReciprocalXiTail(F(1, 2))
    with pytest.raises(ValueError, match="conflicts with the tail rule"):
        SquaredWeights((F(1), F(1), F(3)), XiTail(F(2)))
    with pytest.raises(ValueError):
        MomentSeq(())
    with pytest.raises(TypeError):
        MomentSeq((F(1), 1.0))
    with pytest.raises(ValueError):
        BandedOp(WEIGHTS, 1)


def test_extra_attributes_set_in_post_init():
    op = BandedOp(WEIGHTS, 4)
    assert op._sq == tuple((v.numerator, v.denominator) for v in WEIGHTS.prefix(4))
    assert op == BandedOp(WEIGHTS, 4) and hash(op) == hash((WEIGHTS, 4))
    assert "_sq" not in repr(op)
