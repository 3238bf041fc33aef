"""The contract of the public records: immutable values, compared, hashed,
printed, copied and pickled by their fields, with no per-instance dict."""

import copy
import inspect
import pickle

import pytest

from goldbach_lab import (
    AuditReport,
    DcResult,
    EvenAudit,
    PrimeSegment,
    Range,
    RangeAudit,
    RelationCheck,
    Row,
    RowCensus,
    SweepCheckpoint,
    SweepSummary,
    ValidationVerdict,
    sieve_segment,
)

T0 = "2024-01-01T00:00:00Z"
CHECK = RelationCheck("A1", 5, 5, True)
CENSUS = RowCensus(5, 5, 4, 10)
REPORT = AuditReport(Row(1, 10), CENSUS, (CHECK,), ())

# class, its arguments, the same class with one field changed, and the repr
RECORDS = [
    (PrimeSegment, (2, 10, b"0001"), (2, 10, b"0011"),
     "PrimeSegment(lo=2, hi=10, digits=b'0001')"),
    (Row, (1, 5), (1, 6), "Row(start=1, end=5)"),
    (Range, (1, 10), (2, 10), "Range(start=1, end=10)"),
    (ValidationVerdict, (True, (), Row(1, 3)), (True, (), Row(1, 4)),
     "ValidationVerdict(accepted=True, violations=(), subject=Row(start=1, end=3))"),
    (DcResult, (4, 2, (2, 2)), (6, 2, (3, 3)), "DcResult(target=4, value=2, witness=(2, 2))"),
    (RowCensus, (5, 5, 4, 10), (5, 5, 3, 10),
     "RowCensus(gamma_even=5, gamma_odd=5, gamma_prime=4, m=10)"),
    (SweepCheckpoint, (1, 4, 100, 50, (), T0, T0), (1, 4, 100, 52, (), T0, T0),
     "SweepCheckpoint(version=1, from_even=4, to_even=100, last_verified=50, failures=(), "
     f"started_at='{T0}', updated_at='{T0}')"),
    (SweepSummary, (4, 100, 49, (), 0.5), (4, 100, 49, (), 0.5, 50),
     "SweepSummary(from_even=4, to_even=100, verified=49, failures=(), elapsed_seconds=0.5, "
     "resumed_from=None)"),
    (RelationCheck, ("A1", 5, 5, True), ("A1", 5, 5, True, "rewritten"),
     "RelationCheck(relation_id='A1', lhs_value=5, rhs_value=5, holds=True, detail='')"),
    (EvenAudit, (4, 2, (CHECK,)), (6, 2, (CHECK,)),
     f"EvenAudit(target=4, dc_value=2, checks=({CHECK!r},))"),
    (AuditReport, (Row(1, 10), CENSUS, (CHECK,), ()), (Row(1, 10), CENSUS, (), ()),
     f"AuditReport(row=Row(start=1, end=10), census={CENSUS!r}, row_checks=({CHECK!r},), "
     "even_checks=())"),
    (RangeAudit, ((REPORT,), {"A1": {"holds": 1}}), ((REPORT,), {"A1": {"holds": 2}}),
     f"RangeAudit(reports=({REPORT!r},), summary={{'A1': {{'holds': 1}}}})"),
]
UNHASHABLE = {RangeAudit}  # its summary is a dict
IDS = [case[0].__name__ for case in RECORDS]


@pytest.mark.parametrize("cls, args, other, text", RECORDS, ids=IDS)
def test_equal_and_hashed_by_value(cls, args, other, text):
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b
    assert a != cls(*other)
    assert a != args and a is not None
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b, cls(*other)}) == 2


def test_equal_only_within_one_class():
    assert Row(1, 5) != Range(1, 5)
    assert Range(1, 5) != Row(1, 5)
    assert len({Row(1, 5), Range(1, 5)}) == 2


def test_a_sieved_segment_equals_its_record():
    assert sieve_segment(2, 10) == PrimeSegment(2, 10, b"0001")


@pytest.mark.parametrize("cls, args, other, text", RECORDS, ids=IDS)
def test_repr_names_every_field(cls, args, other, text):
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("cls, args, other, text", RECORDS, ids=IDS)
def test_fields_can_be_neither_assigned_nor_deleted(cls, args, other, text):
    a = cls(*args)
    for name in inspect.signature(cls).parameters:
        before = getattr(a, name)
        with pytest.raises(AttributeError):
            setattr(a, name, before)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) is before
    with pytest.raises(AttributeError):
        a.unknown = 1


@pytest.mark.parametrize("cls, args, other, text", RECORDS, ids=IDS)
def test_copy_deepcopy_and_pickle_round_trip(cls, args, other, text):
    a = cls(*args)
    copies = [copy.copy(a), copy.deepcopy(a)]
    copies += [pickle.loads(pickle.dumps(a, protocol)) for protocol in (0, pickle.HIGHEST_PROTOCOL)]
    for c in copies:
        assert type(c) is cls
        assert c == a
        assert repr(c) == text


@pytest.mark.parametrize("cls, args, other, text", RECORDS, ids=IDS)
def test_instances_have_no_dict(cls, args, other, text):
    assert not hasattr(cls(*args), "__dict__")


@pytest.mark.parametrize("cls, args, other, text", RECORDS, ids=IDS)
def test_signature_lists_the_fields_in_store_order(cls, args, other, text):
    names = tuple(inspect.signature(cls).parameters)
    assert names == cls.__match_args__
    distinct = range(1, len(names) + 1)  # also 1 <= start <= end for an interval
    a = cls(**dict(reversed(list(zip(names, distinct)))))
    assert a == cls(*distinct)
    assert [getattr(a, name) for name in names] == list(distinct)
