"""Consecutive-interval set machinery: rows, ranges, validation, partitioning.

A Row is a finite run of consecutive naturals; a Range is a larger run that
tiles exactly into Rows.  Both are stored by endpoints only, which keeps
sweeps over hundreds of millions of integers cheap.
"""

from __future__ import annotations

from typing import Sequence, Union

from ._record import Record
from .errors import (
    EmptyCandidate,
    NonDivisibleWidth,
    OverlappingRows,
    WidthExceedsRange,
)


class _Interval(Record):
    """The consecutive naturals {start, ..., end}, stored by endpoints only."""

    __slots__ = ("start", "end")

    def __init__(self, start: int, end: int) -> None:
        if not 1 <= start <= end:
            raise ValueError(f"need 1 <= start <= end, got ({start}, {end})")
        self._store(start, end)

    @property
    def size(self) -> int:
        """Element count (the cardinality: d for a row, D for a range)."""
        return self.end - self.start + 1

    def elements(self) -> range:
        return range(self.start, self.end + 1)


class Row(_Interval):
    """The consecutive naturals {start, start+1, ..., end}."""

    __slots__ = ()


class Range(_Interval):
    """The consecutive naturals {start, ..., end}; partitions into Rows."""

    __slots__ = ()


class ValidationVerdict(Record):
    """Outcome of row/range validation.

    ``violations`` holds (property label, reason) pairs; ``accepted`` is true
    exactly when it is empty.  ``subject`` is the reconstructed interval and
    is present only on acceptance.
    """

    __slots__ = ("accepted", "violations", "subject")

    def __init__(
        self, accepted: bool, violations: tuple[tuple[str, str], ...],
        subject: Union[Row, Range, None] = None,
    ) -> None:
        self._store(accepted, violations, subject)


def _checked(candidate: Sequence[int]) -> list[int]:
    values = list(candidate)
    if not values:
        raise EmptyCandidate("candidate sequence is empty")
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ValueError(f"candidate elements must be naturals >= 1, got {v!r}")
    return values


#: Reason reported for each property a candidate can fail.
_REASONS = {
    "unique_min": "smallest element is not unique",
    "unique_max": "greatest element is not unique",
    "ascending": "elements are not in ascending order",
    "unit_step": "elements do not step by exactly one",
}
#: (property, label) pairs in report order, one table per interval kind.
ROW_PROPERTY_LABELS = (
    ("unique_min", "II"), ("unique_max", "II"), ("ascending", "III"), ("unit_step", "IV")
)
RANGE_PROPERTY_LABELS = (
    ("unique_min", "[4]"), ("unique_max", "[4]"), ("unit_step", "[5]"), ("ascending", "[6]")
)


def _validate(
    candidate: Sequence[int], labels: tuple[tuple[str, str], ...], kind: type[_Interval]
) -> ValidationVerdict:
    values = _checked(candidate)
    distinct = sorted(set(values))
    failed = {
        "unique_min": values.count(min(values)) > 1,
        "unique_max": len(values) > 1 and values.count(max(values)) > 1,
        "ascending": any(a >= b for a, b in zip(values, values[1:])),
        "unit_step": any(b - a != 1 for a, b in zip(distinct, distinct[1:])),
    }
    violations = tuple((label, _REASONS[prop]) for prop, label in labels if failed[prop])
    if violations:
        return ValidationVerdict(False, violations)
    return ValidationVerdict(True, (), kind(values[0], values[-1]))


def validate_row(candidate: Sequence[int]) -> ValidationVerdict:
    """Check the four row properties on an explicit element sequence.

    Property II asks for unique extremes, III for ascending order as given,
    IV for unit steps between the sorted elements.  Property I (finite subset
    of the naturals) holds for any sequence that passes the preconditions.
    All violated properties are reported, not just the first.
    """
    return _validate(candidate, ROW_PROPERTY_LABELS, Row)


def validate_range(candidate: Sequence[int]) -> ValidationVerdict:
    """Check the six range properties; labels use the bracketed names.

    [1] (subset of the naturals), [2] (contains a row; a single element is a
    degenerate row) and [3] (finite cardinality) hold for any sequence that
    passes the preconditions, so only [4]-[6] can appear as violations.
    """
    return _validate(candidate, RANGE_PROPERTY_LABELS, Range)


def _check_width(rng: Range, width: int) -> None:
    """Refuse a row width that does not tile the range exactly."""
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    if width > rng.size:
        raise WidthExceedsRange(f"width {width} exceeds range size {rng.size}")
    if rng.size % width:
        raise NonDivisibleWidth(f"width {width} does not divide size {rng.size}")


def partition_rows(rng: Range, width: int) -> list[Row]:
    """Split a range into successive rows of equal width, in ascending order.

    The width must divide the range cardinality exactly; a ragged final row
    would break the even/odd balance downstream consumers rely on.
    """
    _check_width(rng, width)
    return [Row(s, s + width - 1) for s in range(rng.start, rng.end + 1, width)]


def successor_offset(a: Row, b: Row) -> int:
    """Signed gap b.start - a.end between two disjoint rows.

    An offset of 1 means b is the successive row of a.  Disjoint rows always
    give a nonzero offset; a negative value means b lies before a.
    """
    if a.start <= b.end and b.start <= a.end:
        raise OverlappingRows(
            f"rows [{a.start}, {a.end}] and [{b.start}, {b.end}] intersect"
        )
    return b.start - a.end
