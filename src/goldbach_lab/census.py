"""Per-row counts of evens, odds, and primes."""

from __future__ import annotations

from array import array
from typing import Iterator

from ._record import Record
from .primes import iter_segments
from .rowrange import Range, Row, _check_width


class RowCensus(Record):
    """Counts for one row: evens, odds, primes, and the total m.

    gamma_even + gamma_odd == m always; 1 counts as odd and not prime.
    """

    __slots__ = ("gamma_even", "gamma_odd", "gamma_prime", "m")

    def __init__(self, gamma_even: int, gamma_odd: int, gamma_prime: int, m: int) -> None:
        self._store(gamma_even, gamma_odd, gamma_prime, m)


class _CensusGroups(Record):
    """The rows of a range grouped by census, with no record per row.

    Row k is [start + k * width, start + (k + 1) * width - 1] and its census
    is ``censuses[index[k]]``: ``index`` holds one group index per row, and
    each distinct census is one ``RowCensus``, in order of first row.
    """

    __slots__ = ("start", "width", "censuses", "index")

    def __init__(self, start: int, width: int, censuses: list[RowCensus], index: array) -> None:
        self._store(start, width, censuses, index)

    def rows(self) -> Iterator[tuple[int, int, int]]:
        """(start, end, group index) of each row, in row order."""
        start, width = self.start, self.width
        stop = start + len(self.index) * width
        return zip(range(start, stop, width), range(start + width - 1, stop, width), self.index)


def _evens_between(lo: int, hi: int) -> int:
    return hi // 2 - (lo - 1) // 2


def census_row(row: Row) -> RowCensus:
    """Census one row: the one-row case of ``census_range``."""
    return census_range(Range(row.start, row.end), row.size)[0][1]


def census_range(rng: Range, width: int) -> list[tuple[Row, RowCensus]]:
    """Census every partition row of a range, in ascending order; rows with
    equal counts share one ``RowCensus``."""
    groups = _census_groups(rng, width)
    return [(Row(start, end), groups.censuses[g]) for start, end, g in groups.rows()]


def _census_groups(rng: Range, width: int) -> _CensusGroups:
    """The census of every partition row of a range, by census group.

    Parity counts come from endpoint arithmetic: row k has the evens of row
    k % 2.  Primes come from one walk of sieve segments over the range,
    counted on the sieve core's digit per odd (``primes.iter_segments``):
    each row counts the digits between its edges in every segment it
    overlaps, so a row may span several segments.
    """
    start = rng.start
    segments = iter_segments(start, rng.end)  # refuses a span past 2**64 before any row
    _check_width(rng, width)
    evens = [_evens_between(s, s + width - 1) for s in (start, start + width)]
    row_of_two = (2 - start) // width if start <= 2 else -1  # the row of the one even prime
    groups: dict[tuple[int, int], int] = {}  # (evens, primes) -> group index
    index = array("I")
    carried = 0  # primes of the row that an earlier segment ended inside
    for seg in segments:
        count, h = seg.digits.count, seg.lo >> 1  # the digit of an odd n is (n >> 1) - h
        first, cut = (seg.lo - start) // width, 0  # the row holding seg.lo, and its first digit
        next_starts = range(start + (first + 1) * width, seg.hi + 2, width)
        for k, next_start in enumerate(next_starts, first):  # the rows that end in seg
            end_cut = (next_start >> 1) - h
            n = carried + count(b"0", cut, end_cut) + (k == row_of_two)
            carried, cut = 0, end_cut
            index.append(groups.setdefault((evens[k % 2], n), len(groups)))
        carried += count(b"0", cut)  # a row that goes on past seg.hi
    censuses = [RowCensus(e, width - e, n, width) for e, n in groups]
    return _CensusGroups(start, width, censuses, index)
