"""Per-row counts of evens, odds, and primes, from the package's one row walk:
``_census_groups`` hands over (start, end, rendered) as each row ends, where
rendered is the caller's render of the row's census; the audit's walk does too."""

from __future__ import annotations

from math import isqrt
from typing import Any, Callable, Iterator

from ._record import Record
from .primes import _base_table, iter_segments
from .rowrange import Range, Row, _check_width


class RowCensus(Record):
    """Counts for one row: evens, odds, primes, and the total m.

    gamma_even + gamma_odd == m always; 1 counts as odd and not prime.
    """

    __slots__ = ("gamma_even", "gamma_odd", "gamma_prime", "m")

    def __init__(self, gamma_even: int, gamma_odd: int, gamma_prime: int, m: int) -> None:
        self._store(gamma_even, gamma_odd, gamma_prime, m)


def census_row(row: Row) -> RowCensus:
    """Census one row: the one-row case of ``census_range``."""
    return census_range(Range(row.start, row.end), row.size)[0][1]


def census_range(rng: Range, width: int) -> list[tuple[Row, RowCensus]]:
    """Census every partition row of a range, in ascending order; rows with
    equal counts share one ``RowCensus``."""
    return [(Row(start, end), c) for start, end, c in _census_groups(rng, width)(lambda c: c)]


def _census_groups(rng: Range, width: int) -> Callable:
    """Check a census of every partition row of a range, and return its walk.

    The refusals run at the call.  walk(render) walks the range afresh and
    yields (start, end, render(census)) as each row ends: each distinct census
    is one ``RowCensus``, rendered once, at its first row.

    Parity counts come from endpoint arithmetic: row k has the evens of row
    k % 2.  Primes come from one walk of sieve segments over the range,
    counted on the sieve core's digit per odd (``primes.iter_segments``):
    each row counts the digits between its edges in every segment it
    overlaps, so a row may span several segments.
    """
    start, stop = rng.start, rng.end
    iter_segments(start, stop)  # refuses a span past 2**64 before any row
    _check_width(rng, width)  # refuses a width that does not tile the range
    _base_table(isqrt(stop))  # refuses a span past the table cap
    keys = [((s + width - 1) // 2 - (s - 1) // 2) * (width + 1) for s in (start, start + width)]
    row_of_two = (2 - start) // width if start <= 2 else -1  # the row of the one even prime

    def walk(render: Callable[[RowCensus], Any]) -> Iterator[tuple[int, int, Any]]:
        rendered: dict[int, Any] = {}  # evens * (width + 1) + primes -> the group's render
        carried = 0  # primes of the row that an earlier segment ended inside
        for seg in iter_segments(start, stop):
            count, h = seg.digits.count, seg.lo >> 1  # the digit of an odd n is (n >> 1) - h
            first, cut = (seg.lo - start) // width, 0  # the row holding seg.lo, and its first digit
            next_starts = range(start + (first + 1) * width, seg.hi + 2, width)
            for k, next_start in enumerate(next_starts, first):  # the rows that end in seg
                end_cut = (next_start >> 1) - h
                key = keys[k & 1] + carried + count(b"0", cut, end_cut) + (k == row_of_two)
                carried, cut = 0, end_cut
                text = rendered.get(key)
                if text is None:
                    e, n = divmod(key, width + 1)
                    text = rendered[key] = render(RowCensus(e, width - e, n, width))
                yield next_start - width, next_start - 1, text
            carried += count(b"0", cut)  # a row that goes on past seg.hi
            del seg, count  # so that the next window is sieved without this one
    return walk
