"""Per-row counts of evens, odds, and primes."""

from __future__ import annotations

from ._record import Record
from .primes import iter_segments
from .rowrange import Range, Row, partition_rows


class RowCensus(Record):
    """Counts for one row: evens, odds, primes, and the total m.

    gamma_even + gamma_odd == m always; 1 counts as odd and not prime.
    """

    __slots__ = ("gamma_even", "gamma_odd", "gamma_prime", "m")

    def __init__(self, gamma_even: int, gamma_odd: int, gamma_prime: int, m: int) -> None:
        self._store(gamma_even, gamma_odd, gamma_prime, m)


def _evens_between(lo: int, hi: int) -> int:
    return hi // 2 - (lo - 1) // 2


def census_row(row: Row) -> RowCensus:
    """Census one row: the one-row case of ``census_range``."""
    return census_range(Range(row.start, row.end), row.size)[0][1]


def census_range(rng: Range, width: int) -> list[tuple[Row, RowCensus]]:
    """Census every partition row of a range, in ascending order.

    Parity counts come from endpoint arithmetic.  Primes come from one walk
    of sieve segments over the range, counted on the sieve core's digit
    per odd (``primes.iter_segments``): each row adds the primes of every
    segment it overlaps, so a row may span several segments.
    """
    segments = iter_segments(rng.start, rng.end)  # refuses a span past 2**64 before any row
    rows = partition_rows(rng, width)
    n_primes = [0] * len(rows)
    for seg in segments:
        for i in range((seg.lo - rng.start) // width, (seg.hi - rng.start) // width + 1):
            lo = rng.start + i * width
            n_primes[i] += seg.count(max(lo, seg.lo), min(lo + width - 1, seg.hi))
    out = []
    for row, primes in zip(rows, n_primes):
        evens = _evens_between(row.start, row.end)
        out.append((row, RowCensus(evens, width - evens, primes, width)))
    return out
