"""Per-row counts of evens, odds, and primes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .primes import DEFAULT_SEGMENT_CAP, PrimeSegment, prime_count, sieve_segment
from .rowrange import Range, Row, partition_rows


@dataclass(frozen=True)
class RowCensus:
    """Counts for one row: evens, odds, primes, and the total m.

    gamma_even + gamma_odd == m always; 1 counts as odd and not prime.
    """

    gamma_even: int
    gamma_odd: int
    gamma_prime: int
    m: int


def _evens_between(lo: int, hi: int) -> int:
    return hi // 2 - (lo - 1) // 2


def census_row(row: Row, segment: Optional[PrimeSegment] = None) -> RowCensus:
    """Census one row; parity counts by endpoint arithmetic, primes by sieve.

    Pass a segment covering the row to avoid re-sieving when many adjacent
    rows are censused together.
    """
    evens = _evens_between(row.start, row.end)
    if segment is None:
        n_primes = prime_count(row.start, row.end)
    else:
        n_primes = segment.restrict(row.start, row.end).count()
    return RowCensus(evens, row.size - evens, n_primes, row.size)


def census_range(
    rng: Range, width: int, *, cap: int = DEFAULT_SEGMENT_CAP
) -> list[tuple[Row, RowCensus]]:
    """Census every partition row of a range, in ascending order.

    Adjacent rows share one sieve per cap-sized chunk, unless a row is wider.
    """
    rows = partition_rows(rng, width)
    if width > cap:
        return [(row, census_row(row)) for row in rows]
    per_chunk = cap // width
    out = []
    for i in range(0, len(rows), per_chunk):
        chunk = rows[i : i + per_chunk]
        seg = sieve_segment(chunk[0].start, chunk[-1].end, cap=cap)
        out.extend((row, census_row(row, seg)) for row in chunk)
    return out
