"""Prime generation and primality testing.

Every answer is exact: point tests use a Miller-Rabin base set that is
deterministic for all n < 2**64, and interval queries come from a segmented
sieve of Eratosthenes with odd-only marking.  No probabilistic verdicts.

The segmented sieve has one core, ``_odd_digits``: one ASCII digit per odd
integer, ``1`` for not prime, which the sweep reads with ``int(..., 2)`` and
``sieve_segment`` translates into flags.  Strikes assign a repeated 1-byte
bytearray, because CPython first copies any other right-hand side of an
extended-slice assignment into a temporary bytearray.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, islice
from math import isqrt, log
from typing import Iterator

from .errors import InvalidInterval, OutOfBounds, SegmentTooLarge

SEGMENT_CAP = 1 << 26  # max entries per sieved segment
NTH_PRIME_LIMIT = 1 << 32  # largest value nth_prime will sieve toward

_WORD_LIMIT = 1 << 64
_BASE_TABLE_STEP = 1 << 16  # base-prime tables are built in multiples of this
_PRIME_CHUNK = 1 << 16  # integers iter_primes sieves at a time

# Sinclair's bases: Miller-Rabin with these is exact for every n < 2**64.
_MR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

_TINY_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_COMPOSITE = bytearray(b"1")  # the core's not-prime digit; repeated, it strikes a run
_CLEAR = bytearray(1)  # base_primes' not-prime flag, repeated the same way
_PRIME_FLAGS = bytes.maketrans(b"01", b"\1\0")  # core digits -> PrimeSegment flags


def is_prime(n: int) -> bool:
    """Exact primality verdict for 0 <= n < 2**64."""
    if n < 0 or n >= _WORD_LIMIT:
        raise ValueError(f"is_prime domain is [0, 2**64): got {n}")
    if n < 2:
        return False
    for p in _TINY_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d & 1 == 0:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=8)
def base_primes(limit: int) -> tuple[int, ...]:
    """Primes <= limit by a plain sieve; cached as an immutable tuple.

    The package's one small-prime table: the segment sieve, the sweep's
    pair pass and the dc pair search all read it.  Not public API.
    """
    if limit < 2:
        return ()
    odd = bytearray(b"\x01") * ((limit + 1) // 2)  # odd[i]: 2i + 1 is prime
    odd[0] = 0
    for p in range(3, isqrt(limit) + 1, 2):
        if odd[p >> 1]:
            odd[p * p >> 1 :: p] = _CLEAR * ((limit - p * p) // (2 * p) + 1)
    return (2,) + tuple(compress(range(1, limit + 1, 2), odd))


def _odd_digits(first_odd: int, hi: int) -> bytearray:
    """One ASCII digit per odd n in [first_odd, hi], ascending: ``1`` when n
    is not prime, ``0`` when it is.  The package's one segment sieve."""
    if hi >= _WORD_LIMIT:  # the base-prime table alone would need 4 GiB
        raise OutOfBounds(f"sieve domain is [1, 2**64): got hi = {hi}")
    n_odd = (hi - first_odd) // 2 + 1
    digits = bytearray(b"0") * n_odd
    if first_odd == 1:
        digits[0:1] = _COMPOSITE
    # Rounding the table size up lets every segment of a sweep share one
    # cached table; the bisect keeps the extra primes, and 2, out of the loop.
    table = base_primes(-(-isqrt(hi) // _BASE_TABLE_STEP) * _BASE_TABLE_STEP)
    h = first_odd >> 1  # digit index of an odd n is (n >> 1) - h
    for p in islice(table, 1, bisect_right(table, isqrt(hi))):
        # first odd multiple of p to strike: p*p, or the first at or past first_odd
        i = (p * p >> 1) - h if p * p >= first_odd else ((p >> 1) - h) % p
        if i < n_odd:  # large primes often miss a short segment altogether
            digits[i::p] = _COMPOSITE * ((n_odd - 1 - i) // p + 1)
    return digits


@dataclass(frozen=True)
class PrimeSegment:
    """Primality table for a closed interval [lo, hi], one flag per integer.

    flags[k] is 1 exactly when lo + k is prime.  The table is immutable, so
    a segment can be shared freely between workers.
    """

    lo: int
    hi: int
    flags: bytes

    def is_prime_at(self, n: int) -> bool:
        if not self.lo <= n <= self.hi:
            raise InvalidInterval(f"{n} outside segment [{self.lo}, {self.hi}]")
        return bool(self.flags[n - self.lo])

    def count(self) -> int:
        """Number of primes in the segment."""
        return self.flags.count(1)

    def primes(self) -> list[int]:
        return list(compress(range(self.lo, self.hi + 1), self.flags))

    def restrict(self, lo: int, hi: int) -> PrimeSegment:
        """Sub-segment; equal to sieving [lo, hi] directly."""
        if not (self.lo <= lo <= hi <= self.hi):
            raise InvalidInterval(
                f"[{lo}, {hi}] not contained in [{self.lo}, {self.hi}]"
            )
        return PrimeSegment(lo, hi, self.flags[lo - self.lo : hi - self.lo + 1])


def sieve_segment(lo: int, hi: int) -> PrimeSegment:
    """Sieve the closed interval [lo, hi], where 1 <= lo <= hi < 2**64.

    Only odd positions are sieved; even positions other than 2 are
    composite by construction.
    """
    if lo < 1 or lo > hi:
        raise InvalidInterval(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
    span = hi - lo + 1
    if span > SEGMENT_CAP:
        raise SegmentTooLarge(f"span {span} exceeds cap {SEGMENT_CAP}")
    flags = bytearray(span)
    if lo <= 2 <= hi:
        flags[2 - lo] = 1
    first_odd = lo | 1
    flags[first_odd - lo :: 2] = _odd_digits(first_odd, hi).translate(_PRIME_FLAGS)
    return PrimeSegment(lo, hi, bytes(flags))


def iter_segments(lo: int, hi: int, *, cap: int = SEGMENT_CAP) -> Iterator[PrimeSegment]:
    """Yield consecutive cap-sized segments covering [lo, hi]."""
    if lo < 1 or lo > hi:
        raise InvalidInterval(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
    start = lo
    while start <= hi:
        end = min(start + cap - 1, hi)
        yield sieve_segment(start, end)
        start = end + 1


def prime_count(lo: int, hi: int) -> int:
    """Number of primes p with lo <= p <= hi."""
    return sum(seg.count() for seg in iter_segments(lo, hi))


def _nth_prime_bound(x: int) -> int:
    # Rosser: the x-th prime is below x*(ln x + ln ln x) for x >= 6.
    if x < 6:
        return 12
    lx = log(x)
    return int(x * (lx + log(lx))) + 1


def nth_prime(x: int) -> int:
    """The x-th prime in increasing order; nth_prime(1) == 2."""
    if x < 1:
        raise ValueError(f"need x >= 1, got {x}")
    bound = _nth_prime_bound(x)
    if bound > NTH_PRIME_LIMIT:
        raise OutOfBounds(f"prime #{x} would need sieving past {NTH_PRIME_LIMIT}")
    remaining = x
    for seg in iter_segments(1, bound):
        in_seg = seg.count()
        if remaining > in_seg:
            remaining -= in_seg
            continue
        pos = -1
        for _ in range(remaining):
            pos = seg.flags.index(1, pos + 1)
        return seg.lo + pos
    raise OutOfBounds(f"bound {bound} did not reach prime #{x}")


def iter_primes(start: int = 2) -> Iterator[int]:
    """Ascending primes >= start, sieving new segments on demand."""
    lo = max(start, 1)
    while True:
        hi = lo + _PRIME_CHUNK - 1
        yield from sieve_segment(lo, hi).primes()
        lo = hi + 1
