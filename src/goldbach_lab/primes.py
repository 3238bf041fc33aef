"""Prime generation and primality testing.

Every answer is exact: point tests use a Miller-Rabin base set that is
deterministic for all n < 2**64, and interval queries come from a segmented
sieve of Eratosthenes with odd-only marking.  No probabilistic verdicts.

The segmented sieve has one core, ``_odd_digits``: one ASCII digit per odd
integer, ``1`` for not prime.  The sweep reads the digits with
``int(..., 2)``; everything else reads them through ``PrimeSegment``, the
one segment type, which holds them as they are and counts, tests and lists
primes on them.

Past 13 the core starts from the strikes of the wheel primes 3, 5, 7, 11
and 13, which repeat every 15015 odds: one cached pattern, rotated to the
window and repeated (the pre-sieve of primesieve, Walisch,
https://github.com/kimwalisch/primesieve).  The other base primes strike
in three loops split by bisection, so that none tests a condition per
prime: primes below the square root of the window's first odd that are at
most its number of odds, which always strike; larger such primes, which
strike at most once; and primes whose square is in the window, which
strike from it.  Strikes assign a repeated 1-byte bytearray, prebuilt for
runs shorter than ``_SHORT_RUN``, because CPython first copies any other
right-hand side of an extended-slice assignment into a temporary
bytearray; the always-strike loop is cut in two where its runs become
short, so that neither half tests the length.

In a window of two or more chunks of ``_CHUNK`` odds, the always-strike
primes up to ``_CHUNK_PRIMES`` strike first, one chunk at a time, carrying
each prime's next index to the next chunk, so that their many strikes land
in a cache-sized buffer, as in the segmented sieves of Oliveira e Silva,
Herzog & Pardi (Math. Comp. 83 (2014) 2033-2060) and primesieve; on the
5,000,000-odd window of a census of 10^7 integers at 10^12 that halves
their time.  A narrower window stays one pass, where chunks cost more than
they save.  The base primes come from ``_base_table``, one table per process.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import compress, islice
from math import isqrt, log
from typing import Iterator

from ._record import Record
from .errors import InvalidInterval, OutOfBounds, SegmentTooLarge

SEGMENT_CAP = 1 << 26  # max entries per sieved segment
NTH_PRIME_LIMIT = 1 << 32  # largest value nth_prime will sieve toward

_WORD_LIMIT = 1 << 64
_BASE_TABLE_STEP = 1 << 16  # base-prime tables are built in multiples of this
_BASE_TABLE_CAP = 1 << 27  # the largest table bound; building the table to it peaks at 452 MiB
_table: tuple[int, ...] = ()  # the process's base-prime table: every prime <= _table_limit
_table_limit = 0
_PRIME_CHUNK = 1 << 16  # integers iter_primes sieves, and nth_prime counts, at a time
_CHUNK = 1 << 20  # odds struck at a time by the small primes of a window of two or more
_CHUNK_PRIMES = 1 << 14  # the small primes: each strikes a chunk at least 64 times

# Sinclair's bases: Miller-Rabin with these is exact for every n < 2**64.
_MR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

_TINY_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_COMPOSITE = bytearray(b"1")  # the core's not-prime digit; repeated, it strikes a run
_COMPOSITE_DIGIT = _COMPOSITE[0]  # the same digit, as an int, to strike one byte
_SHORT_RUN = 64  # strike runs shorter than this are built once, here
_RUNS = tuple(_COMPOSITE * k for k in range(_SHORT_RUN))
_WHEEL_PRIMES = (3, 5, 7, 11, 13)  # struck by one repeating pattern, not one by one
_WHEEL = 3 * 5 * 7 * 11 * 13  # the pattern's period, in odds
_CLEAR = bytearray(1)  # base_primes' not-prime flag, repeated the same way
_PRIME_FLAGS = bytes.maketrans(b"01", b"\1\0")  # core digits -> primes() selectors


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


def base_primes(limit: int) -> tuple[int, ...]:
    """Primes <= limit by a plain sieve; ``_base_table`` keeps the one table."""
    if limit < 2:
        return ()
    odd = bytearray(b"\x01") * ((limit + 1) // 2)  # odd[i]: 2i + 1 is prime
    odd[0] = 0
    for p in range(3, isqrt(limit) + 1, 2):
        if odd[p >> 1]:
            odd[p * p >> 1 :: p] = _CLEAR * ((limit - p * p) // (2 * p) + 1)
    return (2,) + tuple(compress(range(1, limit + 1, 2), odd))


def _base_table(bound: int) -> tuple[int, ...]:
    """The process's one base-prime table: every prime <= bound, and for any
    bound >= 1 every prime up to _BASE_TABLE_STEP.  A bound past it rebuilds
    it up to the next multiple of that step; it never shrinks.  A bound past
    _BASE_TABLE_CAP is refused before anything is built."""
    global _table, _table_limit
    if bound > _table_limit:
        if bound > _BASE_TABLE_CAP:
            cap = f"2**{_BASE_TABLE_CAP.bit_length() - 1}"
            raise OutOfBounds(
                f"base primes to {bound} pass the table cap {cap}: the sieve domain is "
                f"[1, ({cap} + 1)**2)"
            )
        limit = -(-bound // _BASE_TABLE_STEP) * _BASE_TABLE_STEP
        _table, _table_limit = base_primes(limit), limit
    return _table


def _wheel_digits() -> bytes:
    """The core's digits for the odds 1, 3, ..., 2 * _WHEEL - 1 with only the
    wheel primes struck, themselves included; they repeat every _WHEEL odds."""
    digits = bytearray(b"0") * _WHEEL
    for p in _WHEEL_PRIMES:
        digits[p >> 1 :: p] = _COMPOSITE * ((_WHEEL - 1 - (p >> 1)) // p + 1)
    return bytes(digits)


_WHEEL_DIGITS = _wheel_digits()


def _odd_digits(first_odd: int, hi: int) -> bytearray:
    """One ASCII digit per odd n in [first_odd, hi], ascending: ``1`` when n
    is not prime, ``0`` when it is.  The package's one segment sieve."""
    if hi >= _WORD_LIMIT:  # the base-prime table alone would need 4 GiB
        raise OutOfBounds(f"sieve domain is [1, 2**64): got hi = {hi}")
    n_odd = (hi - first_odd) // 2 + 1
    h = first_odd >> 1  # digit index of an odd n is (n >> 1) - h
    if first_odd > _WHEEL_PRIMES[-1]:  # no wheel prime is in the window
        r = h % _WHEEL
        digits = bytearray(_WHEEL_DIGITS[r:] + _WHEEL_DIGITS[:r]) * (n_odd // _WHEEL + 1)
        del digits[n_odd:]
        start = len(_WHEEL_PRIMES) + 1  # table index of the first prime past the wheel
    else:
        digits = bytearray(b"0") * n_odd
        if first_odd == 1:
            digits[0:1] = _COMPOSITE
        start = 1
    table = _base_table(isqrt(hi))  # the bisects keep its extra primes, and 2, out of the loops
    top = bisect_right(table, isqrt(hi))
    squares_in = bisect_right(table, isqrt(first_odd - 1), start, top)
    may_miss = bisect_right(table, n_odd, start, squares_in)
    last = n_odd - 1
    # Below squares_in, p * p < first_odd and the first strike is the first
    # odd multiple of p at or past first_odd; from may_miss on, p > n_odd, so
    # p strikes at most once and may miss the window.  From squares_in on,
    # the first strike is p * p, which is at most hi.
    small = start
    if n_odd >= 2 * _CHUNK:  # the small primes strike one cached chunk at a time
        small = bisect_right(table, _CHUNK_PRIMES, start, may_miss)
        primes = table[start:small]
        strikes = [((p >> 1) - h) % p for p in primes]  # each prime's next index
        for end in range(_CHUNK, n_odd + _CHUNK, _CHUNK):
            end = min(end, n_odd)
            for j, (p, i) in enumerate(zip(primes, strikes)):
                k = (end - 1 - i) // p + 1
                digits[i:end:p] = _COMPOSITE * k
                strikes[j] = i + k * p
    short_runs = bisect_right(table, last // (_SHORT_RUN - 1), small, may_miss)
    for p in islice(table, small, short_runs):
        i = ((p >> 1) - h) % p
        digits[i::p] = _COMPOSITE * ((last - i) // p + 1)
    for p in islice(table, short_runs, may_miss):  # each run is under _SHORT_RUN strikes
        i = ((p >> 1) - h) % p
        digits[i::p] = _RUNS[(last - i) // p + 1]
    for p in islice(table, may_miss, squares_in):
        i = ((p >> 1) - h) % p
        if i < n_odd:
            digits[i] = _COMPOSITE_DIGIT
    for p in islice(table, squares_in, top):
        i = (p * p >> 1) - h
        k = (last - i) // p + 1
        digits[i::p] = _RUNS[k] if k < _SHORT_RUN else _COMPOSITE * k
    return digits


class PrimeSegment(Record):
    """The primes of a closed interval [lo, hi], as the sieve core's digits.

    digits[k] is ``0`` exactly when the k-th odd of [lo, hi], (lo | 1) + 2k,
    is prime, and ``1`` when it is not; 2 is the one even prime.  Nothing
    builds per-integer flags.  ``sieve_segment`` returns immutable digits,
    so its segments compare and hash by value.  The segments of
    ``iter_segments`` share the core's bytearray without a copy: do not
    mutate or hash them.
    """

    __slots__ = ("lo", "hi", "digits")

    def __init__(self, lo: int, hi: int, digits: bytes) -> None:
        self._store(lo, hi, digits)

    def _odds(self, lo: int, hi: int) -> tuple[int, int]:
        """Slice bounds of the digits of the odds of [lo, hi], within the segment."""
        if not (self.lo <= lo <= hi <= self.hi):
            raise InvalidInterval(
                f"[{lo}, {hi}] not contained in [{self.lo}, {self.hi}]"
            )
        h = self.lo >> 1  # the digit of an odd n is (n >> 1) - h
        return (lo >> 1) - h, ((hi + 1) >> 1) - h

    def is_prime_at(self, n: int) -> bool:
        i, _ = self._odds(n, n)
        return self.digits[i] != _COMPOSITE_DIGIT if n & 1 else n == 2

    def count(self, a: int | None = None, b: int | None = None) -> int:
        """Number of primes in [a, b], within the segment; all by default."""
        a = self.lo if a is None else a
        b = self.hi if b is None else b
        start, end = self._odds(a, b)
        return self.digits.count(b"0", start, end) + (a <= 2 <= b)

    def primes(self) -> list[int]:
        odd = compress(range(self.lo | 1, self.hi + 1, 2), self.digits.translate(_PRIME_FLAGS))
        return [2, *odd] if self.lo <= 2 <= self.hi else list(odd)

    def restrict(self, lo: int, hi: int) -> PrimeSegment:
        """Sub-segment; equal to sieving [lo, hi] directly."""
        start, end = self._odds(lo, hi)
        return PrimeSegment(lo, hi, self.digits[start:end])


def sieve_segment(lo: int, hi: int) -> PrimeSegment:
    """Sieve the closed interval [lo, hi], where 1 <= lo <= hi < 2**64."""
    if lo < 1 or lo > hi:
        raise InvalidInterval(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
    span = hi - lo + 1
    if span > SEGMENT_CAP:
        raise SegmentTooLarge(f"span {span} exceeds cap {SEGMENT_CAP}")
    return PrimeSegment(lo, hi, bytes(_odd_digits(lo | 1, hi)))


def iter_segments(lo: int, hi: int, *, cap: int = SEGMENT_CAP) -> Iterator[PrimeSegment]:
    """Consecutive cap-sized segments covering [lo, hi]; each holds the
    core's bytearray without a copy.  The span is checked at the call."""
    if lo < 1 or lo > hi:
        raise InvalidInterval(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
    if hi >= _WORD_LIMIT:  # refused here, not at the first segment past it
        raise OutOfBounds(f"sieve domain is [1, 2**64): got hi = {hi}")
    return (
        PrimeSegment(start, end, _odd_digits(start | 1, end))
        for start in range(lo, hi + 1, cap)
        for end in (min(start + cap - 1, hi),)
    )


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
        for a in range(seg.lo, seg.hi + 1, _PRIME_CHUNK):
            b = min(a + _PRIME_CHUNK - 1, seg.hi)
            in_part = seg.count(a, b)
            if remaining <= in_part:
                return seg.restrict(a, b).primes()[remaining - 1]
            remaining -= in_part
    raise OutOfBounds(f"bound {bound} did not reach prime #{x}")


def iter_primes(start: int = 2) -> Iterator[int]:
    """Ascending primes >= start and below 2**64, sieved _PRIME_CHUNK integers
    at a time; from 2**64 up, the first next() raises OutOfBounds."""
    lo = max(start, 1)
    for seg in iter_segments(lo, max(lo, _WORD_LIMIT - 1), cap=_PRIME_CHUNK):
        yield from seg.primes()
