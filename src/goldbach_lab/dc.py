"""Degree of complexity: fewest primes summing to a target, with witnesses.

``dc_min`` is the production path (case analysis plus ascending pair
search over the sieve's base-prime table, then ``iter_primes``).  ``dc_oracle``
recomputes the same minimum by an unbounded-coin dynamic program over a
bitset of reachable sums and shares no logic with the search, so the two
can cross-check each other.
"""

from __future__ import annotations

from itertools import chain

from ._record import Record
from .errors import (
    AboveEnumerationCap,
    AboveOracleCap,
    GoldbachCounterexample,
    NotEven,
    TargetTooSmall,
)
from .primes import _base_table, is_prime, iter_primes, sieve_segment

ORACLE_CAP = 10**6
ENUMERATION_CAP = 10**4
PAIR_CAP = 10**6


class DcResult(Record):
    """Minimal prime-summand count for a target, with a verifying witness.

    The witness is an ascending tuple of primes summing to the target and
    its length equals ``value``.
    """

    __slots__ = ("target", "value", "witness")

    def __init__(self, target: int, value: int, witness: tuple[int, ...]) -> None:
        self._store(target, value, witness)


def _first_pair(target: int) -> tuple[int, int]:
    """Smallest-p prime pair (p, q) with p + q = target, for even target >= 4.

    Ascends p over every prime <= target/2 before giving up, so a raised
    GoldbachCounterexample really is the outcome of an exhaustive search.
    """
    table = _base_table(1)
    for p in chain(table, iter_primes(table[-1] + 1)):
        if p > target - p:
            raise GoldbachCounterexample(target)
        if is_prime(target - p):
            return p, target - p
    raise AssertionError("unreachable: dc_min refuses targets >= 2**64 through is_prime,"
                         " so p > target - p ends the search first")


def dc_min(target: int) -> DcResult:
    """Fewest primes summing to ``target``, with the canonical witness.

    Primes score 1.  Even targets search p = 2, 3, 5, ... for a prime
    complement, so the returned pair has the smallest possible first
    element.  Odd composites are 2 + (target - 2) when that is prime, and
    otherwise 3 plus an explicitly found pair for target - 3; the ternary
    case is never assumed without a verified witness.
    """
    if target < 2:
        raise TargetTooSmall(f"need target >= 2, got {target}")
    if is_prime(target):
        return DcResult(target, 1, (target,))
    if target % 2 == 0:
        p, q = _first_pair(target)
        return DcResult(target, 2, (p, q))
    if is_prime(target - 2):
        return DcResult(target, 2, (2, target - 2))
    p, q = _first_pair(target - 3)
    return DcResult(target, 3, tuple(sorted((3, p, q))))


def dc_oracle_table(limit: int) -> tuple[int, ...]:
    """Minimum prime-summand count for every target in 0..limit.

    Entries 0 and 1 are 0 (no prime sum exists).  Computed by breadth-first
    layering: layer k is every sum of exactly k primes, built by shifting
    the layer-(k-1) bitset by each prime.  The result is immutable so batch
    checkers can share one snapshot.
    """
    if limit < 2:
        raise TargetTooSmall(f"need limit >= 2, got {limit}")
    if limit > ORACLE_CAP:
        raise AboveOracleCap(f"limit {limit} exceeds oracle cap {ORACLE_CAP}")
    prime_list = sieve_segment(1, limit).primes()
    prime_mask = 0
    for p in prime_list:
        prime_mask |= 1 << p
    domain = (1 << (limit + 1)) - 1
    full = domain & ~0b11  # every target from 2 through limit
    values = [0] * (limit + 1)
    frontier = prime_mask
    known = prime_mask
    count = 1
    _fill(values, frontier, count, limit)
    while known & full != full:
        nxt = 0
        for p in prime_list:
            nxt |= frontier << p
        new = nxt & domain & ~known
        if not new:
            break  # remaining targets unreachable; their entries stay 0
        count += 1
        _fill(values, new, count, limit)
        known |= new
        frontier = new
    return tuple(values)


def _fill(values: list[int], bits: int, count: int, limit: int) -> None:
    raw = bits.to_bytes(limit // 8 + 1, "little")
    for i, byte in enumerate(raw):
        if byte:
            base = i * 8
            for j in range(8):
                if byte >> j & 1:
                    values[base + j] = count


def dc_oracle(target: int) -> int:
    """Exact minimum via the DP table; independent check on dc_min."""
    return dc_oracle_table(target)[target]


def decompositions(target: int, k: int) -> list[tuple[int, ...]]:
    """All multisets of exactly k primes summing to ``target``.

    Each result is ascending; the list is empty when no k-prime sum exists.
    """
    if target < 2:
        raise TargetTooSmall(f"need target >= 2, got {target}")
    if target > ENUMERATION_CAP:
        raise AboveEnumerationCap(f"target {target} exceeds enumeration cap {ENUMERATION_CAP}")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    prime_list = sieve_segment(1, target).primes()
    out: list[tuple[int, ...]] = []
    chosen: list[int] = []  # indices into prime_list, ascending: a depth-first walk
    idx, remaining = 0, target  # the next index to try, and what the open slots must sum to
    while True:
        slots = k - len(chosen)
        if slots and idx < len(prime_list) and prime_list[idx] * slots <= remaining:
            chosen.append(idx)  # idx stays: the next slot may repeat this prime
            remaining -= prime_list[idx]
            continue
        if not slots and not remaining:
            out.append(tuple(prime_list[i] for i in chosen))
        if not chosen:
            return out
        idx = chosen.pop()
        remaining += prime_list[idx]
        idx += 1


def goldbach_pairs(target: int) -> list[tuple[int, int]]:
    """Every unordered prime pair (p, q) with p <= q and p + q = target."""
    if target % 2:
        raise NotEven(f"{target} is odd")
    if target < 4:
        raise TargetTooSmall(f"need even target >= 4, got {target}")
    if target > PAIR_CAP:
        raise AboveEnumerationCap(f"target {target} exceeds listing cap {PAIR_CAP}")
    seg = sieve_segment(1, target - 1)
    return [
        (p, target - p)
        for p in seg.restrict(1, target // 2).primes()
        if seg.is_prime_at(target - p)
    ]
