"""Brute-force reference implementations used only to cross-check results.

Everything here is deliberately slow and simple, and shares no code with
the package under test.
"""

from itertools import combinations_with_replacement
from math import isqrt


def trial_is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def trial_primes_between(lo: int, hi: int) -> list[int]:
    return [n for n in range(lo, hi + 1) if trial_is_prime(n)]


def min_prime_summands(target: int, limit: int = 6) -> int:
    """Smallest k <= limit such that target is a sum of k primes, else 0."""
    primes = trial_primes_between(2, target)
    for k in range(1, limit + 1):
        for combo in combinations_with_replacement(primes, k):
            if sum(combo) == target:
                return k
    return 0


def lucy_prime_pi(n: int) -> int:
    """pi(n), the number of primes <= n, by Lucy_Hedgehog's method on the odd
    numbers: O(n^(3/4)) steps, and no sieve of the integers up to n."""
    if n < 3:
        return int(n == 2)
    r = isqrt(n)
    # small[k] and large[j] count the odd m in [3, x] that no odd prime below
    # the current p divides, for x = 2k + 1 <= r and for x = n // (2j + 1)
    small = list(range((r + 1) // 2))
    large = [(n // i - 1) // 2 for i in range(1, r + 1, 2)]
    for p in range(3, r + 1, 2):
        sp = small[(p >> 1) - 1]  # the odd primes below p
        if small[p >> 1] == sp:  # p is struck, so not prime
            continue
        outer = (min(r, n // (p * p)) + 1) // 2  # the x = n // i >= p * p
        inner = min(outer, (r // p + 1) // 2)  # the x // p = n // (i * p) held in large
        large[:inner] = [x - large[j * p + (p >> 1)] + sp for j, x in enumerate(large[:inner])]
        n_p = n // p
        large[inner:outer] = [
            x - small[(n_p // i - 1) >> 1] + sp
            for i, x in zip(range(2 * inner + 1, r + 1, 2), large[inner:outer])
        ]
        k2 = p * p >> 1
        small[k2:] = [x - small[((2 * k + 1) // p - 1) >> 1] + sp for k, x in enumerate(small[k2:], k2)]
    return large[0] + 1


def minimal_goldbach_primes(n: int, p_limit: int | None = None) -> list[int]:
    """For each even a = 6, 8, ..., n, the least odd prime p with a - p prime.

    A plain bytearray sieve of the integers up to n.  The odd primes tried
    run up to p_limit (all of them by default); an even whose p is not among
    them raises, so no wrong minimum is ever returned."""
    is_p = bytearray([1]) * (n + 1)
    is_p[:2] = b"\0\0"
    for d in range(2, isqrt(n) + 1):
        if is_p[d]:
            is_p[d * d :: d] = bytes(len(range(d * d, n + 1, d)))
    top = n if p_limit is None else min(p_limit, n)
    odd_primes = [q for q in range(3, top + 1, 2) if is_p[q]]
    minimal = []
    for a in range(6, n + 1, 2):
        p = a  # stays past a - p unless a prime of the list ends the scan
        for q in odd_primes:
            if q > a - q or is_p[a - q]:
                p = q
                break
        if p > a - p:
            raise ArithmeticError(f"no odd prime p <= {a} / 2 in the list has {a} - p prime")
        minimal.append(p)
    return minimal


def minimal_p_records(n: int, p_limit: int | None = None) -> list[tuple[int, int]]:
    """The running-maximum records of minimal_goldbach_primes: each (a, p)
    whose p exceeds the p of every smaller even from 6."""
    records = []
    for a, p in zip(range(6, n + 1, 2), minimal_goldbach_primes(n, p_limit)):
        if not records or p > records[-1][1]:
            records.append((a, p))
    return records
