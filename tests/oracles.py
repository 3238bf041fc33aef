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
