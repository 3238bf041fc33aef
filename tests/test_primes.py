import functools
import itertools
import random
from collections import Counter
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from goldbach_lab import primes
from goldbach_lab.errors import InvalidInterval, OutOfBounds, SegmentTooLarge
from goldbach_lab.primes import (
    SEGMENT_CAP,
    _odd_digits,
    base_primes,
    is_prime,
    iter_primes,
    iter_segments,
    nth_prime,
    prime_count,
    sieve_segment,
)

from oracles import lucy_prime_pi, trial_is_prime, trial_primes_between


class TestSieveSegment:
    def test_first_decade(self):
        assert sieve_segment(1, 10).primes() == [2, 3, 5, 7]

    def test_singleton_two(self):
        assert sieve_segment(2, 2).primes() == [2]

    def test_ninety_to_hundred(self):
        # trial division over 90..100 leaves only 97
        assert sieve_segment(90, 100).primes() == trial_primes_between(90, 100) == [97]

    def test_one_is_not_prime(self):
        assert sieve_segment(1, 1).primes() == []

    def test_invalid_intervals(self):
        with pytest.raises(InvalidInterval):
            sieve_segment(0, 10)
        with pytest.raises(InvalidInterval):
            sieve_segment(10, 9)

    def test_segment_cap(self):
        with pytest.raises(SegmentTooLarge):
            sieve_segment(1, SEGMENT_CAP + 1)  # refused before allocating

    def test_digits_shape(self):
        seg = sieve_segment(5, 19)
        assert seg.digits == b"00100100"  # the odds 5, 7, ..., 19
        assert seg.is_prime_at(5) is True and seg.is_prime_at(6) is False
        with pytest.raises(InvalidInterval):
            seg.is_prime_at(20)
        with pytest.raises(InvalidInterval):
            seg.count(3, 19)
        with pytest.raises(InvalidInterval):
            seg.restrict(5, 20)

    @settings(max_examples=100, deadline=None)
    @given(lo=st.integers(1, 10**4), span=st.integers(0, 400))
    def test_matches_trial_division(self, lo, span):
        seg = sieve_segment(lo, lo + span)
        assert seg.primes() == trial_primes_between(lo, lo + span)

    @settings(max_examples=100, deadline=None)
    @given(
        lo=st.integers(1, 10**6),
        span=st.integers(0, 300),
        data=st.data(),
    )
    def test_restrict_matches_direct_sieve(self, lo, span, data):
        hi = lo + span
        seg = sieve_segment(lo, hi)
        sub_lo = data.draw(st.integers(lo, hi))
        sub_hi = data.draw(st.integers(sub_lo, hi))
        assert seg.restrict(sub_lo, sub_hi) == sieve_segment(sub_lo, sub_hi)

    @pytest.mark.parametrize(
        "magnitude, windows",
        [(10**9, 3), (10**12, 3), (10**14, 2)],
    )
    def test_random_windows_at_magnitude(self, magnitude, windows):
        rng = random.Random(magnitude)
        for _ in range(windows):
            lo = magnitude + rng.randrange(10**6)
            hi = lo + 2000
            assert sieve_segment(lo, hi).primes() == [
                n for n in range(lo, hi + 1) if is_prime(n)
            ]

    @pytest.mark.parametrize(
        "p",
        [
            999983,  # largest prime below 10^6
            65521,  # largest prime below 2^16
            65537,  # 65537^2 = 4295098369: the sieve needs primes past 2^16
        ],
    )
    def test_windows_ending_near_a_prime_square(self, p):
        # The sieve needs p exactly when hi >= p^2; windows ending just below,
        # at and just past p^2 check that it stops at the right prime.
        square = p * p
        windows = ((square - 2000, square - 1), (square - 2000, square), (square - 1000, square + 1000))
        for lo, hi in windows:
            assert sieve_segment(lo, hi).primes() == [
                n for n in range(lo, hi + 1) if is_prime(n)
            ]

    def test_iter_segments_cover_exactly(self):
        segs = list(iter_segments(1, 1000, cap=64))
        assert segs[0].lo == 1 and segs[-1].hi == 1000
        for a, b in zip(segs, segs[1:]):
            assert b.lo == a.hi + 1
        assert sum(s.count() for s in segs) == prime_count(1, 1000)


def digits_by_is_prime(first_odd, hi):
    return b"".join(b"0" if is_prime(n) else b"1" for n in range(first_odd, hi + 1, 2))


def odd_windows():
    yield 1, 1  # 1 alone: not prime
    yield 1, 2001
    yield 3, 3  # windows holding one odd
    yield 9, 10
    for p in (65521, 65537):  # the table size steps at 2^16
        square = p * p
        yield square - 400, square  # ends at p^2: p must strike it
        yield square - 400, square + 2  # just past
    for magnitude in (10**9, 10**12, 10**14):
        rng = random.Random(magnitude)
        first_odd = (magnitude + rng.randrange(10**6)) | 1
        yield first_odd, first_odd + 2000
    for p in (11, 13):  # the wheel's own primes stay prime when the window holds them
        yield p, p
        yield p, p + 400
    yield 15, 15 + 400  # the first windows the wheel pre-strikes
    yield 17, 17 + 400
    wheel = 15015  # the wheel repeats every 3 * 5 * 7 * 11 * 13 odds
    yield 10**9 + 1, 10**9 + 1 + 2 * 300  # shorter than one period
    yield 10**9 + 1, 10**9 + 1 + 2 * (3 * wheel + 77)  # several periods
    rng = random.Random(wheel)
    base = 10**12 // (2 * wheel) * (2 * wheel)
    for residue in [0, wheel - 1] + [rng.randrange(wheel) for _ in range(4)]:
        first_odd = base + 2 * residue + 1  # (first_odd >> 1) % wheel == residue
        yield first_odd, first_odd + 2 * rng.randrange(1, 2 * wheel)
    for _ in range(3):  # most base primes exceed these few odds, and most miss
        first_odd = (10**12 + rng.randrange(10**6)) | 1
        yield first_odd, first_odd + 2 * rng.randrange(40)


class TestOddDigits:
    """The sieve core: one digit per odd, 1 for not prime, 0 for prime."""

    @pytest.mark.parametrize("first_odd, hi", list(odd_windows()))
    def test_matches_is_prime(self, first_odd, hi):
        assert _odd_digits(first_odd, hi) == digits_by_is_prime(first_odd, hi)

    def test_empty_when_no_odd(self):
        assert _odd_digits(5, 4) == b""

    def test_refused_from_two_to_the_64(self):
        with pytest.raises(OutOfBounds, match=r"2\*\*64"):
            _odd_digits((1 << 64) + 1, (1 << 64) + 10)  # refused before allocating


@functools.lru_cache(maxsize=None)
def pi(n):
    """pi(n) from the Lucy_Hedgehog oracle, once per n: about 0.3 s near 10^9
    and 1 s near 4 * 10^9."""
    return lucy_prime_pi(n)


def strike_loop_of_most_primes(first_odd, hi):
    """The strike loop of the sieve core that takes most base primes past
    the wheel, by the loops' definitions in the primes module docstring."""
    n_odd = (hi - first_odd) // 2 + 1
    loops = Counter()
    for p in base_primes(isqrt(hi)):
        if p <= 13:
            continue
        if p * p >= first_odd:
            loops["from-square"] += 1
        elif p > n_odd:
            loops["at-most-once"] += 1
        elif n_odd >= 2 * primes._CHUNK and p <= primes._CHUNK_PRIMES:
            loops["chunked"] += 1
        elif p <= (n_odd - 1) // (primes._SHORT_RUN - 1):
            loops["long-runs"] += 1
        else:
            loops["short-runs"] += 1
    ((loop, count),) = loops.most_common(1)
    assert 2 * count > sum(loops.values())
    return loop


# (a, b]: whole windows of sweep size, chained so that they share their
# ends and each Lucy count runs once
NEAR_1E9 = list(itertools.accumulate([-(1 << 19), -(1 << 21), -(1 << 23)], initial=10**9))
NEAR_4E9 = (4 * 10**9, 4 * 10**9 - (1 << 23))  # the base table still ends at 2^16
WHOLE_WINDOWS = {
    "chunked-2^23-near-1e9": (NEAR_1E9[3], NEAR_1E9[2]),
    "long-runs-2^21-near-1e9": (NEAR_1E9[2], NEAR_1E9[1]),  # 2^20 odds: one pass
    "short-runs-2^19-near-1e9": (NEAR_1E9[1], NEAR_1E9[0]),
    "long-runs-2^23-near-4e9": (NEAR_4E9[1], NEAR_4E9[0]),  # and 30% chunked
    "at-most-once-2^12-near-1e8": (10**8 - (1 << 12), 10**8),
    "from-square-2^21-from-2^12": (1 << 12, 1 << 21),
    "from-square-2^19-from-1": (0, 1 << 19),  # holds 2, and no wheel
}


class TestWholeWindowCounts:
    """The sieve is exact over whole sweep-sized windows: its count of primes
    equals Lucy_Hedgehog's pi(b) - pi(a), which shares no code with it."""

    def test_lucy_matches_trial_division_and_the_published_pi_of_1e9(self):
        running = list(itertools.accumulate(map(trial_is_prime, range(3000))))
        assert [lucy_prime_pi(n) for n in range(3000)] == running
        assert pi(10**9) == 50847534

    @pytest.mark.parametrize("loop, a, b", [(name.split("-2^")[0], *ab) for name, ab in
                                            WHOLE_WINDOWS.items()], ids=list(WHOLE_WINDOWS))
    def test_digit_count_equals_lucy(self, loop, a, b):
        first_odd = (a + 1) | 1
        assert strike_loop_of_most_primes(first_odd, b) == loop
        assert _odd_digits(first_odd, b).count(b"0") + (a < 2 <= b) == pi(b) - pi(a)


def seeded_ranges(seed, near, span):
    """Seeded ranges near `near`, each up to `span` long."""
    rng = random.Random(seed)
    for _ in range(4):
        lo = near + rng.randrange(1000)
        yield lo, lo + rng.randrange(span)


@pytest.fixture(params=[1, 2, 7, 64], ids=lambda cap: f"cap{cap}")
def small_segments(request, monkeypatch):
    """prime_count and nth_prime walk segments of a small cap, so segment
    edges fall inside every range they count."""
    walk = functools.partial(primes.iter_segments, cap=request.param)
    monkeypatch.setattr(primes, "iter_segments", walk)


class TestCountsOnTheCoreDigits:
    @pytest.mark.parametrize(
        "lo, hi",
        [(1, 1), (1, 2), (2, 2), (1, 401), (2, 97),
         *seeded_ranges(14, 10**4, 400), *seeded_ranges(15, 10**12, 60)],
    )
    def test_prime_count(self, small_segments, lo, hi):
        expected = sum(is_prime(n) for n in range(lo, hi + 1))
        assert prime_count(lo, hi) == expected == sieve_segment(lo, hi).count()

    def test_nth_prime(self, small_segments, monkeypatch):
        listed = [n for n in range(1, 400) if is_prime(n)]
        assert [nth_prime(x) for x in range(1, len(listed) + 1)] == listed
        # nth_prime counts each segment in chunks of _PRIME_CHUNK integers from
        # its lo: chunks start at 65537 and 131073, and a cap of 10^5 puts a
        # segment edge inside the second chunk
        table = base_primes(140_000)
        around = [
            (x, p) for x, p in enumerate(table, 1)
            if any(abs(p - edge) < 60 for edge in (65537, 100_001, 131073))
        ]
        assert 65537 in dict(around).values() and len(around) > 12
        for cap in (SEGMENT_CAP, 10**5):
            monkeypatch.setattr(primes, "iter_segments", functools.partial(iter_segments, cap=cap))
            assert [nth_prime(x) for x, _ in around] == [p for _, p in around]

    def test_segment_counts_its_subranges(self):
        rng = random.Random(16)
        even_lo = 10**12 + 2 * rng.randrange(500)
        for lo, hi in ((1, 301), (2, 302), (3, 303), (4, 4), (even_lo, even_lo + 300),
                       (10**12 + rng.randrange(1000), 10**12 + 1300)):
            (seg,) = iter_segments(lo, hi)
            direct = sieve_segment(lo, hi)
            assert seg == direct
            span = range(lo, hi + 1)
            assert seg.primes() == direct.primes() == [n for n in span if is_prime(n)]
            flags = [seg.is_prime_at(n) for n in span]
            assert flags == [is_prime(n) for n in span]
            assert all(type(f) is bool for f in flags)
            subranges = [(lo, lo), (hi, hi), (lo, hi)]
            for _ in range(50):
                a = rng.randint(lo, hi)
                subranges.append((a, rng.randint(a, hi)))
            for a, b in subranges:
                sub = sieve_segment(a, b)
                assert seg.count(a, b) == sub.count()
                assert seg.restrict(a, b) == sub
                assert seg.restrict(a, b).primes() == sub.primes()


class TestBasePrimes:
    def test_matches_trial_division(self):
        for n in range(301):
            assert base_primes(n) == tuple(trial_primes_between(2, n)), n

    @pytest.mark.parametrize("limit, count", [(1 << 16, 6542), (1 << 20, 82025)])
    def test_counts(self, limit, count):
        assert len(base_primes(limit)) == count


class TestBaseTableCap:
    """primes._base_table refuses a bound past its cap before it builds anything."""

    @pytest.fixture
    def builds(self, monkeypatch):
        built = []  # the limit of each table built; none is, for real
        monkeypatch.setattr(primes, "base_primes", lambda limit: built.append(limit) or (2,))
        monkeypatch.setattr(primes, "_table", ())
        monkeypatch.setattr(primes, "_table_limit", 0)
        return built

    def test_the_cap_itself_is_built(self, builds):
        primes._base_table(primes._BASE_TABLE_CAP)
        assert builds == [primes._BASE_TABLE_CAP]

    @pytest.mark.parametrize("bound", [(1 << 27) + 1, 1 << 31, (1 << 32) - 1])
    def test_past_the_cap_is_refused_unbuilt(self, builds, bound):
        with pytest.raises(OutOfBounds, match=rf"to {bound} pass the table cap 2\*\*27"):
            primes._base_table(bound)
        assert builds == []

    def test_iter_primes_next_to_two_to_the_64_raises_at_its_first_next(self, builds):
        primes_from = iter_primes((1 << 64) - 100)  # a generator: the call itself checks nothing
        with pytest.raises(OutOfBounds, match=r"table cap 2\*\*27"):
            next(primes_from)
        assert builds == []


class TestIsPrime:
    def test_smallest_prime(self):
        assert is_prime(2)

    def test_213_is_composite(self):
        # 213 = 3 * 71
        assert not is_prime(213)
        assert 213 % 3 == 0

    def test_211_is_prime(self):
        assert is_prime(211)
        assert trial_is_prime(211)

    def test_zero_and_one(self):
        assert not is_prime(0)
        assert not is_prime(1)

    def test_domain_bounds(self):
        with pytest.raises(ValueError):
            is_prime(-1)
        with pytest.raises(ValueError):
            is_prime(1 << 64)

    def test_large_word_values(self):
        # largest prime below 2**64 and a neighbouring composite
        assert is_prime(18446744073709551557)
        assert not is_prime(18446744073709551555)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 10**6))
    def test_matches_trial_division(self, n):
        assert is_prime(n) == trial_is_prime(n)


class TestPrimeCount:
    def test_first_decade(self):
        assert prime_count(1, 10) == 4

    def test_pi_100(self):
        assert prime_count(1, 100) == 25 == len(trial_primes_between(1, 100))

    def test_all_composite_window(self):
        assert prime_count(14, 16) == 0

    def test_pi_one_million(self):
        # cross-checked against an independent implementation
        assert prime_count(1, 10**6) == 78498

    def test_invalid(self):
        with pytest.raises(InvalidInterval):
            prime_count(0, 5)

    def test_a_span_past_two_to_the_64_is_refused_before_any_segment(self, monkeypatch):
        sieved = []
        monkeypatch.setattr(primes, "_odd_digits", lambda *span: sieved.append(span))
        with pytest.raises(OutOfBounds, match=r"2\*\*64"):
            prime_count(1, (1 << 64) + 8)
        with pytest.raises(OutOfBounds, match=r"2\*\*64"):
            iter_segments((1 << 64) - 8, 1 << 64)  # at the call, before a segment is drawn
        assert sieved == []

    @settings(max_examples=100, deadline=None)
    @given(lo=st.integers(1, 10**7), span=st.integers(0, 300))
    def test_agrees_with_point_tests(self, lo, span):
        hi = lo + span
        assert prime_count(lo, hi) == sum(is_prime(n) for n in range(lo, hi + 1))


class TestNthPrime:
    def test_first(self):
        assert nth_prime(1) == 2

    def test_fourth(self):
        assert nth_prime(4) == 7

    def test_twenty_fifth(self):
        assert nth_prime(25) == trial_primes_between(2, 100)[24] == 97

    def test_precondition(self):
        with pytest.raises(ValueError):
            nth_prime(0)

    def test_out_of_bounds(self):
        with pytest.raises(OutOfBounds):
            nth_prime(2 * 10**8)  # Rosser bound ~4.4e9 > 2**32: refused before sieving

    def test_strictly_increasing_and_prime(self):
        values = [nth_prime(x) for x in range(1, 200)]
        assert values == sorted(set(values))
        assert all(is_prime(v) for v in values)

    def test_against_enumeration(self):
        listed = trial_primes_between(2, 1000)
        for i, p in enumerate(listed, start=1):
            assert nth_prime(i) == p

    def test_ten_thousandth(self):
        # cross-checked against an independent implementation
        assert nth_prime(10**4) == 104729


class TestIterPrimes:
    def test_matches_segment(self):
        it = iter_primes()
        first = [next(it) for _ in range(25)]
        assert first == trial_primes_between(2, 97)

    def test_start_offset(self):
        it = iter_primes(90)
        assert next(it) == 97

    @pytest.mark.parametrize("start", [65_530, 65_537, 131_000])
    def test_chunks_join_without_gaps(self, start):
        # iter_primes sieves 2^16 integers at a time, so these cross chunk ends
        primes_up_to_top = itertools.takewhile(lambda p: p <= 300_000, iter_primes(start))
        assert list(primes_up_to_top) == sieve_segment(start, 300_000).primes()

    @pytest.mark.parametrize("start", [1 << 64, (1 << 64) + 5])
    def test_from_two_to_the_64_the_first_next_raises(self, monkeypatch, start):
        sieved = []
        monkeypatch.setattr(primes, "_odd_digits", lambda *span: sieved.append(span))
        primes_from = iter_primes(start)  # a generator: the call itself checks nothing
        with pytest.raises(OutOfBounds, match=r"2\*\*64"):
            next(primes_from)
        assert sieved == []

    def test_the_walk_ends_at_the_last_integer_below_two_to_the_64(self, monkeypatch):
        # the windows are iter_segments' own; none is sieved here, as the table
        # for them would hold every prime below 2^32
        windows = []

        def no_primes(first_odd, hi):
            assert hi < 1 << 64, "a window past the sieve's domain"
            windows.append((first_odd, hi))
            return bytearray(b"1") * ((hi - first_odd) // 2 + 1)

        monkeypatch.setattr(primes, "_odd_digits", no_primes)
        start = (1 << 64) - 3 * primes._PRIME_CHUNK
        assert list(iter_primes(start)) == []
        assert windows == [
            (lo + 1, lo + primes._PRIME_CHUNK - 1)
            for lo in range(start, 1 << 64, primes._PRIME_CHUNK)
        ]
