import random

import pytest
from hypothesis import given, settings, strategies as st

from goldbach_lab import dc, primes
from goldbach_lab.dc import (
    ORACLE_CAP,
    DcResult,
    dc_min,
    dc_oracle,
    dc_oracle_table,
    decompositions,
    goldbach_pairs,
)
from goldbach_lab.errors import (
    AboveEnumerationCap,
    AboveOracleCap,
    GoldbachCounterexample,
    NotEven,
    TargetTooSmall,
)
from goldbach_lab.primes import sieve_segment

from oracles import (
    min_prime_summands,
    minimal_goldbach_primes,
    minimal_p_records,
    trial_is_prime,
    trial_primes_between,
)


def assert_sound(result: DcResult):
    assert len(result.witness) == result.value
    assert sum(result.witness) == result.target
    assert all(trial_is_prime(p) for p in result.witness)
    assert list(result.witness) == sorted(result.witness)


class TestDcMin:
    def test_eight(self):
        result = dc_min(8)
        assert result.value == 2
        assert result.witness == (3, 5)

    def test_216_has_a_valid_pair(self):
        # 213 + 3 is NOT a decomposition (213 = 3 * 71); the searched witness is
        result = dc_min(216)
        assert result.value == 2
        assert_sound(result)

    def test_four(self):
        assert dc_min(4) == DcResult(4, 2, (2, 2))

    def test_27_needs_three(self):
        # 27 and 25 both composite, so two primes cannot reach 27
        result = dc_min(27)
        assert result.value == 3
        assert_sound(result)

    def test_prime_targets_score_one(self):
        assert dc_min(2) == DcResult(2, 1, (2,))
        assert dc_min(3) == DcResult(3, 1, (3,))
        assert dc_min(97) == DcResult(97, 1, (97,))

    def test_odd_composite_with_prime_complement(self):
        assert dc_min(9) == DcResult(9, 2, (2, 7))

    def test_too_small(self):
        with pytest.raises(TargetTooSmall):
            dc_min(1)

    def test_even_witness_starts_at_smallest_prime(self):
        for target in range(4, 300, 2):
            result = dc_min(target)
            p = result.witness[0]
            smaller = [
                q for q in trial_primes_between(2, p - 1) if trial_is_prime(target - q)
            ]
            assert smaller == []

    def test_published_minimal_partition_record(self):
        # p(3325581707333960528) = 9781: the largest minimal Goldbach prime
        # found below 4*10^18 (Oliveira e Silva, Herzog & Pardi,
        # Math. Comp. 83 (2014) 2033-2060).
        assert dc_min(3325581707333960528).witness[0] == 9781

    def test_counterexample_only_after_every_prime_up_to_half(self, monkeypatch):
        # with no prime complement anywhere, the search must run out of p <=
        # target/2, past the 2^16 base table and across iter_primes' chunks
        target = 300_002
        asked = []
        monkeypatch.setattr(primes, "_table", (2, *primes._WHEEL_PRIMES))  # grows to 2^16
        monkeypatch.setattr(primes, "_table_limit", 0)

        def nothing_is_prime(n):
            asked.append(n)
            return False

        monkeypatch.setattr(dc, "is_prime", nothing_is_prime)
        with pytest.raises(GoldbachCounterexample) as raised:
            dc_min(target)
        assert raised.value.target == target
        tried = [target - n for n in asked[1:]]  # asked[0] is the target itself
        assert tried == sieve_segment(1, target // 2).primes()
        assert tried[-1] > 2 * (1 << 16)

    @settings(max_examples=150, deadline=None)
    @given(target=st.integers(2, 10**5))
    def test_witness_soundness(self, target):
        assert_sound(dc_min(target))

    @settings(max_examples=100, deadline=None)
    @given(target=st.integers(2, 10**4))
    def test_sum_parity_consistency(self, target):
        witness = dc_min(target).witness
        assert sum(witness) % 2 == target % 2
        # an odd sum of evenly many primes (and vice versa) forces a 2
        if target % 2 != len(witness) % 2:
            assert 2 in witness


@pytest.fixture(scope="module")
def records():
    """The running maximum of dc_min(a).witness[0] over the evens a to 10^6,
    from an oracle that shares no code with the package (tests/oracles.py)."""
    return minimal_p_records(10**6)


class TestMinimalPRecords:
    def test_every_even_to_a_hundred_thousand_matches_dc_min(self):
        evens = range(6, 10**5 + 1, 2)
        assert minimal_goldbach_primes(10**5) == [dc_min(a).witness[0] for a in evens]

    def test_each_record_is_dc_min_at_its_even(self, records):
        assert [dc_min(a).witness[0] for a, _ in records] == [p for _, p in records]

    def test_no_sampled_even_beats_the_record_before_it(self, records):
        rng = random.Random(26)
        for a in sorted(rng.randrange(6, 10**6 + 1, 2) for _ in range(2000)):
            best = max(p for r, p in records if r <= a)
            assert dc_min(a).witness[0] <= best, a

    @pytest.mark.parametrize("n", [5, 6, 7, 100])
    def test_a_shorter_span_gives_a_prefix(self, records, n):
        assert minimal_p_records(n) == [(a, p) for a, p in records if a <= n]

    def test_an_even_whose_p_is_past_the_prime_list_raises(self):
        # the evens before the last record to 10^4 need primes below its p
        a, p = minimal_p_records(10**4)[-1]
        assert minimal_p_records(a - 2, p_limit=p - 1)[-1][1] < p
        with pytest.raises(ArithmeticError, match=f"has {a} - p prime"):
            minimal_p_records(10**4, p_limit=p - 1)


class TestDcOracle:
    def test_eight(self):
        assert dc_oracle(8) == 2

    def test_two(self):
        assert dc_oracle(2) == 1

    def test_eleven(self):
        assert dc_oracle(11) == 1

    def test_too_small(self):
        with pytest.raises(TargetTooSmall):
            dc_oracle(1)

    def test_above_cap(self):
        with pytest.raises(AboveOracleCap):
            dc_oracle(ORACLE_CAP + 1)
        with pytest.raises(AboveOracleCap):
            dc_oracle_table(ORACLE_CAP + 1)

    def test_table_against_exhaustive_enumeration(self):
        table = dc_oracle_table(60)
        for target in range(2, 61):
            assert table[target] == min_prime_summands(target)

    def test_unreachable_entries_are_zero(self):
        table = dc_oracle_table(50)
        assert table[0] == 0 and table[1] == 0

    def test_agrees_with_dc_min_up_to_5000(self):
        table = dc_oracle_table(5000)
        for target in range(2, 5001):
            assert dc_min(target).value == table[target]


class TestDecompositions:
    def test_eight_into_four(self):
        assert (2, 2, 2, 2) in decompositions(8, 4)

    def test_eight_into_two(self):
        assert decompositions(8, 2) == [(3, 5)]

    def test_four_into_three_is_empty(self):
        assert decompositions(4, 3) == []

    @pytest.mark.parametrize(
        "target, k, expected",
        [(2000, 1000, [(2,) * 1000]), (2001, 1000, [(2,) * 999 + (3,)])],
    )
    def test_k_deeper_than_the_recursion_limit(self, target, k, expected):
        assert decompositions(target, k) == expected

    def test_above_cap(self):
        with pytest.raises(AboveEnumerationCap):
            decompositions(10**5, 2)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            decompositions(8, 0)

    def test_too_small(self):
        with pytest.raises(TargetTooSmall):
            decompositions(1, 1)

    @settings(max_examples=80, deadline=None)
    @given(target=st.integers(2, 120), k=st.integers(1, 6))
    def test_results_are_complete_and_sound(self, target, k):
        found = decompositions(target, k)
        assert len(set(found)) == len(found)
        for combo in found:
            assert len(combo) == k
            assert sum(combo) == target
            assert all(trial_is_prime(p) for p in combo)
            assert list(combo) == sorted(combo)
        # cross-check against the brute-force enumeration
        from itertools import combinations_with_replacement

        primes = trial_primes_between(2, target)
        expected = [
            combo
            for combo in combinations_with_replacement(primes, k)
            if sum(combo) == target
        ]
        assert found == expected  # and in the same lexicographic order


class TestGoldbachPairs:
    def test_hundred(self):
        assert goldbach_pairs(100) == [
            (3, 97),
            (11, 89),
            (17, 83),
            (29, 71),
            (41, 59),
            (47, 53),
        ]

    def test_four(self):
        assert goldbach_pairs(4) == [(2, 2)]

    def test_odd_rejected(self):
        with pytest.raises(NotEven):
            goldbach_pairs(7)

    def test_two_rejected(self):
        with pytest.raises(TargetTooSmall):
            goldbach_pairs(2)

    def test_above_cap(self):
        with pytest.raises(AboveEnumerationCap):
            goldbach_pairs(10**7)

    @settings(max_examples=100, deadline=None)
    @given(target=st.integers(2, 2500).map(lambda n: 2 * n))
    def test_pairs_match_two_prime_decompositions(self, target):
        pairs = goldbach_pairs(target)
        assert pairs == decompositions(target, 2)
        assert (dc_min(target).value == 2) == bool(pairs)
        for p, q in pairs:
            assert p <= q and p + q == target
            assert trial_is_prime(p) and trial_is_prime(q)
