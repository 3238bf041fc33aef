import functools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import goldbach_lab
from goldbach_lab import census, primes
from goldbach_lab.audit import audit_range
from goldbach_lab.census import RowCensus, census_range, census_row
from goldbach_lab.primes import is_prime, prime_count, sieve_segment
from goldbach_lab.rowrange import Range, Row

from oracles import trial_is_prime

WALK = Range(1, 240)
WALKERS = {
    "census": lambda: census_range(WALK, 12),
    "audit-w1": lambda: audit_range(WALK, 12, workers=1),
    "audit-w2": lambda: audit_range(WALK, 12, workers=2),
}


def enumerate_census(row: Row) -> RowCensus:
    evens = odds = n_primes = 0
    for n in row.elements():
        if n % 2 == 0:
            evens += 1
        else:
            odds += 1
        if trial_is_prime(n):
            n_primes += 1
    return RowCensus(evens, odds, n_primes, row.size)


class TestCensusRow:
    def test_first_decade(self):
        assert census_row(Row(1, 10)) == RowCensus(5, 5, 4, 10)

    def test_one_counts_as_odd_not_prime(self):
        c = census_row(Row(1, 2))
        assert c.gamma_odd == 1 and c.gamma_prime == 1

    def test_single_even_prime(self):
        assert census_row(Row(2, 2)) == RowCensus(1, 0, 1, 1)

    def test_last_decade_of_hundred(self):
        assert census_row(Row(91, 100)) == RowCensus(5, 5, 1, 10)

    @settings(max_examples=100, deadline=None)
    @given(start=st.integers(1, 10**5), size=st.integers(1, 300))
    def test_matches_enumeration(self, start, size):
        row = Row(start, start + size - 1)
        assert census_row(row) == enumerate_census(row)

    @settings(max_examples=100, deadline=None)
    @given(start=st.integers(1, 10**6), half=st.integers(1, 200))
    def test_even_width_balances_parity(self, start, half):
        c = census_row(Row(start, start + 2 * half - 1))
        assert c.gamma_even == c.gamma_odd == c.m // 2

    @settings(max_examples=100, deadline=None)
    @given(start=st.integers(1, 10**6), size=st.integers(1, 300))
    def test_parity_counts_partition_the_row(self, start, size):
        c = census_row(Row(start, start + size - 1))
        assert c.gamma_even + c.gamma_odd == c.m == size
        assert abs(c.gamma_even - c.gamma_odd) <= 1
        assert (c.gamma_even == c.gamma_odd) == (c.m % 2 == 0)
        assert c.gamma_prime <= c.m


class TestCensusRange:
    def test_hundred_by_ten(self):
        items = census_range(Range(1, 100), 10)
        assert len(items) == 10
        assert items[0] == (Row(1, 10), RowCensus(5, 5, 4, 10))
        assert sum(c.gamma_prime for _, c in items) == 25
        assert sum(c.m for _, c in items) == 100

    def test_two_three(self):
        items = census_range(Range(2, 3), 2)
        assert items == [(Row(2, 3), RowCensus(1, 1, 2, 2))]

    def test_rows_come_back_in_order(self):
        items = census_range(Range(1, 1000), 10)
        starts = [row.start for row, _ in items]
        assert starts == sorted(starts)

    # cap 48 shares each sieve across four rows; caps 13, 8 and 7 do not
    # divide the width 12, so rows straddle two segments (8 and 7 are
    # narrower than a row); the default cap covers all
    @pytest.mark.parametrize(
        "cap", [48, 13, 8, 7, None], ids=["cap48", "cap13", "cap8", "cap7", "default"]
    )
    @pytest.mark.parametrize("walker", list(WALKERS))
    def test_chunked_sieving_matches_per_row(self, walker, cap, monkeypatch):
        reference = census_range(WALK, 12) if walker == "census" else audit_range(WALK, 12)
        segments = []
        if cap is not None:
            walk = functools.partial(primes.iter_segments, cap=cap)

            def counted(lo, hi):
                for seg in walk(lo, hi):
                    segments.append(seg)
                    yield seg

            monkeypatch.setattr(census, "iter_segments", counted)
        result = WALKERS[walker]()
        assert cap is None or len(segments) > 1  # the small cap really split the walk
        assert result == reference
        items = result if walker == "census" else [(r.row, r.census) for r in result.reports]
        assert items == [(row, enumerate_census(row)) for row, _ in items]

    @settings(max_examples=60, deadline=None)
    @given(
        start=st.integers(1, 10**5),
        width=st.integers(1, 40),
        count=st.integers(1, 40),
    )
    def test_prime_totals_independent_of_width(self, start, width, count):
        rng = Range(start, start + width * count - 1)
        items = census_range(rng, width)
        assert sum(c.gamma_prime for _, c in items) == prime_count(rng.start, rng.end)


def seeded_censuses(seed):
    """(range, width) pairs from 1 and from 2, and seeded ones near 10^4."""
    yield Range(1, 2), 1
    yield Range(1, 300), 12
    yield Range(2, 301), 10
    rng = random.Random(seed)
    for _ in range(4):
        width = rng.randint(1, 40)
        start = 10**4 + rng.randrange(1000)
        yield Range(start, start + width * rng.randint(1, 12) - 1), width


class TestCensusOnTheCoreDigits:
    # caps 1, 7 and 64 put segment edges inside rows and on row edges
    @pytest.mark.parametrize("cap", [1, 7, 64, None], ids=["cap1", "cap7", "cap64", "default"])
    @pytest.mark.parametrize("rng, width", list(seeded_censuses(14)))
    def test_row_primes_match_point_tests(self, rng, width, cap, monkeypatch):
        if cap is not None:
            monkeypatch.setattr(census, "iter_segments", functools.partial(primes.iter_segments, cap=cap))
        for row, c in census_range(rng, width):
            expected = sum(is_prime(n) for n in range(row.start, row.end + 1))
            assert c.gamma_prime == expected == sieve_segment(row.start, row.end).count()

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="needs VmHWM from procfs"
    )
    def test_peak_memory_near_1e12(self, tmp_path):
        # one segment of 10^7 integers counted on the digits of its odds peaks near
        # 26 MiB; building per-integer flags for the count took it to about 40 MiB
        lo = 10**12 + 1
        hi = lo + 10**7 - 1
        code = (
            "import sys\n"
            "from goldbach_lab.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "with open('/proc/self/status') as fh:\n"
            "    print(next(l for l in fh if l.startswith('VmHWM:')).split()[1])\n"
        )
        src = str(Path(goldbach_lab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / "census.csv"
        proc = subprocess.run(
            [sys.executable, "-c", code, "census", "--from", str(lo), "--to", str(hi),
             "--row-width", "10000", "--format", "csv", "--output", str(out)],
            capture_output=True, text=True, env=env, timeout=300, check=True,
        )
        assert len(out.read_text().splitlines()) == 1 + 1000
        peak_kib = int(proc.stdout.split()[-1])
        assert peak_kib < 34 * 1024, f"peak RSS {peak_kib} KiB"
