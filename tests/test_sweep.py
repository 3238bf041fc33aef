import json
import os
import subprocess
import sys
import time
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import goldbach_lab
from goldbach_lab import primes, sweep
from goldbach_lab.cli import main
from goldbach_lab.dc import dc_min, goldbach_pairs
from goldbach_lab.errors import CheckpointMismatch, NotEven, OutOfBounds, SegmentTooLarge
from goldbach_lab.primes import SEGMENT_CAP, iter_segments
from goldbach_lab.sweep import (
    CHECKPOINT_VERSION,
    SweepCheckpoint,
    checkpoint_from_json,
    checkpoint_to_json,
    read_checkpoint,
    run_verify,
    verify_block,
    write_checkpoint,
)

T0 = "2024-01-01T00:00:00Z"

# near 10^12 a block holds 2^20 evens; this window needs two of them
HIGH_LO = 10**12
HIGH_HI = HIGH_LO + 2 * ((1 << 20) + (1 << 12))

# the default pair-prime budget; a block from B + 0 or B + 2 sieves from 2
B = sweep._PAIR_PRIME_BOUND
AT_THE_CLAMP = [(B, B + 200), (B + 2, B + 200), (B + 4, B + 200)]

# the last evens of spans from 4 that the plan cuts into one, three and
# five blocks of BLOCK_EVENS evens, the last block short; from 4 to last
# there are last // 2 - 1 evens
E = sweep.BLOCK_EVENS
ONE_BLOCK_TO = E
THREE_BLOCKS_TO = 2 * (2 * E + E // 4)
FIVE_BLOCKS_TO = 2 * (4 * E + E // 2)

# two blocks at 2^64: run_verify refuses the span before any block
TOO_HIGH_LO = 1 << 64
TOO_HIGH_HI = TOO_HIGH_LO + 2 * sweep._MAX_BLOCK_EVENS


def make_checkpoint(**overrides):
    doc = {
        "version": CHECKPOINT_VERSION,
        "from": 4,
        "to": 10000,
        "last_verified": 5000,
        "failures": [],
        "started_at": T0,
        "updated_at": T0,
    }
    doc.update(overrides)
    return json.dumps(doc)


def src_env():
    """The environment for a child interpreter that imports this package."""
    src = str(Path(goldbach_lab.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def refuse_block_one(monkeypatch):
    """Make verify_block raise OutOfBounds for block 1 of [4, THREE_BLOCKS_TO],
    which worker 1 of two verifies first, in whichever process verifies it."""
    block = block_pairs(4, THREE_BLOCKS_TO)[1]
    real_verify_block = sweep.verify_block

    def refusing_verify_block(lo, hi):
        if (lo, hi) == block:
            raise OutOfBounds(f"block {block} refused")
        return real_verify_block(lo, hi)

    monkeypatch.setattr(sweep, "verify_block", refusing_verify_block)


@pytest.fixture
def forks(monkeypatch):
    """The pid of every worker process the sweep forks, as the parent sees it."""
    pids = []
    real_fork = os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


class TestVerifyBlock:
    def test_small_block_is_clean(self):
        assert verify_block(4, 2000) == []

    def test_fast_path_agrees_with_pair_enumeration(self):
        assert verify_block(4, 600) == [
            a for a in range(4, 601, 2) if not goldbach_pairs(a)
        ]

    def test_interior_block(self):
        assert verify_block(1_000_000, 1_002_000) == []

    def test_odd_bounds_rejected(self):
        with pytest.raises(NotEven):
            verify_block(5, 100)

    @pytest.mark.parametrize("lo, hi", [(2, 10), (2, 2), (0, 4), (-4, 4), (10, 4)])
    def test_bounds_below_four_or_out_of_order_rejected(self, lo, hi):
        # 2 is no sum of two primes, so a block reaching below 4 has no exact answer
        with pytest.raises(ValueError, match=r"need 4 <= lo <= hi"):
            verify_block(lo, hi)

    @pytest.mark.parametrize("bound", [2, 3, 13, 31, B])
    @pytest.mark.parametrize(
        "lo, hi",
        [(4, 4), (6, 6), (4, 600), (998, 1400), (10**6, 10**6 + 2000), (10**12, 10**12 + 2000)]
        + AT_THE_CLAMP,
    )
    def test_fallback_gets_exactly_the_unresolved_evens(self, monkeypatch, bound, lo, hi):
        # With a tiny pair-prime budget the mask pass leaves evens whose
        # smallest Goldbach prime exceeds it; those, and only those, must
        # reach dc_min, in ascending order.
        seen = record_fallback(monkeypatch)
        monkeypatch.setattr(sweep, "_PAIR_PRIME_BOUND", bound)
        assert verify_block(lo, hi) == []
        assert seen == [n for n in range(lo, hi + 1, 2) if dc_min(n).witness[0] > bound]

    @pytest.mark.parametrize("lo, hi", [(4, 600), (6, 6), (10**6, 10**6 + 200)] + AT_THE_CLAMP)
    def test_mask_pass_resolves_only_what_the_sieve_shows(self, monkeypatch, lo, hi):
        # A sieve that reports no primes must leave every even but 4 to the
        # fallback; in particular the evens whose partner would lie below 3,
        # past the top of the sieved digits, must not be taken as resolved.
        seen = record_fallback(monkeypatch)
        monkeypatch.setattr(sweep, "_odd_digits", no_primes)
        assert verify_block(lo, hi) == []
        assert seen == [n for n in range(lo, hi + 1, 2) if n != 4]

    @settings(max_examples=300, deadline=None)
    @given(
        bound=st.sampled_from([2, 3, 5, 7, 31, B]),
        where=st.sampled_from(["4-6-8", "holds 3", "above"]),
        sixes=st.integers(0, 10**6),
        residue=st.integers(0, 2),
        length=st.tuples(st.integers(0, 100), st.integers(0, 2)),
        sieve=st.sampled_from(["real", "no primes"]),
    )
    def test_the_fallback_gets_exactly_the_evens_past_the_bound(
        self, bound, where, sixes, residue, length, sieve
    ):
        # The mask pass splits its bits by residue mod 3 and skips the odd
        # multiples of 3 unless the sieved window holds 3 itself; neither may
        # change which evens reach dc_min.  Each lo moves by 2 * residue, so
        # it takes every residue mod 3.
        if where == "4-6-8":
            lo = 4 + 2 * residue
        elif where == "holds 3":  # lo - bound <= 3: the window starts at 3
            lo = max(4, (bound + 3 - 6 * (sixes % 4) - 2 * residue) // 2 * 2)
        else:
            lo = bound + 6 + 6 * sixes + 2 * residue - bound % 2
        hi = lo + 2 * (3 * length[0] + length[1])  # 3q + t evens, t in {1, 2, 3}
        expected = [n for n in range(lo, hi + 1, 2) if n != 4]
        with pytest.MonkeyPatch.context() as mp:
            seen = record_fallback(mp)
            mp.setattr(sweep, "_PAIR_PRIME_BOUND", bound)
            if sieve == "no primes":
                mp.setattr(sweep, "_odd_digits", no_primes)
            else:
                expected = [n for n in expected if dc_min(n).witness[0] > bound]
            assert verify_block(lo, hi) == []
        assert seen == expected

    @pytest.mark.parametrize("lo", [32, 34, 36])
    def test_partner_one_is_no_prime_at_a_prime_bound(self, monkeypatch, lo):
        # At the default bound no base prime comes within 3 of B, so no even
        # of AT_THE_CLAMP has a partner below 3.  With the prime bound 31 the
        # block from 32 sieves from 2 and 32 = 31 + 1 reaches past the top
        # odd digit; 34 and 36 sieve from 3 and 5 and need no padding.
        seen = record_fallback(monkeypatch)
        monkeypatch.setattr(sweep, "_PAIR_PRIME_BOUND", 31)
        monkeypatch.setattr(sweep, "_odd_digits", no_primes)
        assert verify_block(lo, lo + 40) == []
        assert seen == list(range(lo, lo + 41, 2))

    def test_one_small_prime_table_per_process(self, monkeypatch):
        # the sieve core, the pair pass and dc_min's pair search read the one
        # table primes._base_table keeps; a smaller bound reads it as it is
        asked = []  # the (lo, hi) of each stretch the table's growth sieves

        def walk(lo, hi, **kw):
            asked.append((lo, hi))
            return iter_segments(lo, hi, **kw)

        monkeypatch.setattr(primes, "_table", (2, *primes._WHEEL_PRIMES))
        monkeypatch.setattr(primes, "_table_limit", 0)
        monkeypatch.setattr(primes, "iter_segments", walk)
        verify_block(10**12, 10**12 + 2000)  # the primes up to isqrt(hi), rounded up to 2^20
        assert asked == [(14, 169), (170, 169**2), (169**2 + 1, 1 << 20)]  # one growth
        dc_min(10**12 + 2)
        verify_block(10**10, 10**10 + 2000)
        assert len(asked) == 3 and primes._table_limit == 1 << 20

    # the sieved window of a block from 10^6 is [10^6 - B, hi]
    CAPPED = (10**6, 10**6 - B + SEGMENT_CAP - 2)  # the widest even hi under the cap

    @pytest.mark.parametrize("lo, hi", [(4, 4 * 10**9), (CAPPED[0], CAPPED[1] + 2)])
    def test_a_block_over_the_segment_cap_is_refused_before_sieving(self, monkeypatch, lo, hi):
        sieved = []
        monkeypatch.setattr(sweep, "_odd_digits", lambda first_odd, hi: sieved.append(hi))
        with pytest.raises(SegmentTooLarge, match="exceeds cap"):
            verify_block(lo, hi)
        assert sieved == []

    def test_the_widest_block_under_the_cap_reaches_the_sieve(self, monkeypatch):
        def refuse(first_odd, hi):  # stop there: this test needs the call, not the sieve
            raise OutOfBounds(f"sieve called up to {hi}")

        monkeypatch.setattr(sweep, "_odd_digits", refuse)
        with pytest.raises(OutOfBounds, match=f"sieve called up to {self.CAPPED[1]}"):
            verify_block(*self.CAPPED)


def record_fallback(monkeypatch):
    """Route verify_block's fallback through dc_min, recording each even."""
    seen = []

    def recording_dc_min(n):
        seen.append(n)
        return dc_min(n)

    monkeypatch.setattr(sweep, "dc_min", recording_dc_min)
    return seen


def no_primes(first_odd, hi):
    """A sieve core that reports every odd as not prime."""
    return bytearray(b"1") * ((hi - first_odd) // 2 + 1)


def block_evens(block):
    lo, hi = block
    return (hi - lo) // 2 + 1


def block_pairs(first, last):
    """The plan of [first, last] as (lo, hi) pairs: each block ends one even
    before the next start, and the last one at last."""
    starts = sweep._blocks(first, last)
    assert isinstance(starts, range) and starts.start == first
    return [(lo, min(lo + starts.step - 2, last)) for lo in starts]


class TestBlocks:
    @settings(max_examples=200, deadline=None)
    @given(
        first=st.integers(2, 10**15).map(lambda n: 2 * n),
        span=st.integers(0, 1 << 22),
    )
    def test_blocks_tile_the_range(self, first, span):
        last = first + 2 * span
        blocks = block_pairs(first, last)
        assert blocks[0][0] == first and blocks[-1][1] == last
        for lo, hi in blocks:
            assert lo % 2 == 0 and hi % 2 == 0 and lo <= hi
        for (_, hi), (lo, _) in zip(blocks, blocks[1:]):
            assert lo == hi + 2
        sizes = {block_evens(b) for b in blocks[:-1]}
        assert len(sizes) <= 1 and block_evens(blocks[-1]) <= block_evens(blocks[0])
        assert block_evens(blocks[0]) <= 1 << 20

    @pytest.mark.parametrize(
        "last, evens",
        [(10**7, E), (10**9, E), (10**10, E), (10**11, 1 << 19), (10**12, 1 << 20),
         (10**14, 1 << 20), (10**18, 1 << 20), (2**64 - 2, 1 << 20)],
    )
    def test_block_size_follows_the_square_root_of_the_last_even(self, last, evens):
        first = last - 2 * (3 << 20)
        assert block_evens(block_pairs(first, last)[0]) == evens

    def test_block_size_depends_on_the_last_even_only(self):
        # a resumed sweep starts mid-range and must cut blocks of the same size
        assert len(sweep._blocks(HIGH_LO, HIGH_HI)) == 2
        resumed = block_pairs(HIGH_LO + 2 * 1000, HIGH_HI)
        assert [block_evens(b) for b in resumed] == [1 << 20, (1 << 12) - 999]


class TestRunVerify:
    def test_single_even(self):
        summary = run_verify(4, 4)
        assert summary.verified == 1 and summary.failures == ()

    def test_ten_thousand(self):
        summary = run_verify(4, 10**4)
        assert summary.verified == (10**4 - 4) // 2 + 1 == 4999
        assert summary.failures == ()

    def test_bad_bounds(self):
        with pytest.raises(NotEven):
            run_verify(5, 100)
        with pytest.raises(ValueError):
            run_verify(2, 100)
        with pytest.raises(ValueError):
            run_verify(100, 4)

    def test_worker_count_does_not_change_summary(self):
        one = run_verify(4, THREE_BLOCKS_TO)
        four = run_verify(4, THREE_BLOCKS_TO, workers=4)
        assert (one.verified, one.failures) == (four.verified, four.failures)

    def test_pool_has_no_more_processes_than_blocks(self, forks):
        assert len(sweep._blocks(4, THREE_BLOCKS_TO)) == 3
        summary = run_verify(4, THREE_BLOCKS_TO, workers=8)
        assert (summary.verified, summary.failures) == (THREE_BLOCKS_TO // 2 - 1, ())
        assert len(forks) == 2  # this process is worker 0
        run_verify(4, THREE_BLOCKS_TO, workers=2)
        assert len(forks) == 3
        assert len(sweep._blocks(4, ONE_BLOCK_TO)) == 1
        run_verify(4, ONE_BLOCK_TO, workers=4)
        run_verify(4, THREE_BLOCKS_TO, workers=1)
        assert len(forks) == 3  # one block or one worker forks nothing

    @pytest.mark.parametrize("workers", [2, 3])
    def test_the_parent_verifies_worker_zeros_share(self, monkeypatch, forks, workers):
        blocks = block_pairs(4, FIVE_BLOCKS_TO)
        parent = os.getpid()
        real_verify_block = sweep.verify_block
        verified_here = []

        def recording_verify_block(lo, hi):
            if os.getpid() == parent:
                verified_here.append((lo, hi))
            return real_verify_block(lo, hi)

        monkeypatch.setattr(sweep, "verify_block", recording_verify_block)
        summary = run_verify(4, FIVE_BLOCKS_TO, workers=workers)
        assert (summary.verified, summary.failures) == (FIVE_BLOCKS_TO // 2 - 1, ())
        assert len(forks) == workers - 1
        assert verified_here == blocks[0::workers]

    def test_a_dead_worker_leaves_its_blocks_to_the_parent(self, monkeypatch, forks):
        blocks = block_pairs(4, FIVE_BLOCKS_TO)
        assert len(blocks) == 5
        one = run_verify(4, FIVE_BLOCKS_TO)
        parent = os.getpid()
        real_verify_block = sweep.verify_block
        verified_here = []

        def dying_verify_block(lo, hi):
            if os.getpid() == parent:
                verified_here.append((lo, hi))
            elif (lo, hi) == blocks[1]:  # worker 1 exits at its first block
                os._exit(1)
            return real_verify_block(lo, hi)

        monkeypatch.setattr(sweep, "verify_block", dying_verify_block)
        three = run_verify(4, FIVE_BLOCKS_TO, workers=3)
        assert (three.verified, three.failures) == (one.verified, one.failures)
        assert len(forks) == 2
        # worker 0's share and dead worker 1's; worker 2's came by pipe
        assert verified_here == sorted(blocks[0::3] + blocks[1::3])

    def test_failures_cross_the_pipes_in_block_order(self, monkeypatch, forks):
        monkeypatch.setattr(sweep, "verify_block", lambda lo, hi: [hi, lo] if lo % 3 else [])
        one = run_verify(4, FIVE_BLOCKS_TO)
        assert one.failures and one.verified == FIVE_BLOCKS_TO // 2 - 1 - len(one.failures)
        for workers in (2, 3):
            other = run_verify(4, FIVE_BLOCKS_TO, workers=workers)
            assert (other.verified, other.failures) == (one.verified, one.failures)
        assert len(forks) == 3

    def test_a_worker_error_is_raised_as_at_one_worker(self, monkeypatch, forks):
        refuse_block_one(monkeypatch)
        with pytest.raises(OutOfBounds) as one:
            run_verify(4, THREE_BLOCKS_TO)
        with pytest.raises(OutOfBounds) as two:
            run_verify(4, THREE_BLOCKS_TO, workers=2)
        assert str(two.value) == str(one.value)
        assert len(forks) == 1

    def test_a_span_past_two_to_the_64_is_refused_before_any_block(self, monkeypatch, forks):
        monkeypatch.setattr(sweep, "verify_block", None)  # so any block would fail
        with pytest.raises(OutOfBounds, match=r"2\*\*64"):
            run_verify(TOO_HIGH_LO, TOO_HIGH_HI, workers=2)
        with pytest.raises(OutOfBounds, match=r"2\*\*64"):
            run_verify(4, 1 << 64)
        assert forks == []

    def test_the_table_is_built_before_the_first_fork(self, monkeypatch):
        # so the forked workers inherit one table instead of each building it
        monkeypatch.setattr(primes, "_table", (2, *primes._WHEEL_PRIMES))
        monkeypatch.setattr(primes, "_table_limit", 0)
        limits = []
        real_fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: limits.append(primes._table_limit) or real_fork())
        assert run_verify(HIGH_LO, HIGH_HI, workers=2).failures == ()
        assert len(limits) == 1 and limits[0] >= isqrt(HIGH_HI) > primes._BASE_TABLE_STEP

    def test_a_worker_error_exits_two_from_the_cli(self):
        resource = pytest.importorskip("resource")

        def cap_address_space():  # a regression fails fast instead of allocating
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "goldbach_lab.cli", "verify", "--from", str(TOO_HIGH_LO),
             "--to", str(TOO_HIGH_HI), "--workers", "2"],
            capture_output=True, text=True, env=src_env(), preexec_fn=cap_address_space, timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert "2**64" in proc.stderr

    @pytest.mark.parametrize("ending", ["return", "raise", "checkpoint-write"])
    def test_every_worker_is_reaped(self, ending, monkeypatch, forks, tmp_path):
        # a held exception keeps the sweep's frames alive, so only the sweep
        # itself, not garbage collection, can have stopped its workers
        raised = None
        if ending == "return":
            run_verify(4, THREE_BLOCKS_TO, workers=2)
        elif ending == "raise":
            refuse_block_one(monkeypatch)
            with pytest.raises(OutOfBounds) as raised:
                run_verify(4, THREE_BLOCKS_TO, workers=2)
        else:  # the first checkpoint, after block 0, goes to a missing directory
            with pytest.raises(FileNotFoundError) as raised:
                run_verify(4, THREE_BLOCKS_TO, workers=2, checkpoint_stride=1,
                           checkpoint_path=str(tmp_path / "missing" / "cp.json"))
        assert (raised is None) == (ending == "return")
        assert len(forks) == 1
        for pid in forks:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    def test_checkpoint_positions_do_not_depend_on_workers(self, monkeypatch, tmp_path):
        written = {1: [], 2: []}
        for workers, positions in written.items():
            monkeypatch.setattr(
                sweep, "write_checkpoint", lambda path, cp: positions.append(cp.last_verified)
            )
            run_verify(4, FIVE_BLOCKS_TO, workers=workers, checkpoint_stride=E,
                       checkpoint_path=str(tmp_path / f"cp{workers}.json"))
        assert written[1] == written[2]
        assert len(written[1]) == len(sweep._blocks(4, FIVE_BLOCKS_TO)) == 5

    def test_workers_and_checkpointing_compose(self, tmp_path):
        path = str(tmp_path / "cp.json")
        summary = run_verify(
            4,
            THREE_BLOCKS_TO,
            workers=2,
            checkpoint_path=path,
            checkpoint_stride=E,
        )
        cp = read_checkpoint(path)
        assert cp.last_verified == THREE_BLOCKS_TO
        assert cp.failures == summary.failures == ()

    def test_high_window_same_at_any_worker_count_and_after_resume(self, tmp_path):
        fresh = run_verify(HIGH_LO, HIGH_HI)
        assert fresh.verified == (HIGH_HI - HIGH_LO) // 2 + 1 and fresh.failures == ()
        two = run_verify(HIGH_LO, HIGH_HI, workers=2)
        path = str(tmp_path / "cp.json")
        mid_block = HIGH_LO + 2 * 1000
        write_checkpoint(
            path, SweepCheckpoint(CHECKPOINT_VERSION, HIGH_LO, HIGH_HI, mid_block, (), T0, T0)
        )
        resumed = run_verify(HIGH_LO, HIGH_HI, workers=2, checkpoint_path=path)
        assert resumed.resumed_from == mid_block
        assert read_checkpoint(path).last_verified == HIGH_HI
        for other in (two, resumed):
            assert (other.verified, other.failures) == (fresh.verified, fresh.failures)

    def test_a_huge_span_checkpoints_its_first_block_at_once(self, tmp_path):
        # 4..10^14 is 47,683,716 blocks of 2^20 evens: planning them must cost
        # nothing, so the first checkpoint comes within seconds under 1 GiB
        resource = pytest.importorskip("resource")

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        path = tmp_path / "cp.json"
        proc = subprocess.Popen(
            [sys.executable, "-m", "goldbach_lab.cli", "verify", "--from", "4",
             "--to", str(10**14), "--workers", "1", "--checkpoint", str(path),
             "--checkpoint-stride", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=src_env(),
            preexec_fn=cap_address_space,
        )
        try:
            deadline = time.monotonic() + 5
            while not path.exists() and proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.02)
            assert proc.poll() is None, proc.communicate()[1]
            cp = read_checkpoint(str(path))  # written by rename, so complete
        finally:
            proc.kill()
            proc.communicate()
        step = 2 * sweep._MAX_BLOCK_EVENS
        assert (cp.from_even, cp.to_even) == (4, 10**14)
        assert cp.last_verified >= 4 + step - 2 and (cp.last_verified - 4 + 2) % step == 0

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="needs VmHWM from procfs"
    )
    def test_peak_memory_is_bounded_near_1e14(self, tmp_path):
        # 2^20 + 2 evens: one full-size block and one of a single even pair,
        # each sieving with the base primes up to 10^7
        lo = 10**14
        hi = lo + 2 * ((1 << 20) + 1)
        code = (
            "import sys\n"
            "from goldbach_lab.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "with open('/proc/self/status') as fh:\n"
            "    print(next(l for l in fh if l.startswith('VmHWM:')).split()[1])\n"
        )
        out = tmp_path / "out.json"
        proc = subprocess.run(
            [sys.executable, "-c", code, "verify", "--from", str(lo), "--to", str(hi),
             "--format", "json", "--output", str(out)],
            capture_output=True, text=True, env=src_env(), timeout=300, check=True,
        )
        assert json.loads(out.read_text())["payload"]["verified"] == (1 << 20) + 2
        peak_kib = int(proc.stdout.split()[-1])
        assert peak_kib < 128 * 1024, f"peak RSS {peak_kib} KiB"


class TestCheckpointDocument:
    def test_timestamps_are_written_as_datetime_wrote_them(self, monkeypatch):
        from datetime import datetime, timezone

        second = 1_700_000_000
        real_gmtime = time.gmtime
        monkeypatch.setattr(time, "gmtime", lambda *args: real_gmtime(second))
        expected = datetime.fromtimestamp(second, timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        assert sweep._utcnow() == expected == "2023-11-14T22:13:20Z"

    def test_round_trip(self):
        cp = SweepCheckpoint(CHECKPOINT_VERSION, 4, 10000, 5000, (100, 200), T0, T0)
        assert checkpoint_from_json(checkpoint_to_json(cp)) == cp

    def test_document_is_newline_terminated_json(self):
        cp = SweepCheckpoint(CHECKPOINT_VERSION, 4, 100, 50, (), T0, T0)
        text = checkpoint_to_json(cp)
        assert text.endswith("\n")
        assert set(json.loads(text)) == {
            "version",
            "from",
            "to",
            "last_verified",
            "failures",
            "started_at",
            "updated_at",
        }

    def test_unknown_field_rejected(self):
        with pytest.raises(CheckpointMismatch):
            checkpoint_from_json(make_checkpoint(extra=1))

    def test_missing_field_rejected(self):
        doc = json.loads(make_checkpoint())
        del doc["failures"]
        with pytest.raises(CheckpointMismatch):
            checkpoint_from_json(json.dumps(doc))

    def test_wrong_version_rejected(self):
        with pytest.raises(CheckpointMismatch):
            checkpoint_from_json(make_checkpoint(version=2))

    def test_out_of_order_bounds_rejected(self):
        with pytest.raises(CheckpointMismatch):
            checkpoint_from_json(make_checkpoint(last_verified=20000))

    def test_odd_values_rejected(self):
        with pytest.raises(CheckpointMismatch):
            checkpoint_from_json(make_checkpoint(last_verified=5001))

    def test_failures_outside_bounds_rejected(self):
        with pytest.raises(CheckpointMismatch):
            checkpoint_from_json(make_checkpoint(failures=[2]))

    def test_invalid_json_rejected(self):
        with pytest.raises(CheckpointMismatch):
            checkpoint_from_json('{"version": 1,')

    def test_deeply_nested_json_rejected(self):
        with pytest.raises(CheckpointMismatch, match="not valid JSON"):
            checkpoint_from_json("[" * 200_000 + "]" * 200_000)

    def test_invalid_utf8_rejected(self, tmp_path):
        path = tmp_path / "cp.json"
        path.write_bytes(b'{"version": 1, "started_at": "\xff"}')
        with pytest.raises(CheckpointMismatch, match="not UTF-8"):
            read_checkpoint(str(path))


MISTYPED = [
    {"from": "4"},
    {"failures": "6"},
    {"failures": ["6"]},
    {"failures": None},
    {"failures": [True]},
    {"last_verified": 50.0},
    {"to": 10000.0},
    {"version": True},
    {"started_at": 5},
    {"updated_at": None},
]
MISTYPED_IDS = [f"{k}={json.dumps(v)}" for o in MISTYPED for k, v in o.items()]


@pytest.mark.parametrize("override", MISTYPED, ids=MISTYPED_IDS)
class TestMistypedCheckpointFields:
    def test_parser_rejects(self, override):
        with pytest.raises(CheckpointMismatch, match="wrong type"):
            checkpoint_from_json(make_checkpoint(**override))

    def test_verify_exits_two(self, override, tmp_path, capsys):
        path = tmp_path / "cp.json"
        path.write_text(make_checkpoint(**override))
        argv = ["verify", "--from", "4", "--to", "10000", "--checkpoint", str(path)]
        assert main(argv) == 2
        assert "wrong type" in capsys.readouterr().err


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
# values a well-formed checkpoint could hold, so some documents parse
PLAUSIBLE = st.sampled_from([4, 50, 10000, 1, T0, [6], []])
FIELDS = ("version", "from", "to", "last_verified", "failures", "started_at", "updated_at")


@settings(max_examples=300, deadline=None)
@given(st.fixed_dictionaries({key: PLAUSIBLE | JSON_VALUES for key in FIELDS}))
def test_any_seven_key_object_parses_or_mismatches(doc):
    try:
        cp = checkpoint_from_json(json.dumps(doc))
    except CheckpointMismatch:
        return
    assert cp.version == CHECKPOINT_VERSION
    assert cp.from_even <= cp.last_verified <= cp.to_even
    ints = (cp.from_even, cp.to_even, cp.last_verified, *cp.failures)
    assert all(type(n) is int for n in ints)
    assert type(cp.started_at) is str and type(cp.updated_at) is str


class TestCheckpointFiles:
    def test_write_then_read(self, tmp_path):
        path = str(tmp_path / "cp.json")
        cp = SweepCheckpoint(CHECKPOINT_VERSION, 4, 1000, 500, (), T0, T0)
        write_checkpoint(path, cp)
        assert read_checkpoint(path) == cp
        assert not os.path.exists(path + ".tmp")

    def test_run_writes_final_checkpoint(self, tmp_path):
        path = str(tmp_path / "cp.json")
        run_verify(4, 10**4, checkpoint_path=path)
        cp = read_checkpoint(path)
        assert cp.last_verified == 10**4
        assert cp.failures == ()

    def test_intermediate_checkpoints_respect_stride(self, tmp_path):
        path = str(tmp_path / "cp.json")
        # stride of one block: a checkpoint lands after every block but the last
        run_verify(4, THREE_BLOCKS_TO, checkpoint_path=path, checkpoint_stride=E)
        assert read_checkpoint(path).last_verified == THREE_BLOCKS_TO

    def test_resume_from_midpoint_matches_fresh_run(self, tmp_path):
        path = str(tmp_path / "cp.json")
        write_checkpoint(
            path,
            SweepCheckpoint(CHECKPOINT_VERSION, 4, 2 * 10**5, 10**5, (), T0, T0),
        )
        resumed = run_verify(4, 2 * 10**5, checkpoint_path=path)
        fresh = run_verify(4, 2 * 10**5)
        assert resumed.resumed_from == 10**5
        assert (resumed.verified, resumed.failures) == (fresh.verified, fresh.failures)

    def test_resume_from_every_checkpoint_matches_the_uninterrupted_run(
        self, monkeypatch, tmp_path
    ):
        # stride 1: a checkpoint after each of the five blocks but the last.
        # Each block is verified and also reports its first even as a failure,
        # so the failures show which blocks ran, and how often.
        written = []
        real_write_checkpoint = sweep.write_checkpoint
        real_verify_block = sweep.verify_block

        def recording_write_checkpoint(path, cp):
            written.append(cp)
            real_write_checkpoint(path, cp)

        monkeypatch.setattr(sweep, "write_checkpoint", recording_write_checkpoint)
        monkeypatch.setattr(sweep, "verify_block", lambda lo, hi: real_verify_block(lo, hi) + [lo])
        fresh = run_verify(4, FIVE_BLOCKS_TO, checkpoint_path=str(tmp_path / "cp.json"),
                           checkpoint_stride=1)
        blocks = block_pairs(4, FIVE_BLOCKS_TO)
        assert [cp.last_verified for cp in written] == [hi for _, hi in blocks]
        assert fresh.failures == tuple(lo for lo, _ in blocks)
        for cp in written[:-1]:
            for workers in (1, 2):
                path = str(tmp_path / f"cp{cp.last_verified}-{workers}.json")
                real_write_checkpoint(path, cp)
                resumed = run_verify(4, FIVE_BLOCKS_TO, workers=workers, checkpoint_path=path,
                                     checkpoint_stride=1)
                assert resumed.resumed_from == cp.last_verified
                assert (resumed.verified, resumed.failures) == (fresh.verified, fresh.failures)

    def test_resume_of_completed_run_is_a_no_op(self, tmp_path):
        path = str(tmp_path / "cp.json")
        first = run_verify(4, 10**4, checkpoint_path=path)
        again = run_verify(4, 10**4, checkpoint_path=path)
        assert (first.verified, first.failures) == (again.verified, again.failures)
        assert again.resumed_from == 10**4

    def test_bounds_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "cp.json")
        run_verify(4, 10**4, checkpoint_path=path)
        with pytest.raises(CheckpointMismatch):
            run_verify(4, 2 * 10**4, checkpoint_path=path)

    def test_resume_preserves_recorded_failures(self, tmp_path):
        # failures recorded before the checkpoint must survive the resume;
        # 6 is not really a failure, the point is list plumbing
        path = str(tmp_path / "cp.json")
        write_checkpoint(
            path,
            SweepCheckpoint(CHECKPOINT_VERSION, 4, 1000, 500, (6,), T0, T0),
        )
        resumed = run_verify(4, 1000, checkpoint_path=path)
        assert resumed.failures == (6,)
        assert resumed.verified == 499 - 1
