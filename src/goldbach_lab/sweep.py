"""Checkpointed bulk verification that every even splits into two primes.

The fast path works blockwise on big-integer bitsets.  The sieve core
writes one digit per odd of the segment, ``1`` for not prime; counted from
the end, digit k stands for the odd ``hi - 1 - 2k``.  Bit j of a block's
bitset stands for the even ``hi - 2j``, which is p + q for an odd prime p
exactly when the odd k = j + (p >> 1) is prime (4 = 2 + 2 is the only sum
using the even prime).

Both sides are split by index mod 3, as in the bitset search of Oliveira e
Silva, Herzog & Pardi (Math. Comp. 83 (2014) 2033-2060): bit i of
``unresolved[c]`` stands for j = 3i + c, and bit i of ``not_prime[m]``, read
with one ``int(digits[start::3], 2)``, for k = 3i + m.  For each small odd
prime p, with s, m = divmod(c + (p >> 1), 3), class c is ANDed with class m
shifted right by s, and each class stops once it is empty.  The odd class
k = 1 - hi (mod 3) holds the odd multiples of 3, none of them prime unless
the sieved window holds 3 itself, so outside that window it gets no int and
no AND: a third of the digit reading and of every prime's shift and AND.
Evens left unresolved by every small prime (none are expected below the
known search records) go in ascending order to the exhaustive dc search,
which either produces a pair or reports the even as a failure.

A block holds the power of two just above sqrt(to) evens, but at least
``BLOCK_EVENS`` and at most 2^20.  The sieve walks every base prime up to
sqrt(hi) once per block, so blocks sized to sqrt(hi) keep that walk from
dominating at high magnitudes, and the cap bounds a block's memory.  The
floor is 2^18 because the class split adds Python work per block, three
loops over the primes and three reads, that a smaller block does not repay:
per even, a 2^18-even block at 10^7 costs about three quarters of a 2^16
one.  The size depends on the sweep's last even alone, so the blocks, and
with them the output, are the same at any worker count and after a resume.
The plan is a ``range`` of block starts, so it costs the same at any span;
N workers, this process and N - 1 forked children, take slices of it
round-robin.
"""

from __future__ import annotations

import os
import time
from bisect import bisect_right
from math import isqrt
from typing import Iterator, Optional

from ._record import Record
from .dc import dc_min
from .errors import (
    CheckpointMismatch, GoldbachCounterexample, NotEven, OutOfBounds, SegmentTooLarge
)
from .primes import _COMPOSITE, _WORD_LIMIT, SEGMENT_CAP, _base_table, _odd_digits

BLOCK_EVENS = 1 << 18  # fewest evens in a block, which repays the mod-3 split's Python
_MAX_BLOCK_EVENS = 1 << 20  # most evens in one block, whatever the magnitude
DEFAULT_CHECKPOINT_STRIDE = 1 << 26  # evens between checkpoint writes: 64 of the largest blocks
CHECKPOINT_VERSION = 1

_PAIR_PRIME_BOUND = 1 << 14  # small-prime budget before the fallback; within any base table
_SIGKILL = 9  # fixed by POSIX, where os.fork exists; importing signal costs ~1 ms

_INT_FIELDS = ("version", "from", "to", "last_verified")
_STR_FIELDS = ("started_at", "updated_at")
_CHECKPOINT_FIELDS = _INT_FIELDS + ("failures",) + _STR_FIELDS  # SweepCheckpoint's order


class SweepCheckpoint(Record):
    """Persistent sweep progress with a fixed, version-gated field set."""

    __slots__ = (
        "version", "from_even", "to_even", "last_verified", "failures", "started_at", "updated_at"
    )

    def __init__(
        self, version: int, from_even: int, to_even: int, last_verified: int,
        failures: tuple[int, ...], started_at: str, updated_at: str,
    ) -> None:
        self._store(version, from_even, to_even, last_verified, failures, started_at, updated_at)


class SweepSummary(Record):
    """Outcome of one verify run; elapsed time never enters serialized payloads."""

    __slots__ = (
        "from_even", "to_even", "verified", "failures", "elapsed_seconds", "resumed_from"
    )

    def __init__(
        self, from_even: int, to_even: int, verified: int, failures: tuple[int, ...],
        elapsed_seconds: float, resumed_from: Optional[int] = None,
    ) -> None:
        self._store(from_even, to_even, verified, failures, elapsed_seconds, resumed_from)


def _utcnow() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def verify_block(lo: int, hi: int) -> list[int]:
    """Evens in [lo, hi] with no two-prime decomposition (expected: none)."""
    if lo % 2 or hi % 2:
        raise NotEven(f"block bounds must be even, got [{lo}, {hi}]")
    if not 4 <= lo <= hi:
        raise ValueError(f"need 4 <= lo <= hi, got [{lo}, {hi}]")
    seg_lo = max(2, lo - _PAIR_PRIME_BOUND)
    if hi - seg_lo + 1 > SEGMENT_CAP:  # run_verify's blocks stay far below it
        raise SegmentTooLarge(f"span {hi - seg_lo + 1} exceeds cap {SEGMENT_CAP}")
    digits = _odd_digits(seg_lo | 1, hi)  # the last digit stands for hi - 1
    if seg_lo == 2:  # digits before the one for 3 stand for 1 and below: never a partner
        digits[:0] = _COMPOSITE * (_PAIR_PRIME_BOUND // 2)
    # bit i of not_prime[m]: hi - 1 - 2(3i + m) is not prime; the class of
    # odd multiples of 3 is all ones unless the window holds 3 (see above)
    threes = (1 - hi) % 3 if seg_lo > 3 else None
    top = len(digits) - 1  # a class is empty only in a window of under 3 odds, and never read
    not_prime = [
        None if m == threes else int(digits[(top - m) % 3 :: 3] or _COMPOSITE, 2) for m in range(3)
    ]
    # bit i of unresolved[c]: the even hi - 2(3i + c)
    evens = (hi - lo) // 2 + 1
    unresolved = [(1 << len(range(c, evens, 3))) - 1 for c in range(3)]
    if lo == 4:  # 4 = 2 + 2, the one sum using 2
        i, c = divmod((hi - 4) // 2, 3)
        unresolved[c] &= ~(1 << i)
    table = _base_table(isqrt(hi))  # the table the sieve core just used
    primes = table[1 : bisect_right(table, _PAIR_PRIME_BOUND)]
    pending = []
    for c, u in enumerate(unresolved):
        for p in primes:
            if not u:
                break
            s, m = divmod(c + (p >> 1), 3)  # hi - 2(3i + c) - p = hi - 1 - 2(3(i + s) + m)
            if m != threes:
                u &= not_prime[m] >> s
        pending += (hi - 2 * (3 * i + c) for i, bit in enumerate(f"{u:b}"[::-1]) if bit == "1")
    failures = []
    for n in sorted(pending):
        try:
            dc_min(n)
        except GoldbachCounterexample as exc:
            failures.append(exc.target)
    return failures


def _spans(starts: range, step: int, last: int) -> Iterator[tuple[int, int]]:
    """(lo, hi) of the block at each start, where step is the plan's own."""
    return ((lo, min(lo + step - 2, last)) for lo in starts)


def _worker(blocks: Iterator[tuple[int, int]], write_fd: int, inherited: list) -> None:
    """A forked worker's whole life: one line of failures per block, in
    order, then ``os._exit``.  It prints nothing, and it stops at its next
    write once nothing reads its pipe, as when the parent has died."""
    code = 1
    try:
        for pipe in inherited:  # the read ends, so only the parent holds them open
            pipe.close()
        with open(write_fd, "w", encoding="ascii") as out:
            for lo, hi in blocks:
                out.write(" ".join(map(str, verify_block(lo, hi))) + "\n")
                out.flush()
        code = 0
    finally:
        os._exit(code)


def _block_failures(blocks: range, last: int, workers: int) -> Iterator[tuple[int, list[int]]]:
    """Each block's end and failures, in order and as they arrive, so the
    caller can checkpoint between them.

    This process is worker 0; forked worker w >= 1 verifies blocks[w::workers],
    and the line of its block i comes from pipe i % workers.  Every other
    block is verified here: worker 0's own, those whose line never comes (the
    worker died or raised, so any error is raised as at one worker), and all
    of them with one worker, one block or no ``os.fork``.
    """
    workers = len(blocks[:workers]) if hasattr(os, "fork") else 1  # len(blocks) may pass 2**63
    pids: list[int] = []
    pipes = []  # the read end of worker w is pipes[w - 1]
    try:
        for w in range(1, workers):
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "r", encoding="ascii"))
            try:
                pid = os.fork()
                if pid == 0:  # a slice's step is workers times the plan's
                    _worker(_spans(blocks[w::workers], blocks.step, last), write_fd, pipes)
            finally:  # before the next fork, so a dead worker reads as EOF
                os.close(write_fd)
            pids.append(pid)
        for i, (lo, hi) in enumerate(_spans(blocks, blocks.step, last)):
            line = pipes[i % workers - 1].readline() if i % workers else ""
            if line.endswith("\n"):
                yield hi, [int(n) for n in line.split()]
            else:
                yield hi, verify_block(lo, hi)
    finally:
        for pid in pids:
            os.kill(pid, _SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


def _blocks(first: int, last: int) -> range:
    """The start of each block covering [first, last], sized by last (see _spans)."""
    evens = max(BLOCK_EVENS, min(_MAX_BLOCK_EVENS, 1 << isqrt(last).bit_length()))
    return range(first, last + 1, 2 * evens)


def checkpoint_to_json(cp: SweepCheckpoint) -> str:
    import json  # here, not at the top: a sweep without checkpoints never loads it

    return json.dumps(dict(zip(_CHECKPOINT_FIELDS, cp._values)), sort_keys=True) + "\n"


def checkpoint_from_json(text: str) -> SweepCheckpoint:
    """Parse and validate a checkpoint document; reject anything off-contract."""
    import json

    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: arrays nested too deep
        raise CheckpointMismatch(f"checkpoint is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise CheckpointMismatch("checkpoint is not a JSON object")
    unknown = set(doc) - set(_CHECKPOINT_FIELDS)
    if unknown:
        raise CheckpointMismatch(f"unknown checkpoint fields: {sorted(unknown)}")
    missing = set(_CHECKPOINT_FIELDS) - set(doc)
    if missing:
        raise CheckpointMismatch(f"missing checkpoint fields: {sorted(missing)}")
    mistyped = [k for k in _INT_FIELDS if not _is_int(doc[k])]
    mistyped += [k for k in _STR_FIELDS if not isinstance(doc[k], str)]
    if not (isinstance(doc["failures"], list) and all(map(_is_int, doc["failures"]))):
        mistyped.append("failures")
    if mistyped:
        raise CheckpointMismatch(f"checkpoint fields of the wrong type: {sorted(mistyped)}")
    if doc["version"] != CHECKPOINT_VERSION:
        raise CheckpointMismatch(f"unsupported checkpoint version {doc['version']!r}")
    doc["failures"] = tuple(doc["failures"])
    cp = SweepCheckpoint(*(doc[k] for k in _CHECKPOINT_FIELDS))
    if not cp.from_even <= cp.last_verified <= cp.to_even:
        raise CheckpointMismatch("checkpoint bounds out of order")
    for n in (cp.from_even, cp.to_even, cp.last_verified):
        if n % 2:
            raise CheckpointMismatch(f"checkpoint bound {n} is odd")
    for f in cp.failures:
        if f % 2 or not cp.from_even <= f <= cp.to_even:
            raise CheckpointMismatch(f"checkpoint failure {f} outside bounds")
    return cp


def read_checkpoint(path: str) -> SweepCheckpoint:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise CheckpointMismatch(f"checkpoint is not UTF-8 text: {exc}") from None
    return checkpoint_from_json(text)


def write_checkpoint(path: str, cp: SweepCheckpoint) -> None:
    """Write-to-temp-then-rename so the file on disk is always complete."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(checkpoint_to_json(cp))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def run_verify(
    from_even: int,
    to_even: int,
    *,
    workers: int = 1,
    checkpoint_path: Optional[str] = None,
    checkpoint_stride: int = DEFAULT_CHECKPOINT_STRIDE,
) -> SweepSummary:
    """Verify a two-prime decomposition for every even in [from_even, to_even].

    With a checkpoint path, progress is persisted at the first block end at
    or after each ``checkpoint_stride`` evens, and a matching checkpoint
    resumes after last_verified.  Blocks are merged in order, so the summary
    is independent of the worker count.
    """
    if from_even % 2 or to_even % 2:
        raise NotEven(f"bounds must be even, got [{from_even}, {to_even}]")
    if not 4 <= from_even <= to_even:
        raise ValueError(f"need 4 <= from <= to, got [{from_even}, {to_even}]")
    if to_even >= _WORD_LIMIT:  # refused here, not at the first block past it
        raise OutOfBounds(f"verify domain is [4, 2**64): got to = {to_even}")
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    if checkpoint_stride < 1:
        raise ValueError(f"need checkpoint_stride >= 1, got {checkpoint_stride}")
    _base_table(isqrt(to_even))  # refuses past the table cap; forked workers inherit the table

    started_at = _utcnow()
    start_at = from_even
    failures: list[int] = []
    resumed_from: Optional[int] = None
    if checkpoint_path and os.path.exists(checkpoint_path):
        cp = read_checkpoint(checkpoint_path)
        if (cp.from_even, cp.to_even) != (from_even, to_even):
            raise CheckpointMismatch(
                f"checkpoint covers [{cp.from_even}, {cp.to_even}], "
                f"requested [{from_even}, {to_even}]"
            )
        start_at = cp.last_verified + 2
        failures = list(cp.failures)
        started_at = cp.started_at
        resumed_from = cp.last_verified

    t0 = time.perf_counter()
    blocks = _blocks(start_at, to_even)
    # every full block holds step // 2 evens, and only the last may be short
    every = -(-checkpoint_stride // (blocks.step // 2))

    def flush_checkpoint(last_verified: int) -> None:
        if checkpoint_path:
            write_checkpoint(
                checkpoint_path,
                SweepCheckpoint(
                    CHECKPOINT_VERSION,
                    from_even,
                    to_even,
                    last_verified,
                    tuple(sorted(failures)),
                    started_at,
                    _utcnow(),
                ),
            )

    results = _block_failures(blocks, to_even, workers)
    try:  # closing the generator stops its workers even if a checkpoint write fails
        for count, (hi, block_failures) in enumerate(results, 1):
            failures.extend(block_failures)
            if count % every == 0 and hi < to_even:
                flush_checkpoint(hi)
    finally:
        results.close()

    flush_checkpoint(to_even)
    elapsed = time.perf_counter() - t0
    total = (to_even - from_even) // 2 + 1
    failures_sorted = tuple(sorted(failures))
    return SweepSummary(
        from_even,
        to_even,
        total - len(failures_sorted),
        failures_sorted,
        elapsed,
        resumed_from,
    )
