"""Checkpointed bulk verification that every even splits into two primes.

The fast path works blockwise on big-integer bitsets.  The sieve core
writes one digit per odd of the segment, ``1`` for not prime, and
``int(digits, 2)`` reads them as ``not_prime``: bit k is set exactly when
``hi - 1 - 2k`` is not prime.  Bit j of ``unresolved`` stands for the even
``hi - 2j``, which is p + q for an odd prime p exactly when bit j + (p >> 1)
of ``not_prime`` is clear; so one shift by ``p >> 1`` and one AND per small
odd prime resolve a whole block (4 = 2 + 2 is the only sum using the even
prime).  Evens left unresolved by every small prime (none are expected
below the known search records) go in ascending order to the exhaustive dc
search, which either produces a pair or reports the even as a failure.

A block holds the power of two just above sqrt(to) evens, but at least
``BLOCK_EVENS`` and at most 2^20.  The sieve walks every base prime up to
sqrt(hi) once per block, so blocks sized to sqrt(hi) keep that walk from
dominating at high magnitudes, and the cap bounds a block's memory.  The
size depends on the sweep's last even alone, so the blocks, and with them
the output, are the same at any worker count and after a resume.  Above
one worker, forked workers take the blocks round-robin and pipe each
block's failures back, read in block order.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import astuple, dataclass
from math import isqrt
from typing import Iterator, Optional

from .dc import dc_min
from .errors import CheckpointMismatch, GoldbachCounterexample, NotEven
from .primes import _odd_digits, base_primes

BLOCK_EVENS = 1 << 16  # fewest evens handed to a worker at a time
_MAX_BLOCK_EVENS = 1 << 20  # most evens in one block, whatever the magnitude
DEFAULT_CHECKPOINT_STRIDE = 1 << 20  # evens between checkpoint writes
CHECKPOINT_VERSION = 1

_PAIR_PRIME_BOUND = 1 << 14  # small-prime budget before the exhaustive fallback
_SIGKILL = 9  # fixed by POSIX, where os.fork exists; importing signal costs ~1 ms

_INT_FIELDS = ("version", "from", "to", "last_verified")
_STR_FIELDS = ("started_at", "updated_at")
_CHECKPOINT_FIELDS = _INT_FIELDS + ("failures",) + _STR_FIELDS  # SweepCheckpoint's order


@dataclass(frozen=True)
class SweepCheckpoint:
    """Persistent sweep progress with a fixed, version-gated field set."""

    version: int
    from_even: int
    to_even: int
    last_verified: int
    failures: tuple[int, ...]
    started_at: str
    updated_at: str


@dataclass(frozen=True)
class SweepSummary:
    """Outcome of one verify run; elapsed time never enters serialized payloads."""

    from_even: int
    to_even: int
    verified: int
    failures: tuple[int, ...]
    elapsed_seconds: float
    resumed_from: Optional[int] = None


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
    # bit k of not_prime: hi - 1 - 2k is not prime; bit j of unresolved: hi - 2j
    not_prime = int(_odd_digits(seg_lo | 1, hi), 2)
    if seg_lo == 2:  # bits above the top odd stand for 1 and below: never a partner
        not_prime |= -1 << (hi // 2 - 1)
    evens = (hi - lo) // 2 + 1
    unresolved = (1 << evens) - 1
    if lo == 4:
        unresolved &= ~(1 << ((hi - 4) // 2))  # 4 = 2 + 2, the one sum using 2
    for p in base_primes(_PAIR_PRIME_BOUND)[1:]:
        unresolved &= not_prime >> (p >> 1)  # hi - 2j - p = hi - 1 - 2(j + (p >> 1))
        if not unresolved:
            return []
    failures = []
    for i, bit in enumerate(f"{unresolved:0{evens}b}"):  # digit i stands for lo + 2i
        if bit == "1":
            try:
                dc_min(lo + 2 * i)
            except GoldbachCounterexample as exc:
                failures.append(exc.target)
    return failures


def _worker(blocks: list[tuple[int, int]], write_fd: int, inherited: list) -> None:
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


def _block_failures(blocks: list[tuple[int, int]], workers: int) -> Iterator[list[int]]:
    """Each block's failures, in order and as they arrive, so the caller can
    checkpoint between them; in-process at one worker or one block.

    Otherwise worker w is a forked child that verifies blocks[w::workers],
    so the line of block i comes from pipe i % workers.  A block whose line
    never comes (its worker died or raised) is verified here, which raises
    any error exactly as one worker would.
    """
    workers = min(workers, len(blocks))
    if workers <= 1 or not hasattr(os, "fork"):
        for lo, hi in blocks:
            yield verify_block(lo, hi)
        return
    pids: list[int] = []
    pipes = []
    try:
        for w in range(workers):
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "r", encoding="ascii"))
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(blocks[w::workers], write_fd, pipes)
            finally:  # before the next fork, so a dead worker reads as EOF
                os.close(write_fd)
            pids.append(pid)
        for i, (lo, hi) in enumerate(blocks):
            line = pipes[i % workers].readline()
            if line.endswith("\n"):
                yield [int(n) for n in line.split()]
            else:
                yield verify_block(lo, hi)
    finally:
        for pid in pids:
            os.kill(pid, _SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


def _blocks(first: int, last: int) -> list[tuple[int, int]]:
    """Consecutive even-bounded blocks covering [first, last], sized by last."""
    evens = max(BLOCK_EVENS, min(_MAX_BLOCK_EVENS, 1 << isqrt(last).bit_length()))
    out = []
    lo = first
    while lo <= last:
        hi = min(lo + 2 * (evens - 1), last)
        out.append((lo, hi))
        lo = hi + 2
    return out


def checkpoint_to_json(cp: SweepCheckpoint) -> str:
    return json.dumps(dict(zip(_CHECKPOINT_FIELDS, astuple(cp))), sort_keys=True) + "\n"


def checkpoint_from_json(text: str) -> SweepCheckpoint:
    """Parse and validate a checkpoint document; reject anything off-contract."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
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
        return checkpoint_from_json(fh.read())


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
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    if checkpoint_stride < 1:
        raise ValueError(f"need checkpoint_stride >= 1, got {checkpoint_stride}")

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
    evens_since_checkpoint = 0

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

    results = _block_failures(blocks, workers)
    try:  # closing the generator stops its workers even if a checkpoint write fails
        for (lo, hi), block_failures in zip(blocks, results):
            failures.extend(block_failures)
            evens_since_checkpoint += (hi - lo) // 2 + 1
            if evens_since_checkpoint >= checkpoint_stride and hi < to_even:
                flush_checkpoint(hi)
                evens_since_checkpoint = 0
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
