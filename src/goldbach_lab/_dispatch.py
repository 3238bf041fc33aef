"""Ordered task dispatch shared by the sweep and the auditor."""

from __future__ import annotations

import multiprocessing
from typing import Callable, Iterable, Iterator


def ordered_map(fn: Callable, items: Iterable, workers: int) -> Iterator:
    """Yield fn(item) in input order: in-process at one worker, else from a pool.

    Results are yielded as they arrive, so a caller can checkpoint between
    them; the pool lives exactly as long as the iteration.
    """
    if workers <= 1:
        yield from map(fn, items)
        return
    with multiprocessing.Pool(workers) as pool:
        yield from pool.imap(fn, items)
