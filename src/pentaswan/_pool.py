"""The one ordered map that fans work out to worker processes.

At ``jobs <= 1`` it is the builtin ``map``: lazy and in process, so it pulls
one item per result and monkeypatched module attributes stay in effect.
``jobs=None`` means one worker per core.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Iterator


def pool_map(fn: Callable, items: Iterable, jobs: int | None, chunksize: int = 1) -> Iterator:
    """``fn(item)`` for every item, in input order at any worker count;
    a pool worker receives ``chunksize`` items at a time."""
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs <= 1:
        yield from map(fn, items)
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(fn, items, chunksize=chunksize)
