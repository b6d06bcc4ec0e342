"""The one ordered map that fans work out to worker processes, and the only
module that builds a pool or resolves ``jobs=None`` (one worker per core).

At ``jobs <= 1`` it is the builtin ``map``: lazy and in process, so it pulls
one item per result and monkeypatched module attributes stay in effect.
Each ``pool_map`` call starts and shuts down its own pool, except inside a
``shared_pool(jobs)`` block: there every call at that worker count runs on
the block's one pool, so a caller with several short maps pays for the
workers once.  The block's pool sits in a context variable, which other
threads do not see.  Pools fork after the prefilter's tables are built.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from typing import Callable, Iterable, Iterator

from . import gf2poly

# (workers, pool) of the innermost shared_pool block in this thread, if any
_shared: ContextVar[tuple[int, ProcessPoolExecutor] | None] = ContextVar("_shared", default=None)


def workers(jobs: int | None) -> int:
    """The worker count that ``jobs`` asks for: ``None`` is one per core."""
    return (os.cpu_count() or 1) if jobs is None else jobs


def _executor(jobs: int) -> ProcessPoolExecutor:
    gf2poly._root_tables()  # built before the fork, so that no worker builds them
    return ProcessPoolExecutor(max_workers=jobs)


@contextmanager
def shared_pool(jobs: int | None) -> Iterator[None]:
    """Run every ``pool_map`` at ``jobs`` workers in this block on one pool,
    shut down when the block exits, on an exception too."""
    jobs = workers(jobs)
    if jobs <= 1:
        yield
        return
    with _executor(jobs) as pool:
        token = _shared.set((jobs, pool))
        try:
            yield
        finally:
            _shared.reset(token)


def pool_map(fn: Callable, items: Iterable, jobs: int | None, chunksize: int = 1) -> Iterator:
    """``fn(item)`` for every item, in input order at any worker count;
    a pool worker receives ``chunksize`` items at a time."""
    jobs = workers(jobs)
    if jobs <= 1:
        yield from map(fn, items)
        return
    shared = _shared.get()
    with nullcontext(shared[1]) if shared and shared[0] == jobs else _executor(jobs) as pool:
        yield from pool.map(fn, items, chunksize=chunksize)
