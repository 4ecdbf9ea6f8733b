"""One ordered map over a process pool, shared by the searches and the streams.

``ordered_map(fn, items, workers)`` gives ``fn(item)`` for every item, in
item order, so a caller's output never depends on the worker count.  The
pool is forked on first use: importing this module loads no
``multiprocessing``, and a map that one process can do forks nothing.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, TypeVar

from .graphs import GuardError

T = TypeVar("T")
R = TypeVar("R")

IN_FLIGHT_PER_PROCESS = 2  # items submitted but not yet read, per pool process


@contextmanager
def ordered_map(fn: Callable[[T], R], items: Iterable[T], workers: int) -> Iterator[Iterator[R]]:
    """Context giving an iterator over ``fn(item)`` for each item, in order.

    The first ``workers`` items are read to size the pool: it gets
    min(workers, items read) processes, and with one process the map runs
    here, lazily, with the builtin ``map``.  A pool holds at most
    ``IN_FLIGHT_PER_PROCESS`` items per process submitted but not yet read,
    so an endless ``items`` is never read into memory.  Leaving the context
    early cancels the items not yet started; running ones are left to finish.
    ``fn`` and every item and result must pickle.
    """
    if workers < 1:
        raise GuardError(f"worker count must be >= 1, got {workers}")
    items = iter(items)
    ahead = list(islice(items, workers))
    processes = min(workers, len(ahead))
    if processes <= 1:
        yield map(fn, chain(ahead, items))
        return
    # imported on first use, to keep their imports out of every CLI start-up
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    pool = ProcessPoolExecutor(processes, mp_context=get_context("fork"))
    try:
        yield _read_in_order(pool, fn, chain(ahead, items), IN_FLIGHT_PER_PROCESS * processes)
    finally:
        # Pool.terminate can deadlock on a worker killed mid-send, so running
        # items are left to finish rather than killed
        pool.shutdown(cancel_futures=True)


def _read_in_order(pool, fn, items, window):
    pending = deque()
    for item in items:
        pending.append(pool.submit(fn, item))
        if len(pending) == window:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()
