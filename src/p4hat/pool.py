"""One ordered map over forked worker processes, shared by the searches and
the streams.

``ordered_map(fn, items, workers)`` gives ``fn(item)`` for every item, in
item order, so a caller's output never depends on the worker count.  A map
runs its items here until they have spent ``FORK_BUDGET_S`` in ``fn``, about
what starting the workers costs, and only then forks for the rest (the
ski-rental rule: no map pays much more than twice what the better of the
two choices would have cost it).  So a map that one process finishes
quickly forks nothing.  The parent forks its workers with ``os.fork``; the
program starts no threads, so a fork copies a consistent interpreter.  A
worker inherits ``fn`` through the fork, so only items and results cross
its two pipes, as length-prefixed pickles.  The parent sends an item only
to an idle worker, so neither side ever blocks on a full pipe while the
other waits for it.  Importing this module loads neither ``pickle`` nor
``select``: the first fork imports them.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from itertools import chain, islice
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator, TypeVar

from .graphs import GuardError

T = TypeVar("T")
R = TypeVar("R")

IN_FLIGHT_PER_PROCESS = 2  # items sent but not yet yielded, per worker process
# Seconds of ``fn`` a map runs here before it forks: about the pool's fixed
# cost.  Importing pickle and select, forking the workers with their pipes,
# one item each and the reap took a median of 10.0 ms for 2 workers and
# 12.8 ms for 3, in a process that had imported p4hat.search and p4hat.cli
# (31 fresh interpreters each, 2 vCPUs, Python 3.11.7).
FORK_BUDGET_S = 0.010
# The most workers a map may ask for.  The parent holds two pipe ends per
# worker, and 1024 open files is a common soft limit; reading ahead to size
# the pool also holds up to this many items.
MAX_WORKERS = 256
_HEADER = 8  # bytes of the little-endian length before each pickle


@contextmanager
def ordered_map(fn: Callable[[T], R], items: Iterable[T], workers: int) -> Iterator[Iterator[R]]:
    """Context giving a lazy iterator over ``fn(item)`` for each item, in order.

    Items are mapped here, one at a time as they are asked for, until the
    time spent in ``fn`` reaches ``FORK_BUDGET_S``.  Then the next
    ``workers`` items are read to size the pool: it gets min(workers, items
    read) processes, and with one process the map goes on here with the
    builtin ``map``, so ``workers == 1`` never forks.  A worker count
    outside 1..``MAX_WORKERS`` raises ``GuardError`` on entry, before any
    item is read.  A pool that the open-file or process limit keeps from
    starting raises ``GuardError`` too, once the workers it did start have
    exited.  A pool holds at most ``IN_FLIGHT_PER_PROCESS`` items per
    process sent but not yet yielded, so an endless ``items`` is never read
    into memory.  An exception raised by ``fn`` is raised here at its item's
    turn; one raised in a worker is caused by the worker's traceback text.
    Leaving the context early runs or sends no further item; items running
    in workers finish, and the parent waits for every worker to exit.  Every
    item and result sent to a worker must pickle.
    """
    check_workers(workers)
    results = _mapped(fn, iter(items), workers)
    try:
        yield results
    finally:
        results.close()


def default_workers() -> int:
    """The CPUs this process may run on, at most ``MAX_WORKERS``: its
    affinity mask where the platform has one, else every CPU on the host."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(cpus, MAX_WORKERS)


def check_workers(workers: int) -> None:
    """Raise ``GuardError`` unless 1 <= workers <= ``MAX_WORKERS``."""
    if workers < 1:
        raise GuardError(f"worker count must be >= 1, got {workers}")
    if workers > MAX_WORKERS:
        raise GuardError(f"worker count must be <= {MAX_WORKERS}, got {workers}")


def _mapped(fn: Callable[[T], R], items: Iterator[T], workers: int) -> Iterator[R]:
    """The results of ``ordered_map``: here until the budget is spent, then
    from a pool when two or more items remain."""
    spent = 0.0
    here = 0  # items mapped here so far
    while spent < FORK_BUDGET_S:
        item = next(items, _END)
        if item is _END:
            return
        started = perf_counter()
        result = fn(item)
        spent += perf_counter() - started
        here += 1
        yield result
    ahead = list(islice(items, workers))
    processes = min(workers, len(ahead))
    if processes <= 1:
        yield from map(fn, chain(ahead, items))
        return
    pool = _Workers(fn, processes)
    try:
        yield from pool.in_order(chain(ahead, items), IN_FLIGHT_PER_PROCESS * processes, here)
    finally:
        pool.close()


class WorkerTraceback(Exception):
    """The traceback text of an exception raised in a worker process."""


_END = object()


class _Workers:
    """``processes`` forked children, each applying ``fn`` to the items the
    parent sends it, one at a time."""

    def __init__(self, fn: Callable[[Any], Any], processes: int) -> None:
        import pickle  # noqa: F401  imported before the forks, so every worker inherits it

        self._children: list[tuple[int, int, int]] = []  # (pid, task fd, result fd)
        try:
            for _ in range(processes):
                self._fork(fn)
        except OSError as exc:  # out of open files or processes: a guard, not a crash
            started = len(self._children)
            self.close()
            raise GuardError(f"could not start pool worker {started + 1} of {processes}: "
                             f"{exc}") from None
        except BaseException:
            self.close()
            raise

    def _fork(self, fn: Callable[[Any], Any]) -> None:
        task_r, task_w = os.pipe()
        result_r, result_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (task_r, task_w, result_r, result_w):
                os.close(fd)
            raise
        if pid == 0:
            code = 1
            try:
                # a sibling's pipe end held open here would hide its end of file
                for _, other_task, other_result in self._children:
                    os.close(other_task)
                    os.close(other_result)
                os.close(task_w)
                os.close(result_r)
                _serve(fn, task_r, result_w)
                code = 0
            except Exception:
                import traceback

                traceback.print_exc()
            finally:
                # no atexit handler and no flush of buffers copied from the parent
                os._exit(code)
        os.close(task_r)
        os.close(result_w)
        self._children.append((pid, task_w, result_r))

    def in_order(self, items: Iterator[Any], window: int, start: int) -> Iterator[Any]:
        """``fn(item)`` for each item, in order, with at most ``window`` items
        sent but not yet yielded; the first item is item ``start`` of the map."""
        import select

        poll = select.poll()
        idle = list(self._children)
        holding = {}  # result fd -> (child, index of the item it holds)
        done = {}  # index -> (result or exception, traceback text or None)
        sent = yielded = start
        item = None
        while True:
            while idle and item is not _END and sent - yielded < window:
                item = next(items, _END)
                if item is not _END:
                    child = idle.pop()
                    _, task_w, result_r = child
                    try:
                        _send(task_w, item)
                    except BrokenPipeError:
                        raise RuntimeError(self._obituary(child, sent)) from None
                    holding[result_r] = child, sent
                    poll.register(result_r, select.POLLIN)
                    sent += 1
            if yielded in done:
                value, text = done.pop(yielded)
                yielded += 1
                if text is not None:
                    raise value from WorkerTraceback(text)
                yield value
            elif not holding:
                return
            else:
                for fd, _ in poll.poll():
                    child, index = holding.pop(fd)
                    poll.unregister(fd)
                    try:
                        done[index] = _receive(fd)
                    except EOFError:
                        raise RuntimeError(self._obituary(child, index)) from None
                    idle.append(child)

    def _obituary(self, child: tuple[int, int, int], index: int) -> str:
        """Reap the dead worker ``child`` and say which item it did not return."""
        pid, task_w, result_r = child
        _, status = os.waitpid(pid, 0)
        os.close(task_w)
        os.close(result_r)
        self._children.remove(child)
        return (f"pool worker {pid} exited with code {os.waitstatus_to_exitcode(status)} "
                f"before returning item {index}")

    def close(self) -> None:
        """Close every pipe, then wait for every worker to exit: an idle one
        reads end of file, and a busy one finishes its item and fails to send it."""
        for _, task_w, result_r in self._children:
            os.close(task_w)
            os.close(result_r)
        for pid, _, _ in self._children:
            os.waitpid(pid, 0)
        self._children = []


def _serve(fn: Callable[[Any], Any], task_r: int, result_w: int) -> None:
    """A worker's loop: apply ``fn`` to each item read from ``task_r`` and
    send back the result, or the exception with its traceback text, until
    the parent closes either pipe."""
    while True:
        try:
            item = _receive(task_r)
        except EOFError:
            return
        try:
            message = fn(item), None
        except Exception as exc:  # raised again in the parent, at this item's turn
            import traceback

            message = exc, traceback.format_exc()
        try:
            _send(result_w, message)
        except BrokenPipeError:  # the parent left the map while this item ran
            return


def _send(fd: int, obj: Any) -> None:
    import pickle

    data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    view = memoryview(len(data).to_bytes(_HEADER, "little") + data)
    while view:
        view = view[os.write(fd, view):]


def _receive(fd: int) -> Any:
    """The next message on ``fd``; ``EOFError`` if the writer closed it first."""
    import pickle

    return pickle.loads(_read(fd, int.from_bytes(_read(fd, _HEADER), "little")))


def _read(fd: int, size: int) -> bytes:
    parts = []
    while size:
        part = os.read(fd, size)
        if not part:
            raise EOFError
        parts.append(part)
        size -= len(part)
    return b"".join(parts)
