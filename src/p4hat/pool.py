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
its two buffered pipe files, each as one ``pickle.dump`` and a flush that
``pickle.load`` reads back whole.  The parent sends an item only to an idle
worker, so neither side ever blocks on a full pipe while the other waits
for it, and a worker holds at most one item and owes at most one result:
no pipe ever holds more than one pickle, so a buffered read never takes
bytes past its own.  Importing this module loads neither ``pickle`` nor
``select``: the first fork imports them.
"""

from __future__ import annotations

import os
from contextlib import closing, suppress
from itertools import chain, islice
from time import perf_counter
from typing import Any, BinaryIO, Callable, Generator, Iterable, Iterator, TypeVar

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


def ordered_map(fn: Callable[[T], R], items: Iterable[T],
                workers: int) -> closing[Generator[R, None, None]]:
    """Context giving a lazy iterator over ``fn(item)`` for each item, in order.

    Items are mapped here, one at a time as they are asked for, until the
    time spent in ``fn`` reaches ``FORK_BUDGET_S``.  Then the next
    ``workers`` items are read to size the pool: it gets min(workers, items
    read) processes, and with one process the map goes on here with the
    builtin ``map``, so ``workers == 1`` never forks.  A worker count
    outside 1..``MAX_WORKERS`` raises ``GuardError`` at once, before any
    item is read.  A pool that the open-file or process limit keeps from
    starting raises ``GuardError`` too, once the workers it did start have
    exited.  A pool holds at most ``IN_FLIGHT_PER_PROCESS`` items per
    process sent but not yet yielded, so an endless ``items`` is never read
    into memory.  An exception raised by ``fn`` is raised here at its item's
    turn; one raised in a worker is caused by the worker's traceback text.
    Leaving the context early runs or sends no further item; items running
    in workers finish, and the parent waits for every worker to exit.  Every
    item and result sent to a worker must pickle, and crosses its pipe as one
    pickle while the worker holds no other item and owes no other result.
    """
    check_workers(workers)
    return closing(_mapped(fn, iter(items), workers))


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


def _mapped(fn: Callable[[T], R], items: Iterator[T], workers: int) -> Generator[R, None, None]:
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

        self._children: list[tuple[int, BinaryIO, BinaryIO]] = []  # (pid, tasks, results)
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
                for child in self._children:
                    _close(child)
                os.close(task_w)
                os.close(result_r)
                with open(task_r, "rb") as tasks, open(result_w, "wb") as results:
                    _serve(fn, tasks, results)
                code = 0
            except BrokenPipeError:  # the parent left the map while an item ran
                code = 0
            except Exception:
                import traceback

                traceback.print_exc()
            finally:
                # no atexit handler and no flush of buffers copied from the parent
                os._exit(code)
        os.close(task_r)
        os.close(result_w)
        self._children.append((pid, open(task_w, "wb"), open(result_r, "rb")))

    def in_order(self, items: Iterator[Any], window: int, start: int) -> Iterator[Any]:
        """``fn(item)`` for each item, in order, with at most ``window`` items
        sent but not yet yielded; the first item is item ``start`` of the map."""
        import pickle
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
                    _, tasks, results = child
                    try:
                        _send(tasks, item)
                    except BrokenPipeError:
                        raise RuntimeError(self._obituary(child, sent)) from None
                    holding[results.fileno()] = child, sent
                    poll.register(results, select.POLLIN)
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
                        done[index] = pickle.load(child[2])
                    except (EOFError, pickle.UnpicklingError):  # none, or cut off
                        raise RuntimeError(self._obituary(child, index)) from None
                    idle.append(child)

    def _obituary(self, child: tuple[int, BinaryIO, BinaryIO], index: int) -> str:
        """Reap the dead worker ``child`` and say which item it did not return."""
        pid = child[0]
        _, status = os.waitpid(pid, 0)
        _close(child)
        self._children.remove(child)
        return (f"pool worker {pid} exited with code {os.waitstatus_to_exitcode(status)} "
                f"before returning item {index}")

    def close(self) -> None:
        """Close every pipe, then wait for every worker to exit: an idle one
        reads end of file, and a busy one finishes its item and fails to send it."""
        for child in self._children:
            _close(child)
        for pid, _, _ in self._children:
            os.waitpid(pid, 0)
        self._children = []


def _close(child: tuple[int, BinaryIO, BinaryIO]) -> None:
    """Close the two pipe files of ``child``, dropping whatever part of an
    item a dead worker left unsent."""
    _, tasks, results = child
    results.close()
    with suppress(BrokenPipeError):
        tasks.close()


def _serve(fn: Callable[[Any], Any], tasks: BinaryIO, results: BinaryIO) -> None:
    """A worker's loop: send back ``fn(item)``, or the exception with its
    traceback text, for each item read from ``tasks`` until the parent closes
    it, perhaps part-way through an item that did not pickle."""
    import pickle

    while True:
        try:
            item = pickle.load(tasks)
        except (EOFError, pickle.UnpicklingError):
            return
        try:
            message = fn(item), None
        except Exception as exc:  # raised again in the parent, at this item's turn
            import traceback

            message = exc, traceback.format_exc()
        _send(results, message)


def _send(file: BinaryIO, obj: Any) -> None:
    import pickle

    pickle.dump(obj, file, pickle.HIGHEST_PROTOCOL)
    file.flush()
