"""One ordered map over forked worker processes, shared by the searches and
the streams.

``ordered_map(fn, items, workers)`` gives ``fn(item)`` for every item, in
item order, so a caller's output never depends on the worker count.  A map
runs its items here until they have spent ``FORK_BUDGET_S`` in ``fn``, about
what starting the workers costs, and only then forks for the rest (the
ski-rental rule: no map pays much more than twice what the better of the
two choices would have cost it).  So a map that one process finishes
quickly forks nothing.  One generator, ``_forked``, starts the workers
with ``os.fork`` (the program starts no threads, so a fork copies a
consistent interpreter), feeds them and reaps them: however the map ends,
its one ``finally`` closes every pipe and waits for every worker.  A worker
inherits ``fn`` through the fork, so only items and results cross
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

from .graphs import GuardError, _check_int

T = TypeVar("T")
R = TypeVar("R")

IN_FLIGHT_PER_PROCESS = 2  # items sent but not yet yielded, per worker process
# Seconds of ``fn`` a map runs here before it forks: about the pool's fixed
# cost.  Importing pickle and select, forking the workers with their pipes,
# one item each and the reap took a median of 6.8 ms for 2 workers and
# 7.9 ms for 3, in a process that had imported p4hat.search and p4hat.cli
# (31 fresh interpreters each, 2 vCPUs on a shared host, Python 3.11.7).
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
    outside the ints 1..``MAX_WORKERS`` raises ``GuardError`` at once, before
    any item is read.  A pool that the open-file or process limit keeps from
    starting raises ``GuardError`` too, once the workers it did start have
    exited.  A pool holds at most ``IN_FLIGHT_PER_PROCESS`` items per
    process sent but not yet yielded, so an endless ``items`` is never read
    into memory.  An exception raised by ``fn`` is raised here at its item's
    turn; one raised in a worker is caused by the worker's traceback text,
    and comes as a ``RuntimeError`` naming it if it would not unpickle as
    itself.  Leaving the context early runs or sends no further item.  One
    generator forks, feeds and reaps the workers: however the map ends,
    items running in workers finish and the parent waits for every worker.
    Every item and result sent to a worker must pickle, and crosses its pipe
    as one pickle while the worker holds no other item and owes no other result.
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
    """Raise ``GuardError`` unless workers is an int in 1..``MAX_WORKERS``."""
    _check_int("worker count", workers, 1, MAX_WORKERS)


def _mapped(fn: Callable[[T], R], items: Iterator[T], workers: int) -> Generator[R, None, None]:
    """The results of ``ordered_map``: here until the budget is spent, then
    from forked workers when two or more items remain."""
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
    else:
        yield from _forked(fn, chain(ahead, items), processes, here)


class WorkerTraceback(Exception):
    """The traceback text of an exception raised in a worker process."""


_END = object()
_Child = tuple[int, BinaryIO, BinaryIO]  # a worker's pid, task file and result file


def _forked(fn: Callable[[T], R], items: Iterator[T], processes: int,
            start: int) -> Generator[R, None, None]:
    """``fn(item)`` for each item, in order, from ``processes`` forked
    workers; the first item is item ``start`` of the map.  However it ends,
    the ``finally`` closes every pipe, then waits for every worker."""
    import pickle  # imported before the forks, so every worker inherits it
    import select

    children: list[_Child] = []

    def obituary(child: _Child, index: int) -> str:
        """Reap the dead worker ``child`` and say which item it did not return."""
        _, status = os.waitpid(child[0], 0)
        _close(child)
        children.remove(child)
        return (f"pool worker {child[0]} exited with code {os.waitstatus_to_exitcode(status)} "
                f"before returning item {index}")

    try:
        for _ in range(processes):
            try:
                children.append(_fork(fn, children))
            except OSError as exc:  # out of open files or processes: a guard, not a crash
                raise GuardError(f"could not start pool worker {len(children) + 1} of "
                                 f"{processes}: {exc}") from None
        poll = select.poll()
        idle = list(children)
        holding = {}  # result fd -> (child, index of the item it holds)
        done = {}  # index -> (result or exception, traceback text or None)
        sent = yielded = start
        item = None
        while True:
            while idle and item is not _END and sent - yielded < IN_FLIGHT_PER_PROCESS * processes:
                item = next(items, _END)
                if item is not _END:
                    child = idle.pop()
                    _, tasks, results = child
                    try:
                        _send(tasks, item)
                    except BrokenPipeError:
                        raise RuntimeError(obituary(child, sent)) from None
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
                        raise RuntimeError(obituary(child, index)) from None
                    idle.append(child)
    finally:
        for child in children:
            _close(child)
        for pid, _, _ in children:
            os.waitpid(pid, 0)


def _fork(fn: Callable[[Any], Any], siblings: list[_Child]) -> _Child:
    """Fork a worker that applies ``fn`` to each item it reads.  Its four
    pipe descriptors are opened here, and closed here if a pipe or the fork
    fails; after the fork each side closes the two ends it does not use."""
    fds: list[int] = []
    try:
        fds += os.pipe()
        fds += os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        raise
    task_r, task_w, result_r, result_w = fds
    if pid:
        os.close(task_r)
        os.close(result_w)
        return pid, open(task_w, "wb"), open(result_r, "rb")
    code = 1
    try:
        # a sibling's pipe end held open here would hide its end of file
        for sibling in siblings:
            _close(sibling)
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


def _close(child: _Child) -> None:
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
            try:
                pickle.loads(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
            except Exception:  # it would not arrive as itself: send its type and text
                message = RuntimeError(f"{type(exc).__qualname__}: {exc}"), message[1]
        _send(results, message)


def _send(file: BinaryIO, obj: Any) -> None:
    import pickle

    pickle.dump(obj, file, pickle.HIGHEST_PROTOCOL)
    file.flush()
