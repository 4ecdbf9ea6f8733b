import os
import random
import re
import signal
import subprocess
import sys
import time

import pytest

from p4hat import GuardError, pool
from p4hat.pool import IN_FLIGHT_PER_PROCESS, MAX_WORKERS, WorkerTraceback, ordered_map


@pytest.fixture
def forked(monkeypatch) -> list[int]:
    """The pid of every worker the pool forks, as it forks them."""
    forked: list[int] = []
    fork = os.fork

    def recorded_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded_fork)
    return forked


@pytest.fixture
def no_fork(monkeypatch) -> None:
    """A budget no test map spends, and a fork that fails the test."""
    def fork():
        raise AssertionError("a map inside the fork budget forked")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(pool, "FORK_BUDGET_S", 3600)


class TestOrderedMap:
    def test_reads_a_bounded_window_ahead(self, pool_sizes):
        pulled = 0

        def counted():
            nonlocal pulled
            for i in range(1000):
                pulled += 1
                yield i

        with ordered_map(str, counted(), 4) as results:
            for i, result in zip(range(50), results):
                assert result == str(i)
                assert pulled <= i + 1 + IN_FLIGHT_PER_PROCESS * 4
        assert pool_sizes == [4]

    def test_one_process_maps_here_lazily(self, pool_sizes):
        pulled = []
        items = (pulled.append(i) or i for i in range(10))
        with ordered_map(str, items, 1) as results:
            assert next(results) == "0"
            assert pulled == [0]
        assert pool_sizes == []

    def test_guard(self):
        for workers in (0, -1):
            with pytest.raises(GuardError):
                with ordered_map(str, range(3), workers):
                    pass

    def test_a_count_that_is_not_an_int_raises_before_any_item_is_read(self, pool_sizes):
        from p4hat.search import counterexample_search, extremal_value

        pulled = []
        items = (pulled.append(i) or i for i in range(1000))
        def rejected(workers):
            return rf"^worker count must be an int in 1\.\.{MAX_WORKERS}, got {re.escape(repr(workers))}$"

        for workers in (2.5, 2.0, True, False, "2", None):
            with pytest.raises(GuardError, match=rejected(workers)):
                with ordered_map(str, items, workers):
                    pass
        assert pulled == [] and pool_sizes == []
        # at either side of the fork budget the answer no longer depends on timing
        for call, workers in ((lambda: counterexample_search(6, 6, workers=2.5), 2.5),
                              (lambda: counterexample_search(9, 11, workers=2.5), 2.5),
                              (lambda: extremal_value(8, workers=True), True)):
            with pytest.raises(GuardError, match=rejected(workers)):
                call()
        assert pool_sizes == []

    def test_worker_cap_raises_before_any_item_is_read(self, pool_sizes):
        pulled = []
        items = (pulled.append(i) or i for i in range(1000))
        with pytest.raises(GuardError, match=rf"^worker count must be an int in 1\.\.{MAX_WORKERS}, "
                                             rf"got {MAX_WORKERS + 1}$"):
            with ordered_map(str, items, MAX_WORKERS + 1):
                pass
        assert pulled == [] and pool_sizes == []
        # the cap itself is allowed; the stand-in pool starts no process
        with ordered_map(str, range(3), MAX_WORKERS) as results:
            assert list(results) == ["0", "1", "2"]
        assert pool_sizes == [3]

    def test_a_map_inside_the_budget_forks_nothing(self, no_fork):
        pulled = []
        items = (pulled.append(i) or i for i in range(10))
        with ordered_map(str, items, 4) as results:
            assert next(results) == "0"
            assert pulled == [0]
            assert list(results) == [str(i) for i in range(1, 10)]

    def test_leaving_inside_the_budget_forks_nothing(self, no_fork):
        pulled = []
        items = (pulled.append(i) or i for i in range(1000))
        with ordered_map(str, items, 4) as results:
            assert next(results) == "0"
        assert pulled == [0]

    @pytest.mark.parametrize("count, processes", [(2, 0), (3, 2), (9, 4)])
    def test_a_map_forks_once_an_item_outruns_the_budget(self, monkeypatch, forked,
                                                          count, processes):
        # item 0 spends the budget here; the pool is sized from the rest
        monkeypatch.setattr(pool, "FORK_BUDGET_S", 0.001)
        parent = os.getpid()

        def slow_first(i):
            if i == 0:
                time.sleep(0.002)
            return str(i), os.getpid()

        with ordered_map(slow_first, range(count), 4) as results:
            mapped = list(results)
        assert [result for result, _ in mapped] == [str(i) for i in range(count)]
        assert mapped[0][1] == parent
        assert len(forked) == processes
        assert {pid for _, pid in mapped[1:]} == (set(forked) or {parent})


def run_python(code: str, *options: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *options, "-c", code], capture_output=True,
                          timeout=60)


class DiesWhenPickled:
    """A value whose pickling ends the process with exit code 3."""

    def __reduce__(self):
        os._exit(3)


class Bad(Exception):
    """An exception that pickles but does not unpickle: its ``__init__``
    takes two arguments and passes one on."""

    def __init__(self, a, b):
        super().__init__(a)


class TestForkedWorkers:
    @pytest.fixture(autouse=True)
    def fork_at_once(self, monkeypatch):
        monkeypatch.setattr(pool, "FORK_BUDGET_S", 0)

    def test_fn_exception_reaches_the_caller(self):
        def guarded(i):
            if i == 7:
                raise GuardError(f"item {i} is out of range")
            return i

        with ordered_map(guarded, range(20), 2) as results:
            assert [next(results) for _ in range(7)] == list(range(7))
            with pytest.raises(GuardError, match="^item 7 is out of range$") as info:
                next(results)
        assert isinstance(info.value.__cause__, WorkerTraceback)
        assert "in guarded" in str(info.value.__cause__)

    def test_an_exception_that_does_not_unpickle_is_named(self):
        def bad_at_3(i):
            if i == 3:
                raise Bad(f"item {i} is bad", None)
            return i

        with ordered_map(bad_at_3, range(10), 2) as results:
            assert [next(results) for _ in range(3)] == [0, 1, 2]
            with pytest.raises(RuntimeError, match=r"\bBad: item 3 is bad$") as info:
                next(results)
        assert isinstance(info.value.__cause__, WorkerTraceback)
        assert "in bad_at_3" in str(info.value.__cause__)

    def test_dead_worker_raises_a_named_error(self):
        proc = run_python(
            "import os\n"
            "import p4hat.pool\n"
            "from p4hat.pool import ordered_map\n"
            "p4hat.pool.FORK_BUDGET_S = 0\n"
            "def dies_at_5(i):\n"
            "    if i == 5:\n"
            "        os._exit(3)\n"
            "    return i\n"
            "with ordered_map(dies_at_5, range(20), 2) as results:\n"
            "    print(list(results))\n"
        )
        assert proc.returncode == 1
        assert proc.stdout == b""
        last = proc.stderr.decode().splitlines()[-1]
        assert re.fullmatch(r"RuntimeError: pool worker \d+ exited with code 3 "
                            r"before returning item 5", last), last

    def test_a_dead_worker_names_its_item_in_the_map(self, monkeypatch):
        # item 0 runs here, so the pool's first item is item 1 of the map
        monkeypatch.setattr(pool, "FORK_BUDGET_S", 0.001)
        parent = os.getpid()

        def dies_at_5(i):
            if i == 0:
                time.sleep(0.002)
            if i == 5 and os.getpid() != parent:
                os._exit(3)
            return i

        with pytest.raises(RuntimeError, match=r"exited with code 3 before returning item 5$"):
            with ordered_map(dies_at_5, range(20), 2) as results:
                list(results)

    def test_a_worker_that_dies_while_sending_its_result_is_named(self):
        # the 1 MiB reaches the parent before the worker dies, so the parent
        # reads a cut-off result rather than none
        def dies_at_5(i):
            return (b"x" * 2**20, DiesWhenPickled()) if i == 5 else i

        with pytest.raises(RuntimeError, match=r"^pool worker \d+ exited with code 3 "
                                               r"before returning item 5$"):
            with ordered_map(dies_at_5, range(20), 2) as results:
                list(results)

    def test_a_result_that_does_not_pickle_is_named(self):
        def unpicklable_at_5(i):
            return (b"x" * 2**20, lambda: i) if i == 5 else i

        with pytest.raises(RuntimeError, match=r"^pool worker \d+ exited with code 1 "
                                               r"before returning item 5$"):
            with ordered_map(unpicklable_at_5, range(20), 2) as results:
                list(results)

    def test_a_worker_that_dies_idle_is_named_when_sent_an_item(self):
        # each worker dies of SIGALRM 0.3 s after its last item began, so
        # both are dead once the items pause; the next send breaks its pipe
        parent = os.getpid()

        def dies_when_idle(i):
            if os.getpid() != parent:
                signal.signal(signal.SIGALRM, signal.SIG_DFL)
                signal.setitimer(signal.ITIMER_REAL, 0.3)
            return i

        def pausing():
            yield from range(4)
            time.sleep(1)
            yield from range(4, 10)

        with pytest.raises(RuntimeError, match=rf"^pool worker \d+ exited with code "
                                               rf"-{int(signal.SIGALRM)} before returning item 4$"):
            with ordered_map(dies_when_idle, pausing(), 2) as results:
                list(results)

    def test_messages_larger_than_a_pipe_come_back_whole_and_in_order(self, forked):
        # each item and result is 1 MiB, many times a 64 KiB pipe buffer, so
        # every read must wait for the rest of its pickle
        items = [random.Random(i).randbytes(2**20) for i in range(6)]
        with ordered_map(lambda data: data[::-1], items, 2) as results:
            assert list(results) == [data[::-1] for data in items]
        assert len(forked) == 2

    def test_an_item_that_does_not_pickle_is_raised_here_and_workers_exit_quietly(self):
        # the item's first 1 MiB may reach a worker before its pickling fails
        proc = run_python(
            "import p4hat.pool\n"
            "from p4hat.pool import ordered_map\n"
            "p4hat.pool.FORK_BUDGET_S = 0\n"
            "items = [0, 1, (b'x' * 2**20, lambda: 0)]\n"
            "try:\n"
            "    with ordered_map(str, items, 2) as results:\n"
            "        list(results)\n"
            "except Exception as exc:\n"
            "    print(type(exc).__name__)\n",
            "-X", "dev", "-W", "error",
        )
        assert proc.returncode == 0
        assert proc.stdout == b"PicklingError\n"
        assert proc.stderr == b""

    def test_no_pipe_file_is_left_open(self):
        # a map read to its end, one left early and one whose worker died
        proc = run_python(
            "import os\n"
            "import p4hat.pool\n"
            "from p4hat.pool import ordered_map\n"
            "p4hat.pool.FORK_BUDGET_S = 0\n"
            "def dies_at_5(i):\n"
            "    if i == 5:\n"
            "        os._exit(3)\n"
            "    return i\n"
            "with ordered_map(abs, range(10), 3) as results:\n"
            "    assert list(results) == list(range(10))\n"
            "with ordered_map(abs, range(1000), 3) as results:\n"
            "    assert next(results) == 0\n"
            "try:\n"
            "    with ordered_map(dies_at_5, range(20), 2) as results:\n"
            "        list(results)\n"
            "except RuntimeError:\n"
            "    print('died')\n",
            "-X", "dev", "-W", "error",
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"died\n", b"")

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_a_pool_the_open_file_limit_stops_leaves_no_descriptor_open(self):
        # each soft limit stops the pool at a different pipe of a different
        # worker, until one lets all four workers start
        proc = run_python(
            "import os, pickle, resource, select\n"
            "import p4hat.pool\n"
            "from p4hat import GuardError\n"
            "from p4hat.pool import ordered_map\n"
            "p4hat.pool.FORK_BUDGET_S = 0\n"
            "soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)\n"
            "top = max(map(int, os.listdir('/proc/self/fd')))\n"
            "for limit in range(top + 1, top + 16):\n"
            "    before = sorted(os.listdir('/proc/self/fd'))\n"
            "    resource.setrlimit(resource.RLIMIT_NOFILE, (limit, hard))\n"
            "    try:\n"
            "        with ordered_map(abs, range(10), 4) as results:\n"
            "            assert list(results) == list(range(10))\n"
            "        print('mapped')\n"
            "    except GuardError as exc:\n"
            "        print(str(exc).split(':')[0])\n"
            "    finally:\n"
            "        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))\n"
            "    assert sorted(os.listdir('/proc/self/fd')) == before, limit\n",
            "-X", "dev", "-W", "error",
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stderr == b""
        lines = proc.stdout.decode().splitlines()
        stopped = {line for line in lines if line.startswith("could not start pool worker ")}
        assert stopped == {f"could not start pool worker {k} of 4" for k in range(1, 5)}
        assert lines[-1] == "mapped"

    @pytest.mark.parametrize("read", [1, 40])
    def test_leaving_early_reaps_every_worker(self, forked, read):
        pulled = 0

        def counted():
            nonlocal pulled
            for i in range(1000):
                pulled += 1
                yield i

        with ordered_map(str, counted(), 3) as results:
            for i, result in zip(range(read), results):
                assert result == str(i)
                assert pulled <= i + 1 + IN_FLIGHT_PER_PROCESS * 3
        assert len(forked) == 3
        for pid in forked:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    def test_unflushed_parent_stdout_is_written_once(self):
        proc = run_python(
            "import sys\n"
            "import p4hat.pool\n"
            "from p4hat.pool import ordered_map\n"
            "p4hat.pool.FORK_BUDGET_S = 0\n"
            "sys.stdout.write('x')\n"
            "with ordered_map(abs, range(10), 2) as results:\n"
            "    assert list(results) == list(range(10))\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == b"x"
