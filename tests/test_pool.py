import os
import re
import subprocess
import sys
import time

import pytest

from p4hat import GuardError, pool
from p4hat.pool import IN_FLIGHT_PER_PROCESS, WorkerTraceback, ordered_map


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


def run_python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60)


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
