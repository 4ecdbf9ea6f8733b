import pytest

from p4hat import GuardError
from p4hat.pool import IN_FLIGHT_PER_PROCESS, ordered_map


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
