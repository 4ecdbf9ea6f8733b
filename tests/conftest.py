"""Shared test helpers: independent oracles and random-graph samplers."""

from __future__ import annotations

import random
import subprocess
import sys
from itertools import combinations, permutations

import pytest

from p4hat import Graph, encode_graph6, from_edges, pool
from p4hat.canon import _refined_classes
from p4hat.patterns import _rows_contain_suspension


def naive_triangle_count(g: Graph) -> int:
    """Triple-loop reference count, independent of the bitmask path."""
    count = 0
    for a, b, c in combinations(range(g.n), 3):
        if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c):
            count += 1
    return count


def permuted(g: Graph, perm: list[int]) -> Graph:
    """Relabeled copy: vertex v becomes perm[v]."""
    return from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def brute_min_form(g: Graph) -> bytes:
    """Minimum graph6 over all n! relabelings; oracle for canonical_form."""
    best = None
    for perm in permutations(range(g.n)):
        enc = encode_graph6(permuted(g, list(perm)))
        if best is None or enc < best:
            best = enc
    assert best is not None
    return best


def reference_canonical_form(g: Graph) -> bytes:
    """``canonical_form``'s search without its twin rule: every candidate of
    a depth's best column is placed.  Oracle for the twin rule on graphs
    small or asymmetric enough for it to finish."""
    n, adj = g.n, g.adj
    class_at: list[list[int]] = []
    for cls in _refined_classes(g):
        class_at.extend([cls] * len(cls))

    inf = 1 << n
    best = [inf] * n
    placed = [0] * n
    used = [False] * n
    best_perm: list[int] = []

    def dfs(k: int) -> None:
        if k == n:
            best_perm[:] = placed
            return
        cands = []
        for v in class_at[k]:
            if used[v]:
                continue
            col = 0
            for i in range(k):
                col = col << 1 | (adj[v] >> placed[i] & 1)
            cands.append((col, v))
        cands.sort()
        for col, v in cands:
            if col > best[k]:
                break
            if col < best[k]:
                best[k] = col
                for j in range(k + 1, n):
                    best[j] = inf
            placed[k] = v
            used[v] = True
            dfs(k + 1)
            used[v] = False

    dfs(0)
    return encode_graph6(from_edges(n, [
        (i, j) for i in range(n) for j in range(i + 1, n) if adj[best_perm[i]] >> best_perm[j] & 1
    ]))


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edges(n, edges)


def _free_probability_options(n: int) -> tuple[float, ...]:
    if n <= 6:
        return (0.3, 0.5, 0.8)
    if n <= 9:
        return (0.2, 0.35, 0.5)
    return (0.12, 0.2, 0.3)


def sample_p4hat_free(rng: random.Random, count: int, n_max: int = 12) -> list[Graph]:
    """Rejection-sample graphs with no forbidden pattern."""
    out: list[Graph] = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 400 * count:
            raise AssertionError("rejection sampling stalled")
        n = rng.randint(1, n_max)
        g = random_graph(rng, n, rng.choice(_free_probability_options(n)))
        if not _rows_contain_suspension(g.adj, g.n):
            out.append(g)
    return out


def run_cli(*args: str, stdin_text: str | None = None) -> tuple[int, bytes, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "p4hat", *args],
        input=stdin_text.encode() if stdin_text is not None else None,
        capture_output=True,
    )
    return proc.returncode, proc.stdout, proc.stderr.decode()


@pytest.fixture
def pool_sizes(monkeypatch) -> list[int]:
    """Replace the pool's forked workers with a stand-in that starts no
    process: it maps each item here, in order, and records the process count
    every pool asks for in the returned list."""
    requested: list[int] = []

    class InProcessWorkers:
        def __init__(self, fn, processes):
            requested.append(processes)
            self.fn = fn

        def in_order(self, items, window):
            return map(self.fn, items)

        def close(self):
            pass

    monkeypatch.setattr(pool, "_Workers", InProcessWorkers)
    return requested
