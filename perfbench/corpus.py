"""Seeded graph corpora and the benchmark's own graph6 codec.

Every input the benchmark hands to p4hat is derived here from the
``--seed`` argument; the program itself only ever sees graph6 text.  The
codec is written against the graph6 format description, independently of
``p4hat.graphs``, so that the checker does not trust the code under test to
read back its own output.
"""

from __future__ import annotations

import random
from itertools import combinations

# Edge densities drawn per graph.  With n uniform in 5..12 this mix makes
# about two thirds of the audit corpus p4hat-free (the exact split is
# measured by the oracle and recorded with every result).
DENSITIES = (0.2, 0.3, 0.45)

AUDIT_SIZE = 20_000
AUDIT_N = (5, 12)


def encode_g6(n: int, edges) -> str:
    """graph6 text (single-byte header, n <= 62) of an edge list."""
    adjacent = set(edges)
    bits = [
        1 if (u, v) in adjacent else 0
        for v in range(1, n)
        for u in range(v)
    ]
    bits += [0] * (-len(bits) % 6)
    body = (
        chr(63 + int("".join(map(str, bits[i:i + 6])), 2))
        for i in range(0, len(bits), 6)
    )
    return chr(63 + n) + "".join(body)


def decode_g6(text: str) -> tuple[int, list[int]]:
    """Vertex count and adjacency bitmask rows of single-byte-header graph6."""
    n = ord(text[0]) - 63
    bits = "".join(format(ord(ch) - 63, "06b") for ch in text[1:])
    rows = [0] * n
    pos = 0
    for v in range(1, n):
        for u in range(v):
            if bits[pos] == "1":
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            pos += 1
    return n, rows


def triangle_count(rows: list[int]) -> int:
    """Triangles of a bitmask graph, by a plain triple loop."""
    n = len(rows)
    return sum(
        1
        for a, b, c in combinations(range(n), 3)
        if rows[a] >> b & 1 and rows[a] >> c & 1 and rows[b] >> c & 1
    )


def random_edges(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    return [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]


def graph_corpus(seed: int, purpose: str, size: int, n_lo: int, n_hi: int) -> list[str]:
    """``size`` graph6 lines with n uniform in [n_lo, n_hi] and mixed density.

    ``purpose`` separates the random streams of independent corpora drawn
    from one seed; the same (seed, purpose, size, range) gives the same list.
    """
    rng = random.Random(f"{purpose}:{seed}")
    out = []
    for _ in range(size):
        n = rng.randint(n_lo, n_hi)
        out.append(encode_g6(n, random_edges(rng, n, rng.choice(DENSITIES))))
    return out


def audit_corpus(seed: int) -> list[str]:
    """The graph6 stream piped through ``witness`` and ``blocks``."""
    return graph_corpus(seed, "audit", AUDIT_SIZE, *AUDIT_N)


def triangle_sets(seed: int, n: int, size: int, count: int) -> list[list[tuple[int, int, int]]]:
    """``count`` random sets of ``size`` distinct triangles on n vertices."""
    rng = random.Random(f"triangles-{n}-{size}:{seed}")
    all_tris = list(combinations(range(n), 3))
    return [rng.sample(all_tris, size) for _ in range(count)]
