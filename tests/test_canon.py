import random
import signal
from itertools import combinations

import pytest

from p4hat import (
    Graph,
    GuardError,
    are_isomorphic,
    bipartite_matching,
    book,
    canonical_form,
    complete,
    decode_graph6,
    encode_graph6,
    from_edges,
    small_extremal,
)
from conftest import brute_min_form, permuted, random_graph, reference_canonical_form


def test_c5_relabelings_share_form():
    c5 = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    rng = random.Random(61)
    for _ in range(20):
        perm = rng.sample(range(5), 5)
        assert canonical_form(permuted(c5, perm)) == canonical_form(c5)


def test_p4_and_claw_differ():
    p4 = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    claw = from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert canonical_form(p4) != canonical_form(claw)


def test_all_labeled_graphs_n4_against_brute_force():
    edges = list(combinations(range(4), 2))
    canon_of = {}
    brute_of = {}
    for mask in range(1 << 6):
        g = from_edges(4, [edges[i] for i in range(6) if mask >> i & 1])
        canon_of[mask] = canonical_form(g)
        brute_of[mask] = brute_min_form(g)
    assert len(set(canon_of.values())) == 11  # 4-vertex graphs up to isomorphism
    # identical equivalence classes as the all-permutations oracle
    for a in canon_of:
        for b in canon_of:
            assert (canon_of[a] == canon_of[b]) == (brute_of[a] == brute_of[b])


def test_partition_matches_brute_force_n5():
    # same equivalence classes as the all-permutations oracle => agreement
    # of are_isomorphic with the brute-force check on every pair of graphs
    edges = list(combinations(range(5), 2))
    by_canon: dict[bytes, set[bytes]] = {}
    for mask in range(1 << 10):
        g = from_edges(5, [edges[i] for i in range(10) if mask >> i & 1])
        by_canon.setdefault(canonical_form(g), set()).add(brute_min_form(g))
    # each canonical class maps to exactly one brute-force class and vice versa
    assert all(len(v) == 1 for v in by_canon.values())
    brute_classes = [next(iter(v)) for v in by_canon.values()]
    assert len(brute_classes) == len(set(brute_classes))


def test_invariance_under_relabeling():
    rng = random.Random(62)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 10), rng.choice((0.2, 0.5, 0.8)))
        form = canonical_form(g)
        for _ in range(100):
            perm = rng.sample(range(g.n), g.n)
            assert canonical_form(permuted(g, perm)) == form


def test_are_isomorphic_examples():
    rng = random.Random(63)
    k4 = complete(4)
    assert are_isomorphic(k4, permuted(k4, rng.sample(range(4), 4)))
    c4 = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert not are_isomorphic(book(2), c4)  # 5 edges vs 4
    path = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    star = from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert not are_isomorphic(path, star)  # 3 edges each; degrees differ


def test_fig_n7_is_two_k4s_sharing_a_vertex():
    k4 = list(complete(4).edges())
    glued = from_edges(7, k4 + [(3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)])
    assert are_isomorphic(small_extremal(7), glued)


def test_size_guard():
    with pytest.raises(GuardError):
        canonical_form(complete(13))
    with pytest.raises(GuardError):
        are_isomorphic(complete(13), complete(13))


def test_near_regular_worst_case_still_fast():
    # one refinement class: 3-regular graphs on 12 vertices
    c12_chords = [(i, (i + 1) % 12) for i in range(12)] + [(i, i + 6) for i in range(6)]
    g = from_edges(12, c12_chords)
    rng = random.Random(64)
    form = canonical_form(g)
    for _ in range(5):
        assert canonical_form(permuted(g, rng.sample(range(12), 12))) == form


def disjoint_cycles(copies: int, length: int) -> Graph:
    """``copies`` disjoint cycles on ``length`` vertices; length 2 gives edges."""
    return from_edges(copies * length, {
        tuple(sorted((c * length + i, c * length + (i + 1) % length)))
        for c in range(copies) for i in range(length)
    })


def test_symmetric_graphs_inside_the_guard_stay_fast():
    # without the twin rule K11 takes about 3 minutes and K12 far longer, so
    # a timer stops the test rather than letting it hang
    graphs = [complete(12), from_edges(12, []), book(10), bipartite_matching(12),
              disjoint_cycles(6, 2), disjoint_cycles(3, 4), disjoint_cycles(2, 6),
              disjoint_cycles(1, 12)]
    rng = random.Random(66)

    def too_slow(signum, frame):
        raise AssertionError("canonical_form took over 5 s on the symmetric graphs")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        for g in graphs:
            form = canonical_form(g)
            for _ in range(3):
                assert canonical_form(permuted(g, rng.sample(range(g.n), g.n))) == form
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def blow_up(rng: random.Random, n: int) -> Graph:
    """A random graph on at most n vertices in which each vertex of a small
    random base graph becomes a clique or an independent set of twins."""
    base = random_graph(rng, rng.randint(1, 4), rng.choice((0.3, 0.6)))
    parts, clique, size = [], [], 0
    for _ in range(base.n):
        k = rng.randint(1, max(1, (n - size) // 2))
        parts.append(range(size, size + k))
        clique.append(rng.random() < 0.5)
        size += k
    edges = [(u, v) for i, p in enumerate(parts) for u in p for v in p if u < v and clique[i]]
    edges += [(u, v) for i, j in base.edges() for u in parts[i] for v in parts[j]]
    g = from_edges(size, edges)
    return permuted(g, rng.sample(range(size), size))


def test_twin_rule_keeps_the_form_exact():
    rng = random.Random(67)
    graphs = [random_graph(rng, rng.randint(1, 9), rng.choice((0.2, 0.5, 0.8)))
              for _ in range(2000)]
    graphs += [blow_up(rng, 8) for _ in range(1000)]
    graphs += [complete(k) for k in range(1, 9)] + [from_edges(n, []) for n in range(1, 9)]
    graphs += [book(s) for s in range(1, 8)] + [bipartite_matching(n) for n in range(4, 11)]
    graphs += [disjoint_cycles(c, m) for c, m in ((2, 2), (3, 2), (4, 2), (2, 3), (3, 3),
                                                  (2, 4), (3, 4), (2, 5), (2, 6))]
    graphs += [disjoint_cycles(1, m) for m in range(3, 13)] + [small_extremal(n) for n in range(4, 8)]
    for g in graphs:
        assert canonical_form(g) == reference_canonical_form(g), encode_graph6(g)


def test_forms_beyond_the_brute_force_reach_decode_to_the_graph():
    # n = 10..12 is past what the reference searches finish; networkx's
    # isomorphism test is an independent route to the same check
    nx = pytest.importorskip("networkx")

    def as_nx(g: Graph):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        return h

    rng = random.Random(68)
    graphs = [random_graph(rng, rng.randint(10, 12), rng.choice((0.2, 0.5, 0.8)))
              for _ in range(150)]
    c12_chords = [(i, (i + 1) % 12) for i in range(12)] + [(i, i + 6) for i in range(6)]
    graphs += [from_edges(12, c12_chords), disjoint_cycles(6, 2), disjoint_cycles(3, 4),
               disjoint_cycles(2, 6), disjoint_cycles(1, 12)]
    for g in graphs:
        form = canonical_form(g)
        h = decode_graph6(form)
        assert nx.is_isomorphic(as_nx(g), as_nx(h)), encode_graph6(g)
        assert canonical_form(h) == form, encode_graph6(g)
