"""The traced run: per-layer metrics from in-process calls into each module.

Spans are opened here, in the benchmark, around calls into the package's
public functions; nothing inside p4hat is instrumented.  Each workload's CLI
commands are replayed in-process under a root span, so that the CLI's own
cost (spawn, import, parsing, JSON) can be isolated, and a few primitives
are timed on seeded corpora.

``LAYER_METRICS`` lists every per-layer metric with the end-to-end metrics
and workloads it is expected to move.
"""

from __future__ import annotations

import statistics
import time
from math import comb

import p4hat as ph

import corpus
from harness import P4hatCLI, Tally
from spans import Tracer
from workloads import EXTREMAL, HUNT, WORKERS, WORKLOAD_NAMES, Workload

LAYERS = ("import", "graphs", "patterns", "blocks", "search", "canon",
          "constructions", "bounds", "cli")

_CERT = "wall_s,throughput@certify-n8"
_HUNT = "wall_s@hunt-n8"
_SMALL = "wall_s,throughput@small-n"
_AUDIT = "wall_s,throughput@audit-stream"
_ALL = "setup_s@" + ",".join(WORKLOAD_NAMES)
_W = f"w{WORKERS}"

# (name, unit, better, which end-to-end metrics on which workloads it should move)
LAYER_METRICS: list[tuple[str, str, str, str]] = [
    ("search.scan_first.n8t9.w1_s", "s", "lower", _CERT),
    (f"search.scan_first.n8t9.{_W}_s", "s", "lower", _CERT),
    ("search.parallel_eff.n8t9", "ratio", "higher", _CERT),
    ("search.scan_first.n8t8.w1_s", "s", "lower", _HUNT),
    (f"search.scan_first.n8t8.{_W}_s", "s", "lower", _HUNT),
    ("search.parallel_eff.n8t8", "ratio", "higher", _HUNT),
    (f"search.scan_collect.n8t8.{_W}_s", "s", "lower", _CERT),
    ("search.exhaustive_oracle.n6_s", "s", "lower", _SMALL),
    ("search.exhaustive_oracle.n7_s", "s", "lower", _SMALL),
    ("search.graphs_examined.n8t9", "count", "lower", "sentinel: exactly 12620256"),
    ("search.graphs_examined.n8t8", "count", "lower", "sentinel: exactly 1345471"),
    ("patterns.is_p4hat_free.n8_ns", "ns", "lower", f"{_SMALL}; {_AUDIT}; not certify-n8"),
    ("patterns.is_p4hat_free.n10_ns", "ns", "lower", f"{_SMALL}; {_AUDIT}; not certify-n8"),
    ("patterns.is_p4hat_free.n12_ns", "ns", "lower", f"{_SMALL}; {_AUDIT}; not certify-n8"),
    ("patterns.contains_suspension_p4_ns", "ns", "lower", _AUDIT),
    ("graphs.decode_graph6_ns", "ns", "lower", _AUDIT),
    ("graphs.encode_graph6_ns", "ns", "lower", "graph6 I/O primitive"),
    ("blocks.decompose_ns", "ns", "lower", _AUDIT),
    ("canon.canonical_form.n8_ns", "ns", "lower", f"{_CERT}; {_SMALL}"),
    ("graphs.count_triangles.n8_ns", "ns", "lower", f"{_CERT} (collect path)"),
    ("graphs.union_of_triangles.n8_ns", "ns", "lower", f"{_CERT} (collect path)"),
    ("graphs.edge_minimal_reduction.n7_ns", "ns", "lower", _SMALL),
    ("bounds.floor_identity_audit.1e6_s", "s", "lower", _AUDIT),
    ("bounds.case_threshold_audit.1e6_s", "s", "lower", _AUDIT),
    ("constructions.bipartite_matching.n200_s", "s", "lower", _AUDIT),
    ("import.python_s", "s", "lower", _ALL),
    ("import.p4hat_s", "s", "lower", _ALL),
    *[(f"cli.overhead_s.{w}", "s", "lower", f"wall_s@{w}") for w in WORKLOAD_NAMES],
    ("trace.overhead_frac", "fraction", "lower", "none: time the spans add to the traced run"),
    *[
        (f"layer.{layer}.{stat}", unit, "lower", "self time of the layer's spans")
        for layer in LAYERS
        for stat, unit in (("calls", "count"), ("self_s", "s"), ("ns_per_call", "ns"))
    ],
]

IMPORT_REPEATS = 5
SPAN_PROBES = 10_000


def _expect(tally: Tally, label: str, got, expected) -> None:
    """Tally an in-process result like a CLI command."""
    tally.record(label, [] if got == expected else [f"got {got!r}, expected {expected!r}"])


def _import_times(cli: P4hatCLI, tr: Tracer) -> dict[str, float]:
    def median_run(name: str, code: str) -> float:
        times = []
        for _ in range(IMPORT_REPEATS):
            with tr.span(name, "import"):
                res = cli.run_python(["-c", code])
            if res.exit_code != 0:
                raise RuntimeError(f"python -c {code!r} exited {res.exit_code}")
            times.append(res.wall_s)
        return statistics.median(times)

    base = median_run("python -c pass", "pass")
    return {
        "import.python_s": base,
        "import.p4hat_s": median_run("python -c 'import p4hat'", "import p4hat") - base,
    }


def _certify_inprocess(tr: Tracer, tally: Tally, m: dict) -> None:
    with tr.span(f"counterexample_search(8, 9, workers={WORKERS})", "search") as s:
        report = ph.counterexample_search(8, 9, workers=WORKERS)
    m[f"search.scan_first.n8t9.{_W}_s"] = s.seconds
    m["search.graphs_examined.n8t9"] = report.graphs_examined
    _expect(tally, "in-process (8,9) outcome and count", (report.outcome, report.graphs_examined),
            ("exhausted", comb(38, 7)))
    with tr.span("bipartite_matching(8)", "constructions"):
        witness = ph.bipartite_matching(8)
    with tr.span("count_triangles", "graphs"):
        _expect(tally, "bipartite_matching(8) triangles", ph.count_triangles(witness), 8)
    with tr.span("is_p4hat_free", "patterns"):
        _expect(tally, "bipartite_matching(8) is p4hat-free", ph.is_p4hat_free(witness), True)
    with tr.span(f"enumerate_extremal_configs(8, 8, workers={WORKERS})", "search") as s:
        configs = ph.enumerate_extremal_configs(8, 8, workers=WORKERS)
    m[f"search.scan_collect.n8t8.{_W}_s"] = s.seconds
    with tr.span("canonical_form", "canon", calls=len(configs)):
        forms = [ph.canonical_form(g).decode("ascii") for g in configs]
    _expect(tally, "in-process n=8 configs", forms, EXTREMAL[8][1])


def _hunt_inprocess(tr: Tracer, tally: Tally, m: dict) -> None:
    for t, (rank, _) in HUNT.items():
        with tr.span(f"counterexample_search(8, {t}, workers={WORKERS})", "search") as s:
            report = ph.counterexample_search(8, t, workers=WORKERS)
        _expect(tally, f"in-process (8,{t}) rank and count",
                (report.counterexample_rank, report.graphs_examined), (rank, rank + 1))
        if t == 8:
            m[f"search.scan_first.n8t8.{_W}_s"] = s.seconds
            m["search.graphs_examined.n8t8"] = report.graphs_examined
        with tr.span("encode_graph6", "graphs"):
            ph.encode_graph6(report.counterexample)
        with tr.span("count_triangles", "graphs"):
            ph.count_triangles(report.counterexample)


def _small_inprocess(tr: Tracer, tally: Tally, m: dict) -> None:
    for n in (4, 5, 6, 7):
        with tr.span(f"exhaustive_oracle({n})", "search") as s:
            value, configs = ph.exhaustive_oracle(n)
        if n >= 6:
            m[f"search.exhaustive_oracle.n{n}_s"] = s.seconds
        with tr.span("canonical_form", "canon", calls=len(configs)):
            forms = [ph.canonical_form(g).decode("ascii") for g in configs]
        _expect(tally, f"in-process ex({n})", (value, forms), EXTREMAL[n])


def _audit_inprocess(tr: Tracer, lines: list[str], tally: Tally, m: dict) -> None:
    n_lines = len(lines)
    with tr.span("decode_graph6", "graphs", calls=n_lines) as s:
        graphs = [ph.decode_graph6(line) for line in lines]
    m["graphs.decode_graph6_ns"] = s.seconds * 1e9 / n_lines
    with tr.span("contains_suspension_p4", "patterns", calls=n_lines) as s:
        for g in graphs:
            ph.contains_suspension_p4(g)
    m["patterns.contains_suspension_p4_ns"] = s.seconds * 1e9 / n_lines
    with tr.span("decode_graph6", "graphs", calls=n_lines):
        graphs = [ph.decode_graph6(line) for line in lines]
    with tr.span("decompose", "blocks", calls=n_lines) as s:
        for g in graphs:
            ph.decompose(g)
    m["blocks.decompose_ns"] = s.seconds * 1e9 / n_lines
    with tr.span("floor_identity_audit(1000000)", "bounds") as s:
        floors = ph.floor_identity_audit(1_000_000)
    m["bounds.floor_identity_audit.1e6_s"] = s.seconds
    with tr.span("case_threshold_audit(1000000)", "bounds") as s:
        cases = ph.case_threshold_audit(1_000_000)
    m["bounds.case_threshold_audit.1e6_s"] = s.seconds
    _expect(tally, "in-process bounds audits", (floors.ok, cases.passed), (True, True))
    for name, build, expected in (
        ("bipartite_matching(200)", lambda: ph.bipartite_matching(200), 5000),
        ("sixteen_vertex()", ph.sixteen_vertex, 32),
    ):
        with tr.span(name, "constructions"):
            g = build()
        with tr.span("count_triangles", "graphs"):
            triangles = ph.count_triangles(g)
        with tr.span("contains_suspension_p4", "patterns"):
            free = ph.contains_suspension_p4(g) is None
        _expect(tally, f"in-process {name}", (triangles, free), (expected, True))
    with tr.span("decompose", "blocks"):
        ph.decompose(g)


def _per_call_ns(tr: Tracer, name: str, layer: str, fn, items, repeats: int) -> float:
    """Median over ``repeats`` batches of the ns per call of ``fn`` on ``items``."""
    per_call = []
    for _ in range(repeats):
        with tr.span(name, layer, calls=len(items)) as s:
            for item in items:
                fn(item)
        per_call.append((s.end_ns - s.start_ns) / len(items))
    return statistics.median(per_call)


def _primitives(tr: Tracer, seed: int) -> dict[str, float]:
    """ns per call of single primitives on seeded corpora."""
    def graphs_at(n: int, size: int):
        return [ph.decode_graph6(x) for x in corpus.graph_corpus(seed, f"n{n}", size, n, n)]

    inputs = {n: graphs_at(n, 2000) for n in (7, 8, 10, 12)}
    m = {}
    for n in (8, 10, 12):
        m[f"patterns.is_p4hat_free.n{n}_ns"] = _per_call_ns(
            tr, "is_p4hat_free", "patterns", ph.is_p4hat_free, inputs[n], 5)
    m["graphs.count_triangles.n8_ns"] = _per_call_ns(
        tr, "count_triangles", "graphs", ph.count_triangles, inputs[8], 5)
    m["canon.canonical_form.n8_ns"] = _per_call_ns(
        tr, "canonical_form", "canon", ph.canonical_form, inputs[8][:300], 3)
    m["graphs.encode_graph6_ns"] = _per_call_ns(
        tr, "encode_graph6", "graphs", ph.encode_graph6, inputs[12], 5)
    m["graphs.union_of_triangles.n8_ns"] = _per_call_ns(
        tr, "union_of_triangles", "graphs", lambda ts: ph.union_of_triangles(8, ts),
        corpus.triangle_sets(seed, 8, 8, 2000), 3)
    m["graphs.edge_minimal_reduction.n7_ns"] = _per_call_ns(
        tr, "edge_minimal_reduction", "graphs", ph.edge_minimal_reduction, inputs[7], 3)
    m["constructions.bipartite_matching.n200_s"] = _per_call_ns(
        tr, "bipartite_matching(200)", "constructions", ph.bipartite_matching, [200] * 3, 3) / 1e9
    return m


def _span_cost_s() -> float:
    """Seconds one recorded span adds, timed on a scratch tracer."""
    probe = Tracer()
    started = time.perf_counter()
    for _ in range(SPAN_PROBES):
        with probe.span("probe", "bench"):
            pass
    return (time.perf_counter() - started) / SPAN_PROBES


def traced_run(cli: P4hatCLI, workloads: dict[str, Workload], seed: int) -> tuple[dict, Tally, Tracer]:
    """Every per-layer metric, the in-process and CLI checks, and the spans."""
    started = time.perf_counter()
    tr = Tracer()
    tally = Tally()
    m = _import_times(cli, tr)
    audit_lines = corpus.audit_corpus(seed)
    replay = {
        "certify-n8": lambda: _certify_inprocess(tr, tally, m),
        "hunt-n8": lambda: _hunt_inprocess(tr, tally, m),
        "small-n": lambda: _small_inprocess(tr, tally, m),
        "audit-stream": lambda: _audit_inprocess(tr, audit_lines, tally, m),
    }
    inprocess_s = {}
    for name in WORKLOAD_NAMES:
        with tr.span(f"workload {name} in-process", "bench") as s:
            replay[name]()
        inprocess_s[name] = s.seconds

    for t in (9, 8):
        with tr.span(f"counterexample_search(8, {t}, workers=1)", "search") as s:
            report = ph.counterexample_search(8, t, workers=1)
        _expect(tally, f"in-process (8,{t}) with 1 worker examined",
                    report.graphs_examined, m[f"search.graphs_examined.n8t{t}"])
        m[f"search.scan_first.n8t{t}.w1_s"] = s.seconds
        parallel_s = m[f"search.scan_first.n8t{t}.{_W}_s"]
        m[f"search.parallel_eff.n8t{t}"] = s.seconds / (WORKERS * parallel_s)

    for name in WORKLOAD_NAMES:
        wall = 0.0
        with tr.span(f"workload {name} via CLI", "bench"):
            for cmd in workloads[name].commands:
                with tr.span(cmd.label(), "cli"):
                    wall += cli.execute(cmd, tally).wall_s
        m[f"cli.overhead_s.{name}"] = wall - inprocess_s[name]

    m.update(_primitives(tr, seed))
    m["trace.overhead_frac"] = len(tr.spans) * _span_cost_s() / (time.perf_counter() - started)

    for layer, stats in tr.layer_summary().items():
        if layer in LAYERS:
            for stat, value in stats.items():
                m[f"layer.{layer}.{stat}"] = value
    return m, tally, tr
