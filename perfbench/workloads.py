"""The CLI workloads: their commands, fixed work counts and output checks.

BENCHMARK.json lists ``certify-n8`` and ``audit-stream``.  ``hunt-n8`` and
``small-n`` run on request (``--workload``): on a shared two-vCPU machine
their run-to-run spread was too wide for the benchmark's bounds.

A workload is a list of ``python -m p4hat`` commands that one benchmark run
repeats.  Every command carries the exit code it must return and a checker
that turns its stdout into a list of problems; a command with a wrong exit
code or any problem counts as failed.  Expected outputs are fixed below or,
for the audit corpus, computed in set-up by ``brute_force_suspension``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from math import comb
from multiprocessing import get_context
from pathlib import Path
from typing import Callable

import corpus

# extremal --n n: (ex value, canonical graph6 of every extremal config).
EXTREMAL = {
    4: (4, ["C~"]),
    5: (4, ["DJ["]),
    6: (5, ["E`Nw"]),
    7: (8, ["FJaNw"]),
    8: (8, ["G?~vno", "G@LAJ{", "GJ]CKK"]),
}
# search --n 8 --t t: (colex rank of the least counterexample, its graph6).
HUNT = {
    8: (1_345_470, "G~aKW?"),
    7: (531, "G~aKSO"),
}
EXIT_OK = 0
EXIT_FOUND = 2
WORKERS = 2  # every search, in the CLI and in-process, runs with this many workers

WORKLOAD_NAMES = ("certify-n8", "hunt-n8", "small-n", "audit-stream")

Checker = Callable[[str], "list[str]"]


@dataclass
class Command:
    argv: list[str]
    expect_exit: int
    check: Checker
    stdin: Path | None = None

    def label(self) -> str:
        return " ".join(self.argv)


@dataclass
class Workload:
    name: str
    commands: list[Command]
    work: int  # fixed number of items one pass of the commands processes
    work_unit: str
    info: dict = field(default_factory=dict)


def _json_doc(stdout: str) -> dict:
    return json.loads(stdout)


def _mismatches(doc: dict, expected: dict) -> list[str]:
    return [
        f"{key}: got {doc.get(key)!r}, expected {value!r}"
        for key, value in expected.items()
        if doc.get(key) != value
    ]


def check_extremal(n: int, ex: int, configs: list[str]) -> Checker:
    def check(stdout: str) -> list[str]:
        return _mismatches(_json_doc(stdout), {
            "command": "extremal",
            "n": n,
            "ex_value": ex,
            "method": "exhaustive-enumeration" if n <= 7 else "pruned-search",
            "config_count": len(configs),
            "configs": configs,
        })
    return check


def check_hunt(n: int, t: int, rank: int, graph6: str) -> Checker:
    def check(stdout: str) -> list[str]:
        doc = _json_doc(stdout)
        problems = _mismatches(doc, {
            "command": "search",
            "n": n,
            "t": t,
            "outcome": "counterexample",
            "graphs_examined": rank + 1,
            "nonexistence_certified": False,
        })
        cex = doc.get("counterexample") or {}
        if cex.get("rank") != rank or cex.get("graph6") != graph6:
            problems.append(f"counterexample {cex!r}, expected rank {rank} graph6 {graph6!r}")
        elif cex.get("triangles") != corpus.triangle_count(corpus.decode_g6(graph6)[1]):
            problems.append(f"counterexample triangle count {cex.get('triangles')!r} is wrong")
        return problems
    return check


def check_passed(command: str) -> Checker:
    def check(stdout: str) -> list[str]:
        return _mismatches(_json_doc(stdout), {"command": command, "passed": True})
    return check


def _valid_witness(rows: list[int], apex, path) -> bool:
    if not isinstance(apex, int) or not isinstance(path, list) or len(path) != 4:
        return False
    verts = {apex, *path}
    if len(verts) != 5 or not all(isinstance(v, int) and 0 <= v < len(rows) for v in verts):
        return False
    spokes = all(rows[apex] >> v & 1 for v in path)
    return spokes and all(rows[a] >> b & 1 for a, b in zip(path, path[1:]))


def _stream_docs(stdout: str, lines: list[str]) -> tuple[list[dict], list[str]]:
    docs = [json.loads(raw) for raw in stdout.splitlines()]
    if len(docs) != len(lines):
        return docs, [f"{len(docs)} output lines for {len(lines)} inputs"]
    problems = [
        f"output {i}: line/graph6 {doc.get('line')!r}/{doc.get('graph6')!r} do not echo the input"
        for i, doc in enumerate(docs)
        if doc.get("line") != i + 1 or doc.get("graph6") != lines[i]
    ]
    return docs, problems


def check_witness(lines: list[str], rows: list[list[int]], free: list[bool]) -> Checker:
    def check(stdout: str) -> list[str]:
        docs, problems = _stream_docs(stdout, lines)
        if problems:
            return problems
        for i, doc in enumerate(docs):
            status = doc.get("status")
            if free[i]:
                if status != "p4hat-free":
                    problems.append(f"line {i + 1}: {status!r} on a p4hat-free graph")
            elif status != "witness" or not _valid_witness(rows[i], doc.get("apex"), doc.get("path")):
                problems.append(f"line {i + 1}: bad witness {doc!r}")
        return problems
    return check


def check_blocks(lines: list[str], rows: list[list[int]], free: list[bool]) -> Checker:
    def check(stdout: str) -> list[str]:
        docs, problems = _stream_docs(stdout, lines)
        if problems:
            return problems
        for i, doc in enumerate(docs):
            if doc.get("n") != len(rows[i]):
                problems.append(f"line {i + 1}: n {doc.get('n')!r}, expected {len(rows[i])}")
            blocks = doc.get("blocks", [])
            if free[i] and any(b.get("kind") == "Other" for b in blocks):
                problems.append(f"line {i + 1}: 'Other' block in a p4hat-free graph")
            if not all(rows[i][u] >> v & 1 for b in blocks for u, v in b.get("edges", [])):
                problems.append(f"line {i + 1}: block edge not in the graph")
        return problems
    return check


def _free_flags(lines: list[str]) -> list[bool]:
    from p4hat import Graph, brute_force_suspension

    out = []
    for line in lines:
        n, rows = corpus.decode_g6(line)
        out.append(not brute_force_suspension(Graph(n, tuple(rows))))
    return out


def brute_force_free(lines: list[str]) -> list[bool]:
    """p4hat-freeness of every line by the exhaustive 5-subset oracle."""
    chunk = 500
    parts = [lines[i:i + chunk] for i in range(0, len(lines), chunk)]
    # fork, not spawn: the benchmark runs no threads, and spawn would leave a
    # resource-tracker process running past the pool's end.
    pool = get_context("fork").Pool(processes=WORKERS)
    try:
        results = pool.map(_free_flags, parts)
    finally:
        pool.close()
        pool.join()
    return [flag for part in results for flag in part]


def _certify() -> Workload:
    ex, configs = EXTREMAL[8]
    cmd = Command(["extremal", "--n", "8", "--workers", str(WORKERS)], EXIT_OK,
                  check_extremal(8, ex, configs))
    return Workload("certify-n8", [cmd], comb(38, 7) + comb(38, 6), "colex ranks")


def _hunt() -> Workload:
    cmds = [
        Command(["search", "--n", "8", "--t", str(t), "--workers", str(WORKERS)], EXIT_FOUND,
                check_hunt(8, t, rank, g6))
        for t, (rank, g6) in HUNT.items()
    ]
    work = sum(rank + 1 for rank, _ in HUNT.values())
    return Workload("hunt-n8", cmds, work, "graphs_examined")


def _small() -> Workload:
    cmds = [
        Command(["extremal", "--n", str(n), "--workers", str(WORKERS)], EXIT_OK,
                check_extremal(n, *EXTREMAL[n]))
        for n in (4, 5, 6, 7)
    ]
    work = sum(2 ** comb(n, 2) for n in (4, 5, 6, 7))
    return Workload("small-n", cmds, work, "labeled graphs")


def audit_commands(corpus_path: Path, lines: list[str], free: list[bool]) -> list[Command]:
    rows = [corpus.decode_g6(line)[1] for line in lines]
    return [
        Command(["witness"], EXIT_OK if all(free) else EXIT_FOUND,
                check_witness(lines, rows, free), corpus_path),
        Command(["blocks"], EXIT_OK, check_blocks(lines, rows, free), corpus_path),
        Command(["check-bounds", "--n-max", "1000000"], EXIT_OK, check_passed("check-bounds")),
        Command(["verify-construction", "--family", "bipartite-matching", "--n", "200"],
                EXIT_OK, check_passed("verify-construction")),
        Command(["verify-construction", "--family", "sixteen-vertex"],
                EXIT_OK, check_passed("verify-construction")),
    ]


def _cached_free(lines: list[str], cache: Path) -> list[bool]:
    """``brute_force_free`` once per corpus; later runs read it back from ``cache``."""
    digest = hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()
    if cache.is_file():
        saved = json.loads(cache.read_text())
        if saved.get("sha256") == digest:
            return saved["free"]
    free = brute_force_free(lines)
    partial = cache.with_suffix(".tmp")
    partial.write_text(json.dumps({"sha256": digest, "free": free}))
    partial.replace(cache)
    return free


def _audit(seed: int, out_dir: Path) -> Workload:
    lines = corpus.audit_corpus(seed)
    path = out_dir / f"audit-corpus-{seed}.g6"
    path.write_text("".join(line + "\n" for line in lines), encoding="ascii")
    free = _cached_free(lines, out_dir / f"audit-oracle-{seed}.json")
    info = {
        "corpus_seed": seed,
        "corpus_size": len(lines),
        "corpus_p4hat_free": sum(free),
        "corpus_witness": len(free) - sum(free),
    }
    return Workload("audit-stream", audit_commands(path, lines, free), len(lines),
                    "graph6 lines", info)


def build(name: str, seed: int, out_dir: Path) -> Workload:
    if name == "certify-n8":
        return _certify()
    if name == "hunt-n8":
        return _hunt()
    if name == "small-n":
        return _small()
    if name == "audit-stream":
        return _audit(seed, out_dir)
    raise ValueError(f"unknown workload {name!r}")
