"""Self-test: the checks catch a wrong expectation, and BENCHMARK.json matches.

Runs the ``small-n`` commands and a short audit stream twice, once with the
true expectations and once with one expectation corrupted, and requires the
error rate to be 0 and then exactly one failed command.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import corpus
import harness
import layers
import workloads

E2E_METRICS = ("wall_s", "throughput", "setup_s", "peak_rss_mb", "success_rate")


def _spec_problems(spec_path: Path) -> list[str]:
    spec = json.loads(spec_path.read_text())
    problems = []
    if not {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOAD_NAMES):
        problems.append("BENCHMARK.json names a workload that workloads.py lacks")
    if tuple(m["name"] for m in spec["end_to_end"]) != E2E_METRICS:
        problems.append("BENCHMARK.json end_to_end metrics differ from the harness")
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if declared != [entry[:3] for entry in layers.LAYER_METRICS]:
        problems.append("BENCHMARK.json per_layer metrics differ from layers.LAYER_METRICS")
    return problems


def _error_rate(cli: harness.P4hatCLI, commands: list[workloads.Command]) -> tuple[float, harness.Tally]:
    tally = harness.Tally()
    for cmd in commands:
        cli.execute(cmd, tally)
    return tally.failed / tally.attempted, tally


def _cases(out_dir: Path) -> list[tuple[str, list, list]]:
    """(name, true commands, the same commands with one expectation corrupted)."""
    small = workloads.build("small-n", 0, out_dir).commands
    wrong_ex = replace(small[2], check=workloads.check_extremal(6, 6, workloads.EXTREMAL[6][1]))
    small_bad = small[:2] + [wrong_ex] + small[3:]

    lines = corpus.graph_corpus(0, "selftest", 200, *corpus.AUDIT_N)
    path = out_dir / "selftest-corpus.g6"
    path.write_text("".join(line + "\n" for line in lines), encoding="ascii")
    free = workloads.brute_force_free(lines)
    flipped = list(free)
    flipped[free.index(True)] = False  # claim one p4hat-free graph has a witness
    audit = workloads.audit_commands(path, lines, free)[:1]
    audit_bad = workloads.audit_commands(path, lines, flipped)[:1]
    return [("small-n ex(6)", small, small_bad), ("witness stream", audit, audit_bad)]


def main(cli: harness.P4hatCLI, spec_path: Path, out_dir: Path) -> int:
    ok = True
    for problem in _spec_problems(spec_path):
        print(f"self-test: {problem}")
        ok = False
    for name, good, bad in _cases(out_dir):
        good_rate, _ = _error_rate(cli, good)
        bad_rate, tally = _error_rate(cli, bad)
        caught = good_rate == 0 and tally.failed == 1
        ok &= caught
        print(f"self-test {name}: error_rate {good_rate:.3f} with true expectations, "
              f"{bad_rate:.3f} ({tally.failed}/{tally.attempted}) with one corrupted: "
              f"{'caught' if caught else 'NOT caught'}")
        for reason in tally.reasons:
            print(f"  counted: {reason}")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1
