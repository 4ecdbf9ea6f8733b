"""Runs the ``p4hat`` CLI as child processes and times them end to end.

Each command is timed from process spawn until it has been reaped, and its
peak resident set comes from the kernel's rusage for that child (which
includes the pool workers it waited for).  Stdout is checked afterwards,
outside the timed interval.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Command, Workload

SETUP_PER_PASS = 3  # timed `--help` runs before every pass of the workload


@dataclass
class Result:
    wall_s: float
    exit_code: int
    maxrss_kb: int
    stdout: str


@dataclass
class Tally:
    """Commands attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{label}: {'; '.join(problems[:3])}")


class P4hatCLI:
    """``python -m p4hat`` run from the ``src`` tree of a checkout."""

    def __init__(self, root: Path):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def run_python(self, args: list[str], stdin: Path | None = None) -> Result:
        with tempfile.TemporaryFile(dir=self.root) as err, \
                open(stdin if stdin else os.devnull, "rb") as inp:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdin=inp, stdout=subprocess.PIPE,
                                    stderr=err, cwd=self.root, env=self.env)
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.returncode not in (0, 2):
                err.seek(0)
                sys.stderr.write(err.read()[-2000:].decode("utf-8", "replace"))
        return Result(wall, proc.returncode, usage.ru_maxrss, out.decode("utf-8", "replace"))

    def run(self, argv: list[str], stdin: Path | None = None) -> Result:
        return self.run_python(["-m", "p4hat", *argv], stdin)

    def execute(self, cmd: Command, tally: Tally) -> Result:
        """Run one command and record whether its exit code and stdout are right."""
        res = self.run(cmd.argv, cmd.stdin)
        problems = []
        if res.exit_code != cmd.expect_exit:
            problems.append(f"exit {res.exit_code}, expected {cmd.expect_exit}")
        try:
            problems += cmd.check(res.stdout)
        except (ValueError, TypeError, AttributeError, KeyError) as exc:
            problems.append(f"unreadable stdout ({type(exc).__name__}: {exc})")
        tally.record(cmd.label(), problems)
        return res


def help_check(stdout: str) -> list[str]:
    return [] if stdout.startswith("usage: p4hat") else ["--help printed no usage line"]


def run_workload(cli: P4hatCLI, workload: Workload, seconds: float, tally: Tally) -> dict:
    """Repeat the workload's commands for ``seconds``; return its raw samples.

    Each pass is preceded by ``SETUP_PER_PASS`` timed ``python -m p4hat
    --help`` runs (start-up, import and parser), so that set-up is sampled
    across the whole run, under the same host conditions as the passes.
    """
    help_cmd = Command(["--help"], 0, help_check)
    cli.execute(help_cmd, tally)  # warm-up: bytecode caches, page cache
    setup: list[float] = []
    passes: list[float] = []
    peak_kb = 0
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        setup += [cli.execute(help_cmd, tally).wall_s for _ in range(SETUP_PER_PASS)]
        total = 0.0
        for cmd in workload.commands:
            res = cli.execute(cmd, tally)
            total += res.wall_s
            peak_kb = max(peak_kb, res.maxrss_kb)
        passes.append(total)
    return {"setup_s": setup, "wall_s": passes, "peak_rss_kb": peak_kb}


def end_to_end(cli: P4hatCLI, workload: Workload, seconds: float) -> tuple[dict, Tally, dict]:
    """End-to-end metrics of one untraced run, its tally and its raw samples."""
    tally = Tally()
    samples = run_workload(cli, workload, seconds, tally)
    wall = statistics.median(samples["wall_s"])
    metrics = {
        "wall_s": (wall, "s"),
        "throughput": (workload.work / wall, "items/s"),
        "setup_s": (statistics.median(samples["setup_s"]), "s"),
        "peak_rss_mb": (samples["peak_rss_kb"] / 1024, "MB"),
        "success_rate": (1 - tally.failed / tally.attempted, "fraction"),
    }
    return metrics, tally, samples
