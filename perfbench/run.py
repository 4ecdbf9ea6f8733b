"""p4hat benchmark: end-to-end CLI workloads and a traced per-layer run.

Usage, from the root of a checkout that holds ``src/p4hat``:

    python3 perfbench/run.py --workload certify-n8 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

``--trace 0`` repeats the workload's CLI commands for ``--seconds`` and
reports the end-to-end metrics; ``--trace 1`` makes the traced in-process
run and reports every per-layer metric.  The traced run is the same for
every ``--workload``: the per-layer metrics span all four workloads, so it
replays all of them, and it does not depend on ``--seconds``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
run's context.  Both are also written, with the raw samples, to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

import workloads
from workloads import WORKERS, WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "p4hat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def context(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workers": WORKERS,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that a corrupted expectation is counted as an error")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "p4hat" / "__init__.py").is_file():
        print(f"perfbench: no p4hat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    if WORKERS > nproc:
        print(f"perfbench: {WORKERS} workers requested but nproc is {nproc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)

    import harness

    cli = harness.P4hatCLI(ROOT)
    if args.self_test:
        import selftest

        return selftest.main(cli, ROOT / "BENCHMARK.json", OUT)

    ctx = context(args.workload, args.seed, args.seconds, args.trace)
    stem = f"traced-seed{args.seed}" if args.trace else f"{args.workload}-seed{args.seed}"
    if args.trace:
        import layers

        built = {name: workloads.build(name, args.seed, OUT) for name in WORKLOAD_NAMES}
        values, tally, tracer = layers.traced_run(cli, built, args.seed)
        units = {name: unit for name, unit, _, _ in layers.LAYER_METRICS}
        metrics = {name: _metric(values[name], units[name]) for name in units}
        tracer.write(OUT / f"spans-{stem}.json")
        ctx.update(built["audit-stream"].info, runs=1)
        raw = {"moves": {name: moves for name, _, _, moves in layers.LAYER_METRICS}}
    else:
        workload = workloads.build(args.workload, args.seed, OUT)
        values, tally, raw = harness.end_to_end(cli, workload, args.seconds)
        metrics = {name: _metric(v, unit) for name, (v, unit) in values.items()}
        ctx.update(workload.info, runs=len(raw["wall_s"]), work=workload.work,
                   work_unit=workload.work_unit)

    ctx["error_rate"] = tally.failed / tally.attempted
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    for reason in tally.reasons:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({"context": ctx, "result": result, "raw": raw}, indent=1) + "\n")
    print(json.dumps({"context": ctx}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
