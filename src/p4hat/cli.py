"""Command-line front end with deterministic, machine-readable output.

Data goes to stdout; progress and timing go to stderr so the data stream
stays pure.  Stdout bytes are identical across repeated runs and across
worker counts.  The stream commands split their input into ordered chunks
of ``STREAM_CHUNK`` non-blank lines for the same ordered map the searches
use, which runs chunks in this process until they have taken about as long
as forking the worker pool costs, and only then forks it for the rest.
Each chunk's output is written whole, in input order, so output arrives a
chunk at a time.  Exit codes: 0 = verified/exhausted,
1 = malformed stream input, 2 = counterexample/violation/witness found,
64 = usage error, or an I/O error on the input or the output (one stderr
line), 141 = stdout closed by its reader (128 + SIGPIPE).
JSON schemas are documented in the README; every single-document payload
carries ``schema_version``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import stat
import sys
import time
from functools import partial
from itertools import islice
from typing import Any, Callable, TextIO

from .constructions import FAMILIES
from .graphs import (
    Graph,
    Graph6Error,
    GraphError,
    GuardError,
    count_triangles,
    decode_graph6,
    encode_graph6,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_STREAM_ERROR = 1
EXIT_FOUND = 2
EXIT_USAGE = 64
EXIT_BROKEN_PIPE = 141


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def parse_args(self, args=None, namespace=None):  # type: ignore[override]
        """Parse, then give a command that maps and was not given
        ``--workers`` the pool's default.  Only such a command imports the
        pool here, and it would import it to run anyway."""
        parsed = super().parse_args(args, namespace)
        if "workers" in parsed and parsed.workers is None:
            from .pool import default_workers

            parsed.workers = default_workers()
        return parsed


Fields = tuple[dict[str, Any], bool]  # a document's or line's fields, and "found"


def _cmd_document(build: Callable[[argparse.Namespace], Fields],
                  args: argparse.Namespace, out: TextIO) -> int:
    """Write ``build(args)`` headed by ``schema_version`` and ``command``; exit 2 on a find."""
    fields, found = build(args)
    doc = {"schema_version": SCHEMA_VERSION, "command": args.command, **fields}
    if args.format == "json":
        out.write(json.dumps(doc, indent=2))
        out.write("\n")
    else:
        for key, value in doc.items():
            out.write(f"{key}: {value}\n")
    return EXIT_FOUND if found else EXIT_OK


# one encoder for every line; a line's fields are built fresh for it and
# hold no cycle, so the encoder need not look for one
_encode_line = json.JSONEncoder(separators=(", ", ": "), check_circular=False).encode


def _emit_line(doc: dict[str, Any], fmt: str, out: TextIO) -> None:
    if fmt == "json":
        out.write(_encode_line(doc))
    else:
        out.write("  ".join(f"{k}={_listed(v)}" for k, v in doc.items()))
    out.write("\n")


def _listed(value: Any) -> Any:
    """``value`` with every tuple copied into a list.  The JSON encoder
    writes a tuple as an array, so a JSON line takes a result's tuples as
    they are; the text format spells only a list as [0, 1]."""
    if isinstance(value, (tuple, list)):
        return [_listed(v) for v in value]
    if isinstance(value, dict):
        return {k: _listed(v) for k, v in value.items()}
    return value


def _search(args: argparse.Namespace) -> Fields:
    from .search import candidate_triangles, counterexample_search

    def progress(chunk: int, examined: int) -> None:
        print(f"chunk {chunk}: {examined} subsets", file=sys.stderr)

    started = time.perf_counter()
    report = counterexample_search(args.n, args.t, workers=args.workers, progress=progress)
    print(f"search n={args.n} t={args.t}: {time.perf_counter() - started:.2f}s "
          f"({args.workers} workers, {report.nodes_visited} nodes visited)", file=sys.stderr)

    doc: dict[str, Any] = {
        "n": args.n,
        "t": args.t,
        "candidate_count": len(candidate_triangles(args.n)),
        "subset_size": args.t - 2,
        "outcome": report.outcome,
        "graphs_examined": report.graphs_examined,
        "unions_p4hat_free_with_excess": report.unions_p4hat_free_with_excess,
        "nonexistence_certified": report.nonexistence_certified,
    }
    if report.counterexample is not None:
        doc["counterexample"] = {
            "graph6": _g6(report.counterexample),
            "triangles": count_triangles(report.counterexample),
            "rank": report.counterexample_rank,
        }
    return doc, report.outcome == "counterexample"


def _g6(g: Graph) -> str:
    return encode_graph6(g).decode("ascii")


def _extremal(args: argparse.Namespace) -> Fields:
    from .search import EXHAUSTIVE_MAX_VERTICES, extremal_value

    started = time.perf_counter()
    value, configs = extremal_value(args.n, workers=args.workers)
    print(f"extremal n={args.n}: {time.perf_counter() - started:.2f}s", file=sys.stderr)
    return {
        "n": args.n,
        "ex_value": value,
        "method": ("exhaustive-enumeration" if args.n <= EXHAUSTIVE_MAX_VERTICES
                   else "pruned-search"),
        "config_count": len(configs),
        "configs": [_g6(g) for g in configs],  # already in canonical form
    }, False


def _verify_construction(args: argparse.Namespace) -> Fields:
    from .blocks import decompose
    from .patterns import contains_suspension_p4

    family = FAMILIES[args.family]
    n = args.n
    if n is None:
        if args.family != "sixteen-vertex":
            raise GuardError(f"--n is required for family {args.family} ({family.parameter})")
        n = 16
    graph = family.build(n)
    expected = family.expected_triangles(n)
    triangles = count_triangles(graph)
    witness = contains_suspension_p4(graph)
    expected_free = family.p4hat_free(n)
    checks = {
        "triangles_match": triangles == expected,
        "p4hat_free_match": (witness is None) == expected_free,
    }
    doc: dict[str, Any] = {
        "family": args.family,
        "parameter": n,
        "vertices": graph.n,
        "edges": graph.edge_count(),
        "triangles": triangles,
        "expected_triangles": expected,
        "p4hat_free": witness is None,
        "expected_p4hat_free": expected_free,
    }
    if args.family == "sixteen-vertex":
        kinds = decompose(graph).kinds()
        checks["all_k4_blocks"] = kinds == ["K4"] * len(kinds)
        doc["block_kinds"] = kinds
    if args.emit_graph6:
        doc["graph6"] = _g6(graph)
    doc["checks"] = checks
    doc["passed"] = all(checks.values())
    return doc, not doc["passed"]


STREAM_CHUNK = 500  # non-blank input lines per unit of work


def _cmd_stream(
    describer: Callable[[], Callable[[Graph], Fields]],
    args: argparse.Namespace,
    out: TextIO,
) -> int:
    """Emit one line per non-blank graph6 line of the binary stream
    ``args.input``: ``describe(graph)``'s fields, or the decode error.
    ``describe`` also says whether the graph counts as found.

    ``describer()`` returns ``describe`` and imports what it needs, here,
    before the workers fork, so that no worker imports a module.  The
    non-blank lines, stripped and numbered from 1, go in chunks of
    ``STREAM_CHUNK`` through ``ordered_map``, the CLI's only map, and each
    chunk's output is written whole, in input order."""
    from .pool import ordered_map

    errors = found = 0
    describe_chunk = partial(_stream_chunk, describer(), args.format)
    lines = ((lineno, line) for lineno, raw in enumerate(args.input, start=1)
             if (line := raw.strip()))
    chunks = iter(lambda: list(islice(lines, STREAM_CHUNK)), [])
    with ordered_map(describe_chunk, chunks, args.workers) as described:
        for text, messages, chunk_errors, chunk_found in described:
            sys.stderr.write(messages)
            out.write(text)
            errors += chunk_errors
            found += chunk_found
    if errors:
        return EXIT_STREAM_ERROR
    return EXIT_FOUND if found else EXIT_OK


def _stream_chunk(
    describe: Callable[[Graph], Fields],
    fmt: str,
    chunk: list[tuple[int, bytes]],
) -> tuple[str, str, int, int]:
    """One chunk's stdout text, stderr text, error count and found count."""
    out, err = io.StringIO(), io.StringIO()
    errors = found = 0
    for lineno, line in chunk:
        try:
            graph = decode_graph6(line)
        except Graph6Error as exc:
            err.write(f"line {lineno}: {exc}\n")
            _emit_line({"line": lineno, "error": str(exc)}, fmt, out)
            errors += 1
            continue
        fields, hit = describe(graph)
        found += hit
        _emit_line({"line": lineno, "graph6": line.decode("ascii"), **fields}, fmt, out)
    return out.getvalue(), err.getvalue(), errors, found


def _block_fields() -> Callable[[Graph], Fields]:
    from .blocks import decompose

    def fields(graph: Graph) -> Fields:
        dec = decompose(graph)
        blocks = [{"kind": b.kind, "pages": b.pages, "vertices": b.vertices, "edges": b.edges}
                  for b in dec.blocks]
        return {"n": graph.n, "blocks": blocks, "stray_edges": dec.stray_edges}, False

    return fields


def _witness_fields() -> Callable[[Graph], Fields]:
    from .patterns import contains_suspension_p4

    def fields(graph: Graph) -> Fields:
        witness = contains_suspension_p4(graph)
        if witness is None:
            return {"status": "p4hat-free"}, False
        return {"status": "witness", "apex": witness.apex, "path": witness.path}, True

    return fields


def _check_bounds(args: argparse.Namespace) -> Fields:
    from .bounds import case_threshold_audit, floor_identity_audit

    floors = floor_identity_audit(args.n_max)
    cases = case_threshold_audit(max(args.n_max, 17))
    doc = {
        "n_max": args.n_max,
        "floor_identities": {
            "checked_from": floors.n_min,
            "checked_to": floors.n_max,
            "ok": floors.ok,
            "first_violation": floors.first_violation,
        },
        "case_thresholds": {
            "checked_to": cases.n_max,
            "case1_ok": cases.case1_ok,
            "case1_violations": list(cases.case1_violations),
            "case2_ok": cases.case2_ok,
            "case2_violations": list(cases.case2_violations),
            "cauchy_schwarz_ok": cases.cauchy_schwarz_ok,
        },
        "passed": floors.ok and cases.passed,
    }
    return doc, not doc["passed"]


def build_parser() -> _Parser:
    parser = _Parser(prog="p4hat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("json", "text"), default="json")
    output.add_argument("--output", default="-", help="output path, '-' for stdout")
    workers = argparse.ArgumentParser(add_help=False)
    workers.add_argument("--workers", type=int, default=None,
                         help="parallel workers (default: the available CPUs, "
                              "at most the largest count allowed)")
    stream = argparse.ArgumentParser(add_help=False)
    stream.add_argument("--input", default="-", help="input path, '-' for stdin")

    def command(name: str, summary: str, fields: Callable[..., Any],
                *shared: argparse.ArgumentParser) -> argparse.ArgumentParser:
        # a stream command describes each input graph; the rest write one
        # document.  Each imports the modules it runs when it runs.
        p = sub.add_parser(name, help=summary, parents=[*shared, output])
        p.set_defaults(run=partial(_cmd_stream if stream in shared else _cmd_document, fields))
        return p

    p = command("search", "pruned subset search for (n, t)", _search, workers)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)

    p = command("extremal", "extremal value and configurations", _extremal, workers)
    p.add_argument("--n", type=int, required=True)

    p = command("verify-construction", "check a lower-bound family", _verify_construction)
    p.add_argument("--family", choices=sorted(FAMILIES), required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--emit-graph6", action="store_true")

    command("blocks", "triangle-block decomposition of graph6 lines",
            _block_fields, stream, workers)
    command("witness", "forbidden-pattern witnesses for graph6 lines",
            _witness_fields, stream, workers)

    p = command("check-bounds", "floor identities and case thresholds", _check_bounds)
    p.add_argument("--n-max", type=int, default=1000000)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # a regular --output file, or a new one, is written to a temporary file
    # beside the file the path names, moved onto that file once the command
    # returns, so a usage error leaves it untouched and a link stays a link.
    # The temporary file takes an existing file's permission bits before any
    # output is written; a hard link to the file keeps the old text
    staged = target = None
    out: TextIO = sys.stdout
    with contextlib.ExitStack() as files:
        try:
            if not args.output:  # realpath('') would name the working directory
                raise GuardError("--output needs a path, or '-' for stdout")
            # input first, so a missing input leaves no stray temporary file;
            # stream commands read bytes, so any line can be reported as malformed
            if "input" in args:
                args.input = (sys.stdin.buffer if args.input == "-"
                              else files.enter_context(open(args.input, "rb")))
            if args.output != "-":
                if os.path.exists(args.output) and not os.path.isfile(args.output):
                    # a device or a pipe cannot be replaced: write it in place
                    out = files.enter_context(open(args.output, "w", encoding="ascii"))
                else:
                    target = os.path.realpath(args.output)
                    out = files.enter_context(
                        open(f"{target}.{os.getpid()}.tmp", "x", encoding="ascii"))
                    staged = out.name
                    if os.path.exists(target):
                        os.chmod(staged, stat.S_IMODE(os.stat(target).st_mode))
            code = args.run(args, out)
            out.flush()  # a closed reader or a full disk surfaces here, not at exit
            if staged is not None:
                out.close()
                os.replace(staged, target)
                staged = None
            return code
        except (GuardError, GraphError, OSError) as exc:
            # what was written stays written; an output that cannot take it
            # gets devnull, so neither its close nor the exit flush raises again
            if not out.closed:
                try:
                    out.flush()
                except OSError:
                    os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
            if isinstance(exc, BrokenPipeError):  # the reader stopped early
                return EXIT_BROKEN_PIPE
            print(f"p4hat {args.command}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        finally:
            if staged is not None:  # not moved into place: a usage error or a crash
                out.close()
                os.remove(staged)


if __name__ == "__main__":
    sys.exit(main())
