import errno
import hashlib
import importlib
import json
import os
import random
import re
import stat
import subprocess
import sys

import pytest

import p4hat
from p4hat import book, complete, encode_graph6, sixteen_vertex
from p4hat.cli import STREAM_CHUNK, build_parser, main
from p4hat.pool import MAX_WORKERS
from conftest import PYTHON_FLAGS, THREADED_FORK, random_graph, run_cli


def g6(graph) -> str:
    return encode_graph6(graph).decode()


def run_main(prelude: str, *argv: str, stdout=subprocess.PIPE) -> tuple[int, str, str]:
    """Run ``prelude``, then ``p4hat.cli.main(argv)``, in a fresh interpreter
    with ``PYTHON_FLAGS``; return its exit code, stdout and stderr."""
    code = f"import sys\nimport p4hat.cli as cli\n{prelude}\nsys.exit(cli.main({list(argv)!r}))\n"
    proc = subprocess.run([sys.executable, *PYTHON_FLAGS, "-c", code],
                          stdout=stdout, stderr=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def fork_corpus(path) -> str:
    """Write graph6 lines whose first chunk takes tens of milliseconds, more
    than the pool's fork budget, and two more chunks; return the path."""
    path.write_text((g6(book(20)) + "\n") * STREAM_CHUNK
                    + (g6(book(1)) + "\n") * (STREAM_CHUNK + 1))
    return str(path)


class TestSearchCommand:
    def test_exhausted_exit_zero(self):
        code, out, _ = run_cli("search", "--n", "5", "--t", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["outcome"] == "exhausted"
        assert doc["graphs_examined"] == 4
        assert doc["nonexistence_certified"] is True

    def test_counterexample_exit_two(self):
        code, out, _ = run_cli("search", "--n", "8", "--t", "5")
        assert code == 2
        doc = json.loads(out)
        assert doc["outcome"] == "counterexample"
        assert doc["counterexample"]["triangles"] >= 5

    def test_usage_guard_exit_64(self):
        code, _, err = run_cli("search", "--n", "99", "--t", "9")
        assert code == 64
        assert "counterexample_search" in err

    def test_missing_argument_exit_64(self):
        code, _, _ = run_cli("search", "--n", "8")
        assert code == 64

    def test_progress_goes_to_stderr(self):
        code, out, err = run_cli("search", "--n", "6", "--t", "6")
        assert code == 0
        assert "chunk" in err
        assert "nodes visited" in err
        assert "nodes" not in out.decode()  # worker-dependent, so never on stdout
        json.loads(out)  # stdout stays pure JSON


class TestExtremalCommand:
    def test_n4(self):
        code, out, _ = run_cli("extremal", "--n", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["ex_value"] == 4
        assert doc["configs"] == ["C~"]

    def test_n7_single_config(self):
        code, out, _ = run_cli("extremal", "--n", "7")
        assert code == 0
        doc = json.loads(out)
        assert doc["ex_value"] == 8
        assert doc["config_count"] == 1

    def test_configs_sorted(self):
        code, out, _ = run_cli("extremal", "--n", "5")
        doc = json.loads(out)
        assert doc["configs"] == sorted(doc["configs"])


class TestVerifyConstruction:
    def test_bipartite_n20(self):
        code, out, _ = run_cli("verify-construction", "--family", "bipartite-matching", "--n", "20")
        assert code == 0
        doc = json.loads(out)
        assert doc["triangles"] == 50 == doc["expected_triangles"]
        assert doc["passed"] is True

    def test_sixteen_vertex(self):
        for n in ((), ("--n", "16")):  # omitting --n means 16
            code, out, _ = run_cli("verify-construction", "--family", "sixteen-vertex", *n)
            assert code == 0
            doc = json.loads(out)
            assert doc["parameter"] == 16 == doc["vertices"]
            assert doc["triangles"] == 32
            assert doc["block_kinds"] == ["K4"] * 8
            assert doc["passed"] is True

    def test_unknown_family_usage_error(self):
        code, _, _ = run_cli("verify-construction", "--family", "nonsense", "--n", "5")
        assert code == 64

    def test_missing_n_usage_error(self):
        code, _, _ = run_cli("verify-construction", "--family", "book")
        assert code == 64

    def test_out_of_range_parameter_usage_error(self):
        for family, n in (("bipartite-matching", "3"), ("small-extremal", "8"), ("book", "0"),
                          ("complete", "0"), ("bipartite-matching", "3000"),
                          ("sixteen-vertex", "3")):
            code, out, err = run_cli("verify-construction", "--family", family, "--n", n)
            assert code == 64, (family, n)
            assert out == b""
            assert err.startswith("p4hat verify-construction: ")

    def test_complete_freeness_claim_exact(self):
        # K4 has too few vertices for the 5-vertex pattern; K5 contains it
        for k, free in (("4", True), ("5", False)):
            code, out, _ = run_cli("verify-construction", "--family", "complete", "--n", k)
            assert code == 0
            doc = json.loads(out)
            assert doc["p4hat_free"] is doc["expected_p4hat_free"] is free
            assert doc["passed"] is True

    def test_emit_graph6(self):
        code, out, _ = run_cli("verify-construction", "--family", "book", "--n", "3",
                               "--emit-graph6")
        assert code == 0
        assert json.loads(out)["graph6"] == g6(book(3))


class TestStreams:
    def test_blocks_on_book(self):
        code, out, _ = run_cli("blocks", stdin_text=g6(book(3)) + "\n")
        assert code == 0
        doc = json.loads(out)
        assert doc["blocks"][0]["kind"] == "Book"
        assert doc["blocks"][0]["pages"] == 3

    def test_witness_on_k5(self):
        code, out, _ = run_cli("witness", stdin_text=g6(complete(5)) + "\n")
        assert code == 2
        doc = json.loads(out)
        assert doc["status"] == "witness"
        assert doc["apex"] == 0

    def test_witness_free_graph(self):
        code, out, _ = run_cli("witness", stdin_text=g6(sixteen_vertex()) + "\n")
        assert code == 0
        assert json.loads(out)["status"] == "p4hat-free"

    def test_malformed_line_reported_and_continues(self):
        text = "C~~\n" + g6(book(2)) + "\n"
        code, out, err = run_cli("witness", stdin_text=text)
        assert code == 1
        lines = out.decode().splitlines()
        assert len(lines) == 2
        assert "error" in json.loads(lines[0])
        assert json.loads(lines[1])["status"] == "p4hat-free"
        assert "line 1" in err

    def test_non_ascii_line_reported_and_continues(self):
        text = "\u00e9\n" + g6(book(2)) + "\n"
        code, out, err = run_cli("witness", stdin_text=text)
        assert code == 1
        lines = [json.loads(line) for line in out.decode().splitlines()]
        assert list(lines[0]) == ["line", "error"]
        assert lines[1]["status"] == "p4hat-free"
        assert "Traceback" not in err

    def test_undecodable_byte_in_input_file(self, tmp_path):
        source = tmp_path / "graphs.g6"
        source.write_bytes(b"\xff\n" + encode_graph6(book(2)) + b"\n")
        code, out, err = run_cli("blocks", "--input", str(source))
        assert code == 1
        lines = [json.loads(line) for line in out.decode().splitlines()]
        assert lines[0] == {"line": 1, "error": "malformed graph6 header byte 255"}
        assert lines[1]["blocks"][0]["kind"] == "Book"
        assert "Traceback" not in err

    def test_text_format(self):
        text = g6(complete(5)) + "\n\nC~~\n"
        code, out, _ = run_cli("witness", "--format", "text", stdin_text=text)
        assert code == 1
        assert out.decode().splitlines() == [
            "line=1  graph6=D~{  status=witness  apex=0  path=[1, 2, 3, 4]",
            "line=3  error=trailing garbage after graph6 body (1 bytes)",
        ]

    def test_output_file(self, tmp_path):
        target = tmp_path / "blocks.jsonl"
        code, out, _ = run_cli("blocks", "--output", str(target), stdin_text=g6(book(3)) + "\n")
        assert code == 0
        assert out == b""
        assert json.loads(target.read_text())["blocks"][0]["pages"] == 3

    def test_multiple_lines(self):
        text = "\n".join([g6(book(1)), g6(complete(4)), g6(complete(5))]) + "\n"
        code, out, _ = run_cli("blocks", stdin_text=text)
        assert code == 0
        kinds = [json.loads(line)["blocks"][0]["kind"] for line in out.decode().splitlines()]
        assert kinds == ["Book", "K4", "Other"]


def stream_corpus(seed: int, chunks: float) -> str:
    """Seeded graph6 lines filling ``chunks`` stream chunks, with blank,
    padded, malformed and non-ASCII lines; one malformed line ends the first
    chunk and another starts the second."""
    rng = random.Random(seed)
    lines = [g6(random_graph(rng, rng.randint(1, 10), rng.choice((0.3, 0.5, 0.8))))
             for _ in range(int(chunks * STREAM_CHUNK))]
    lines[STREAM_CHUNK - 1] = "C~~"
    lines[STREAM_CHUNK] = "\u00e9"
    lines[STREAM_CHUNK + 7] = "  " + lines[STREAM_CHUNK + 7] + "\t"
    lines[-3] = "D"
    text = ""
    for line in lines:
        text += line + "\n" + "\n" * (rng.random() < 0.05)
    return text + "\n"


class TestStreamWorkers:
    @pytest.mark.parametrize("command", ["blocks", "witness"])
    def test_output_identical_across_worker_counts(self, command):
        text = stream_corpus(17, 3.5)
        for fmt in ("json", "text"):
            runs = [run_cli(command, "--format", fmt, "--workers", w, stdin_text=text)
                    for w in ("1", "2", "8")]
            assert runs[1] == runs[0] and runs[2] == runs[0], fmt
            code, out, err = runs[0]
            assert code == 1
            assert len(out.splitlines()) == len([line for line in text.splitlines() if line])
            assert [line.split(":")[0] for line in err.splitlines()] == [
                f"line {i}" for i, line in enumerate(text.splitlines(), start=1)
                if line.strip() in ("C~~", "\u00e9", "D")
            ]

    def test_one_chunk_starts_no_pool(self, tmp_path, pool_sizes):
        source = tmp_path / "graphs.g6"
        source.write_text((g6(book(2)) + "\n") * STREAM_CHUNK)
        assert main(["blocks", "--input", str(source), "--output", str(tmp_path / "out"),
                     "--workers", "8"]) == 0
        assert pool_sizes == []

    def test_pool_has_one_process_per_chunk(self, tmp_path, pool_sizes):
        source = tmp_path / "graphs.g6"
        source.write_text(stream_corpus(18, 2.1))
        outputs = []
        for workers in ("8", "1"):
            target = tmp_path / f"out-{workers}"
            assert main(["witness", "--input", str(source), "--output", str(target),
                         "--workers", workers]) == 1
            outputs.append(target.read_bytes())
        assert pool_sizes == [3]
        assert outputs[0] == outputs[1]

    def test_blank_crlf_lines_straddling_a_chunk_boundary(self):
        # a full chunk of non-blank lines, two blank ones, then two more
        rng = random.Random(19)
        graphs = [g6(random_graph(rng, rng.randint(1, 10), 0.5)) for _ in range(STREAM_CHUNK + 2)]
        lines = graphs[:STREAM_CHUNK] + ["", ""] + graphs[STREAM_CHUNK:]
        text = "".join(line + "\r\n" for line in lines)
        for workers in ("1", "2"):
            code, out, err = run_cli("blocks", "--workers", workers, stdin_text=text)
            assert (code, err) == (0, "")
            docs = [json.loads(line) for line in out.splitlines()]
            assert [doc["line"] for doc in docs] == [
                *range(1, STREAM_CHUNK + 1), STREAM_CHUNK + 3, STREAM_CHUNK + 4]
            assert [doc["graph6"] for doc in docs] == graphs

    @pytest.mark.parametrize("command", ["blocks", "witness"])
    def test_worker_count_guard(self, command):
        for workers in ("0", "-2"):
            code, out, err = run_cli(command, "--workers", workers, stdin_text=g6(book(2)) + "\n")
            assert code == 64
            assert out == b""
            assert err == (f"p4hat {command}: worker count must be an int in 1..{MAX_WORKERS}, "
                           f"got {workers}\n")

    @pytest.mark.parametrize("argv", [
        ["blocks"], ["witness"], ["search", "--n", "8", "--t", "9"],
        ["extremal", "--n", "5"], ["extremal", "--n", "8"],
    ], ids=["blocks", "witness", "search", "extremal-oracle", "extremal-n8"])
    def test_worker_cap(self, argv):
        # the cap is checked before any input line is read or any worker forks
        code, out, err = run_cli(*argv, "--workers", str(MAX_WORKERS + 1),
                                 stdin_text=g6(book(2)) + "\n")
        assert (code, out) == (64, b"")
        assert err == (f"p4hat {argv[0]}: worker count must be an int in 1..{MAX_WORKERS}, "
                       f"got {MAX_WORKERS + 1}\n")

    def test_default_follows_cpu_affinity(self, monkeypatch, tmp_path, pool_sizes):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 9}, raising=False)
        for argv in (["blocks"], ["witness"], ["search", "--n", "8", "--t", "9"]):
            assert build_parser().parse_args(argv).workers == 3
        # more CPUs than the cap: the default is the cap, and a map runs
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(300)))
        assert build_parser().parse_args(["extremal", "--n", "5"]).workers == MAX_WORKERS
        assert main(["extremal", "--n", "5", "--output", str(tmp_path / "out")]) == 0
        monkeypatch.delattr(os, "sched_getaffinity")  # a platform without affinity
        assert build_parser().parse_args(["blocks"]).workers == 64

    def test_too_few_open_files_for_the_pool_is_a_usage_error(self, tmp_path):
        # the first chunk spends the fork budget, so the next four go to a
        # pool of four; the open-file limit leaves room for two workers
        source = tmp_path / "in.g6"
        source.write_text((g6(book(20)) + "\n") * STREAM_CHUNK
                          + (g6(book(1)) + "\n") * (4 * STREAM_CHUNK))
        target = tmp_path / "out"
        code = (
            "import os, resource, sys\n"
            "import p4hat.cli as cli\n"
            "free = os.open(os.devnull, os.O_RDONLY)\n"
            "os.close(free)\n"
            "hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]\n"
            "# room for the input, the output and two workers: each worker\n"
            "# opens four pipe ends and keeps two\n"
            "resource.setrlimit(resource.RLIMIT_NOFILE, (free + 8, hard))\n"
            f"status = cli.main(['witness', '--input', {str(source)!r}, '--output', "
            f"{str(target)!r}, '--workers', '4'])\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "    print('a worker was left behind', file=sys.stderr)\n"
            "except ChildProcessError:\n"
            "    pass\n"
            "sys.exit(status)\n"
        )
        proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 64, proc.stderr
        assert proc.stdout == ""
        assert re.fullmatch(r"p4hat witness: could not start pool worker [234] of 4: "
                            rf"\[Errno {errno.EMFILE}\] Too many open files\n", proc.stderr)
        assert not target.exists()

    @pytest.mark.skipif(sys.version_info < (3, 12),
                        reason="a fork in a process with threads warns from Python 3.12")
    def test_a_fork_in_a_process_with_threads_is_seen(self, tmp_path):
        # -W error alone hides the warning: os.fork clears it once it is an error
        prelude = ("import threading\n"
                   "threading.Thread(target=threading.Event().wait, daemon=True).start()")
        code, _, err = run_main(prelude, "blocks", "--input", fork_corpus(tmp_path / "in.g6"),
                                "--output", str(tmp_path / "out"), "--workers", "2")
        assert code == 0
        assert THREADED_FORK in err


def random_corpus(seed: int, count: int) -> str:
    """``count`` seeded graph6 lines of random graphs on 1..16 vertices."""
    rng = random.Random(seed)
    return "".join(g6(random_graph(rng, rng.randint(1, 16), rng.choice((0.1, 0.3, 0.5, 0.7, 0.9))))
                   + "\n" for _ in range(count))


CORPORA = {"stream": lambda: stream_corpus(17, 3.5), "random": lambda: random_corpus(5, 5_000)}

# sha256 and exit code of each stream command's stdout on each corpus
GOLDEN = {
    ("stream", "witness", "json"): (1, "5af3819d1ffd8c452ff39c944a2bdb534bf0abd91174ffc4691e05a3ab41e9d0"),
    ("stream", "witness", "text"): (1, "1d50f93d368bd782062a619ef466bda04db8c10dc9e2c6022352fbd0ce5b9e1c"),
    ("stream", "blocks", "json"): (1, "cbeff0816aa134b731de30b034055c18973c9196b885f189d16f2e2dbe3450d6"),
    ("stream", "blocks", "text"): (1, "3a5df9fbe7c7b0a0b5b887210e55fef0284863ec86906bcb7b3fdbdaa42a6213"),
    ("random", "witness", "json"): (2, "66958483669dfd3b82e28cf1381794d0e42bd4090ab1db24120af528b79136dd"),
    ("random", "witness", "text"): (2, "70b0528d70b7d2cd998d4b3d2d7ed98336d257ba7ae986d6896e33a35e8bc9d0"),
    ("random", "blocks", "json"): (0, "c5da61211dc4e76d79d471a930483f8a74c0c2187e0d57e73515e4e21d5305a4"),
    ("random", "blocks", "text"): (0, "2a90a21434c3a09ee026f51c372b5ca617549b6db58d79b33fdd6e2e07c30706"),
}


@pytest.mark.parametrize("corpus, command, fmt", sorted(GOLDEN))
def test_stream_stdout_is_pinned(corpus, command, fmt):
    code, out, _ = run_cli(command, "--format", fmt, stdin_text=CORPORA[corpus]())
    assert (code, hashlib.sha256(out).hexdigest()) == GOLDEN[corpus, command, fmt]


class TestBrokenPipe:
    @staticmethod
    def close_after_first_line(tmp_path, *args: str) -> tuple[int, str]:
        """Run ``witness`` on 20,000 K4 lines, read one output line, close
        stdout; return the exit code and stderr."""
        corpus = tmp_path / "k4s.g6"
        corpus.write_text((g6(complete(4)) + "\n") * 20_000)
        with subprocess.Popen([sys.executable, "-m", "p4hat", "witness", "--input", str(corpus),
                               *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            # 20,000 output lines overfill the pipe, so the writer is still
            # writing when the reader leaves
            assert proc.stdout.readline().startswith(b'{"line": 1, ')
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)  # stderr ends once every worker has exited
            return proc.returncode, err.decode()

    def test_reader_closing_early_exits_141_without_traceback(self, tmp_path):
        code, err = self.close_after_first_line(tmp_path)
        assert code == 141
        assert "Traceback" not in err

    def test_reader_closing_early_with_a_pool(self, tmp_path):
        code, err = self.close_after_first_line(tmp_path, "--workers", "2")
        assert code == 141
        assert "Traceback" not in err


class TestUnopenablePaths:
    def test_missing_input(self, tmp_path):
        target = tmp_path / "out.jsonl"
        code, out, err = run_cli("witness", "--input", str(tmp_path / "missing.g6"),
                                 "--output", str(target))
        assert code == 64
        assert out == b""
        assert err.startswith("p4hat witness: ") and err.count("\n") == 1
        assert not target.exists()  # the input is opened first

    def test_unwritable_output(self, tmp_path):
        code, out, err = run_cli("extremal", "--n", "4",
                                 "--output", str(tmp_path / "no-such-dir" / "out.json"))
        assert code == 64
        assert out == b""
        assert err.startswith("p4hat extremal: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("search", "--n", "99", "--t", "9"),
        ("witness", "--workers", "0"),
    ])
    def test_usage_error_removes_the_output_it_created(self, tmp_path, argv):
        target = tmp_path / "out.json"
        code, out, err = run_cli(*argv, "--output", str(target), stdin_text="Bw\n")
        assert code == 64
        assert out == b""
        assert err.startswith(f"p4hat {argv[0]}: ") and err.count("\n") == 1
        assert not target.exists()

    def test_usage_error_keeps_an_existing_output(self, tmp_path):
        # as a regular file, then through a symbolic link to it
        target, link = tmp_path / "pre.json", tmp_path / "link.json"
        target.write_bytes(b"hello world\n")
        for path, names in ((target, ["pre.json"]), (link, ["link.json", "pre.json"])):
            if path == link:
                link.symlink_to(target)
            code, out, err = run_cli("search", "--n", "99", "--t", "9", "--output", str(path))
            assert (code, out) == (64, b"")
            assert err.startswith("p4hat search: ") and err.count("\n") == 1
            assert target.read_bytes() == b"hello world\n"
            assert sorted(p.name for p in tmp_path.iterdir()) == names  # no temporary left
        assert link.is_symlink()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_pipe_output_is_written_in_place(self, tmp_path):
        # a path that is not a regular file cannot be replaced by a renamed one
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # lets the writer open
        try:
            proc = subprocess.run([sys.executable, "-m", "p4hat", "extremal", "--n", "4",
                                   "--output", str(fifo)], capture_output=True, timeout=60)
            assert proc.returncode == 0
            assert json.loads(os.read(reader, 1 << 16))["ex_value"] == 4
        finally:
            os.close(reader)
        assert fifo.is_fifo()

    @pytest.mark.parametrize("target_exists", [True, False])
    def test_a_link_output_is_written_through(self, tmp_path, target_exists):
        # moving a temporary file onto the link would replace the link
        real, link = tmp_path / "real.json", tmp_path / "link.json"
        if target_exists:
            real.write_text("old text\n")
        link.symlink_to(real)
        code, out, err = run_cli("extremal", "--n", "5", "--output", str(link))
        assert (code, out, err.count("\n")) == (0, b"", 1)
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert json.loads(real.read_text())["ex_value"] == 4
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "real.json"]

    @pytest.mark.parametrize("mode", [0o600, 0o664], ids=oct)
    def test_an_existing_output_keeps_its_permission_bits(self, tmp_path, mode):
        # the output is moved onto the file, so a hard link keeps the old text
        target, hard = tmp_path / "r.json", tmp_path / "h.json"
        target.write_text("old text\n")
        target.chmod(mode)
        os.link(target, hard)
        assert run_cli("extremal", "--n", "4", "--output", str(target))[0] == 0
        assert stat.S_IMODE(target.stat().st_mode) == mode
        assert json.loads(target.read_text())["ex_value"] == 4
        assert hard.read_text() == "old text\n"

    def test_a_new_output_gets_the_umask_mode(self, tmp_path):
        umask = os.umask(0o022)
        os.umask(umask)
        target = tmp_path / "new.json"
        assert run_cli("extremal", "--n", "4", "--output", str(target))[0] == 0
        assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
NO_SPACE = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"


def assert_one_failure_line(err: str, command: str, reason: str) -> None:
    assert "Traceback" not in err and "Exception ignored" not in err, err
    assert err.endswith("\n") and err.splitlines()[-1] == f"p4hat {command}: {reason}", err


class TestIOErrors:
    """An I/O error on the input or the output is a usage error: exit 64 and
    one stderr line, with no traceback."""

    @needs_dev_full
    @pytest.mark.parametrize("argv", [("extremal", "--n", "8"), ("witness",)],
                             ids=["extremal", "witness"])
    def test_output_on_a_full_device(self, argv):
        code, out, err = run_cli(*argv, "--output", "/dev/full", stdin_text="D~{\n")
        assert (code, out) == (64, b"")
        assert_one_failure_line(err, argv[0], NO_SPACE)

    @needs_dev_full
    def test_stdout_on_a_full_device(self):
        with open("/dev/full", "w") as full:
            code, _, err = run_main("", "extremal", "--n", "8", stdout=full)
        assert code == 64
        assert_one_failure_line(err, "extremal", NO_SPACE)

    def test_input_error_keeps_the_output_already_written(self):
        # the first chunk is read and written whole; reading the second fails
        prelude = ("import errno, os, types\n"
                   "def lines():\n"
                   f"    yield from [b'D~{{\\n'] * {STREAM_CHUNK}\n"
                   "    raise OSError(errno.EIO, os.strerror(errno.EIO))\n"
                   "sys.stdin = types.SimpleNamespace(buffer=lines())")
        code, out, err = run_main(prelude, "witness", "--workers", "1")
        assert code == 64
        assert [json.loads(line)["line"] for line in out.splitlines()] == list(
            range(1, STREAM_CHUNK + 1))
        assert err == f"p4hat witness: [Errno {errno.EIO}] {os.strerror(errno.EIO)}\n"

    def test_a_failed_move_removes_the_staged_file(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("old text\n")
        prelude = ("import os\n"
                   "def refuse(source, target):\n"
                   "    raise PermissionError(13, 'Permission denied')\n"
                   "os.replace = refuse")
        code, out, err = run_main(prelude, "extremal", "--n", "4", "--output", str(target))
        assert (code, out) == (64, "")
        assert_one_failure_line(err, "extremal", "[Errno 13] Permission denied")
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
        assert target.read_text() == "old text\n"

    def test_an_empty_output_path_fails_before_the_command_runs(self, tmp_path, monkeypatch,
                                                                 capsys):
        # the working directory's own path would name its parent's new file
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(["extremal", "--n", "4", "--output", ""]) == 64
        assert capsys.readouterr() == ("", "p4hat extremal: --output needs a path, "
                                           "or '-' for stdout\n")
        assert [p.name for p in tmp_path.iterdir()] == ["work"]
        assert list(work.iterdir()) == []


class TestCheckBounds:
    def test_passes(self):
        code, out, _ = run_cli("check-bounds", "--n-max", "5000")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["floor_identities"]["ok"] is True

    @pytest.mark.parametrize("n_max", [12, 1000000])
    def test_exact_json(self, n_max):
        code, out, err = run_cli("check-bounds", "--n-max", str(n_max))
        assert (code, err) == (0, "")
        cases_to = max(n_max, 17)
        assert out.decode() == f"""{{
  "schema_version": 1,
  "command": "check-bounds",
  "n_max": {n_max},
  "floor_identities": {{
    "checked_from": 12,
    "checked_to": {n_max},
    "ok": true,
    "first_violation": null
  }},
  "case_thresholds": {{
    "checked_to": {cases_to},
    "case1_ok": true,
    "case1_violations": [],
    "case2_ok": true,
    "case2_violations": [],
    "cauchy_schwarz_ok": true
  }},
  "passed": true
}}
"""

    def test_exact_text(self):
        code, out, err = run_cli("check-bounds", "--n-max", "12", "--format", "text")
        assert (code, err) == (0, "")
        assert out.decode() == (
            "schema_version: 1\n"
            "command: check-bounds\n"
            "n_max: 12\n"
            "floor_identities: {'checked_from': 12, 'checked_to': 12, 'ok': True, "
            "'first_violation': None}\n"
            "case_thresholds: {'checked_to': 17, 'case1_ok': True, 'case1_violations': [], "
            "'case2_ok': True, 'case2_violations': [], 'cauchy_schwarz_ok': True}\n"
            "passed: True\n"
        )

    def test_n_max_floor_usage_error(self):
        code, out, err = run_cli("check-bounds", "--n-max", "11")
        assert code == 64
        assert out == b""
        assert err == ("p4hat check-bounds: floor_identity_audit's n_max must be an int "
                       "in 12..10000000, got 11\n")

    def test_n_max_cap_usage_error(self):
        code, out, err = run_cli("check-bounds", "--n-max", "10000001")
        assert code == 64
        assert out == b""
        assert err == ("p4hat check-bounds: floor_identity_audit's n_max must be an int "
                       "in 12..10000000, got 10000001\n")


class TestStartup:
    def test_cli_import_loads_no_numpy_or_multiprocessing(self):
        # every command pays for what importing the CLI loads; the pool's
        # modules are imported only when a map forks its workers
        code = ("import p4hat.cli, sys; print(sorted({'numpy', 'multiprocessing', "
                "'concurrent.futures', 'pickle'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @staticmethod
    def loaded_modules(*args: str) -> set[str]:
        """Every module that ``python -X importtime *args`` imports, in the
        parent or in a forked worker."""
        proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}

    def test_package_import_loads_no_submodule(self):
        loaded = self.loaded_modules("-c", "import p4hat")
        assert "p4hat" in loaded
        assert {m for m in loaded if m.startswith("p4hat.")} == set()

    def test_help_loads_no_command_module(self):
        loaded = self.loaded_modules("-m", "p4hat", "--help")
        assert "p4hat.cli" in loaded
        assert loaded.isdisjoint({"dataclasses", "inspect", "p4hat.search", "p4hat.blocks",
                                  "p4hat.bounds", "p4hat.canon", "p4hat.patterns",
                                  "p4hat.pool"})

    @pytest.mark.parametrize("argv", [
        ("check-bounds", "--n-max", "12"),
        ("verify-construction", "--family", "sixteen-vertex"),
    ])
    def test_a_command_that_maps_nothing_loads_no_pool(self, argv):
        loaded = self.loaded_modules("-m", "p4hat", *argv)
        assert "p4hat.cli" in loaded
        assert "p4hat.pool" not in loaded

    def test_extremal_loads_no_blocks_or_bounds(self):
        loaded = self.loaded_modules("-m", "p4hat", "extremal", "--n", "8", "--workers", "2")
        assert "p4hat.search" in loaded
        assert loaded.isdisjoint({"p4hat.blocks", "p4hat.bounds", "dataclasses"})

    def test_search_loads_no_canon(self):
        # only the oracle and the config enumeration canonicalize
        loaded = self.loaded_modules("-m", "p4hat", "search", "--n", "8", "--t", "9")
        assert "p4hat.search" in loaded
        assert "p4hat.canon" not in loaded

    @pytest.mark.parametrize("family, n, decomposes", [
        ("bipartite-matching", "200", False),
        ("sixteen-vertex", "16", True),
    ])
    def test_verify_construction_loads_blocks_only_to_decompose(self, family, n, decomposes):
        loaded = self.loaded_modules("-m", "p4hat", "verify-construction",
                                     "--family", family, "--n", n)
        assert ("p4hat.blocks" in loaded) == decomposes

    def test_extremal_n8_forks_no_pool(self):
        # its scans take about 1 ms in all, inside the pool's fork budget
        loaded = self.loaded_modules("-m", "p4hat", "extremal", "--n", "8", "--workers", "2")
        assert loaded.isdisjoint({"pickle", "select"})

    def test_a_stream_forks_once_its_first_chunk_spends_the_budget(self, tmp_path):
        loaded = self.loaded_modules("-m", "p4hat", "blocks",
                                     "--input", fork_corpus(tmp_path / "in.g6"),
                                     "--output", str(tmp_path / "out"), "--workers", "2")
        assert {"pickle", "select"} <= loaded

    @pytest.mark.parametrize("command, module", [("witness", "p4hat.patterns"),
                                                 ("blocks", "p4hat.blocks")])
    def test_stream_imports_before_the_pool_forks(self, tmp_path, command, module):
        source = tmp_path / "in.g6"
        source.write_text(g6(book(3)) + "\n")
        code = (
            "import sys, p4hat.cli as cli, p4hat.pool as pool\n"
            "real = pool.ordered_map\n"
            "def spy(fn, items, workers):\n"
            "    print(sorted(m for m in sys.modules if m.startswith('p4hat.')), file=sys.stderr)\n"
            "    return real(fn, items, workers)\n"
            "pool.ordered_map = spy\n"
            f"sys.exit(cli.main([{command!r}, '--input', {str(source)!r}, '--workers', '2']))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert module in proc.stderr.splitlines()[0]

    def test_every_export_resolves(self):
        assert len(p4hat.__all__) == 58
        for name in p4hat.__all__:
            module = importlib.import_module(f"p4hat.{p4hat._MODULE_OF[name]}")
            assert getattr(p4hat, name) is getattr(module, name)
        namespace: dict = {}
        exec("from p4hat import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == p4hat.__all__
        with pytest.raises(AttributeError, match="no_such_name"):
            p4hat.no_such_name


class TestDeterminism:
    def test_repeated_runs_identical(self):
        first = run_cli("search", "--n", "6", "--t", "6")
        second = run_cli("search", "--n", "6", "--t", "6")
        assert first[1] == second[1]

    def test_text_format(self):
        code, out, _ = run_cli("extremal", "--n", "4", "--format", "text")
        assert code == 0
        assert b"ex_value: 4" in out

    def test_output_file(self, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli("extremal", "--n", "4", "--output", str(target))
        assert code == 0
        assert out == b""
        assert json.loads(target.read_text())["ex_value"] == 4
