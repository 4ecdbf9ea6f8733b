import json
import subprocess
import sys

from p4hat import book, complete, encode_graph6, sixteen_vertex
from conftest import run_cli


def g6(graph) -> str:
    return encode_graph6(graph).decode()


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


class TestBrokenPipe:
    def test_reader_closing_early_exits_141_without_traceback(self, tmp_path):
        corpus = tmp_path / "k4s.g6"
        corpus.write_text((g6(complete(4)) + "\n") * 20_000)
        proc = subprocess.Popen([sys.executable, "-m", "p4hat", "witness", "--input", str(corpus)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        # 20,000 output lines overfill the pipe, so the writer is still
        # writing when the reader leaves
        assert proc.stdout.readline().startswith(b'{"line": 1, ')
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 141
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


class TestCheckBounds:
    def test_passes(self):
        code, out, _ = run_cli("check-bounds", "--n-max", "5000")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["floor_identities"]["ok"] is True

    def test_n_max_cap_usage_error(self):
        code, out, err = run_cli("check-bounds", "--n-max", "10000001")
        assert code == 64
        assert out == b""
        assert err == "p4hat check-bounds: floor_identity_audit needs n_max <= 10000000, got 10000001\n"


class TestStartup:
    def test_cli_import_loads_no_numpy_or_multiprocessing(self):
        # every command pays for what importing the CLI loads; the pool's
        # modules are imported only when a search forks one
        code = "import p4hat.cli, sys; print(sorted({'numpy', 'multiprocessing'} & set(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


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
