"""Tests for the command-line interface."""

import pytest

from repro.__main__ import main
from repro.circuit import parse_qasm, to_qasm
from repro.workloads import bv_circuit, get_benchmark


@pytest.fixture
def bv_qasm(tmp_path):
    path = tmp_path / "bv.qasm"
    path.write_text(to_qasm(bv_circuit(5)))
    return str(path)


class TestCompileCommand:
    def test_compile_from_qasm_file(self, bv_qasm, capsys):
        assert main(["compile", bv_qasm, "--mode", "max_reuse"]) == 0
        out = capsys.readouterr().out
        assert "qubits used" in out
        assert "60%" in out  # BV_5 compresses 5 -> 2

    def test_compile_benchmark_name(self, capsys):
        assert main(["compile", "xor_5", "--mode", "max_reuse"]) == 0
        assert "reuse resets" in capsys.readouterr().out

    def test_compile_qasm_asset_name(self, capsys):
        assert main(["compile", "bell"]) == 0
        assert "qubits used" in capsys.readouterr().out

    def test_compile_writes_output(self, bv_qasm, tmp_path, capsys):
        output = str(tmp_path / "out.qasm")
        assert main([
            "compile", bv_qasm, "--mode", "max_reuse", "--output", output
        ]) == 0
        compiled = parse_qasm(open(output).read())
        assert compiled.num_qubits == 2

    def test_compile_draw(self, capsys):
        assert main(["compile", "bv_5", "--mode", "max_reuse", "--draw"]) == 0
        assert "q0:" in capsys.readouterr().out

    def test_min_swap_needs_backend(self, capsys):
        assert main(["compile", "bv_5", "--mode", "min_swap"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_min_swap_with_mumbai(self, capsys):
        assert main([
            "compile", "bv_5", "--mode", "min_swap", "--backend", "mumbai"
        ]) == 0

    def test_missing_file_reports_error(self, capsys):
        assert main(["compile", "missing.qasm"]) == 1
        assert "error:" in capsys.readouterr().err


class TestOtherCommands:
    def test_sweep(self, capsys):
        assert main(["sweep", "bv_5"]) == 0
        out = capsys.readouterr().out
        assert "tradeoff sweep" in out
        assert "reuse beneficial: True" in out

    def test_benchmarks_listing(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "bv_10" in out
        assert "qaoa" in out
        # every concrete listed name is one `compile` accepts
        for line in out.splitlines():
            label, names = line.split(": ", 1)
            if label.startswith("QAOA"):
                continue
            for name in names.split(", "):
                get_benchmark(name)

    def test_backend_json_roundtrip(self, tmp_path, capsys):
        from repro.hardware import backend_to_json, ibm_mumbai

        path = tmp_path / "backend.json"
        path.write_text(backend_to_json(ibm_mumbai()))
        assert main([
            "compile", "xor_5", "--mode", "min_swap", "--backend", str(path)
        ]) == 0


class TestServiceCommands:
    """CLI paths that talk to the compile service (local dir or server)."""

    @pytest.fixture
    def server(self):
        from repro.service import CompileService, start_server_thread

        handle = start_server_thread(service=CompileService())
        yield handle
        handle.stop()

    def test_compile_through_server(self, server, capsys):
        assert main(["compile", "bv_5", "--server", server.url]) == 0
        assert "served from cache  False" in capsys.readouterr().out
        assert main(["compile", "bv_5", "--server", server.url]) == 0
        assert "served from cache  True" in capsys.readouterr().out

    def test_cache_stats_against_server(self, server, capsys):
        main(["compile", "bv_5", "--server", server.url])
        capsys.readouterr()
        assert main(["cache", "stats", "--server", server.url]) == 0
        out = capsys.readouterr().out
        assert "compile service" in out
        assert "http_requests" in out

    def test_cache_clear_key_against_server(self, server, capsys):
        from repro.service.service import CompileRequest

        main(["compile", "bv_5", "--server", server.url])
        fingerprint = CompileRequest(target=bv_circuit(5)).fingerprint()
        capsys.readouterr()
        assert main([
            "cache", "clear", "--key", fingerprint, "--server", server.url
        ]) == 0
        assert f"invalidated {fingerprint}" in capsys.readouterr().out
        assert main([
            "cache", "clear", "--key", fingerprint, "--server", server.url
        ]) == 0
        assert "no entry" in capsys.readouterr().out

    def test_cache_clear_key_on_disk(self, tmp_path, capsys):
        from repro.service.service import CompileRequest

        assert main(["compile", "bv_5", "--cache-dir", str(tmp_path)]) == 0
        fingerprint = CompileRequest(target=bv_circuit(5)).fingerprint()
        capsys.readouterr()
        assert main([
            "cache", "clear", "--key", fingerprint, "--dir", str(tmp_path)
        ]) == 0
        assert "removed 1 entries" in capsys.readouterr().out
        assert list(tmp_path.rglob("*.json")) == []

    def test_cache_stats_lists_shards(self, tmp_path, capsys):
        assert main(["compile", "bv_5", "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "shard nobackend" in out

    def test_serve_parses_and_connection_refused_is_an_error(self, capsys):
        from repro.__main__ import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--max-concurrency", "4"]
        )
        assert args.port == 0 and args.max_concurrency == 4
        # a dead server is a clean CLI error, not a traceback
        assert main([
            "compile", "bv_5", "--server", "http://127.0.0.1:9"
        ]) == 1
        assert "error:" in capsys.readouterr().err
