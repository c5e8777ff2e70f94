"""CLI tests: every subcommand drives the library end to end."""

import ast
import inspect

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.ir import print_module
from tests.conftest import build_two_field_module

BUGGY_TEXT = """\
module "cli_demo" model strict

define void @main() !file "demo.c" {
entry:
  %p = palloc i64
  store i64 1, %p  !loc "demo.c":3
  ret void  !loc "demo.c":4
}
"""


@pytest.fixture
def buggy_file(tmp_path):
    path = tmp_path / "buggy.nvmir"
    path.write_text(BUGGY_TEXT)
    return str(path)


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.nvmir"
    path.write_text(print_module(build_two_field_module(flush_both=True)))
    return str(path)


class TestCheck:
    def test_buggy_exits_nonzero_and_reports(self, buggy_file, capsys):
        assert main(["check", buggy_file]) == 1
        out = capsys.readouterr().out
        assert "demo.c:3" in out
        assert "Unflushed" in out

    def test_clean_exits_zero(self, clean_file, capsys):
        assert main(["check", clean_file]) == 0
        assert "0 warning" in capsys.readouterr().out

    def test_model_override(self, buggy_file, capsys):
        assert main(["check", buggy_file, "--model", "epoch"]) == 1
        assert "epoch" in capsys.readouterr().out

    def test_dynamic_flag(self, clean_file):
        assert main(["check", clean_file, "--dynamic"]) == 0

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent.nvmir"]) == 2

    def test_parse_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.nvmir"
        bad.write_text("not a module")
        assert main(["check", str(bad)]) == 2
        assert "error" in capsys.readouterr().err


class TestRun:
    def test_run_prints_stats(self, clean_file, capsys):
        assert main(["run", clean_file]) == 0
        out = capsys.readouterr().out
        assert "returned:" in out
        assert "fences:" in out


class TestCorpusCommand:
    def test_full_corpus(self, capsys):
        assert main(["corpus"]) == 0
        out = capsys.readouterr().out
        assert "43" in out and "50" in out and "14%" in out

    def test_framework_filter(self, capsys):
        assert main(["corpus", "--framework", "pmfs"]) == 0
        out = capsys.readouterr().out
        assert "9/11" in out


class TestCorpusParallelAndCache:
    def test_jobs_stdout_matches_serial(self, capsys):
        assert main(["corpus", "--jobs", "1"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["corpus", "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_warm_cache_stdout_identical_and_hits_on_stderr(
            self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["corpus", "--cache-dir", cache]) == 0
        cold = capsys.readouterr()
        assert "18 miss(es)" in cold.err
        assert main(["corpus", "--cache-dir", cache, "--jobs", "4"]) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert "18 hit(s)" in warm.err


class TestCheckCache:
    def test_check_miss_then_hit(self, buggy_file, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["check", buggy_file, "--cache-dir", cache]) == 1
        assert "cache miss" in capsys.readouterr().err
        assert main(["check", buggy_file, "--cache-dir", cache]) == 1
        captured = capsys.readouterr()
        assert "cache hit" in captured.err
        assert "demo.c:3" in captured.out

    def test_check_json_carries_cache_provenance(
            self, buggy_file, tmp_path, capsys):
        import json

        cache = str(tmp_path / "cache")
        main(["check", buggy_file, "--cache-dir", cache, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache"]["hit"] is False
        main(["check", buggy_file, "--cache-dir", cache, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache"]["hit"] is True
        assert payload["cache"]["key"]


class TestCacheCommand:
    def test_stats_and_clear(self, buggy_file, tmp_path, capsys):
        def stats_line():
            assert main(["cache", "stats", "--cache-dir", cache]) == 0
            return " ".join(capsys.readouterr().out.split())

        cache = str(tmp_path / "cache")
        assert "entries: 0" in stats_line()
        main(["check", buggy_file, "--cache-dir", cache])
        capsys.readouterr()
        assert "entries: 1" in stats_line()
        assert main(["cache", "clear", "--cache-dir", cache]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert "entries: 0" in stats_line()

    def test_stats_json(self, tmp_path, capsys):
        import json

        cache = str(tmp_path / "cache")
        assert main(["cache", "stats", "--cache-dir", cache,
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 0


class TestTableCommands:
    @pytest.mark.parametrize("which,needle", [
        ("2", "Total"),
        ("4", "Strict"),
        ("5", "Writing back unmodified data"),
        ("6", "Memcached"),
        ("7", "Python"),
    ])
    def test_cheap_tables(self, which, needle, capsys):
        assert main(["table", which]) == 0
        assert needle in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["table", "1"]) == 0
        assert "23/26" in capsys.readouterr().out


class TestSpeedupCommand:
    def test_speedup(self, capsys):
        assert main(["speedup", "--repeat", "4"]) == 0
        assert "Improvement" in capsys.readouterr().out


class TestPlainDefaults:
    """Flag defaults are constants: the environment never changes what
    a command line means."""

    def test_cli_reads_no_environment(self):
        names = {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(ast.parse(inspect.getsource(cli)))
                 if isinstance(node, (ast.Name, ast.Attribute))}
        assert not names & {"os", "environ", "getenv"}

    @pytest.mark.parametrize("command,flag,default", [
        ("chaos", "seeds", "0..9"),
        ("chaos", "jobs", 4),
        ("serve", "jobs", 1),
    ])
    def test_default_ignores_the_environment(self, monkeypatch, command,
                                             flag, default):
        monkeypatch.setenv("DEEPMC_JOBS", "7")
        args = build_parser().parse_args([command])
        assert getattr(args, flag) == default
