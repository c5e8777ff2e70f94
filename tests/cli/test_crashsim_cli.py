"""CLI surface of `deepmc crashsim`: exit codes, determinism, schema.

The JSON document is a stable machine interface (docs/CRASHSIM.md): the
golden file pins it byte-for-byte, and the schema test pins the key set
so additions are deliberate and removals impossible.
"""

import json
import os

import pytest

from repro.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
#: argv tail -> golden file; no program named = every oracle program
GOLDENS = ((["pmdk_hashmap"], "crashsim_pmdk_hashmap.json"),
           ([], "crashsim_oracle_programs.json"))


class TestExitCodes:
    def test_buggy_program_exits_one(self, capsys):
        assert main(["crashsim", "pmdk_hashmap"]) == 1
        out = capsys.readouterr().out
        assert "FAILING image" in out
        assert "VALIDATED hash_map.c:120" in out

    def test_fixed_program_exits_zero(self, capsys):
        assert main(["crashsim", "pmdk_hashmap", "--fixed"]) == 0
        out = capsys.readouterr().out
        assert "0 failing image(s)" in out

    def test_unknown_program_exits_two(self, capsys):
        assert main(["crashsim", "no_such_program"]) == 2
        assert "no_such_program" in capsys.readouterr().err

    def test_framework_filter_selects_oracle_programs(self, capsys):
        assert main(["crashsim", "--framework", "pmfs"]) == 1
        out = capsys.readouterr().out
        assert "pmfs_journal" in out
        assert "pmfs_symlink" in out
        assert "pmdk" not in out


class TestGoldenJson:
    def test_json_output_matches_golden_file(self, capsys):
        for programs, golden in GOLDENS:
            assert main(["crashsim", *programs, "--format", "json"]) == 1
            out = capsys.readouterr().out
            with open(os.path.join(GOLDEN_DIR, golden)) as fh:
                assert out == fh.read(), golden

    def test_schema_keys_stable(self, capsys):
        main(["crashsim", "pmdk_hashmap", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"programs", "summary"}
        assert set(doc["summary"]) == {
            "programs", "failing_images", "validated", "annotated"}
        (prog,) = doc["programs"]
        # sorted: the CLI emits sort_keys=True so the byte layout is
        # independent of dict construction order
        assert list(prog) == sorted(prog)
        assert set(prog) == {
            "program", "framework", "model", "fixed", "events",
            "crash_points", "states", "pruned", "truncated", "outcomes",
            "failing", "validations"}
        assert set(prog["failing"][0]) <= {
            "image", "event", "outcome", "failed", "error"}
        assert set(prog["validations"][0]) == {
            "file", "line", "rule", "invariant", "warning_reported",
            "crash_image", "validated"}

    def test_summary_consistent_with_programs(self, capsys):
        main(["crashsim", "pmdk_hashmap", "pmfs_journal",
              "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["programs"] == 2
        assert doc["summary"]["failing_images"] == sum(
            len(p["failing"]) for p in doc["programs"])


class TestJobsDeterminism:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_parallel_stdout_byte_identical(self, capsys, fmt):
        argv = ["crashsim", "pmdk_hashmap", "pmfs_journal",
                "--format", fmt]
        assert main(argv) == 1
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "4"]) == 1
        assert capsys.readouterr().out == serial

    def test_all_oracle_programs_default(self, capsys):
        # no positional args: every oracle-annotated program runs
        assert main(["crashsim", "--jobs", "2"]) == 1
        out = capsys.readouterr().out
        for name in ("pmdk_hashmap", "pmdk_btree_map", "nvmdirect_locks",
                     "pmfs_journal", "mnemosyne_phlog"):
            assert f"== {name} " in out
