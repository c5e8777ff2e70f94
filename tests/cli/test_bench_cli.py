"""CLI surface of ``deepmc bench``: exit codes, file emission, ratchet.

Real scenario runs here use the cheapest knobs (``vm_apps --ops 40``);
the ratchet paths are exercised through ``--current``/``--compare`` over
pre-written trajectory files so exit codes are tested without re-timing
anything.
"""

import json

import pytest

from repro.bench import BENCH_SCHEMA
from repro.cli import main


def write_payload(path, scenario, wall, stages=None, counters=None):
    payload = {
        "schema": BENCH_SCHEMA,
        "scenario": scenario,
        "description": "synthetic",
        "config": {},
        "env": {"id": "aa"},
        "timing": {"samples_s": [wall], "mean_s": wall,
                   "trimmed_mean_s": wall, "min_s": wall, "max_s": wall},
        "stages": {name: {"calls": 1, "total_s": s}
                   for name, s in (stages or {}).items()},
        "counters": dict(counters or {}),
        "workload": {},
    }
    target = path / f"BENCH_{scenario}.json"
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return target


FAST = ["--ops", "40", "--repeat", "1", "--warmup", "0"]


class TestSuiteRuns:
    def test_list_exits_zero(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("check_corpus", "crashsim_enum", "fuzz_smoke",
                     "vm_apps", "op_profiler_overhead"):
            assert name in out

    def test_single_scenario_writes_trajectory_file(self, capsys,
                                                    tmp_path):
        assert main(["bench", "vm_apps", "--out-dir", str(tmp_path)]
                    + FAST) == 0
        out = capsys.readouterr()
        assert "vm_apps" in out.out
        assert "BENCH_vm_apps.json" in out.err
        doc = json.loads((tmp_path / "BENCH_vm_apps.json").read_text())
        assert doc["schema"] == BENCH_SCHEMA
        assert doc["config"]["ops"] == 40

    def test_no_write_leaves_no_files(self, capsys, tmp_path):
        assert main(["bench", "vm_apps", "--out-dir", str(tmp_path),
                     "--no-write"] + FAST) == 0
        capsys.readouterr()
        assert not list(tmp_path.glob("BENCH_*.json"))

    def test_json_format_is_sorted(self, capsys, tmp_path):
        assert main(["bench", "vm_apps", "--out-dir", str(tmp_path),
                     "--format", "json"] + FAST) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_unknown_scenario_exits_two(self, capsys):
        assert main(["bench", "nope", "--no-write"] + FAST) == 2
        assert "unknown bench scenario" in capsys.readouterr().err


class TestRatchetExitCodes:
    def test_self_compare_exits_zero(self, capsys, tmp_path):
        write_payload(tmp_path, "vm_apps", 1.0, {"vm.run": 0.9})
        assert main(["bench", "--current", str(tmp_path),
                     "--compare", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "ok: no regressions" in out

    def test_2x_slowdown_exits_one(self, capsys, tmp_path):
        base = tmp_path / "base"
        cur = tmp_path / "cur"
        base.mkdir(), cur.mkdir()
        write_payload(base, "vm_apps", 1.0, {"vm.run": 0.9})
        write_payload(cur, "vm_apps", 2.0, {"vm.run": 1.8})
        assert main(["bench", "--current", str(cur),
                     "--compare", str(base)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "FAIL" in out

    def test_counter_drift_exits_one(self, capsys, tmp_path):
        base = tmp_path / "base"
        cur = tmp_path / "cur"
        base.mkdir(), cur.mkdir()
        write_payload(base, "vm_apps", 1.0, counters={"vm.steps": 100})
        write_payload(cur, "vm_apps", 1.0, counters={"vm.steps": 101})
        assert main(["bench", "--current", str(cur),
                     "--compare", str(base)]) == 1
        out = capsys.readouterr().out
        assert "DRIFT" in out and "FAIL" in out

    def test_tolerance_widens_the_band(self, capsys, tmp_path):
        base = tmp_path / "base"
        cur = tmp_path / "cur"
        base.mkdir(), cur.mkdir()
        write_payload(base, "vm_apps", 1.0)
        write_payload(cur, "vm_apps", 2.0)
        assert main(["bench", "--current", str(cur), "--compare",
                     str(base), "--tolerance", "1.5"]) == 0
        capsys.readouterr()

    def test_current_without_compare_exits_two(self, capsys, tmp_path):
        write_payload(tmp_path, "vm_apps", 1.0)
        assert main(["bench", "--current", str(tmp_path)]) == 2
        assert "--current" in capsys.readouterr().err

    def test_run_then_compare_against_own_output(self, capsys, tmp_path):
        # the everyday loop: run once to baseline, run again to compare
        assert main(["bench", "vm_apps", "--out-dir", str(tmp_path)]
                    + FAST) == 0
        assert main(["bench", "vm_apps", "--out-dir", str(tmp_path),
                     "--no-write", "--compare", str(tmp_path),
                     "--tolerance", "1000"]) == 0
        out = capsys.readouterr().out
        assert "vm_apps" in out
