"""The ``deepmc bench`` harness and perf ratchet.

The trajectory file layout is a machine interface: the golden file
(``golden/bench_schema.json``) pins the key structure, so any shape
change is a deliberate golden update (and a ``BENCH_SCHEMA`` bump).
Timings themselves are machine-dependent and never golden-pinned — the
ratchet tests build synthetic payloads instead.
"""

import json
import os

import pytest

from repro.bench import (
    BENCH_SCHEMA,
    BenchConfig,
    DEFAULT_MIN_DELTA_S,
    SCENARIOS,
    bench_filename,
    compare_bench,
    load_bench,
    render_compare,
    render_results,
    rollup_stages,
    run_scenario,
    run_suite,
    trimmed_mean,
    write_bench,
)
from repro.bench.harness import PROFILER_PAIRS
from repro.errors import ReproError
from repro.telemetry import Span, Telemetry

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "bench_schema.json")

#: the cheapest real scenario, used wherever a genuine payload is needed
FAST_CONFIG = BenchConfig(warmup=0, repeats=3, ops=40)


@pytest.fixture(scope="module")
def vm_payload():
    return run_scenario(SCENARIOS["vm_apps"], FAST_CONFIG)


def synthetic_payload(scenario, wall, stages=None, counters=None, env_id="aa",
                      config=None):
    """Minimal trajectory payload for ratchet tests."""
    return {
        "schema": BENCH_SCHEMA,
        "scenario": scenario,
        "description": "synthetic",
        "config": (config or BenchConfig()).as_dict(),
        "env": {"id": env_id},
        "timing": {"samples_s": [wall], "mean_s": wall,
                   "trimmed_mean_s": wall, "min_s": wall, "max_s": wall},
        "stages": {name: {"calls": 1, "total_s": s}
                   for name, s in (stages or {}).items()},
        "counters": dict(counters or {}),
        "workload": {},
    }


class TestMeasurementProtocol:
    def test_trimmed_mean_drops_extremes(self):
        assert trimmed_mean([]) == 0.0
        assert trimmed_mean([4.0]) == 4.0
        assert trimmed_mean([2.0, 4.0]) == 3.0
        # 100.0 (noisy neighbour) and 1.0 both dropped
        assert trimmed_mean([1.0, 2.0, 3.0, 100.0]) == 2.5

    def test_rollup_stages_totals_and_sorts(self):
        roots = [Span.from_dict({
            "name": "outer", "duration_s": 3.0,
            "children": [{"name": "inner", "duration_s": 1.0},
                         {"name": "inner", "duration_s": 0.5}],
        })]
        stages = rollup_stages(roots)
        assert list(stages) == ["inner", "outer"]
        assert stages["inner"] == {"calls": 2, "total_s": 1.5}
        assert stages["outer"]["calls"] == 1

    def test_rollup_empty_forest(self):
        assert rollup_stages([]) == {}


class TestScenarioPayload:
    def test_schema_matches_golden(self, vm_payload):
        with open(GOLDEN) as fh:
            golden = json.load(fh)
        assert vm_payload["schema"] == golden["schema"] == BENCH_SCHEMA
        assert sorted(vm_payload) == golden["top_level"]
        assert sorted(vm_payload["timing"]) == golden["timing"]
        assert sorted(vm_payload["env"]) == golden["env"]
        assert sorted(vm_payload["config"]) == golden["config"]
        for entry in vm_payload["stages"].values():
            assert sorted(entry) == golden["stage_entry"]

    def test_repeats_and_config_are_pinned(self, vm_payload):
        t = vm_payload["timing"]
        assert len(t["samples_s"]) == FAST_CONFIG.repeats
        assert t["min_s"] <= t["trimmed_mean_s"] <= t["max_s"]
        assert vm_payload["config"]["ops"] == 40
        assert vm_payload["workload"]["steps"] > 0

    def test_counters_include_op_profiler_stream(self, vm_payload):
        ops = [k for k in vm_payload["counters"] if k.startswith("vm.op.")]
        assert ops, "bench scenarios must run with the op profiler on"

    def test_suite_rejects_unknown_scenario(self):
        with pytest.raises(ReproError, match="unknown bench scenario"):
            run_suite(["no_such_scenario"])

    def test_render_results_lists_each_scenario(self, vm_payload):
        text = render_results([vm_payload])
        assert "vm_apps" in text
        assert "env: " in text


class TestTrajectoryFiles:
    def test_write_load_roundtrip_sorted_bytes(self, vm_payload, tmp_path):
        path = write_bench(vm_payload, str(tmp_path))
        assert path.name == bench_filename("vm_apps") == "BENCH_vm_apps.json"
        raw = path.read_text()
        assert raw == json.dumps(vm_payload, indent=2, sort_keys=True) + "\n"
        loaded = load_bench(str(tmp_path))
        assert loaded == {"vm_apps": vm_payload}

    def test_load_rejects_foreign_json(self, tmp_path):
        bad = tmp_path / "BENCH_x.json"
        bad.write_text('{"scenario": "x", "schema": "other/v1"}\n')
        with pytest.raises(ReproError, match="not a deepmc bench"):
            load_bench(str(tmp_path))

    def test_load_empty_dir_and_missing_file(self, tmp_path):
        with pytest.raises(ReproError, match="no BENCH_"):
            load_bench(str(tmp_path))
        with pytest.raises(ReproError, match="no such bench file"):
            load_bench(str(tmp_path / "BENCH_missing.json"))


class TestRatchet:
    def test_self_compare_is_clean(self, vm_payload):
        current = {"vm_apps": vm_payload}
        comp = compare_bench(current, current)
        assert comp.ok
        assert not comp.cross_machine
        assert not comp.drifted and not comp.config_mismatch
        assert all(d.status == "ok" for d in comp.deltas)

    def test_2x_slowdown_fails(self):
        base = {"s": synthetic_payload("s", 1.0, stages={"vm.run": 0.9})}
        cur = {"s": synthetic_payload("s", 2.0, stages={"vm.run": 1.8})}
        comp = compare_bench(base, cur, tolerance=0.5)
        assert not comp.ok
        assert {d.metric for d in comp.regressions} == {"wall",
                                                        "stage:vm.run"}
        (wall,) = [d for d in comp.deltas if d.metric == "wall"]
        assert wall.delta_pct == pytest.approx(100.0)
        assert "FAIL" in render_compare(comp)

    def test_small_absolute_deltas_never_fail(self):
        # 3ms -> 9ms is +200% but under the absolute floor
        base = {"s": synthetic_payload("s", 0.003)}
        cur = {"s": synthetic_payload("s", 0.009)}
        assert compare_bench(base, cur, tolerance=0.5).ok
        assert DEFAULT_MIN_DELTA_S > 0.006

    def test_improvement_is_not_a_failure(self):
        base = {"s": synthetic_payload("s", 2.0)}
        cur = {"s": synthetic_payload("s", 0.5)}
        comp = compare_bench(base, cur)
        assert comp.ok
        (wall,) = comp.deltas
        assert wall.status == "improved"

    def test_new_scenarios_are_informational(self):
        base = {"s": synthetic_payload("s", 1.0)}
        cur = {"s": synthetic_payload("s", 1.0),
               "fresh": synthetic_payload("fresh", 1.0)}
        comp = compare_bench(base, cur)
        assert comp.ok
        assert {d.status for d in comp.deltas} == {"ok", "new"}

    def test_missing_scenario_fails_the_ratchet(self):
        # a bench run that crashed partway writes only some BENCH_*.json
        # files; the survivors must not ratchet to a green build
        base = {"s": synthetic_payload("s", 1.0),
                "gone": synthetic_payload("gone", 1.0)}
        cur = {"s": synthetic_payload("s", 1.0)}
        comp = compare_bench(base, cur)
        assert not comp.ok
        assert [d.status for d in comp.failures] == ["missing"]
        text = render_compare(comp)
        assert "FAIL" in text and "missing" in text

    def test_counter_drift_fails_the_ratchet(self):
        # equal config, equal wall-clock: any count change is a failure
        base = {"s": synthetic_payload("s", 1.0,
                                       counters={"vm.op.load": 10,
                                                 "vm.op.ret": 0,
                                                 "vm.op.br": 4})}
        cur = {"s": synthetic_payload("s", 1.0,
                                      counters={"vm.op.load": 11,
                                                "vm.op.store": 1,
                                                "vm.op.br": 4})}
        comp = compare_bench(base, cur)
        assert not comp.ok
        # an absent counter counts as 0, so vm.op.ret does not drift
        assert [(d.metric, d.baseline, d.current) for d in comp.drifted] \
            == [("counter:vm.op.load", 10, 11),
                ("counter:vm.op.store", 0, 1)]
        assert comp.failures == comp.drifted
        text = render_compare(comp)
        assert "DRIFT" in text and "counter:vm.op.load" in text
        assert "FAIL: 2 counter(s) differ at equal config" in text

    def test_config_mismatch_reported_not_failed(self):
        # --ops 40 does a tenth of the work: counts cannot be compared
        base = {"s": synthetic_payload("s", 1.0,
                                       counters={"vm.op.load": 10})}
        cur = {"s": synthetic_payload("s", 1.0,
                                      counters={"vm.op.load": 1},
                                      config=BenchConfig(ops=40))}
        comp = compare_bench(base, cur)
        assert comp.ok
        assert comp.config_mismatch == ["s"]
        assert not comp.drifted
        assert "note: s config differs from the baseline" in \
            render_compare(comp)

    def test_cross_machine_flagged(self):
        base = {"s": synthetic_payload("s", 1.0, env_id="aa")}
        cur = {"s": synthetic_payload("s", 1.0, env_id="bb")}
        comp = compare_bench(base, cur)
        assert comp.cross_machine
        assert "cross-machine" in render_compare(comp)

    def test_tolerance_band_is_configurable(self):
        base = {"s": synthetic_payload("s", 1.0)}
        cur = {"s": synthetic_payload("s", 1.4)}
        assert not compare_bench(base, cur, tolerance=0.2).ok
        assert compare_bench(base, cur, tolerance=0.5).ok


class TestProfilerOverheadScenario:
    def test_overhead_is_its_own_scenario(self):
        payload = run_scenario(SCENARIOS["op_profiler_overhead"],
                               BenchConfig(warmup=0, repeats=1, ops=60))
        w = payload["workload"]
        assert set(w) == {"baseline_s", "profiled_s", "overhead_pct",
                          "overhead_q1_pct", "overhead_q3_pct", "pairs"}
        assert w["baseline_s"] > 0 and w["profiled_s"] > 0
        # the median of the pairs, unclamped, inside its quartiles
        assert (w["overhead_q1_pct"] <= w["overhead_pct"]
                <= w["overhead_q3_pct"])
        assert w["pairs"] == PROFILER_PAIRS
        assert payload["counters"]["vm.runs"] == 2 * PROFILER_PAIRS


class TestBaselineFiles:
    """The committed repo-root BENCH_*.json files stay loadable and in
    sync with the pinned suite."""

    REPO_ROOT = os.path.join(os.path.dirname(__file__), "..", "..")

    def test_committed_baseline_covers_the_suite(self):
        baseline = load_bench(self.REPO_ROOT)
        assert set(baseline) == set(SCENARIOS)
        for payload in baseline.values():
            assert payload["schema"] == BENCH_SCHEMA

    def test_committed_baseline_self_compare_is_clean(self):
        baseline = load_bench(self.REPO_ROOT)
        assert compare_bench(baseline, baseline).ok
