"""Parallel corpus checking: determinism, telemetry merge, degradation."""

import gc

import pytest

from repro.bench import run_detection
from repro.bench.detection import _check_program_task, render_table1
from repro.corpus import REGISTRY
from repro.corpus.registry import BugSpec, CorpusProgram
from repro.parallel import run_tasks
from repro.telemetry import Telemetry
from repro.telemetry.profile import flatten_spans


def _outcome_fingerprint(result):
    return [
        (o.program.name, sorted(w.key() for w in o.warnings))
        for o in result.outcomes
    ]


@pytest.fixture(scope="module")
def serial():
    return run_detection()


class TestJobsDeterminism:
    def test_parallel_equals_serial(self, serial):
        parallel = run_detection(jobs=4)
        assert _outcome_fingerprint(parallel) == _outcome_fingerprint(serial)
        assert parallel.errors == []

    def test_rendered_table_byte_identical(self, serial):
        parallel = run_detection(jobs=2)
        assert render_table1(parallel) == render_table1(serial)

    def test_ordering_is_registry_order(self, serial):
        parallel = run_detection(jobs=3)
        names = [o.program.name for o in parallel.outcomes]
        assert names == sorted(names)
        assert names == [o.program.name for o in serial.outcomes]

    def test_framework_filter_parallel(self):
        result = run_detection(framework="mnemosyne", jobs=2)
        assert result.total_warnings == 4
        assert result.total_false_positives == 0

    def test_checker_opts_forwarded(self, serial):
        # The interprocedural ablation must change results identically in
        # both execution modes (worker opts round-trip through pickling).
        ser = run_detection(interprocedural=False)
        par = run_detection(interprocedural=False, jobs=2)
        assert _outcome_fingerprint(par) == _outcome_fingerprint(ser)
        assert ser.total_warnings != serial.total_warnings


class TestTelemetryMerge:
    def test_worker_spans_grafted_into_parent_tree(self):
        tel = Telemetry()
        run_detection(jobs=2, telemetry=tel)
        roots = tel.tracer.roots
        assert len(roots) == 1 and roots[0].name == "corpus.detection"
        program_spans = [s for s in flatten_spans(roots)
                         if s.name == "corpus.program"]
        assert len(program_spans) == len(REGISTRY.programs())
        by_name = {s.attrs["program"] for s in program_spans}
        assert by_name == {p.name for p in REGISTRY.programs()}
        # worker sub-phases survive serialization (check → dsa/traces/rules)
        check_spans = [s for s in flatten_spans(roots) if s.name == "check"]
        assert check_spans and all(s.child("rules") for s in check_spans)

    def test_worker_metrics_merged(self):
        tel = Telemetry()
        result = run_detection(jobs=2, telemetry=tel)
        snap = tel.metrics.snapshot()
        assert snap["checker.runs"] == len(result.outcomes)
        assert snap["corpus.warnings"] == result.total_warnings

    def test_profile_renders_coherent_tree(self):
        tel = Telemetry()
        run_detection(jobs=2, telemetry=tel)
        text = tel.profile()
        assert "corpus.detection" in text
        assert "corpus.program" in text


class TestWarmCache:
    def test_serial_cold_then_parallel_warm(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = run_detection(cache=cache_dir)
        assert cold.cache_hits == 0
        assert cold.cache_misses == len(cold.outcomes)

        tel = Telemetry()
        warm = run_detection(cache=cache_dir, jobs=4, telemetry=tel)
        assert warm.cache_misses == 0
        assert warm.cache_hits == len(warm.outcomes)
        assert _outcome_fingerprint(warm) == _outcome_fingerprint(cold)
        assert tel.metrics.snapshot()["cache.hits"] == warm.cache_hits

    def test_warm_run_is_faster_in_span_tree(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cold_tel = Telemetry()
        # a full collection owed by earlier tests' garbage would otherwise
        # land in whichever timed run happens to cross the threshold
        gc.collect()
        run_detection(cache=cache_dir, telemetry=cold_tel)
        warm_tel = Telemetry()
        gc.collect()
        warm = run_detection(cache=cache_dir, telemetry=warm_tel)
        assert warm.cache_hits > 0
        cold_s = cold_tel.tracer.roots[0].duration_s
        warm_s = warm_tel.tracer.roots[0].duration_s
        # a hit skips verify/DSA/traces/rules entirely; even with generous
        # slack for CI jitter the warm walk must beat the cold one
        assert warm_s < cold_s

    def test_cache_entries_shared_across_job_counts(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_detection(cache=cache_dir, jobs=3)
        warm = run_detection(cache=cache_dir)
        assert warm.cache_misses == 0
        assert warm.cache_hits == len(warm.outcomes)


def _register_crashing_program(monkeypatch):
    def explode(fixed=False):
        raise RuntimeError("synthetic build crash")

    program = CorpusProgram(
        name="zz_crash_test",
        framework="pmdk",
        build=explode,
        bugs=[BugSpec("pmdk", "crash.c", 1,
                      "Unflushed write", "synthetic", "EP", studied=False)],
    )
    patched = dict(REGISTRY._programs)
    patched[program.name] = program
    monkeypatch.setattr(REGISTRY, "_programs", patched)
    return program


class TestDegradation:
    def test_failing_program_yields_error_entry_parallel(self, monkeypatch):
        _register_crashing_program(monkeypatch)
        result = run_detection(jobs=2)
        assert len(result.errors) == 1
        assert result.errors[0].program == "zz_crash_test"
        assert "synthetic build crash" in result.errors[0].error
        # every healthy program still produced an outcome
        assert len(result.outcomes) == len(REGISTRY.programs()) - 1
        assert result.total_warnings == 50

    def test_failing_program_yields_error_entry_serial(self, monkeypatch):
        _register_crashing_program(monkeypatch)
        result = run_detection()
        assert [e.program for e in result.errors] == ["zz_crash_test"]
        assert result.total_warnings == 50

    def test_unknown_program_name_is_error_payload(self):
        payloads = run_tasks(_check_program_task,
                             [{"name": "no_such_program"}], jobs=2)
        assert len(payloads) == 1
        assert not payloads[0]["ok"]
        assert "no_such_program" in payloads[0]["error"]


class TestBuildOnce:
    def test_each_program_built_exactly_once_per_run(self, monkeypatch):
        """Regression: one detection run builds every module exactly once,
        shared between cache-key computation and the checker itself."""
        counts = {}

        def counting(program):
            inner = program.build

            def build(*args, **kwargs):
                counts[program.name] = counts.get(program.name, 0) + 1
                return inner(*args, **kwargs)

            return build

        for program in REGISTRY.programs():
            monkeypatch.setattr(program, "build", counting(program))

        run_detection()
        assert counts == {p.name: 1 for p in REGISTRY.programs()}

    def test_build_once_with_cache(self, monkeypatch, tmp_path):
        counts = {}

        def counting(program):
            inner = program.build

            def build(*args, **kwargs):
                counts[program.name] = counts.get(program.name, 0) + 1
                return inner(*args, **kwargs)

            return build

        for program in REGISTRY.programs():
            monkeypatch.setattr(program, "build", counting(program))

        run_detection(cache=tmp_path / "cache")
        assert counts == {p.name: 1 for p in REGISTRY.programs()}
        # warm run: the module is still built (to compute its content
        # address) but exactly once, and analysis is skipped
        counts.clear()
        warm = run_detection(cache=tmp_path / "cache")
        assert warm.cache_hits == len(warm.outcomes)
        assert counts == {p.name: 1 for p in REGISTRY.programs()}


class TestPrintedIRDeterminism:
    def test_printed_ir_independent_of_build_order(self):
        """Label counters reset per build: a program's printed IR — its
        cache address — must not depend on what was built before it."""
        from repro.ir import print_module

        programs = REGISTRY.programs()
        forward = {p.name: print_module(p.build()) for p in programs}
        backward = {p.name: print_module(p.build())
                    for p in reversed(programs)}
        assert forward == backward
