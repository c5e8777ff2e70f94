"""VM op-level profiler: counters, sampling, events, determinism.

The profiler's contract (docs/OBSERVABILITY.md): exact per-opcode
execution counts whenever telemetry is enabled, sampled time attribution
that extrapolates to estimated totals, and counter streams that merge
deterministically — the same workload yields the same ``vm.op.*``
numbers whether it ran serially or across a worker pool.
"""

import pytest

from repro.ir import IRBuilder, Module, types as ty, verify_module
from repro.telemetry import MetricsRegistry, NullSink, Telemetry
from repro.vm import Interpreter, OpProfiler, profiler, render_op_profile
from repro.vm.profiler import op_name


def loop_module(iterations=10):
    """Counting loop: a mix of binop/icmp/br/phi-free control flow."""
    mod = Module("t", persistency_model="strict")
    fn = mod.define_function("main", ty.I64, [], source_file="t.c")
    b = IRBuilder(fn)
    slot = b.alloca(ty.I64)
    b.store(0, slot)
    head = b.new_block("head")
    body = b.new_block("body")
    done = b.new_block("done")
    b.jmp(head)
    b.position_at(head)
    cond = b.icmp("slt", b.load(slot), iterations)
    b.br(cond, body, done)
    b.position_at(body)
    b.store(b.add(b.load(slot), 1), slot)
    b.jmp(head)
    b.position_at(done)
    b.ret(b.load(slot))
    verify_module(mod)
    return mod


class TestOpProfilerUnit:
    def test_manual_counting_and_estimation(self):
        ticks = iter(range(100))
        prof = OpProfiler(sample_every=1, clock=lambda: next(ticks))
        prof.counts["load"] = 4
        prof.time_s["load"] = 2.0
        prof.timed["load"] = 2
        # sampled mean 1.0s extrapolated over 4 executions
        assert prof.estimated_time_s("load") == pytest.approx(4.0)
        assert prof.estimated_time_s("store") == 0.0
        assert prof.total_ops() == 4
        assert prof.total_estimated_s() == pytest.approx(4.0)

    def test_top_ops_ranking_is_deterministic(self):
        prof = OpProfiler(sample_every=1)
        prof.counts.update({"load": 5, "store": 5, "fence": 9, "add": 1})
        # count desc, then name asc for ties
        assert prof.top_ops(3) == "fence:9,load:5,store:5"

    def test_wrap_emitter_counts_every_kind(self):
        prof = OpProfiler(sample_every=1)
        seen = []
        emit = prof.wrap_emitter(lambda kind, **f: seen.append((kind, f)))
        emit("persist.flush", addr=1)
        emit("persist.flush", addr=2)
        emit("persist.fence")
        assert prof.events == {"persist.flush": 2, "persist.fence": 1}
        assert len(seen) == 3  # the wrapped emitter still fires
        assert prof.wrap_emitter(None) is None

    def test_publish_folds_into_registry(self):
        prof = OpProfiler(sample_every=1)
        prof.counts["load"] = 3
        prof.time_s["load"] = 0.003
        prof.timed["load"] = 3
        prof.events["persist.flush"] = 2
        reg = MetricsRegistry()
        prof.publish(reg)
        assert reg.counter("vm.op.load").value == 3
        assert reg.counter("vm.event.persist.flush").value == 2
        h = reg.histogram("vm.optime.load")
        assert h.count == 1
        assert h.sum == pytest.approx(0.001)

    def test_as_dict_is_sorted_and_json_ready(self):
        import json

        prof = OpProfiler(sample_every=8)
        prof.counts.update({"store": 1, "load": 2})
        doc = prof.as_dict()
        assert set(doc) == {"sample_every", "counts", "events",
                            "estimated_time_s"}
        assert list(doc["counts"]) == ["load", "store"]
        json.dumps(doc)  # must not raise

    def test_render_op_profile_table(self):
        prof = OpProfiler(sample_every=4)
        prof.counts.update({"load": 100, "store": 10})
        prof.time_s["load"] = 0.001
        prof.timed["load"] = 2
        prof.events["persist.fence"] = 7
        text = render_op_profile(prof)
        assert "load" in text and "store" in text
        assert "ops executed: 110" in text
        assert "sample stride: 4" in text
        assert "persist.fence=7" in text

    def test_op_name_caches_lowercase_class_name(self):
        class LoadX:
            pass

        assert op_name(LoadX) == "loadx"
        assert op_name(LoadX) == "loadx"  # cached path


class TestInterpreterIntegration:
    def test_default_on_with_enabled_telemetry(self):
        tel = Telemetry()
        interp = Interpreter(loop_module(), telemetry=tel)
        result = interp.run("main", [])
        assert result.value == 10
        prof = interp.op_profiler
        assert prof is not None
        # every dispatched instruction is counted, exactly
        assert sum(prof.counts.values()) == result.steps
        assert prof.counts["store"] == 11  # init + 10 loop writes

    def test_default_off_without_telemetry(self):
        interp = Interpreter(loop_module())
        interp.run("main", [])
        assert interp.op_profiler is None

    def test_explicit_off_overrides_enabled_telemetry(self):
        interp = Interpreter(loop_module(), telemetry=Telemetry(),
                             op_profile=False)
        interp.run("main", [])
        assert interp.op_profiler is None

    def test_default_stride_is_the_module_constant(self):
        interp = Interpreter(loop_module(), telemetry=Telemetry())
        assert profiler.SAMPLE_EVERY == 64
        assert interp.op_profiler.sample_every == profiler.SAMPLE_EVERY

    def test_explicit_on_overrides_disabled_telemetry(self):
        interp = Interpreter(loop_module(), op_profile=True)
        result = interp.run("main", [])
        assert sum(interp.op_profiler.counts.values()) == result.steps

    def test_sample_stride_one_times_every_execution(self, monkeypatch):
        monkeypatch.setattr(profiler, "SAMPLE_EVERY", 1)
        interp = Interpreter(loop_module(), op_profile=True)
        interp.run("main", [])
        prof = interp.op_profiler
        assert prof.timed == prof.counts
        assert all(v > 0 for v in prof.time_s.values())

    def test_counts_identical_across_runs(self):
        def counts():
            interp = Interpreter(loop_module(), op_profile=True)
            interp.run("main", [])
            return dict(interp.op_profiler.counts)

        assert counts() == counts()

    def test_run_span_carries_top_ops(self):
        tel = Telemetry()
        Interpreter(loop_module(), telemetry=tel).run("main", [])
        (root,) = tel.tracer.roots
        assert root.name == "vm.run"
        assert "load:" in root.attrs["top_ops"]

    def test_published_metrics_appear_in_snapshot(self):
        tel = Telemetry()
        Interpreter(loop_module(), telemetry=tel).run("main", [])
        snap = tel.snapshot()
        assert snap["vm.op.store"] == 11
        assert any(k.startswith("vm.optime.") for k in snap)


class TestJobsDeterminism:
    """The acceptance criterion: ``vm.op.*`` counters must not depend on
    how the work was scheduled across processes."""

    PROGRAMS = ["pmdk_hashmap", "pmfs_journal"]

    def op_counters(self, jobs):
        from repro.crashsim import simulate_programs

        tel = Telemetry()
        simulate_programs(self.PROGRAMS, jobs=jobs, telemetry=tel)
        return {k: v for k, v in tel.metrics.dump()["counters"].items()
                if k.startswith(("vm.op.", "vm.event."))}

    def test_serial_equals_parallel(self):
        serial = self.op_counters(jobs=1)
        assert serial  # the profiler actually ran
        assert any(k.startswith("vm.event.persist.") for k in serial)
        assert self.op_counters(jobs=2) == serial
