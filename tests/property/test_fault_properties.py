"""Hypothesis properties for the fault-injection subsystem.

Two families, matching the chaos invariants:

* *fault-obliviousness*: for any seed, executor faults (worker crash /
  slow-start under a pool) and cache corruption leave results
  byte-identical to a fault-free run — infrastructure failure is never
  allowed to change what the checker reports;
* *fault-sensitivity*: for any seed, an injected NVM fault targeting the
  final fence of a fenced-rounds program produces a durable image that
  provably lost the faulted update, the recorded trace replays to
  exactly that image, and the enumeration exposes at least one
  inconsistent (round-mixing) crash image.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.crashsim import enumerate_crash_images, record_trace
from repro.crashsim.enumerate import ReplayState
from repro.faults import FaultInjector, FaultPlan, corrupt_cache_entries
from repro.faults.chaos import _chaos_check_task, _fingerprint
from repro.parallel import AnalysisCache, check_with_cache, run_tasks
from repro.parallel import executor
from repro.parallel.executor import _check_program_task
from tests.conftest import build_two_field_module
from tests.property.test_crashsim_properties import (
    TAG,
    rounds_module,
    slot_rounds,
)

SEEDS = st.integers(min_value=0, max_value=2 ** 32 - 1)


class TestCacheFaultObliviousness:
    @settings(max_examples=15, deadline=None)
    @given(SEEDS)
    def test_corrupted_cache_never_changes_results(self, seed):
        plan = FaultPlan(seed, cache_corrupt_rate=0.75)
        baseline = check_with_cache(build_two_field_module(), None)
        with tempfile.TemporaryDirectory() as tmp:
            cache = AnalysisCache(Path(tmp) / "cache")
            check_with_cache(build_two_field_module(), cache)  # populate
            corrupt_cache_entries(cache, plan)
            recovered = check_with_cache(build_two_field_module(), cache)
        assert recovered.report.to_dict() == baseline.report.to_dict()


class TestExecutorFaultObliviousness:
    # crash-only faults keep each example fast (a hang costs a deadline);
    # the hang path is covered by tests/parallel/test_run_tasks.py
    @settings(max_examples=5, deadline=None)
    @given(SEEDS)
    def test_worker_faults_leave_corpus_output_identical(self, seed):
        names = ["pmdk_btree_map", "pmfs_journal"]
        plan = FaultPlan(seed, crash_rate=0.6, hang_rate=0.0,
                         slow_rate=0.3, slow_s=0.01)
        baseline = _fingerprint(
            run_tasks(_check_program_task,
                      [{"name": n, "checker_opts": {}} for n in names],
                      jobs=1))
        tasks = []
        for n in names:
            task = {"name": n, "checker_opts": {}}
            fault = plan.executor_fault(n)
            if fault is not None:
                task["fault"] = fault
            tasks.append(task)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(executor, "BACKOFF_S", 0.01)
            chaos = _fingerprint(
                run_tasks(_chaos_check_task, tasks, jobs=2, timeout=10.0))
        assert chaos == baseline


class TestNvmFaultSensitivity:
    @settings(max_examples=20, deadline=None)
    @given(SEEDS, st.integers(1, 3), st.integers(1, 3))
    def test_dropped_final_drain_is_surfaced(self, seed, n_slots, n_rounds):
        plan = FaultPlan(seed)
        module = rounds_module(n_slots, n_rounds, "strict")
        clean = record_trace(module)
        # drains are FIFO per fence: the last fence drains the final
        # n_slots lines, so target one of those — earlier drains can be
        # masked by a later round re-persisting the line
        total_drains = n_rounds * n_slots
        slot = plan.pick_int(0, n_slots - 1, "slot", n_slots, n_rounds)
        at = (n_rounds - 1) * n_slots + slot
        inj = FaultInjector(nvm_directive={"kind": "drop", "at": at})
        faulty = record_trace(rounds_module(n_slots, n_rounds, "strict"),
                              fault_injector=inj)
        assert inj.injected_count == 1
        assert inj._drain_calls == total_drains

        clean_img = clean.interpreter.domain.durable_snapshot()
        fault_img = faulty.interpreter.domain.durable_snapshot()
        # (1) the fault is visible: the final durable images differ
        assert fault_img != clean_img
        # (2) offline replay reconstructs the faulted device exactly
        replay = ReplayState(faulty.alloc_sizes)
        for ev in faulty.events:
            replay.apply(ev)
        assert {a: bytes(b) for a, b in replay.durable.items()} == fault_img
        # (3) ≥1 enumerated crash image is inconsistent: the faulted
        # slot is a full round behind slots the same fence drained
        enum = enumerate_crash_images(faulty, "strict")
        final_rounds = [r for img in enum.images
                        for r in [slot_rounds(img, n_slots)]
                        if r and min(r) < n_rounds <= max(r)] \
            if n_slots > 1 else []
        if n_slots > 1:
            assert final_rounds, "no image exposes the lost drain"
        else:
            # single slot: the inconsistency is the final image itself
            # never reaching the last round
            data = next(iter(fault_img.values()))
            value = int.from_bytes(data[:8], "little")
            assert value // TAG < n_rounds

    @settings(max_examples=10, deadline=None)
    @given(SEEDS)
    def test_vm_crash_never_fabricates_failures(self, seed):
        """Truncating a clean fenced program at any step yields images
        that are all prefixes of legal clean states (round-consistent)."""
        plan = FaultPlan(seed)
        module = rounds_module(2, 2, "strict")
        clean = record_trace(module)
        step = plan.vm_crash_step(clean.result.steps, "prop")
        inj = FaultInjector(vm_crash_at=step)
        trace = record_trace(rounds_module(2, 2, "strict"),
                             fault_injector=inj)
        # crash_at == total_steps means the program retires first
        assert trace.result.crashed or step == clean.result.steps
        assert trace.result.steps <= clean.result.steps
        enum = enumerate_crash_images(trace, "strict")
        for img in enum.images:
            rounds = slot_rounds(img, 2)
            if rounds:
                assert max(rounds) - min(rounds) <= 1
