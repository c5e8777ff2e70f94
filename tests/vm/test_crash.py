"""Crash-injection tests: durable state at a crash point.

These tests are the reproduction's analogue of "manually reproduced and
validated" (§5.1): run buggy code, crash it, inspect the device.
"""

import pytest

from repro.errors import VMError
from repro.ir import IRBuilder, Module, REGION_TX, types as ty, verify_module
from repro.vm import CrashPoint, Interpreter, run_with_crash


def hashmap_module():
    """The Figure 1 hashmap shape: buckets persisted, nbuckets written but
    only persisted later."""
    mod = Module("hm", persistency_model="strict")
    root = mod.define_struct("root", [("nbuckets", ty.I64), ("pad", ty.I64)])
    fn = mod.define_function("main", ty.VOID, [], source_file="hashmap.c")
    b = IRBuilder(fn)
    r = b.palloc(root, name="rootp", line=1)
    buckets = b.palloc(ty.I64, 4, name="bucketsp", line=2)
    nb = b.getfield(r, "nbuckets", line=3)
    b.store(4, nb, line=3)
    b.memset(buckets, 0, 32, line=4)
    b.flush(buckets, 32, line=4)
    b.fence(line=4)
    # crash window: nbuckets written but not yet persisted
    b.flush(nb, 8, line=6)
    b.fence(line=6)
    b.ret(line=7)
    verify_module(mod)
    return mod


class TestCrashInjection:
    def test_crash_at_line(self):
        run = run_with_crash(hashmap_module(), CrashPoint("hashmap.c", 6))
        assert run.crashed
        root = run.state.object_by_label("rootp")
        buckets = run.state.object_by_label("bucketsp")
        # Figure 1's inconsistency: buckets durable, count not.
        assert buckets.read_int(0, 8) == 0
        assert root.read_field("nbuckets") == 0

    def test_no_crash_runs_to_completion(self):
        run = run_with_crash(hashmap_module(), CrashPoint("other.c", 1))
        assert not run.crashed
        assert run.state.object_by_label("rootp").read_field("nbuckets") == 4

    def test_crash_at_step(self):
        run = run_with_crash(hashmap_module(), CrashPoint(at_step=3))
        assert run.crashed

    def test_object_lookup_errors(self):
        run = run_with_crash(hashmap_module(), CrashPoint("hashmap.c", 6))
        with pytest.raises(VMError):
            run.state.object_by_label("nonexistent")
        with pytest.raises(VMError):
            run.state.object(999)

    def _occurrence_module(self):
        mod = Module("occ", persistency_model="strict")
        fn = mod.define_function("main", ty.VOID, [], source_file="o.c")
        b = IRBuilder(fn)
        p = b.palloc(ty.I64, line=1)
        for i in range(3):
            b.store(i + 1, p, line=5)
            b.flush(p, 8, line=6)
            b.fence(line=7)
        b.ret(line=9)
        verify_module(mod)
        return mod

    def test_occurrence_counting(self):
        run = run_with_crash(self._occurrence_module(),
                             CrashPoint("o.c", 5, occurrence=3))
        assert run.crashed
        obj = run.state.objects()[0]
        assert obj.read_int(0, 8) == 2  # two completed iterations

    def test_occurrence_counted_per_run(self):
        # one CrashPoint reused across runs (and engines) crashes at the
        # same dynamic hit every time: no run inherits earlier hits
        mod = self._occurrence_module()
        crash = CrashPoint("o.c", 5, occurrence=3)
        first, second = [run_with_crash(mod, crash) for _ in range(2)]
        assert second.crashed
        assert second.result.steps == first.result.steps
        assert second.state.objects()[0].read_int(0, 8) == 2
        tree = [Interpreter(mod, crash_point=crash).run() for _ in range(2)]
        assert [r.steps for r in tree] == [first.result.steps] * 2


class TestUndoLogRecovery:
    def _tx_module(self, log_it: bool):
        mod = Module("tx", persistency_model="strict")
        fn = mod.define_function("main", ty.VOID, [], source_file="tx.c")
        b = IRBuilder(fn)
        p = b.palloc(ty.I64, name="obj", line=1)
        b.store(100, p, line=2)
        b.flush(p, 8, line=2)
        b.fence(line=2)
        b.txbegin(REGION_TX, line=3)
        if log_it:
            b.txadd(p, 8, line=4)
        b.store(999, p, line=5)
        b.flush(p, 8, line=6)
        b.fence(line=6)
        b.txend(REGION_TX, line=8)
        b.ret(line=9)
        verify_module(mod)
        return mod

    def test_recovery_rolls_back_open_tx(self):
        run = run_with_crash(self._tx_module(log_it=True),
                             CrashPoint("tx.c", 8))
        assert run.crashed
        raw = run.state.object_by_label("obj")
        assert raw.read_int(0, 8) == 999  # durable pre-recovery
        recovered = run.state.recovered().object_by_label("obj")
        assert recovered.read_int(0, 8) == 100  # rolled back

    def test_unlogged_write_cannot_be_rolled_back(self):
        run = run_with_crash(self._tx_module(log_it=False),
                             CrashPoint("tx.c", 8))
        recovered = run.state.recovered().object_by_label("obj")
        assert recovered.read_int(0, 8) == 999  # torn state survives
