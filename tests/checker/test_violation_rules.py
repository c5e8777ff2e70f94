"""Per-rule tests for the Table 4 model-violation rules.

Each test builds the minimal program exhibiting (or just avoiding) the
pattern and asserts the exact warning set.
"""

import pytest

from repro import check_module
from repro.frameworks import PMDK, PMFS
from repro.ir import (
    IRBuilder,
    Module,
    REGION_EPOCH,
    REGION_STRAND,
    REGION_TX,
    types as ty,
)
from tests.checker.rule_inputs import strand_raw_module


def keys(report):
    return {(w.rule_id, w.loc.line) for w in report.warnings()}


class TestUnflushedWriteStrict:
    def _module(self, flush: bool):
        mod = Module("u", persistency_model="strict")
        fn = mod.define_function("main", ty.VOID, [], source_file="u.c")
        b = IRBuilder(fn)
        p = b.palloc(ty.I64, line=1)
        b.store(1, p, line=2)
        if flush:
            b.flush(p, 8, line=3)
            b.fence(line=4)
        b.ret(line=5)
        return mod

    def test_unflushed_reported(self):
        assert keys(check_module(self._module(False))) == {
            ("strict.unflushed-write", 2)
        }

    def test_flushed_clean(self):
        assert len(check_module(self._module(True))) == 0

    def test_partial_flush_still_reported(self):
        mod = Module("u", persistency_model="strict")
        rec = mod.define_struct("r", [("a", ty.I64), ("b", ty.I64)])
        fn = mod.define_function("main", ty.VOID, [], source_file="u.c")
        b = IRBuilder(fn)
        p = b.palloc(rec, line=1)
        fb = b.getfield(p, "b")
        b.store(1, fb, line=2)
        fa = b.getfield(p, "a")
        b.flush(fa, 8, line=3)  # flushes the wrong field
        b.fence(line=4)
        b.ret(line=5)
        assert ("strict.unflushed-write", 2) in keys(check_module(mod))

    def test_unlogged_write_reported_at_commit(self):
        mod = Module("u", persistency_model="strict")
        pmdk = PMDK(mod)
        rec = mod.define_struct("r", [("a", ty.I64), ("b", ty.I64)])
        fn = mod.define_function("main", ty.VOID, [], source_file="u.c")
        b = IRBuilder(fn)
        p = b.palloc(rec, line=1)
        pmdk.tx_begin(b, line=2)
        fa = b.getfield(p, "a")
        pmdk.tx_add(b, fa, 8, line=3)
        b.store(1, fa, line=4)            # logged: fine
        fb = b.getfield(p, "b")
        b.store(2, fb, line=5)            # unlogged: bug
        pmdk.tx_end(b, line=6)
        # a later flush outside the tx must NOT discharge the tx write
        b.flush(fb, 8, line=7)
        b.fence(line=8)
        b.ret(line=9)
        assert keys(check_module(mod)) == {("strict.unflushed-write", 5)}

    def test_whole_object_log_covers_fields(self):
        mod = Module("u", persistency_model="strict")
        pmdk = PMDK(mod)
        rec = mod.define_struct("r", [("a", ty.I64), ("b", ty.I64)])
        fn = mod.define_function("main", ty.VOID, [], source_file="u.c")
        b = IRBuilder(fn)
        p = b.palloc(rec, line=1)
        pmdk.tx_begin(b, line=2)
        pmdk.tx_add(b, p, 16, line=3)
        b.store(1, b.getfield(p, "a"), line=4)
        b.store(2, b.getfield(p, "b"), line=5)
        pmdk.tx_end(b, line=6)
        b.ret(line=7)
        assert len(check_module(mod)) == 0


class TestMissingBarrierStrict:
    def test_flush_then_write_without_fence(self):
        mod = Module("mb", persistency_model="strict")
        fn = mod.define_function("main", ty.VOID, [], source_file="m.c")
        b = IRBuilder(fn)
        p = b.palloc(ty.I64, line=1)
        b.store(1, p, line=2)
        b.flush(p, 8, line=3)
        b.store(2, p, line=4)  # no fence before the next write
        b.flush(p, 8, line=5)
        b.fence(line=6)
        b.ret(line=7)
        assert ("strict.missing-barrier", 3) in keys(check_module(mod))

    def test_flush_then_txbegin_without_fence(self):
        """The NVM-Direct Figure 3 shape."""
        mod = Module("mb", persistency_model="strict")
        fn = mod.define_function("main", ty.VOID, [], source_file="m.c")
        b = IRBuilder(fn)
        p = b.palloc(ty.I64, line=1)
        b.store(1, p, line=2)
        b.flush(p, 8, line=4)
        b.txbegin(REGION_TX, line=7)
        b.txadd(p, 8, line=8)
        b.store(3, p, line=8)
        b.txend(REGION_TX, line=9)
        b.ret(line=10)
        assert ("strict.missing-barrier", 4) in keys(check_module(mod))

    def test_unfenced_flush_at_end_of_trace(self):
        mod = Module("mb", persistency_model="strict")
        fn = mod.define_function("main", ty.VOID, [], source_file="m.c")
        b = IRBuilder(fn)
        p = b.palloc(ty.I64, line=1)
        b.store(1, p, line=2)
        b.flush(p, 8, line=3)
        b.ret(line=4)
        assert ("strict.missing-barrier", 3) in keys(check_module(mod))

    def test_properly_fenced_clean(self, node_module):
        mod, _ = node_module
        assert len(check_module(mod)) == 0


class TestMultiWritePerBarrier:
    def _module(self, n_writes: int):
        mod = Module("mw", persistency_model="strict")
        fn = mod.define_function("main", ty.VOID, [], source_file="w.c")
        b = IRBuilder(fn)
        ps = [b.palloc(ty.I64, line=1) for _ in range(n_writes)]
        for i, p in enumerate(ps):
            b.store(i, p, line=2 + i)
            b.flush(p, 8, line=2 + i)
        b.fence(line=9)
        b.ret(line=10)
        return mod

    def test_two_writes_one_barrier(self):
        assert ("strict.multi-write-barrier", 9) in keys(
            check_module(self._module(2))
        )

    def test_single_write_clean(self):
        assert len(check_module(self._module(1))) == 0

    def test_rewrite_of_same_location_not_counted_twice(self):
        mod = Module("mw", persistency_model="strict")
        fn = mod.define_function("main", ty.VOID, [], source_file="w.c")
        b = IRBuilder(fn)
        p = b.palloc(ty.I64, line=1)
        b.store(1, p, line=2)
        b.flush(p, 8, line=3)
        b.store(2, p, line=4)
        b.flush(p, 8, line=5)
        b.fence(line=6)
        b.ret(line=7)
        report = check_module(mod)
        assert not any(w.rule_id == "strict.multi-write-barrier"
                       for w in report.warnings())

    def test_epoch_model_writes_inside_epoch_exempt(self):
        mod = Module("mw", persistency_model="epoch")
        fn = mod.define_function("main", ty.VOID, [], source_file="w.c")
        b = IRBuilder(fn)
        p = b.palloc(ty.I64, line=1)
        q = b.palloc(ty.I64, line=1)
        b.txbegin(REGION_EPOCH, line=2)
        b.store(1, p, line=3)
        b.flush(p, 8, line=3)
        b.store(2, q, line=4)
        b.flush(q, 8, line=4)
        b.fence(line=5)
        b.txend(REGION_EPOCH, line=6)
        b.ret(line=7)
        report = check_module(mod)
        assert not any(w.rule_id == "strict.multi-write-barrier"
                       for w in report.warnings())


class TestEpochBarriers:
    def _two_epochs(self, barrier_between: bool):
        mod = Module("eb", persistency_model="epoch")
        fn = mod.define_function("main", ty.VOID, [], source_file="e.c")
        b = IRBuilder(fn)
        p = b.palloc(ty.I64, line=1)
        b.txbegin(REGION_EPOCH, line=2)
        b.store(1, p, line=3)
        b.flush(p, 8, line=3)
        if barrier_between:
            b.fence(line=4)
        b.txend(REGION_EPOCH, line=5)
        b.txbegin(REGION_EPOCH, line=6)
        b.store(2, p, line=7)
        b.flush(p, 8, line=7)
        b.fence(line=8)
        b.txend(REGION_EPOCH, line=9)
        b.ret(line=10)
        return mod

    def test_missing_barrier_between_epochs(self):
        assert ("epoch.missing-barrier", 5) in keys(
            check_module(self._two_epochs(False))
        )

    def test_barrier_present_clean(self):
        report = check_module(self._two_epochs(True))
        assert not any("barrier" in w.rule_id for w in report.warnings())

    def test_nested_epoch_missing_barrier(self):
        mod = Module("nb", persistency_model="epoch")
        pmfs = PMFS(mod)
        fn = mod.define_function("main", ty.VOID, [], source_file="n.c")
        b = IRBuilder(fn)
        p = b.palloc(ty.I64, line=1)
        b.txbegin(REGION_EPOCH, line=2)     # outer
        b.txbegin(REGION_EPOCH, line=3)     # inner
        b.store(1, p, line=4)
        b.flush(p, 8, line=5)
        b.txend(REGION_EPOCH, line=6)       # inner ends unbarriered: bug
        b.fence(line=7)
        b.txend(REGION_EPOCH, line=8)
        b.ret(line=9)
        assert ("epoch.nested-missing-barrier", 6) in keys(check_module(mod))

    def test_nested_epoch_with_barrier_clean(self):
        mod = Module("nb", persistency_model="epoch")
        fn = mod.define_function("main", ty.VOID, [], source_file="n.c")
        b = IRBuilder(fn)
        p = b.palloc(ty.I64, line=1)
        b.txbegin(REGION_EPOCH, line=2)
        b.txbegin(REGION_EPOCH, line=3)
        b.store(1, p, line=4)
        b.flush(p, 8, line=5)
        b.fence(line=6)
        b.txend(REGION_EPOCH, line=7)
        b.fence(line=8)
        b.txend(REGION_EPOCH, line=9)
        b.ret(line=10)
        report = check_module(mod)
        assert not any("barrier" in w.rule_id for w in report.warnings())


class TestSemanticMismatch:
    def test_split_object_across_transactions(self):
        """The Figure 1 hashmap shape under strict."""
        mod = Module("sm", persistency_model="strict")
        pmdk = PMDK(mod)
        rec = mod.define_struct("r", [("a", ty.I64), ("b", ty.I64)])
        fn = mod.define_function("main", ty.VOID, [], source_file="s.c")
        b = IRBuilder(fn)
        p = b.palloc(rec, line=1)
        pmdk.tx_begin(b, line=2)
        fa = b.getfield(p, "a")
        pmdk.tx_add(b, fa, 8, line=3)
        b.store(1, fa, line=3)
        pmdk.tx_end(b, line=4)
        pmdk.tx_begin(b, line=5)
        fb = b.getfield(p, "b")
        pmdk.tx_add(b, fb, 8, line=6)
        b.store(2, fb, line=6)
        pmdk.tx_end(b, line=7)
        b.ret(line=8)
        assert ("epoch.semantic-mismatch", 6) in keys(check_module(mod))

    def test_different_objects_clean(self):
        mod = Module("sm", persistency_model="strict")
        pmdk = PMDK(mod)
        rec = mod.define_struct("r", [("a", ty.I64), ("b", ty.I64)])
        fn = mod.define_function("main", ty.VOID, [], source_file="s.c")
        b = IRBuilder(fn)
        p = b.palloc(rec, line=1)
        q = b.palloc(rec, line=1)
        for obj, line in ((p, 2), (q, 5)):
            pmdk.tx_begin(b, line=line)
            fa = b.getfield(obj, "a")
            pmdk.tx_add(b, fa, 8, line=line + 1)
            b.store(1, fa, line=line + 1)
            pmdk.tx_end(b, line=line + 2)
        b.ret(line=8)
        report = check_module(mod)
        assert not any(w.rule_id == "epoch.semantic-mismatch"
                       for w in report.warnings())

    def test_overlapping_fields_clean(self):
        """Rewriting the SAME field across txs is not a mismatch."""
        mod = Module("sm", persistency_model="strict")
        pmdk = PMDK(mod)
        rec = mod.define_struct("r", [("a", ty.I64)])
        fn = mod.define_function("main", ty.VOID, [], source_file="s.c")
        b = IRBuilder(fn)
        p = b.palloc(rec, line=1)
        for line in (2, 5):
            pmdk.tx_begin(b, line=line)
            fa = b.getfield(p, "a")
            pmdk.tx_add(b, fa, 8, line=line + 1)
            b.store(line, fa, line=line + 1)
            pmdk.tx_end(b, line=line + 2)
        b.ret(line=8)
        report = check_module(mod)
        assert not any(w.rule_id == "epoch.semantic-mismatch"
                       for w in report.warnings())


class TestStrandOverlapStatic:
    def test_consecutive_strands_with_raw(self):
        report = check_module(strand_raw_module())
        (warning,) = [w for w in report.warnings()
                      if w.rule_id == "strand.dependence"]
        assert warning.loc.line == 6
        assert warning.message.startswith("RAW dependence")

    def test_consecutive_strands_with_waw(self):
        mod = Module("st", persistency_model="strand")
        fn = mod.define_function("main", ty.VOID, [], source_file="st.c")
        b = IRBuilder(fn)
        p = b.palloc(ty.I64, line=1)
        b.txbegin(REGION_STRAND, line=2)
        b.store(1, p, line=3)
        b.flush(p, 8, line=3)
        b.txend(REGION_STRAND, line=4)
        b.txbegin(REGION_STRAND, line=5)
        b.store(2, p, line=6)  # WAW with strand 1, no barrier between
        b.flush(p, 8, line=6)
        b.txend(REGION_STRAND, line=7)
        b.fence(line=8)
        b.ret(line=9)
        assert ("strand.dependence", 6) in keys(check_module(mod))

    def test_barrier_orders_strands(self):
        mod = Module("st", persistency_model="strand")
        fn = mod.define_function("main", ty.VOID, [], source_file="st.c")
        b = IRBuilder(fn)
        p = b.palloc(ty.I64, line=1)
        b.txbegin(REGION_STRAND, line=2)
        b.store(1, p, line=3)
        b.flush(p, 8, line=3)
        b.txend(REGION_STRAND, line=4)
        b.fence(line=5)
        b.txbegin(REGION_STRAND, line=6)
        b.store(2, p, line=7)
        b.flush(p, 8, line=7)
        b.txend(REGION_STRAND, line=8)
        b.fence(line=9)
        b.ret(line=10)
        report = check_module(mod)
        assert not any(w.rule_id == "strand.dependence"
                       for w in report.warnings())
