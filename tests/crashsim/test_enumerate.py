"""Enumeration semantics: model-legal crash images, pruning, budgets."""

from repro.corpus import REGISTRY
from repro.crashsim import enumerate_crash_images, record_trace
from repro.ir import IRBuilder, Module, REGION_TX, types as ty, verify_module


def _two_line_module(model, flush=True):
    """Store 1 and 2 on two distinct cachelines, optionally flush, fence."""
    mod = Module("en", persistency_model=model)
    fn = mod.define_function("main", ty.VOID, [], source_file="e.c")
    b = IRBuilder(fn)
    p = b.palloc(ty.I64, 16, name="arr", line=1)  # two 64B lines
    b.store(1, b.getelem(p, 0), line=2)
    b.store(2, b.getelem(p, 8), line=3)
    if flush:
        b.flush(p, 128, line=4)
    b.fence(line=5)
    b.ret(line=6)
    verify_module(mod)
    return mod


def _pair_values(enum):
    out = set()
    for img in enum.images:
        for data in img.image.values():
            out.add((int.from_bytes(data[0:8], "little"),
                     int.from_bytes(data[64:72], "little")))
    return out


class TestStrictModel:
    def test_pending_subsets_enumerated(self):
        trace = record_trace(_two_line_module("strict"))
        enum = enumerate_crash_images(trace, "strict")
        # empty pre-palloc image + all four line subsets, deduped
        assert {(0, 0), (1, 0), (0, 2), (1, 2)} <= _pair_values(enum)
        assert enum.states == 5
        assert not enum.truncated

    def test_unflushed_stores_never_durable(self):
        # strict: a dirty-but-unflushed line is not a crash candidate
        trace = record_trace(_two_line_module("strict", flush=False))
        enum = enumerate_crash_images(trace, "strict")
        assert _pair_values(enum) == {(0, 0)}


class TestEpochModel:
    def test_in_epoch_dirty_lines_are_candidates(self):
        # same unflushed trace, epoch model: in-epoch write-back may race
        trace = record_trace(_two_line_module("epoch", flush=False))
        enum = enumerate_crash_images(trace, "epoch")
        assert {(0, 0), (1, 0), (0, 2), (1, 2)} <= _pair_values(enum)

    def test_fence_closes_the_epoch(self):
        mod = Module("ep", persistency_model="epoch")
        fn = mod.define_function("main", ty.VOID, [], source_file="ep.c")
        b = IRBuilder(fn)
        p = b.palloc(ty.I64, name="x", line=1)
        b.store(1, p, line=2)
        b.fence(line=3)  # closes the epoch; the unflushed 1 is now stuck
        b.store(2, p, line=4)
        b.fence(line=5)
        b.ret(line=6)
        verify_module(mod)
        enum = enumerate_crash_images(record_trace(mod), "epoch")
        vals = {int.from_bytes(d[0:8], "little")
                for img in enum.images for d in img.image.values()}
        # 1 escapes only inside its own epoch; after its fence the durable
        # base stays 0, and 2 escapes inside the second epoch
        assert vals == {0, 1, 2}


class TestPruning:
    def test_noop_candidate_dropped(self):
        mod = Module("no", persistency_model="strict")
        fn = mod.define_function("main", ty.VOID, [], source_file="n.c")
        b = IRBuilder(fn)
        p = b.palloc(ty.I64, name="x", line=1)
        b.store(0, p, line=2)  # content == durable zeros: a no-op line
        b.flush(p, 8, line=3)
        b.fence(line=4)
        b.ret(line=5)
        verify_module(mod)
        enum = enumerate_crash_images(record_trace(mod), "strict")
        # only the empty image and the post-palloc zeros survive dedup
        assert enum.states == 2
        assert enum.pruned > 0

    def test_identical_images_from_different_subsets_collapse(self):
        # two pending lines back at their durable content after a detour:
        # every subset of them is the same image, emitted once
        mod = Module("dup", persistency_model="strict")
        fn = mod.define_function("main", ty.VOID, [], source_file="d.c")
        b = IRBuilder(fn)
        p = b.palloc(ty.I64, 16, name="arr", line=1)  # two 64B lines
        for elem in (0, 8):
            b.store(3, b.getelem(p, elem), line=2)
            b.store(0, b.getelem(p, elem), line=3)
        b.flush(p, 128, line=4)
        b.fence(line=6)
        b.ret(line=7)
        verify_module(mod)
        trace = record_trace(mod)
        every = enumerate_crash_images(trace, "strict", prune=False)
        pending = [img for img in every.images if len(img.persisted) == 2]
        assert pending  # both lines were candidates together somewhere
        enum = enumerate_crash_images(trace, "strict")
        # the empty pre-palloc image and the all-zeros array, nothing else
        assert enum.states == 2
        assert _pair_values(enum) == {(0, 0)}
        assert enum.pruned > 0

    def test_identical_bytes_different_tx_state_not_deduped(self):
        mod = Module("tx", persistency_model="strict")
        fn = mod.define_function("main", ty.VOID, [], source_file="tx.c")
        b = IRBuilder(fn)
        p = b.palloc(ty.I64, name="x", line=1)
        b.store(100, p, line=2)
        b.flush(p, 8, line=2)
        b.fence(line=2)
        b.txbegin(REGION_TX, line=3)
        b.txadd(p, 8, line=4)
        b.store(999, p, line=5)
        b.flush(p, 8, line=6)
        b.fence(line=6)
        b.txend(REGION_TX, line=7)
        b.ret(line=8)
        verify_module(mod)
        enum = enumerate_crash_images(record_trace(mod), "strict")
        by_bytes = {}
        for img in enum.images:
            key = tuple(sorted(img.image.items()))
            by_bytes.setdefault(key, []).append(img.open_tx)
        # the durable-100 image appears both outside and inside the tx —
        # identical bytes, different recovery story, both enumerated
        assert any(len(set(txs)) > 1 for txs in by_bytes.values())

    def test_per_point_cap_keeps_extremes_only(self, monkeypatch):
        monkeypatch.setattr("repro.crashsim.enumerate.MAX_LINES", 2)
        mod = Module("big", persistency_model="strict")
        fn = mod.define_function("main", ty.VOID, [], source_file="b.c")
        b = IRBuilder(fn)
        p = b.palloc(ty.I64, 32, name="arr", line=1)  # four lines
        b.memset(p, 1, 256, line=2)
        b.flush(p, 256, line=3)
        b.fence(line=4)
        b.ret(line=5)
        verify_module(mod)
        enum = enumerate_crash_images(record_trace(mod), "strict")
        assert enum.truncated
        # partial images suppressed: every image is all-zeros or all-ones
        for img in enum.images:
            for data in img.image.values():
                assert data in (bytes(256), b"\x01" * 256)

    def test_global_budget_truncates(self):
        trace = record_trace(_two_line_module("strict"))
        enum = enumerate_crash_images(trace, "strict", max_states=2)
        assert enum.truncated
        assert enum.states == 2
        # the budget counts distinct images: one exactly met (every later
        # subset a duplicate) cuts nothing, and one short of it keeps the
        # first S-1 images and reports the cut
        full = enumerate_crash_images(trace, "strict")
        assert (full.states, full.pruned, full.truncated) == (5, 4, False)
        cases = [("two-line", trace, "strict")]
        for name in ("pmdk_btree_map", "mnemosyne_phlog", "nvmdirect_locks",
                     "pmfs_journal"):
            program = REGISTRY.program(name)
            module = program.build()
            cases.append((name, record_trace(module),
                          module.persistency_model or program.model))
        for name, trace, model in cases:
            full = enumerate_crash_images(trace, model)
            states = full.states
            assert not full.truncated, name
            exact = enumerate_crash_images(trace, model, max_states=states)
            assert exact == full, name
            short = enumerate_crash_images(trace, model,
                                           max_states=states - 1)
            assert short.truncated, name
            assert short.images == full.images[:states - 1], name
