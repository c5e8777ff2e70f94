"""Tests for the dynamic checker: shadow memory, HB detection, hooks."""

import pytest

from repro.analysis.dsa import run_dsa
from repro.checker.engine import StaticChecker
from repro.corpus import REGISTRY
from repro.dynamic import (
    DeepMCRuntime,
    DynamicChecker,
    ShadowSegment,
    ShadowSpace,
    VectorClock,
    plan_hooks,
)
from repro.ir import (
    IRBuilder,
    Module,
    REGION_EPOCH,
    REGION_STRAND,
    print_module,
    types as ty,
    verify_module,
)
from repro.vm import Interpreter


def _plan(mod):
    return plan_hooks(mod, run_dsa(mod))


class TestVectorClock:
    def test_tick_and_get(self):
        vc = VectorClock()
        assert vc.get(1) == 0
        vc.tick(1)
        vc.tick(1)
        assert vc.get(1) == 2

    def test_merge_pointwise_max(self):
        a = VectorClock({1: 3, 2: 1})
        b = VectorClock({1: 1, 2: 5, 3: 2})
        a.merge(b)
        assert (a.get(1), a.get(2), a.get(3)) == (3, 5, 2)

    def test_dominates_epoch(self):
        vc = VectorClock({1: 3})
        assert vc.dominates_epoch(1, 3)
        assert vc.dominates_epoch(1, 2)
        assert not vc.dominates_epoch(1, 4)
        assert not vc.dominates_epoch(9, 1)

    def test_partial_order(self):
        a = VectorClock({1: 1})
        b = VectorClock({1: 2, 2: 1})
        assert a <= b
        assert not b <= a

    def test_copy_independent(self):
        a = VectorClock({1: 1})
        c = a.copy()
        c.tick(1)
        assert a.get(1) == 1


class TestShadow:
    def test_words_for(self):
        assert list(ShadowSegment.words_for(0, 8)) == [0]
        assert list(ShadowSegment.words_for(4, 8)) == [0, 1]
        assert list(ShadowSegment.words_for(16, 16)) == [2, 3]
        assert list(ShadowSegment.words_for(0, 0)) == []

    def test_space_lazy_segments(self):
        space = ShadowSpace()
        assert space.segment_count() == 0
        seg = space.segment(5)
        assert space.segment(5) is seg
        assert space.segment_count() == 1
        space.release(5)
        assert space.segment_count() == 0


def _two_strand_module(with_fence: bool, race_on_reads: bool = False):
    mod = Module("d", persistency_model="strand")
    rec = mod.define_struct("rec", [("a", ty.I64), ("b", ty.I64)])
    fn = mod.define_function("main", ty.VOID, [], source_file="d.c")
    b = IRBuilder(fn)
    p = b.palloc(rec, line=1)
    fa = b.getfield(p, "a")
    b.txbegin(REGION_STRAND, line=10)
    b.store(1, fa, line=11)
    b.flush(p, 16, line=12)
    b.txend(REGION_STRAND, line=13)
    if with_fence:
        b.fence(line=14)
    b.txbegin(REGION_STRAND, line=20)
    if race_on_reads:
        b.load(fa, line=21)
    else:
        b.store(2, fa, line=21)
    b.flush(p, 16, line=22)
    b.txend(REGION_STRAND, line=23)
    b.fence(line=24)
    b.ret(line=25)
    verify_module(mod)
    return mod


class TestStrandRaces:
    def test_waw_between_unordered_strands(self):
        report, runs = DynamicChecker(_two_strand_module(False)).run()
        assert report.has("strand.dependence", "d.c", 21)
        race = runs[0].runtime.races[0]
        assert race.kind == "WAW"
        assert race.same_thread

    def test_raw_between_unordered_strands(self):
        report, runs = DynamicChecker(
            _two_strand_module(False, race_on_reads=True)
        ).run()
        assert report.has("strand.dependence", "d.c", 21)
        assert runs[0].runtime.races[0].kind == "RAW"

    def test_fence_orders_strands(self):
        report, _ = DynamicChecker(_two_strand_module(True)).run()
        assert len(report) == 0

    def test_accesses_outside_strands_never_race(self):
        mod = Module("d", persistency_model="strand")
        fn = mod.define_function("main", ty.VOID, [], source_file="d.c")
        b = IRBuilder(fn)
        p = b.palloc(ty.I64, line=1)
        b.store(1, p, line=2)
        b.store(2, p, line=3)  # plain sequential code
        b.flush(p, 8, line=4)
        b.fence(line=5)
        b.ret(line=6)
        report, _ = DynamicChecker(mod).run()
        assert len(report) == 0

    def test_cross_thread_unordered_race(self):
        mod = Module("x", persistency_model="strand")
        worker = mod.define_function("w", ty.VOID,
                                     [("p", ty.pointer_to(ty.I64))],
                                     source_file="x.c")
        wb = IRBuilder(worker)
        wb.store(1, worker.arg("p"), line=5)
        wb.ret()
        fn = mod.define_function("main", ty.VOID, [], source_file="x.c")
        b = IRBuilder(fn)
        p = b.palloc(ty.I64, line=1)
        t1 = b.spawn(worker, [p], line=2)
        t2 = b.spawn(worker, [p], line=3)
        b.join(t1, line=4)
        b.join(t2, line=5)
        b.ret()
        report, _ = DynamicChecker(mod).run()
        assert any(not r.same_thread
                   for run in [report] for r in [])\
            or len(report) >= 1

    def test_join_orders_cross_thread(self):
        mod = Module("x", persistency_model="strand")
        worker = mod.define_function("w", ty.VOID,
                                     [("p", ty.pointer_to(ty.I64))],
                                     source_file="x.c")
        wb = IRBuilder(worker)
        wb.store(1, worker.arg("p"), line=5)
        wb.ret()
        fn = mod.define_function("main", ty.VOID, [], source_file="x.c")
        b = IRBuilder(fn)
        p = b.palloc(ty.I64, line=1)
        t1 = b.spawn(worker, [p], line=2)
        b.join(t1, line=3)  # ordered by join
        t2 = b.spawn(worker, [p], line=4)
        b.join(t2, line=5)
        b.ret()
        report, _ = DynamicChecker(mod).run()
        assert len(report) == 0

    def test_multi_seed_merged_report(self):
        checker = DynamicChecker(_two_strand_module(False))
        report, runs = checker.run(seeds=(1, 2, 3))
        assert len(runs) == 3
        assert report.has("strand.dependence", "d.c", 21)


class TestInstrumenter:
    def test_volatile_accesses_not_instrumented(self):
        mod = Module("i", persistency_model="strict")
        fn = mod.define_function("main", ty.VOID, [], source_file="i.c")
        b = IRBuilder(fn)
        v = b.malloc(ty.I64)
        b.store(1, v)
        b.ret()
        assert len(_plan(mod).hooks) == 0

    def test_persistent_store_instrumented(self):
        mod = Module("i", persistency_model="strict")
        fn = mod.define_function("main", ty.VOID, [], source_file="i.c")
        b = IRBuilder(fn)
        p = b.palloc(ty.I64)
        store = b.store(1, p)
        b.ret()
        before = [i.opcode for i in fn.entry.instructions]
        plan = _plan(mod)
        hook = plan.hooks[store]
        assert len(plan.hooks) == 1
        assert (hook.kind, hook.ptr, hook.size.value) == ("write", p, 8)
        # planning leaves the module alone
        assert [i.opcode for i in fn.entry.instructions] == before

    def test_region_scoped_reads(self):
        def build(with_region):
            mod = Module("i", persistency_model="epoch")
            fn = mod.define_function("main", ty.I64, [], source_file="i.c")
            b = IRBuilder(fn)
            p = b.palloc(ty.I64)
            if with_region:
                b.txbegin(REGION_EPOCH)
            v = b.load(p)
            if with_region:
                b.fence()
                b.txend(REGION_EPOCH)
            b.ret(v)
            return mod

        assert len(_plan(build(False)).hooks) == 0  # load skipped
        kinds = sorted(h.kind for h in _plan(build(True)).hooks.values())
        assert kinds == ["fence", "read"]

    def test_instrumented_module_runs_without_runtime(self):
        mod = Module("i", persistency_model="strict")
        fn = mod.define_function("main", ty.I64, [], source_file="i.c")
        b = IRBuilder(fn)
        p = b.palloc(ty.I64)
        b.store(7, p)
        b.flush(p, 8)
        b.fence()
        v = b.load(p)
        b.ret(v)
        plain = Interpreter(mod).run()
        plan = _plan(mod)
        # no runtime attached: each hook is a no-op step charged c_ins
        result = Interpreter(mod, hooks=plan).run()
        assert result.value == 7
        assert result.steps == plain.steps + len(plan.hooks)
        assert (result.stats.cycles - plain.stats.cycles
                == len(plan.hooks) * result.interpreter.cost.instruction)


CORPUS_CASES = [(p.name, fixed)
                for p in REGISTRY.programs() for fixed in (False, True)]
CORPUS_IDS = [f"{n}-{'fixed' if f else 'buggy'}" for n, f in CORPUS_CASES]


def _plan_shape(mod, plan):
    """The plan as (function, block, index, kind, operands) rows."""
    return [(fn.name, block.label, i, hook.kind, hook.ptr, hook.size)
            for fn in mod.defined_functions() for block in fn.blocks
            for i, inst in enumerate(block.instructions)
            for hook in [plan.hooks.get(inst)] if hook is not None]


class TestModuleStaysAsAnalysed:
    """The dynamic checker plans its hooks beside the module: the static
    checker sees the same module, and its DSA can be handed over."""

    @pytest.mark.parametrize("name,fixed", CORPUS_CASES, ids=CORPUS_IDS)
    def test_a_run_leaves_the_module_and_its_static_report(self, name,
                                                           fixed):
        program = REGISTRY.program(name)
        mod = program.build(fixed=fixed)
        text = print_module(mod)
        static = StaticChecker(mod, model=program.model).run().to_dict()
        DynamicChecker(mod, program.model).run(program.entry)
        assert print_module(mod) == text
        assert StaticChecker(mod, model=program.model).run().to_dict() \
            == static

    @pytest.mark.parametrize("name,fixed", CORPUS_CASES, ids=CORPUS_IDS)
    def test_the_static_checkers_dsa_gives_the_same_plan(self, name, fixed):
        program = REGISTRY.program(name)
        mod = program.build(fixed=fixed)
        checker = StaticChecker(mod, model=program.model)
        checker.run()
        shared = DynamicChecker(mod, dsa=checker.collector.dsa).plan
        own = DynamicChecker(mod).plan
        assert _plan_shape(mod, shared) == _plan_shape(mod, own)
        assert own.hooks

    def test_a_race_is_found_on_the_shared_dsa(self):
        mod = _two_strand_module(False)
        checker = StaticChecker(mod)
        checker.run()
        report, _runs = DynamicChecker(mod, dsa=checker.collector.dsa).run()
        assert report.has("strand.dependence", "d.c", 21)

    def test_run_returns_only_its_own_runs(self):
        checker = DynamicChecker(_two_strand_module(False))
        _report, first = checker.run(seeds=(1, 2))
        _report, second = checker.run(seeds=(3,))
        assert [r.seed for r in first] == [1, 2]
        assert [r.seed for r in second] == [3]
        assert not hasattr(checker, "runs")


class TestRuntimeScaling:
    def test_shadow_tracks_persistent_only(self):
        mod = Module("s", persistency_model="strand")
        fn = mod.define_function("main", ty.VOID, [], source_file="s.c")
        b = IRBuilder(fn)
        p = b.palloc(ty.I64, line=1)
        v = b.malloc(ty.I64, line=2)
        b.txbegin(REGION_STRAND, line=3)
        b.store(1, p, line=4)
        b.store(2, v, line=5)
        b.flush(p, 8, line=6)
        b.txend(REGION_STRAND, line=7)
        b.fence(line=8)
        b.ret()
        checker = DynamicChecker(mod)
        _report, runs = checker.run()
        # §5.2 scalability: only the persistent allocation is shadowed
        assert runs[0].runtime.shadow.segment_count() == 1
