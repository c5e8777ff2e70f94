"""Tests for trace collection (§4.3): events, merging, bounds, priority."""

import pytest

from repro.analysis import TraceCollector
from repro.analysis.traces import (
    EV_ALLOC,
    EV_FENCE,
    EV_FLUSH,
    EV_TRUNCATED,
    EV_TXADD,
    EV_TXBEGIN,
    EV_WRITE,
)
from repro.corpus.util import counted_loop
from repro.frameworks import PMDK
from repro.ir import IRBuilder, Module, REGION_TX, types as ty


def kinds(trace):
    return [e.kind for e in trace.events]


class TestEventExtraction:
    def test_persistent_ops_only(self, node_module):
        mod, _node = node_module
        traces = TraceCollector(mod).traces_for("main")
        assert len(traces) == 1
        ks = kinds(traces[0])
        assert ks == [EV_ALLOC, EV_WRITE, EV_FLUSH, EV_FENCE, "load"]

    def test_volatile_ops_excluded(self):
        mod = Module("v", persistency_model="strict")
        fn = mod.define_function("main", ty.VOID, [], source_file="v.c")
        b = IRBuilder(fn)
        p = b.malloc(ty.I64)  # volatile
        b.store(1, p)
        b.flush(p, 8)
        b.fence()
        b.ret()
        traces = TraceCollector(mod).traces_for("main")
        assert kinds(traces[0]) == [EV_FENCE]

    def test_memset_is_write_event(self):
        mod = Module("m", persistency_model="strict")
        fn = mod.define_function("main", ty.VOID, [], source_file="m.c")
        b = IRBuilder(fn)
        p = b.palloc(ty.I64, 4)
        b.memset(p, 0, 32, line=5)
        b.ret()
        traces = TraceCollector(mod).traces_for("main")
        writes = [e for e in traces[0].events if e.kind == EV_WRITE]
        assert len(writes) == 1
        assert writes[0].size == 32

    def test_region_markers_and_txadd(self):
        mod = Module("r", persistency_model="strict")
        fn = mod.define_function("main", ty.VOID, [], source_file="r.c")
        b = IRBuilder(fn)
        p = b.palloc(ty.I64)
        b.txbegin(REGION_TX)
        b.txadd(p, 8)
        b.store(1, p)
        b.txend(REGION_TX)
        b.ret()
        trace = TraceCollector(mod).traces_for("main")[0]
        ks = kinds(trace)
        assert EV_TXBEGIN in ks and EV_TXADD in ks


class TestAnnotationExpansion:
    def test_annotated_call_expands_to_effects(self):
        mod = Module("a", persistency_model="strict")
        pmdk = PMDK(mod)
        st = mod.define_struct("s", [("x", ty.I64)])
        fn = mod.define_function("main", ty.VOID, [], source_file="a.c")
        b = IRBuilder(fn)
        p = b.palloc(st)
        xf = b.getfield(p, "x")
        b.store(1, xf, line=5)
        pmdk.persist(b, xf, 8, line=6)
        b.ret()
        trace = TraceCollector(mod).traces_for("main")[0]
        flushes = [e for e in trace.events if e.kind == EV_FLUSH]
        fences = [e for e in trace.events if e.kind == EV_FENCE]
        assert len(flushes) == 1 and flushes[0].via == "pmemobj_persist"
        assert flushes[0].size == 8
        assert len(fences) == 1
        # annotated call events carry the call-site location
        assert flushes[0].loc.line == 6

    def test_annotated_body_not_inlined(self):
        """The persist function's body would add a second flush if inlined."""
        mod = Module("a", persistency_model="strict")
        pmdk = PMDK(mod)
        fn = mod.define_function("main", ty.VOID, [], source_file="a.c")
        b = IRBuilder(fn)
        p = b.palloc(ty.I64)
        b.store(1, p)
        pmdk.persist(b, p, 8)
        b.ret()
        trace = TraceCollector(mod).traces_for("main")[0]
        assert sum(1 for e in trace.events if e.kind == EV_FLUSH) == 1


class TestInterproceduralMerging:
    def test_callee_events_translated_to_caller_nodes(self):
        mod = Module("m", persistency_model="strict")
        st = mod.define_struct("s", [("a", ty.I64)])
        callee = mod.define_function("w", ty.VOID,
                                     [("p", ty.pointer_to(st))],
                                     source_file="m.c")
        cb = IRBuilder(callee)
        fa = cb.getfield(callee.arg("p"), "a")
        cb.store(9, fa, line=20)
        cb.ret()
        fn = mod.define_function("main", ty.VOID, [], source_file="m.c")
        b = IRBuilder(fn)
        obj = b.palloc(st, line=1)
        b.call(callee, [obj], line=2)
        b.flush(obj, 8, line=3)
        b.fence(line=4)
        b.ret()
        collector = TraceCollector(mod)
        trace = collector.traces_for("main")[0]
        write = next(e for e in trace.events if e.kind == EV_WRITE)
        flush = next(e for e in trace.events if e.kind == EV_FLUSH)
        # the callee's write now names the caller's node
        assert write.cell.node.find() is flush.cell.node.find()
        assert write.loc.line == 20  # original location preserved

    def test_recursion_bounded(self, monkeypatch):
        monkeypatch.setattr("repro.analysis.traces.RECURSION_LIMIT", 3)
        mod = Module("rec", persistency_model="strict")
        fn = mod.define_function("r", ty.VOID, [("n", ty.I64)],
                                 source_file="r.c")
        b = IRBuilder(fn)
        stop = b.new_block("stop")
        go = b.new_block("go")
        p = b.palloc(ty.I64, name="cell")
        b.store(1, p, line=3)
        b.flush(p, 8, line=4)
        b.fence(line=5)
        c = b.icmp("sle", fn.arg("n"), 0)
        b.br(c, stop, go)
        b.position_at(stop)
        b.ret()
        b.position_at(go)
        n1 = b.sub(fn.arg("n"), 1)
        b.call(fn, [n1])
        b.ret()
        collected = TraceCollector(mod).traces_for("r")
        # the root activation plus at most RECURSION_LIMIT recursive levels
        max_writes = max(
            sum(1 for e in t.events if e.kind == EV_WRITE) for t in collected
        )
        assert max_writes <= 4


class TestPathBounds:
    def test_loop_truncation_marker(self, monkeypatch):
        monkeypatch.setattr("repro.analysis.traces.LOOP_LIMIT", 3)
        mod = Module("lp", persistency_model="strict")
        fn = mod.define_function("main", ty.VOID, [("n", ty.I64)],
                                 source_file="l.c")
        b = IRBuilder(fn)
        p = b.palloc(ty.I64)

        def body(b, iv):
            b.store(iv, p, line=7)
            b.flush(p, 8, line=8)
            b.fence(line=9)

        counted_loop(b, fn.arg("n"), body)
        b.ret()
        collected = TraceCollector(mod).traces_for("main")
        truncated = [t for t in collected if any(e.kind == EV_TRUNCATED
                                                 for e in t.events)]
        complete = [t for t in collected if not any(e.kind == EV_TRUNCATED
                                                    for e in t.events)]
        assert truncated and complete

    def test_persistent_priority_ordering(self):
        """Paths with more persistent ops are kept first."""
        mod = Module("pr", persistency_model="strict")
        fn = mod.define_function("main", ty.VOID, [("c", ty.I64)],
                                 source_file="p.c")
        b = IRBuilder(fn)
        heavy = b.new_block("heavy")
        light = b.new_block("light")
        done = b.new_block("done")
        p = b.palloc(ty.I64)
        cond = b.icmp("ne", fn.arg("c"), 0)
        b.br(cond, heavy, light)
        b.position_at(heavy)
        for _ in range(3):
            b.store(1, p)
            b.flush(p, 8)
            b.fence()
        b.jmp(done)
        b.position_at(light)
        b.jmp(done)
        b.position_at(done)
        b.ret()
        traces = TraceCollector(mod).traces_for("main")
        assert traces[0].persistent_ops() >= traces[-1].persistent_ops()

    def test_max_paths_cap(self, monkeypatch):
        monkeypatch.setattr("repro.analysis.traces.MAX_PATHS", 10)
        mod = Module("mp", persistency_model="strict")
        fn = mod.define_function("main", ty.VOID, [("c", ty.I64)],
                                 source_file="m.c")
        b = IRBuilder(fn)
        # 6 sequential diamonds -> 64 paths
        prev_join = None
        for i in range(6):
            t = b.new_block(f"t{i}")
            e = b.new_block(f"e{i}")
            j = b.new_block(f"j{i}")
            c = b.icmp("ne", fn.arg("c"), i)
            b.br(c, t, e)
            b.position_at(t)
            b.jmp(j)
            b.position_at(e)
            b.jmp(j)
            b.position_at(j)
        b.ret()
        assert len(TraceCollector(mod).traces_for("main")) <= 10

    @staticmethod
    def _long_chain_module(blocks):
        """main allocates (line 1), stores field a (line 2), flushes it
        (line 3) and stores field b (line 4), then jumps through
        ``blocks`` empty blocks before it returns."""
        mod = Module("chain", persistency_model="strict")
        rec = mod.define_struct("r", [("a", ty.I64), ("b", ty.I64)])
        fn = mod.define_function("main", ty.VOID, [], source_file="b.c")
        b = IRBuilder(fn)
        p = b.palloc(rec, line=1)
        fa = b.getfield(p, "a")
        b.store(1, fa, line=2)
        b.flush(fa, 8, line=3)
        b.store(2, b.getfield(p, "b"), line=4)
        for i in range(blocks):
            nxt = b.new_block(f"b{i}")
            b.jmp(nxt)
            b.position_at(nxt)
        b.ret()
        return mod

    def test_exhausted_path_budget_cuts_visibly(self):
        """A DFS that runs out of expansion budget before any path ends
        keeps its partial path, cut by a truncation marker, instead of
        leaving main one empty (clean) path."""
        from repro.checker import StaticChecker

        mod = self._long_chain_module(400)  # past MAX_PATHS * 8 pops
        (trace,) = TraceCollector(mod).traces_for("main")
        assert kinds(trace) == [EV_ALLOC, EV_WRITE, EV_FLUSH, EV_WRITE,
                                EV_TRUNCATED]
        report = StaticChecker(mod).run()
        assert report.has("strict.missing-barrier", "b.c", 3)
        # the cut hides the end, so the unflushed write at line 4, which
        # a complete path reports, is not claimed
        assert not report.has("strict.unflushed-write", "b.c", 4)
        short = StaticChecker(self._long_chain_module(380)).run()
        assert short.has("strict.missing-barrier", "b.c", 3)
        assert short.has("strict.unflushed-write", "b.c", 4)

    @staticmethod
    def _splice_module():
        """main writes, calls a self-contained persist helper, then
        persists its own write (clean)."""
        mod = Module("cut", persistency_model="strict")
        helper = mod.define_function("helper", ty.VOID, [],
                                     source_file="c.c")
        hb = IRBuilder(helper)
        q = hb.palloc(ty.I64, line=10)
        hb.store(7, q, line=11)
        hb.flush(q, 8, line=12)
        hb.fence(line=13)
        hb.ret()
        fn = mod.define_function("main", ty.VOID, [], source_file="c.c")
        b = IRBuilder(fn)
        p = b.palloc(ty.I64, line=1)
        b.store(1, p, line=2)
        b.call(helper, line=3)
        b.flush(p, 8, line=4)
        b.fence(line=5)
        b.ret()
        return mod

    def test_cut_splice_is_marked(self, monkeypatch):
        """A splice cut at MAX_EVENTS ends in a truncation marker, so the
        rules never read the caller's tail after the hole."""
        from repro.checker import StaticChecker

        mod = self._splice_module()
        assert len(StaticChecker(mod).run()) == 0
        monkeypatch.setattr("repro.analysis.traces.MAX_EVENTS", 5)
        (trace,) = TraceCollector(mod).traces_for("main")
        assert [e.kind for e in trace.events[5:]] == [
            EV_TRUNCATED, EV_FLUSH, EV_FENCE]
        assert len(StaticChecker(self._splice_module()).run()) == 0

    @staticmethod
    def _callee_cap_module():
        """main calls update(p, 1, 1, 1); update has three if/else
        diamonds, so 8 paths. The else arm of the first stores to x at
        line 50 and never flushes it, so the four paths through it have
        the fewest persistent ops. No path fences."""
        mod = Module("cap", persistency_model="strict")
        rec = mod.define_struct("r", [("x", ty.I64), ("y", ty.I64)])
        update = mod.define_function(
            "update", ty.VOID,
            [("p", ty.pointer_to(rec)), ("a", ty.I64), ("b", ty.I64),
             ("c", ty.I64)], source_file="cap.c")
        b = IRBuilder(update)
        fx = b.getfield(update.arg("p"), "x")
        fy = b.getfield(update.arg("p"), "y")

        def diamond(arg, then, other):
            """``if (arg) then else other``; an arm is a list of (field,
            store line, flushed) stores."""
            yes, no, join = (b.new_block(f"{arg}_{part}")
                             for part in ("then", "else", "join"))
            b.br(b.icmp("ne", update.arg(arg), 0), yes, no)
            for block, arm in ((yes, then), (no, other)):
                b.position_at(block)
                for field, line, flushed in arm:
                    b.store(line, field, line=line)
                    if flushed:
                        b.flush(field, 8, line=line + 1)
                b.jmp(join)
            b.position_at(join)

        diamond("a", [(fx, 40, True)], [(fx, 50, False)])
        diamond("b", [(fy, 42, True)], [(fy, 44, True)])
        diamond("c", [], [])
        b.ret()
        fn = mod.define_function("main", ty.VOID, [], source_file="cap.c")
        b = IRBuilder(fn)
        p = b.palloc(rec, line=1)
        b.call(update, [p, 1, 1, 1], line=2)
        b.ret()
        return mod

    def test_callee_trace_cap_hides_a_bug(self, monkeypatch):
        """Only MAX_CALLEE_TRACES of update's traces are spliced into
        main, the ones with the most persistent ops, so the unflushed
        store at line 50 is reported only once the cap admits all 8."""
        from repro.checker import StaticChecker

        def check():
            checker = StaticChecker(self._callee_cap_module())
            report = checker.run()
            return checker.traces_checked, {
                (w.rule_id, w.loc.line) for w in report.warnings()}

        missing = {("strict.missing-barrier", line) for line in (41, 43, 45)}
        assert check() == (4, missing)
        monkeypatch.setattr("repro.analysis.traces.MAX_CALLEE_TRACES", 8)
        assert check() == (8, missing | {("strict.unflushed-write", 50)})


class TestInterning:
    def test_equal_prefixes_share_event_objects(self):
        """Block events, call-site translations and callee traces are
        memoised, so traces with an equal prefix share its event objects
        (what lets an identity-keyed prefix trie share the prefix)."""
        mod = Module("ie", persistency_model="strict")
        st = mod.define_struct("s", [("a", ty.I64)])
        callee = mod.define_function("w", ty.VOID,
                                     [("p", ty.pointer_to(st)),
                                      ("c", ty.I64)],
                                     source_file="i.c")
        cb = IRBuilder(callee)
        fa = cb.getfield(callee.arg("p"), "a")
        yes = cb.new_block("yes")
        done = cb.new_block("done")
        cb.store(1, fa, line=20)
        cb.br(cb.icmp("ne", callee.arg("c"), 0), yes, done)
        cb.position_at(yes)
        cb.flush(fa, 8, line=21)
        cb.jmp(done)
        cb.position_at(done)
        cb.fence(line=22)
        cb.ret()
        fn = mod.define_function("main", ty.VOID, [("c", ty.I64)],
                                 source_file="i.c")
        b = IRBuilder(fn)
        obj = b.palloc(st, line=1)
        b.call(callee, [obj, fn.arg("c")], line=2)
        b.call(callee, [obj, fn.arg("c")], line=3)
        b.ret()
        traces = TraceCollector(mod).traces_for("main")
        assert len(traces) == 4
        shared = 0
        for one in traces:
            for other in traces:
                for x, y in zip(one.events, other.events):
                    if x != y:
                        break
                    assert x is y
                    shared += one is not other
        assert shared
