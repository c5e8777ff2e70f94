"""Edge-case tests across subsystems (coverage sweep)."""

import pytest

from repro.ir import IRBuilder, Module, types as ty, verify_module
from repro.vm import Interpreter, RoundRobinScheduler, SeededScheduler


class TestSchedulers:
    class _T:
        def __init__(self, tid):
            self.thread_id = tid

    def test_round_robin_rotation(self):
        sched = RoundRobinScheduler(quantum=2)
        a, b = self._T(1), self._T(2)
        picks = [sched.pick([a, b]).thread_id for _ in range(6)]
        assert picks == [1, 1, 2, 2, 1, 1]

    def test_round_robin_handles_finished_thread(self):
        sched = RoundRobinScheduler(quantum=10)
        a, b = self._T(1), self._T(2)
        sched.pick([a, b])
        # thread 1 disappears: scheduler must move on
        assert sched.pick([b]).thread_id == 2

    def test_round_robin_invalid_quantum(self):
        with pytest.raises(ValueError):
            RoundRobinScheduler(0)

    def test_seeded_probability_bounds(self):
        with pytest.raises(ValueError):
            SeededScheduler(switch_prob=1.5)

    def test_seeded_always_switch(self):
        sched = SeededScheduler(seed=1, switch_prob=1.0)
        a, b = self._T(1), self._T(2)
        picks = {sched.pick([a, b]).thread_id for _ in range(20)}
        assert picks == {1, 2}

    def test_seeded_never_switch_sticks(self):
        sched = SeededScheduler(seed=1, switch_prob=0.0)
        a, b = self._T(1), self._T(2)
        first = sched.pick([a, b]).thread_id
        for _ in range(10):
            assert sched.pick([a, b]).thread_id == first


class TestDSGInternals:
    def test_conflicting_types_collapse(self):
        from repro.analysis.dsa.graph import DSGraph, F_COLLAPSED

        mod = Module("m", persistency_model="strict")
        s1 = mod.define_struct("a", [("x", ty.I64)])
        s2 = mod.define_struct("b", [("y", ty.I32)])
        g = DSGraph("f")
        n1 = g.new_node(["heap"], s1)
        n2 = g.new_node(["heap"], s2)
        merged = g.unify(n1, n2)
        assert F_COLLAPSED in merged.flags

    def test_describe_renders(self):
        from repro.analysis.dsa import run_dsa

        mod = Module("m", persistency_model="strict")
        st = mod.define_struct("s", [("next", ty.PTR)])
        fn = mod.define_function("f", ty.VOID, [], source_file="m.c")
        b = IRBuilder(fn)
        p = b.palloc(st, line=3)
        q = b.palloc(ty.I64, line=4)
        b.store(q, b.getfield(p, "next"))
        b.ret()
        text = run_dsa(mod).graph("f").describe()
        assert "pheap" in text and "->" in text

    def test_union_find_chain_compression(self):
        from repro.analysis.dsa.graph import DSGraph

        g = DSGraph("f")
        nodes = [g.new_node() for _ in range(10)]
        for i in range(9):
            g.unify(nodes[i + 1], nodes[i])
        rep = nodes[0].find()
        assert all(n.find() is rep for n in nodes)


class TestStats:
    def test_snapshot_includes_tx_counts(self):
        from repro.ir import REGION_EPOCH

        mod = Module("m", persistency_model="epoch")
        fn = mod.define_function("main", ty.VOID, [], source_file="m.c")
        b = IRBuilder(fn)
        b.txbegin(REGION_EPOCH)
        b.txend(REGION_EPOCH)
        b.ret()
        snap = Interpreter(mod).run().stats.snapshot()
        assert snap["tx_begin[epoch]"] == 1


class TestDynamicRuntimeLimits:
    def test_report_limit_caps_races(self):
        from repro.dynamic import DynamicChecker
        from repro.ir import REGION_STRAND
        from repro.corpus.util import counted_loop

        mod = Module("m", persistency_model="strand")
        fn = mod.define_function("main", ty.VOID, [("n", ty.I64)],
                                 source_file="m.c")
        b = IRBuilder(fn)
        p = b.palloc(ty.I64, line=1)

        def body(bb, _iv):
            bb.txbegin(REGION_STRAND, line=5)
            bb.store(1, p, line=6)
            bb.txend(REGION_STRAND, line=7)

        counted_loop(b, fn.arg("n"), body)
        b.fence(line=9)
        b.ret()
        checker = DynamicChecker(mod)
        # 50 iterations of racing strands, but the limit caps recording
        from repro.dynamic.runtime import DeepMCRuntime

        _report, runs = checker.run("main", [50])
        assert len(runs[0].runtime.races) <= runs[0].runtime.report_limit


class TestUtilHelpers:
    def test_if_then_else_both_paths(self):
        from repro.corpus.util import if_then_else

        def build(flag):
            mod = Module("m", persistency_model="strict")
            fn = mod.define_function("main", ty.I64, [("c", ty.I64)],
                                     source_file="m.c")
            b = IRBuilder(fn)
            slot = b.alloca(ty.I64)
            cond = b.icmp("ne", fn.arg("c"), 0)
            if_then_else(b, cond,
                         lambda bb: bb.store(1, slot),
                         lambda bb: bb.store(2, slot))
            v = b.load(slot)
            b.ret(v)
            verify_module(mod)
            return Interpreter(mod).run("main", [flag]).value

        assert build(1) == 1
        assert build(0) == 2


class TestCLIMore:
    def test_run_with_args(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "echo.nvmir"
        path.write_text(
            'module "e" model strict\n'
            "define i64 @main(i64 %x) {\n"
            "entry:\n"
            "  %y = add i64 %x, 1\n"
            "  ret i64 %y\n"
            "}\n"
        )
        assert main(["run", str(path), "--arg", "41"]) == 0
        assert "returned: 42" in capsys.readouterr().out

    def test_table_3_and_8(self, capsys):
        from repro.cli import main

        assert main(["table", "3"]) == 0
        assert "btree_map.c" in capsys.readouterr().out
        assert main(["table", "8"]) == 0
        assert "nvm_locks.c" in capsys.readouterr().out

    def test_check_suggest_fixes_flag(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "b.nvmir"
        path.write_text(
            'module "b" model strict\n'
            "define void @main() !file \"b.c\" {\n"
            "entry:\n"
            "  %p = palloc i64\n"
            '  store i64 1, %p  !loc "b.c":3\n'
            "  ret void\n"
            "}\n"
        )
        assert main(["check", str(path), "--suggest-fixes"]) == 1
        out = capsys.readouterr().out
        assert "FIX [insert-flush]" in out

    def test_check_with_suppressions(self, tmp_path, capsys):
        from repro.checker.suppressions import Suppression, SuppressionDB
        from repro.cli import main

        prog = tmp_path / "b.nvmir"
        prog.write_text(
            'module "b" model strict\n'
            "define void @main() !file \"b.c\" {\n"
            "entry:\n"
            "  %p = palloc i64\n"
            '  store i64 1, %p  !loc "b.c":3\n'
            "  ret void\n"
            "}\n"
        )
        db_path = tmp_path / "db.json"
        SuppressionDB([Suppression("strict.unflushed-write", "b.c", 3,
                                   "known")]).save(db_path)
        assert main(["check", str(prog),
                     "--suppressions", str(db_path)]) == 0
        assert "suppressed" in capsys.readouterr().out


class TestFrontendMore:
    def test_unary_minus_and_not(self):
        from repro.frontend import compile_c

        mod = compile_c("""
long main(void) {
    long a = -5;
    long b = !a;
    long c = !b;
    return a + b + c;
}
""", "u.c")
        assert Interpreter(mod).run().value == -4

    def test_nested_while(self):
        from repro.frontend import compile_c

        mod = compile_c("""
long main(void) {
    long total = 0;
    long i = 0;
    while (i < 3) {
        long j = 0;
        while (j < 4) {
            total = total + 1;
            j = j + 1;
        }
        i = i + 1;
    }
    return total;
}
""", "n.c")
        assert Interpreter(mod).run().value == 12

    def test_early_return_dead_code_dropped(self):
        from repro.frontend import compile_c

        mod = compile_c("""
long f(long x) {
    if (x > 0) { return 1; }
    else { return 2; }
    return 3;
}
long main(void) { return f(1) + f(-1); }
""", "d.c")
        assert Interpreter(mod).run().value == 3
