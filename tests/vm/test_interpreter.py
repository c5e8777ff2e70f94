"""Interpreter tests: execution semantics of every instruction family."""

import pytest

from repro.errors import VMError
from repro.ir import (
    IRBuilder,
    Module,
    REGION_EPOCH,
    REGION_TX,
    types as ty,
    verify_module,
)
from repro.vm import Interpreter, Pointer


def run(mod, entry="main", args=()):
    verify_module(mod)
    return Interpreter(mod).run(entry, args)


def simple_main(mod, ret=ty.I64):
    fn = mod.define_function("main", ret, [], source_file="t.c")
    return fn, IRBuilder(fn)


class TestArithmetic:
    @pytest.mark.parametrize("op,a,b,expected", [
        ("add", 2, 3, 5),
        ("sub", 2, 3, -1),
        ("mul", -4, 3, -12),
        ("sdiv", 7, 2, 3),
        ("sdiv", -7, 2, -3),  # C-style truncation toward zero
        ("srem", 7, 2, 1),
        ("srem", -7, 2, -1),
        ("sdiv", 7, -2, -3),
        ("srem", 7, -2, 1),
        # mixed signs past 2**53, where a float quotient is off
        ("sdiv", -(2**62 + 1), 3, -1537228672809129301),
        ("srem", -(2**62 + 1), 3, -2),
        ("sdiv", 2**62 + 1, -3, -1537228672809129301),
        ("srem", 2**62 + 1, -3, 2),
        ("sdiv", -(2**63 - 1), 2**62 + 3, -1),
        ("srem", -(2**63 - 1), 2**62 + 3, -(2**62 - 4)),
        # the one overflowing quotient wraps (C leaves it undefined)
        ("sdiv", -(2**63), -1, -(2**63)),
        ("srem", -(2**63), -1, 0),
        ("and", 6, 3, 2),
        ("or", 6, 3, 7),
        ("xor", 6, 3, 5),
        ("shl", 1, 4, 16),
        ("lshr", 16, 2, 4),
    ])
    def test_binops(self, op, a, b, expected):
        mod = Module("t", persistency_model="strict")
        fn, b_ = simple_main(mod)
        r = b_.binop(op, a, b)
        b_.ret(r)
        assert run(mod).value == expected

    def test_wrapping_i64(self):
        mod = Module("t", persistency_model="strict")
        fn, b = simple_main(mod)
        big = b.const((1 << 63) - 1)
        r = b.add(big, 1)
        b.ret(r)
        assert run(mod).value == -(1 << 63)

    def test_division_by_zero_faults(self):
        mod = Module("t", persistency_model="strict")
        fn, b = simple_main(mod)
        r = b.binop("sdiv", 1, 0)
        b.ret(r)
        with pytest.raises(VMError, match="division by zero"):
            run(mod)

    @pytest.mark.parametrize("pred,a,b,expected", [
        ("eq", 2, 2, 1), ("ne", 2, 2, 0), ("slt", -1, 0, 1),
        ("sle", 3, 3, 1), ("sgt", 4, 3, 1), ("sge", 2, 3, 0),
    ])
    def test_icmp(self, pred, a, b, expected):
        mod = Module("t", persistency_model="strict")
        fn, b_ = simple_main(mod)
        c = b_.icmp(pred, a, b)
        r = b_.cast(c, ty.I64)
        b_.ret(r)
        assert run(mod).value == expected

    def test_cast_truncation(self):
        mod = Module("t", persistency_model="strict")
        fn, b = simple_main(mod)
        v = b.cast(b.const(0x1FF), ty.I8)
        r = b.cast(v, ty.I64)
        b.ret(r)
        assert run(mod).value == -1  # 0xFF sign-extended as i8


class TestMemoryOps:
    def test_struct_field_round_trip(self):
        mod = Module("t", persistency_model="strict")
        st = mod.define_struct("s", [("a", ty.I32), ("b", ty.I64)])
        fn, b = simple_main(mod)
        p = b.palloc(st)
        fb = b.getfield(p, "b")
        b.store(1234, fb)
        v = b.load(fb)
        b.ret(v)
        assert run(mod).value == 1234

    def test_array_indexing(self):
        mod = Module("t", persistency_model="strict")
        fn, b = simple_main(mod)
        arr = b.palloc(ty.I64, 8)
        e5 = b.getelem(arr, 5)
        b.store(55, e5)
        idx = b.add(2, 3)
        e5b = b.getelem(arr, idx)
        v = b.load(e5b)
        b.ret(v)
        assert run(mod).value == 55

    def test_memset_memcpy(self):
        mod = Module("t", persistency_model="strict")
        fn, b = simple_main(mod)
        src = b.malloc(ty.I64, 2)
        dst = b.malloc(ty.I64, 2)
        b.memset(src, 0x41, 16)
        b.memcpy(dst, src, 16)
        v = b.load(b.getelem(dst, 1))
        b.ret(v)
        assert run(mod).value == 0x4141414141414141

    def test_pointer_through_memory(self):
        mod = Module("t", persistency_model="strict")
        cell = mod.define_struct("cell", [("next", ty.PTR), ("v", ty.I64)])
        fn, b = simple_main(mod)
        a = b.palloc(cell)
        c = b.palloc(cell)
        b.store(77, b.getfield(c, "v"))
        b.store(c, b.getfield(a, "next"))
        loaded = b.load(b.getfield(a, "next"))
        typed = b.cast(loaded, ty.pointer_to(cell))
        v = b.load(b.getfield(typed, "v"))
        b.ret(v)
        assert run(mod).value == 77

    def test_alloca_freed_on_return(self):
        mod = Module("t", persistency_model="strict")
        callee = mod.define_function("callee", ty.pointer_to(ty.I64), [],
                                     source_file="t.c")
        cb = IRBuilder(callee)
        p = cb.alloca(ty.I64)
        cb.ret(p)
        fn, b = simple_main(mod)
        dangling = b.call(callee)
        v = b.load(dangling)
        b.ret(v)
        with pytest.raises(VMError):
            run(mod)


class TestCallsAndControl:
    def test_recursion(self):
        mod = Module("t", persistency_model="strict")
        fib = mod.define_function("fib", ty.I64, [("n", ty.I64)],
                                  source_file="t.c")
        b = IRBuilder(fib)
        base = b.new_block("base")
        rec = b.new_block("rec")
        c = b.icmp("slt", fib.arg("n"), 2)
        b.br(c, base, rec)
        b.position_at(base)
        b.ret(fib.arg("n"))
        b.position_at(rec)
        n1 = b.sub(fib.arg("n"), 1)
        n2 = b.sub(fib.arg("n"), 2)
        r1 = b.call(fib, [n1])
        r2 = b.call(fib, [n2])
        b.ret(b.add(r1, r2))
        fn, mb = simple_main(mod)
        r = mb.call(fib, [mb.const(10)])
        mb.ret(r)
        assert run(mod).value == 55

    def test_builtin_print_captured(self):
        mod = Module("t", persistency_model="strict")
        fn, b = simple_main(mod)
        b.call("print", [b.const(42)], ret_type=ty.VOID)
        b.ret(0)
        res = run(mod)
        assert res.output == ["42"]

    def test_builtin_rand_deterministic(self):
        mod = Module("t", persistency_model="strict")
        fn, b = simple_main(mod)
        r = b.call("rand", [b.const(1000)], ret_type=ty.I64)
        b.ret(r)
        assert run(mod).value == run(mod).value

    def test_wrong_arity_faults(self):
        mod = Module("t", persistency_model="strict")
        callee = mod.define_function("c", ty.VOID, [("x", ty.I64)],
                                     source_file="t.c")
        IRBuilder(callee).ret()
        fn, b = simple_main(mod, ret=ty.VOID)
        b.call("c", [])
        b.ret()
        with pytest.raises(VMError, match="expects 1 args"):
            run(mod)

    def test_step_budget(self):
        mod = Module("t", persistency_model="strict")
        fn = mod.define_function("main", ty.VOID, [], source_file="t.c")
        b = IRBuilder(fn)
        loop = b.new_block("loop")
        b.jmp(loop)
        b.position_at(loop)
        b.jmp(loop)
        verify_module(mod)
        with pytest.raises(VMError, match="step budget"):
            Interpreter(mod, max_steps=1000).run()


class TestPersistence:
    def test_tx_commit_flushes_logged_ranges(self):
        mod = Module("t", persistency_model="strict")
        fn, b = simple_main(mod, ret=ty.VOID)
        p = b.palloc(ty.I64)
        b.txbegin(REGION_TX)
        b.txadd(p, 8)
        b.store(5, p)
        b.txend(REGION_TX)
        b.ret()
        res = run(mod)
        assert res.stats.fences == 1
        assert res.stats.lines_written_back == 1

    def test_empty_tx_commit_is_free(self):
        mod = Module("t", persistency_model="strict")
        fn, b = simple_main(mod, ret=ty.VOID)
        b.txbegin(REGION_TX)
        b.txend(REGION_TX)
        b.ret()
        assert run(mod).stats.fences == 0

    def test_epoch_end_has_no_implicit_barrier(self):
        mod = Module("t", persistency_model="epoch")
        fn, b = simple_main(mod, ret=ty.VOID)
        p = b.palloc(ty.I64)
        b.txbegin(REGION_EPOCH)
        b.store(5, p)
        b.flush(p, 8)
        b.txend(REGION_EPOCH)
        b.ret()
        res = run(mod)
        assert res.stats.fences == 0
        assert res.domain.pending_lines()  # flush still pending

    def test_txadd_outside_tx_faults(self):
        mod = Module("t", persistency_model="strict")
        fn, b = simple_main(mod, ret=ty.VOID)
        p = b.palloc(ty.I64)
        b.txadd(p, 8)
        b.ret()
        with pytest.raises(VMError, match="txadd outside"):
            run(mod)

    def test_finishing_inside_region_faults(self):
        mod = Module("t", persistency_model="strict")
        fn, b = simple_main(mod, ret=ty.VOID)
        b.txbegin(REGION_TX)
        b.ret()
        dead = b.new_block("dead")  # unreachable; keeps balance verifiable
        b.position_at(dead)
        b.txend(REGION_TX)
        b.ret()
        with pytest.raises(VMError, match="open"):
            run(mod)

    def test_volatile_flush_is_noop_with_cost(self):
        mod = Module("t", persistency_model="strict")
        fn, b = simple_main(mod, ret=ty.VOID)
        p = b.malloc(ty.I64)
        b.store(1, p)
        b.flush(p, 8)
        b.fence()
        b.ret()
        res = run(mod)
        assert res.stats.lines_written_back == 0
        assert res.stats.flushes == 1


class TestThreads:
    def _counter_module(self):
        mod = Module("t", persistency_model="strict")
        worker = mod.define_function(
            "worker", ty.VOID, [("p", ty.pointer_to(ty.I64))],
            source_file="t.c")
        wb = IRBuilder(worker)
        v = wb.load(worker.arg("p"))
        wb.store(wb.add(v, 1), worker.arg("p"))
        wb.ret()
        fn = mod.define_function("main", ty.I64, [], source_file="t.c")
        b = IRBuilder(fn)
        p = b.palloc(ty.I64)
        t1 = b.spawn(worker, [p])
        b.join(t1)
        t2 = b.spawn(worker, [p])
        b.join(t2)
        v = b.load(p)
        b.ret(v)
        return mod

    def test_spawn_join(self):
        assert run(self._counter_module()).value == 2

    def test_join_unknown_thread(self):
        mod = Module("t", persistency_model="strict")
        fn, b = simple_main(mod, ret=ty.VOID)
        from repro.ir import instructions as ins
        b.block.append(ins.Join(b.const(99)))
        b.ret()
        with pytest.raises(VMError, match="unknown thread"):
            run(mod)

    def test_seeded_scheduler_determinism(self):
        from repro.vm import SeededScheduler

        mod = self._counter_module()
        r1 = Interpreter(mod, scheduler=SeededScheduler(7)).run()
        mod2 = self._counter_module()
        r2 = Interpreter(mod2, scheduler=SeededScheduler(7)).run()
        assert r1.value == r2.value == 2
        assert r1.steps == r2.steps
