"""Compiler unit tests: fusion edges, variant selection, and caching.

The differential wall (test_engine_differential.py) proves the engines
agree on real workloads; this file pins *why* — the structural rules the
compiler must follow at the edges where fusion could silently change
semantics: pairs split by block boundaries or transaction boundaries,
fused ops writing both result registers, and the program cache being
invalidated when IR is rewritten in place (and freed with its module).
"""

import gc
import weakref

import pytest

from repro.ir import IRBuilder, Module, REGION_TX, types as ty, \
    verify_module
from repro.ir import instructions as ins
from repro.vm.bytecode import OP_FUSE_ICMP_BR, OP_FUSE_LOAD_BINOP
from repro.vm.compile import compile_module, invalidate_bytecode_cache
from repro.vm.engine import make_interpreter
from repro.vm.interpreter import Interpreter

ALL_FUSED_OPS = (OP_FUSE_LOAD_BINOP, OP_FUSE_ICMP_BR)


def _opcodes(program, fn="main"):
    return [t[0] for t in program.fns[fn].code]


def _run_both(mod):
    """Result value from each engine, asserting they agree."""
    tree = Interpreter(mod).run("main", [])
    byte = make_interpreter(mod).run("main", [])
    assert tree.value == byte.value
    assert tree.steps == byte.steps
    return byte.value


def _module():
    mod = Module("t", persistency_model="strict")
    fn = mod.define_function("main", ty.I64, [], source_file="t.c")
    return mod, IRBuilder(fn)


class TestLoadBinopFusion:
    def test_adjacent_pair_fuses(self):
        mod, b = _module()
        p = b.palloc(ty.I64)
        b.store(41, p)
        v = b.load(p)
        b.ret(b.add(v, 1))
        verify_module(mod)
        program = compile_module(mod, fuse=True)
        assert OP_FUSE_LOAD_BINOP in _opcodes(program)
        assert program.fused_pairs() == 1
        assert _run_both(mod) == 42

    def test_fused_pair_writes_both_registers(self):
        # the loaded intermediate is used again *after* the fused binop:
        # the superop must have written the load's register too
        mod, b = _module()
        p = b.palloc(ty.I64)
        b.store(10, p)
        v = b.load(p)
        s = b.add(v, 5)          # fuses with the load
        b.ret(b.binop("mul", s, v))  # reads the intermediate back
        verify_module(mod)
        program = compile_module(mod, fuse=True)
        assert program.fused_pairs() == 1
        assert _run_both(mod) == 150

    def test_intervening_instruction_splits_window(self):
        mod, b = _module()
        p = b.palloc(ty.I64)
        b.store(1, p)
        v = b.load(p)
        b.fence()
        b.ret(b.add(v, 1))
        verify_module(mod)
        program = compile_module(mod, fuse=True)
        assert program.fused_pairs() == 0
        assert _run_both(mod) == 2

    def test_tx_boundary_splits_window(self):
        # txbegin between the load and the binop: transaction boundaries
        # are ordinary intervening instructions to the fusion window
        mod, b = _module()
        p = b.palloc(ty.I64)
        b.store(7, p)
        v = b.load(p)
        b.txbegin(REGION_TX)
        r = b.add(v, 1)
        b.txend(REGION_TX)
        b.ret(r)
        verify_module(mod)
        program = compile_module(mod, fuse=True)
        assert program.fused_pairs() == 0
        assert _run_both(mod) == 8

    def test_non_i64_binop_does_not_fuse(self):
        mod, b = _module()
        p = b.palloc(ty.I8)
        b.store(3, p)
        v = b.load(p)
        r = b.binop("add", v, b.const(1, bits=8))
        b.ret(b.cast(r, ty.I64))
        verify_module(mod)
        assert compile_module(mod, fuse=True).fused_pairs() == 0
        assert _run_both(mod) == 4


class TestIcmpBrFusion:
    def _branchy(self, split_blocks):
        mod, b = _module()
        p = b.palloc(ty.I64)
        b.store(5, p)
        v = b.load(p)
        then = b.new_block("then")
        other = b.new_block("other")
        c = b.icmp("sgt", v, 3)
        if split_blocks:
            # the br lives in its own block: the pair is no longer
            # adjacent inside one block and must not fuse
            mid = b.new_block("mid")
            b.jmp(mid)
            b.position_at(mid)
        b.br(c, then, other)
        b.position_at(then)
        b.ret(1)
        b.position_at(other)
        b.ret(0)
        verify_module(mod)
        return mod

    def test_adjacent_pair_fuses(self):
        program = compile_module(self._branchy(split_blocks=False),
                                 fuse=True)
        assert OP_FUSE_ICMP_BR in _opcodes(program)
        assert _run_both(self._branchy(split_blocks=False)) == 1

    def test_block_boundary_prevents_fusion(self):
        program = compile_module(self._branchy(split_blocks=True),
                                 fuse=True)
        assert OP_FUSE_ICMP_BR not in _opcodes(program)
        assert _run_both(self._branchy(split_blocks=True)) == 1

    def test_multi_use_condition_still_fuses_and_reads_back(self):
        # the condition register is read again in the taken block — the
        # fused op wrote it, so the later use sees the real value
        mod, b = _module()
        p = b.palloc(ty.I64)
        b.store(9, p)
        v = b.load(p)
        then = b.new_block("then")
        other = b.new_block("other")
        c = b.icmp("sgt", v, 3)
        b.br(c, then, other)
        b.position_at(then)
        b.ret(b.cast(c, ty.I64))
        b.position_at(other)
        b.ret(0)
        verify_module(mod)
        program = compile_module(mod, fuse=True)
        assert OP_FUSE_ICMP_BR in _opcodes(program)
        assert _run_both(mod) == 1

    def test_multi_use_false_condition_reads_back_zero(self):
        # the not-taken side writes the condition register too
        mod, b = _module()
        then = b.new_block("then")
        other = b.new_block("other")
        c = b.icmp("sgt", 1, 3)
        b.br(c, then, other)
        b.position_at(then)
        b.ret(7)
        b.position_at(other)
        b.ret(b.add(b.cast(c, ty.I64), 5))
        verify_module(mod)
        assert OP_FUSE_ICMP_BR in _opcodes(compile_module(mod, fuse=True))
        assert _run_both(mod) == 5


class TestVariantSelection:
    def _spawny(self):
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
        b.store(0, p)
        t1 = b.spawn(worker, [p])
        b.join(t1)
        b.ret(b.load(p))
        verify_module(mod)
        return mod

    def test_spawn_disables_fusion_wholesale(self):
        program = compile_module(self._spawny(), fuse=True)
        assert not program.fused
        assert program.has_spawn
        for fn in program.fns.values():
            assert not any(t[0] in ALL_FUSED_OPS for t in fn.code)

    def test_crash_point_selects_plain_variant(self):
        from repro.vm.interpreter import CrashPoint
        mod, b = _module()
        p = b.palloc(ty.I64)
        b.store(1, p)
        v = b.load(p)
        b.ret(b.add(v, 1))
        verify_module(mod)
        fused = make_interpreter(mod)
        assert fused._program.fused
        plain = make_interpreter(mod,
                                 crash_point=CrashPoint(file="t.c", line=99))
        assert not plain._program.fused

    def test_trace_instructions_selects_plain_variant(self):
        # tracing is only live when an event sink is attached — and only
        # then does it force the plain variant
        from repro.telemetry import Telemetry
        from repro.telemetry.sinks import NullSink
        mod, b = _module()
        b.ret(7)
        verify_module(mod)
        interp = make_interpreter(mod,
                                  telemetry=Telemetry(sinks=[NullSink()]),
                                  trace_instructions=True)
        assert not interp._program.fused


class TestProgramCache:
    def _simple(self):
        mod, b = _module()
        p = b.palloc(ty.I64)
        b.store(1, p)
        v = b.load(p)
        b.ret(b.add(v, 1))
        verify_module(mod)
        return mod

    def test_cache_hit_returns_same_program(self):
        mod = self._simple()
        assert compile_module(mod, fuse=True) is compile_module(mod,
                                                                fuse=True)

    def test_fusion_variants_are_distinct(self):
        mod = self._simple()
        fused = compile_module(mod, fuse=True)
        plain = compile_module(mod, fuse=False)
        assert fused is not plain
        assert fused.fused and not plain.fused

    def test_invalidate_drops_cached_program(self):
        mod = self._simple()
        before = compile_module(mod, fuse=True)
        invalidate_bytecode_cache(mod)
        assert compile_module(mod, fuse=True) is not before

    def test_in_place_rewrite_requires_invalidation(self):
        # the dynamic checker's contract: mutate IR in place, call
        # invalidate_bytecode_cache, and the next run sees the new code
        mod = self._simple()
        stale = make_interpreter(mod).run("main", [])
        assert stale.value == 2
        from repro.ir import instructions as ins
        from repro.ir.values import const_int
        main = mod.get_function("main")
        main.blocks[-1].instructions[-1] = ins.Ret(const_int(99, 64))
        invalidate_bytecode_cache(mod)
        assert make_interpreter(mod).run("main", []).value == 99

    def test_dropped_module_frees_its_programs(self):
        # the compiled programs point back at their module; the cache
        # must not keep a module alive once nothing else holds it
        mod = self._simple()
        assert make_interpreter(mod).run("main", []).value == 2
        ref = weakref.ref(mod)
        del mod
        gc.collect()
        assert ref() is None


class TestStackSlotPromotion:
    """An integer alloca whose every use is the pointer of an unhooked
    load or store of its own type lives in its register; any other use
    keeps the slot on the memory path."""

    #: the promoted allocas of each app module (first workload mix):
    #: every alloca of the three apps is a promotable counter
    APP_SLOTS = {
        "memcached": {"mc_client": ["%a1", "%a2"]},
        "redis": {"main": ["%a4", "%a5"]},
        "nstore": {"main": ["%a2", "%a3"], "ns_scan": ["%a1", "%a2"]},
    }

    @staticmethod
    def _allocas(program):
        """fn -> (promoted alloca names, allocas left in memory)."""
        from repro.vm.bytecode import OP_ALLOCA, OP_ALLOCA_SLOT
        out = {}
        for name, fn in program.fns.items():
            promoted = [fn.slot_names[t[1]] for t in fn.code
                        if t[0] == OP_ALLOCA_SLOT]
            kept = [fn.slot_names[t[1]] for t in fn.code
                    if t[0] == OP_ALLOCA]
            if promoted or kept:
                out[name] = (promoted, kept)
        return out

    @pytest.mark.parametrize("fuse", [True, False], ids=["fused", "plain"])
    def test_app_modules_promote_their_counters(self, fuse):
        from repro.apps import ALL_MIXES, APP_BUILDERS
        got = {}
        for app, builder in APP_BUILDERS.items():
            program = compile_module(builder(ALL_MIXES[app][0]), fuse=fuse)
            allocas = self._allocas(program)
            assert all(not kept for _promoted, kept in allocas.values())
            got[app] = {fn: promoted
                        for fn, (promoted, _kept) in allocas.items()}
        assert got == self.APP_SLOTS

    def _escape_module(self, shape):
        """``main`` keeps an i64 slot, and ``shape`` names the one use
        of its address that is not the pointer of a load or store."""
        from repro.ir.values import const_int
        mod = Module("esc", persistency_model="strict")
        sink = mod.define_function("sink", ty.I64,
                                   [("p", ty.pointer_to(ty.I64))],
                                   source_file="t.c")
        sb = IRBuilder(sink)
        sb.ret(sb.load(sink.arg("p")))
        fn = mod.define_function("main", ty.I64, [], source_file="t.c")
        b = IRBuilder(fn)
        if shape == "getfield":
            # getfield takes only a struct pointer, so an int slot never
            # reaches it: the slot is a struct's alloca, never a candidate
            pair = mod.define_struct("pair", [("a", ty.I64), ("b", ty.I64)])
            s = b.alloca(pair)
            slot = b.getfield(s, 1)
        else:
            slot = b.alloca(ty.I64)
        store = b.store(5, slot)
        if shape == "stored-as-value":
            b.store(slot, b.alloca(ty.pointer_to(ty.I64)))
        elif shape == "call-arg":
            b.call(sink, [slot])
        elif shape == "spawn-arg":
            b.join(b.spawn(sink, [slot]))
        elif shape == "cast":
            b.cast(slot, ty.I64)
        elif shape == "getelem":
            b.load(b.getelem(slot, 0))
        elif shape == "memcpy":
            other = b.alloca(ty.I64)
            b.memcpy(other, slot, 8)
        elif shape == "other-width-load":
            b._emit(ins.Load(ty.I32, slot, "w"))
        elif shape == "other-width-store":
            b._emit(ins.Store(b.const(7, bits=32), slot))
        v = b.load(slot)
        b.ret(v)
        verify_module(mod)
        hooks = None
        if shape == "hooked":
            from repro.dynamic.instrumenter import Hook, HookPlan
            hooks = HookPlan({store: Hook("write", slot, const_int(8))})
        return mod, hooks

    @pytest.mark.parametrize("shape", [
        "stored-as-value", "call-arg", "spawn-arg", "cast", "getfield",
        "getelem", "memcpy", "hooked", "other-width-load",
        "other-width-store"])
    def test_an_escaping_slot_stays_in_memory(self, shape):
        from repro.vm.bytecode import OP_ALLOCA_SLOT, OP_LOAD_I, OP_STORE_I
        mod, hooks = self._escape_module(shape)
        for fuse in (True, False):
            main = compile_module(mod, fuse=fuse, hooks=hooks).fns["main"]
            ops = [t[0] for t in main.code]
            assert OP_ALLOCA_SLOT not in ops, main.disassemble()
            assert OP_STORE_I in ops and OP_LOAD_I in ops, main.disassemble()
        outcomes = []
        for interpreter in (Interpreter, make_interpreter):
            r = interpreter(mod, hooks=hooks).run("main", [])
            outcomes.append((r.value, r.steps, r.stats.snapshot()))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == (7 if shape == "other-width-store" else 5)

    def test_an_escape_after_its_uses_rewrites_them(self):
        """The slot ops emitted before the escaping use go back to the
        memory ops they stand for, fused pair included."""
        from repro.vm.bytecode import (OP_ALLOCA, OP_FUSE_LOAD_BINOP,
                                       OP_LOAD_I, OP_STORE_I)
        mod, b = _module()
        slot = b.alloca(ty.I64)
        b.store(4, slot)
        s = b.add(b.load(slot), 1)
        v = b.load(slot)
        b.call("print", [slot], ret_type=ty.VOID)
        b.ret(b.add(s, v))
        verify_module(mod)
        main = compile_module(mod, fuse=True).fns["main"]
        assert [t[0] for t in main.code[:4]] == [
            OP_ALLOCA, OP_STORE_I, OP_FUSE_LOAD_BINOP, OP_LOAD_I]
        assert _run_both(mod) == 9
