"""Verifier tests: every structural invariant has a rejection case."""

import pytest

from repro.errors import VerifierError
from repro.ir import IRBuilder, Module, types as ty, verify_module
from repro.ir import instructions as ins
from repro.ir.values import const_int


def fresh():
    mod = Module("v", persistency_model="strict")
    fn = mod.define_function("f", ty.VOID, [], source_file="v.c")
    return mod, fn


class TestVerifier:
    def test_clean_module_passes(self, node_module):
        mod, _ = node_module
        verify_module(mod)

    def test_empty_block_rejected(self):
        mod, fn = fresh()
        fn.add_block("entry")
        with pytest.raises(VerifierError, match="empty block"):
            verify_module(mod)

    def test_missing_terminator_rejected(self):
        mod, fn = fresh()
        block = fn.add_block("entry")
        block.append(ins.Fence())
        with pytest.raises(VerifierError, match="terminator"):
            verify_module(mod)

    def test_terminator_mid_block_rejected(self):
        mod, fn = fresh()
        block = fn.add_block("entry")
        block.append(ins.Ret())
        block.append(ins.Fence())
        block.append(ins.Ret())
        with pytest.raises(VerifierError, match="mid-block"):
            verify_module(mod)

    def test_branch_to_unknown_block_rejected(self):
        mod, fn = fresh()
        block = fn.add_block("entry")
        block.append(ins.Jmp("nowhere"))
        with pytest.raises(VerifierError, match="unknown block"):
            verify_module(mod)

    def test_use_before_def_rejected(self):
        mod, fn = fresh()
        b = IRBuilder(fn)
        later = ins.Alloca(ty.I64, "late")
        # hand-craft a use of a not-yet-appended instruction
        b.block.append(ins.Load(ty.I64, later, "v"))
        b.block.append(later)
        b.ret()
        with pytest.raises(VerifierError, match="before its definition"):
            verify_module(mod)

    def test_ret_value_in_void_function_rejected(self):
        mod, fn = fresh()
        block = fn.add_block("entry")
        block.append(ins.Ret(const_int(1)))
        with pytest.raises(VerifierError, match="void"):
            verify_module(mod)

    def test_ret_void_in_value_function_rejected(self):
        mod = Module("v", persistency_model="strict")
        fn = mod.define_function("g", ty.I64, [])
        block = fn.add_block("entry")
        block.append(ins.Ret())
        with pytest.raises(VerifierError, match="ret void"):
            verify_module(mod)

    def test_call_to_unknown_function_rejected(self):
        mod, fn = fresh()
        b = IRBuilder(fn)
        b.call("missing_fn", ret_type=ty.VOID)
        b.ret()
        with pytest.raises(VerifierError, match="unknown function"):
            verify_module(mod)

    def test_call_to_builtin_allowed(self):
        mod, fn = fresh()
        b = IRBuilder(fn)
        b.call("rand", [b.const(10)], ret_type=ty.I64)
        b.ret()
        verify_module(mod)

    def test_call_to_deepmc_name_is_unknown(self):
        # runtime hooks live in a plan beside the module, never in its IR
        mod, fn = fresh()
        b = IRBuilder(fn)
        b.call("__deepmc_fence", ret_type=ty.VOID)
        b.ret()
        with pytest.raises(VerifierError, match="unknown function"):
            verify_module(mod)

    def test_call_to_annotated_declaration_allowed(self):
        from repro.ir.annotations import EFFECT_FENCE, Effect

        mod, fn = fresh()
        mod.annotations.annotate("ext_fence", [Effect(EFFECT_FENCE)])
        b = IRBuilder(fn)
        b.call("ext_fence", ret_type=ty.VOID)
        b.ret()
        verify_module(mod)

    def test_declarations_skip_body_checks(self):
        mod = Module("v", persistency_model="strict")
        mod.define_function("ext", ty.I64, [("p", ty.PTR)])
        verify_module(mod)

    def test_conditional_branch_to_unknown_block_rejected(self):
        # both successor edges are checked, not just jmp targets
        mod, fn = fresh()
        block = fn.add_block("entry")
        fn.add_block("ok").append(ins.Ret())
        block.append(ins.Br(const_int(1), "ok", "nowhere"))
        with pytest.raises(VerifierError, match="unknown block"):
            verify_module(mod)

    def test_foreign_argument_rejected(self):
        # an Argument owned by another function is not a legal operand
        mod, fn = fresh()
        other = mod.define_function("h", ty.VOID, [("q", ty.PTR)],
                                    source_file="v.c")
        other.add_block("entry").append(ins.Ret())
        b = IRBuilder(fn)
        b.block.append(ins.Load(ty.I64, other.arg("q"), "v"))
        b.ret()
        with pytest.raises(VerifierError, match="foreign argument"):
            verify_module(mod)

    def test_unsupported_operand_rejected(self):
        # a value-shaped object that is no Constant/Instruction/Argument
        class Impostor:
            name = "fake"

            def ref(self):
                return "%fake"

        mod, fn = fresh()
        b = IRBuilder(fn)
        inst = ins.Load(ty.I64, b.const(0), "v")
        inst.operands = (Impostor(),)
        b.block.append(inst)
        b.ret()
        with pytest.raises(VerifierError, match="unsupported operand"):
            verify_module(mod)

    def test_unbalanced_tx_region_rejected(self):
        mod, fn = fresh()
        b = IRBuilder(fn)
        b.txbegin(ins.REGION_TX)
        b.ret()
        with pytest.raises(VerifierError, match="unbalanced tx regions"):
            verify_module(mod)

    def test_unbalanced_epoch_end_rejected(self):
        # a dangling end is just as unbalanced as a dangling begin
        mod, fn = fresh()
        b = IRBuilder(fn)
        b.txend(ins.REGION_EPOCH)
        b.ret()
        with pytest.raises(VerifierError,
                           match=r"unbalanced epoch regions \(delta -1\)"):
            verify_module(mod)

    def test_mismatched_region_kinds_rejected(self):
        # begin one kind, end another: both kinds go unbalanced
        mod, fn = fresh()
        b = IRBuilder(fn)
        b.txbegin(ins.REGION_STRAND)
        b.txend(ins.REGION_EPOCH)
        b.ret()
        with pytest.raises(VerifierError, match="unbalanced"):
            verify_module(mod)

    def test_region_spanning_blocks_allowed(self):
        # balance is per-function, not per-block: cross-block regions are
        # the checker's concern, not the verifier's
        mod, fn = fresh()
        entry = fn.add_block("entry")
        entry.append(ins.TxBegin(ins.REGION_TX))
        entry.append(ins.Jmp("exit"))
        exit_b = fn.add_block("exit")
        exit_b.append(ins.TxEnd(ins.REGION_TX))
        exit_b.append(ins.Ret())
        verify_module(mod)
