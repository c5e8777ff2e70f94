"""IR → register bytecode compiler.

Lowers each defined function of a verified module to a
:class:`~repro.vm.bytecode.BytecodeFunction`: every SSA value gets a
register slot, constants are materialized once into the register-file
template, struct/element offsets and callee references are resolved at
compile time, and branch targets become absolute pcs. Runtime failures
that are already decidable here (undefined callee, unbound foreign value,
unsupported cast target) lower to an ``OP_RAISE`` carrying the tree
engine's exact message — raised only if the instruction actually
executes, preserving raise-at-execution semantics. i64 ``sdiv``/``srem``
get opcodes of their own, and so does each hook of a dynamic checker's
plan (``hooks``): ``hook_write``/``hook_read``/``hook_fence`` just before
its instruction, at that instruction's ``loc``, traced as a ``call``.

Stack-slot promotion (always on): an integer ``alloca`` whose result is
used only as the pointer of unhooked loads and stores of exactly its
type keeps its value in its own register, so those accesses lower to
``load_slot``/``store_slot`` register moves that still count and charge
what the memory access does (:meth:`_FunctionCompiler._escape`).

Fusion (``fuse=True``) peepholes two adjacent-pair shapes inside a basic
block — an integer ``load`` feeding an i64 add/sub/mul/and/or/xor, and an
``icmp`` feeding the ``br`` that consumes it — into single superops that
still write every component result register and still count both
component ops. Fusion never crosses a block boundary (pairs are formed
per block, and branches can only target block starts), and any
intervening instruction — a ``txadd``, a fence, anything — breaks the
window; no hook comes before a binop or a ``br``, so none splits a pair.
Modules that ``spawn`` are always compiled unfused: the scheduler is
consulted once per IR step, and a 2-step superop would shift every
interleaving decision after it.

Compiled programs are cached on the module itself (``Module.bytecode``,
one entry per fusion variant and hook plan), so they are freed together
with it; :func:`invalidate_bytecode_cache` frees them sooner.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import IRError, VMError
from ..ir import instructions as ins
from ..ir import types as ty
from ..ir.function import Function
from ..ir.module import Module
from ..ir.values import Constant, Value
from . import builtins as bi
from .bytecode import (
    FAST_BINOPS, OP_ADD64, OP_ALLOCA, OP_ALLOCA_SLOT, OP_AND64, OP_BINOP,
    OP_BR, OP_CALL_BI, OP_CALL_FN, OP_CAST_F, OP_CAST_I, OP_CAST_P,
    OP_FENCE, OP_FLUSH, OP_FREE, OP_FUSE_ICMP_BR, OP_FUSE_LOAD_BINOP,
    OP_FUSE_SLOT_BINOP, OP_GETELEM, OP_GETFIELD, OP_HOOK_FENCE,
    OP_HOOK_READ, OP_HOOK_WRITE, OP_ICMP, OP_JMP, OP_JOIN, OP_LOAD_F,
    OP_LOAD_I, OP_LOAD_P, OP_LOAD_SLOT, OP_MALLOC, OP_MEMCPY, OP_MEMSET,
    OP_MUL64, OP_OR64, OP_PALLOC, OP_RAISE, OP_RET, OP_SDIV64, OP_SPAWN,
    OP_SREM64, OP_STORE_F, OP_STORE_I, OP_STORE_P, OP_STORE_SLOT,
    OP_SUB64, OP_TXADD, OP_TXBEGIN, OP_TXEND, OP_XOR64, BytecodeFunction,
    BytecodeProgram,
)
from .memory import NULL

_FAST_OPCODE = {
    "add": OP_ADD64, "sub": OP_SUB64, "mul": OP_MUL64,
    "and": OP_AND64, "or": OP_OR64, "xor": OP_XOR64,
    "sdiv": OP_SDIV64, "srem": OP_SREM64,
}

_ICMP_INDEX = {pred: i for i, pred in enumerate(ins.ICMP_PREDS)}

#: stack slot width in bits -> the [lo, hi] that a store and a load of the
#: slot's bytes wrap a value into: the bytes read back signed, except an
#: i1's, which is one unsigned byte
_SLOT_RANGE = {
    1: (0, (1 << 8) - 1),
    8: (-(1 << 7), (1 << 7) - 1),
    16: (-(1 << 15), (1 << 15) - 1),
    32: (-(1 << 31), (1 << 31) - 1),
    64: (-(1 << 63), (1 << 63) - 1),
}


def module_has_spawn(module: Module) -> bool:
    return any(
        isinstance(inst, ins.Spawn)
        for fn in module.defined_functions()
        for inst in fn.instructions()
    )


def invalidate_bytecode_cache(module: Module) -> None:
    """Free every cached program of a module."""
    module.bytecode.clear()


def compile_module(module: Module, fuse: bool = True,
                   hooks: Any = None) -> BytecodeProgram:
    """Compile (or fetch from cache) one fusion variant of a module, with
    the hooks of a ``HookPlan`` when one is given."""
    has_spawn = module_has_spawn(module)
    if has_spawn:
        fuse = False  # scheduler-consultation parity, see module docstring
    key = fuse if hooks is None else (fuse, hooks)
    program = module.bytecode.get(key)
    if program is None:
        program = module.bytecode[key] = _compile(
            module, fuse, has_spawn, hooks.hooks if hooks else {})
    return program


def _compile(module: Module, fuse: bool, has_spawn: bool,
             hooks: Dict[ins.Instruction, Any]) -> BytecodeProgram:
    defined = module.defined_functions()
    # Shells first so call_fn operands can reference forward callees.
    fns = {fn.name: BytecodeFunction(fn.name, fn) for fn in defined}
    for fn in defined:
        _FunctionCompiler(module, fn, fns, fuse,
                          hooks).compile_into(fns[fn.name])
    return BytecodeProgram(module, fns, fused=fuse, has_spawn=has_spawn)


class _FunctionCompiler:
    def __init__(self, module: Module, fn: Function,
                 fns: Dict[str, BytecodeFunction], fuse: bool,
                 hooks: Dict[ins.Instruction, Any]):
        self.module = module
        self.fn = fn
        self.fns = fns
        self.fuse = fuse
        self.hooks = hooks
        self._slots: Dict[int, int] = {}
        self._names: Dict[int, str] = {}
        self._consts: List[Tuple[int, Any]] = []
        self._nslots = 0
        self.code: List[List[Any]] = []
        self.locs: List[Any] = []
        self.trace_ops: List[str] = []
        #: (pc, field index) entries whose label string becomes a pc
        self._label_fixups: List[Tuple[int, int]] = []
        self.fused_pairs = 0
        #: id(alloca) -> (register, integer type) of each stack slot still
        #: promoted; its register is not in ``_slots``
        self._stack_slots: Dict[int, Tuple[int, ty.IntType]] = {}

    # -- slots --------------------------------------------------------------
    def _new_slot(self, value: Value, name: str) -> int:
        slot = self._nslots
        self._nslots += 1
        self._slots[id(value)] = slot
        self._names[slot] = name
        return slot

    def resolve(self, value: Value) -> Optional[int]:
        """Slot for an operand; None when the value has no binding here."""
        slot = self._slots.get(id(value))
        if slot is not None:
            return slot
        if isinstance(value, Constant):
            slot = self._new_slot(value, f"const:{value.value!r}")
            if value.value is None:
                resolved: Any = NULL
            elif value.value == "undef":
                resolved = 0
            else:
                resolved = value.value
            self._consts.append((slot, resolved))
            return slot
        if id(value) in self._stack_slots:
            return self._escape(value)
        return None

    # -- stack slots ----------------------------------------------------------
    def _stack_slot(self, ptr: Value, type_: ty.Type) -> Optional[int]:
        """For an access of ``type_`` through ``ptr``, a promoted slot's
        alloca: the slot's register, or None when an access of another
        type makes the slot escape."""
        reg, slot_type = self._stack_slots[id(ptr)]
        if type_ is slot_type or (type_.__class__ is ty.IntType
                                  and type_.bits == slot_type.bits):
            return reg
        self._escape(ptr)
        return None

    def _escape(self, alloca: Value) -> int:
        """Put a promoted slot back on the memory path.

        A slot stays promoted while every use of its alloca is the
        pointer of a load or store of its own type with no planned hook.
        Any other use resolves the alloca through :meth:`resolve` (a hook
        resolves its access's pointer too), which lands here: the slot
        ops already emitted for it (the ones naming its register) become
        the memory ops they stand for, and from now on the register holds
        the alloca's pointer.
        """
        reg, slot_type = self._stack_slots.pop(id(alloca))
        self._slots[id(alloca)] = reg
        size = slot_type.size()
        signed = slot_type.bits > 1
        code = self.code
        for pc, t in enumerate(code):
            op = t[0]
            if op == OP_ALLOCA_SLOT and t[1] == reg:
                t[0] = OP_ALLOCA
            elif op == OP_LOAD_SLOT and t[2] == reg:
                code[pc] = [OP_LOAD_I, t[1], reg, size, signed]
            elif op == OP_STORE_SLOT and t[2] == reg:
                code[pc] = [OP_STORE_I, t[1], reg, size]
            elif op == OP_FUSE_SLOT_BINOP and t[2] == reg:
                code[pc] = [OP_FUSE_LOAD_BINOP, t[1], reg, size,
                            signed] + t[3:]
        return reg

    def _unbound_raise(self, value: Value) -> List[Any]:
        return [OP_RAISE, VMError,
                f"value %{value.name} has no runtime binding "
                f"in @{self.fn.name}"]

    def _operands(self, inst: ins.Instruction,
                  values: Sequence[Value]) -> Optional[List[int]]:
        """Resolve operands in the tree engine's evaluation order.

        Returns slots, or None after queueing an ``OP_RAISE`` replacement
        for the first unbound operand (foreign argument / foreign
        instruction — the tree engine fails these at ``_eval`` time).
        """
        slots = []
        for value in values:
            slot = self.resolve(value)
            if slot is None:
                self._pending_raise = self._unbound_raise(value)
                return None
            slots.append(slot)
        return slots

    # -- emission -----------------------------------------------------------
    def _emit(self, inst: ins.Instruction, t: List[Any],
              trace_op: str = "") -> None:
        self.code.append(t)
        self.locs.append(inst.loc)
        self.trace_ops.append(trace_op or inst.__class__.__name__.lower())

    def compile_into(self, out: BytecodeFunction) -> None:
        fn = self.fn
        for arg in fn.args:
            out.arg_slots.append(self._new_slot(arg, f"%{arg.name}"))
        # Pre-assign every result register so operands can reference
        # instructions from any block (defs in not-yet-emitted blocks
        # included — the tree engine's regs dict is also function-wide).
        # An integer alloca starts out a promoted stack slot (see _escape).
        alloca, int_type = ins.Alloca, ty.IntType
        for inst in fn.instructions():
            if inst.has_result():
                reg = self._new_slot(inst, f"%{inst.name}")
                if (inst.__class__ is alloca
                        and inst.alloc_type.__class__ is int_type):
                    del self._slots[id(inst)]
                    self._stack_slots[id(inst)] = (reg, inst.alloc_type)
        for block in fn.blocks:
            out.block_starts[block.label] = len(self.code)
            self._compile_block(block)
        # Patch label operands into absolute pcs.
        for pc, field in self._label_fixups:
            if self.code[pc][0] == OP_RAISE:
                continue  # an earlier fixup already replaced this br
            label = self.code[pc][field]
            target = out.block_starts.get(label)
            if target is None:
                # The tree engine fails this lookup only when the branch
                # executes; keep that by replacing the whole instruction.
                self.code[pc] = [OP_RAISE, IRError,
                                 f"no block %{label} in @{fn.name}"]
            else:
                self.code[pc][field] = target
        out.code = [tuple(t) for t in self.code]
        out.locs = self.locs
        out.trace_ops = self.trace_ops
        out.nregs = self._nslots
        out.reg_init = [None] * self._nslots
        for slot, value in self._consts:
            out.reg_init[slot] = value
        out.slot_names = self._names
        out.fused_pairs = self.fused_pairs

    def _compile_block(self, block) -> None:
        insts = block.instructions
        i = 0
        n = len(insts)
        while i < n:
            inst = insts[i]
            hook = self.hooks.get(inst)
            if hook is not None:
                self._emit(inst, self._lower_hook(inst, hook), "call")
            nxt = insts[i + 1] if i + 1 < n else None
            if self.fuse and nxt is not None:
                fused = self._try_fuse(inst, nxt)
                if fused is not None:
                    self._emit(inst, fused)
                    self.fused_pairs += 1
                    i += 2
                    continue
            self._pending_raise: Optional[List[Any]] = None
            t = self._lower(inst)
            if t is None:
                t = self._pending_raise
                assert t is not None
            self._emit(inst, t)
            i += 1

    # -- fusion -------------------------------------------------------------
    def _try_fuse(self, inst: ins.Instruction,
                  nxt: ins.Instruction) -> Optional[List[Any]]:
        if (isinstance(inst, ins.Load) and isinstance(inst.type, ty.IntType)
                and isinstance(nxt, ins.BinOp)
                and isinstance(nxt.type, ty.IntType) and nxt.type.bits == 64
                and nxt.op in FAST_BINOPS
                and (nxt.lhs is inst) != (nxt.rhs is inst)):
            ptr_value = inst.operands[0]
            reg = (self._stack_slot(ptr_value, inst.type)
                   if id(ptr_value) in self._stack_slots else None)
            ptr = reg if reg is not None else self.resolve(ptr_value)
            other = self.resolve(nxt.rhs if nxt.lhs is inst else nxt.lhs)
            if ptr is None or other is None:
                return None
            swapped = nxt.rhs is inst  # loaded value is the rhs operand
            # (resolving the other operand may have made the slot escape)
            if reg is not None and id(ptr_value) in self._stack_slots:
                return [OP_FUSE_SLOT_BINOP, self._slots[id(inst)], reg,
                        FAST_BINOPS[nxt.op], self._slots[id(nxt)], other,
                        swapped, nxt.op, nxt.type, nxt.loc]
            return [OP_FUSE_LOAD_BINOP, self._slots[id(inst)], ptr,
                    inst.type.size(), inst.type.bits > 1,
                    FAST_BINOPS[nxt.op], self._slots[id(nxt)], other,
                    swapped, nxt.op, nxt.type, nxt.loc]
        if (isinstance(inst, ins.ICmp) and isinstance(nxt, ins.Br)
                and nxt.cond is inst):
            a = self.resolve(inst.lhs)
            b = self.resolve(inst.rhs)
            if a is None or b is None:
                return None
            pc = len(self.code)
            self._label_fixups.append((pc, 5))
            self._label_fixups.append((pc, 6))
            return [OP_FUSE_ICMP_BR, self._slots[id(inst)],
                    _ICMP_INDEX[inst.pred], a, b,
                    nxt.then_label, nxt.else_label]
        return None

    # -- per-instruction lowering -------------------------------------------
    def _lower_hook(self, inst: ins.Instruction, hook: Any) -> List[Any]:
        """A planned hook; an unbound pointer raises when it runs."""
        if hook.kind == "fence":
            return [OP_HOOK_FENCE]
        ops = self._operands(inst, (hook.ptr, hook.size))
        if ops is None:
            return self._pending_raise
        return [OP_HOOK_WRITE if hook.kind == "write" else OP_HOOK_READ,
                ops[0], ops[1], inst.loc]

    def _lower(self, inst: ins.Instruction) -> Optional[List[Any]]:
        slots = self._slots

        if isinstance(inst, ins.Store):
            value, ptr = inst.operands
            type_ = value.type
            ops = self._operands(inst, (value,))
            if ops is None:
                return None
            v = ops[0]
            if id(ptr) in self._stack_slots:
                reg = self._stack_slot(ptr, type_)
                if reg is not None:
                    lo, hi = _SLOT_RANGE[type_.bits]
                    return [OP_STORE_SLOT, v, reg, lo, hi]
            ops = self._operands(inst, (ptr,))
            if ops is None:
                return None
            p = ops[0]
            if isinstance(type_, ty.IntType):
                return [OP_STORE_I, v, p, type_.size()]
            if isinstance(type_, ty.FloatType):
                return [OP_STORE_F, v, p]
            return [OP_STORE_P, v, p, type_, type_.size()]

        if isinstance(inst, ins.Load):
            dst = slots[id(inst)]
            type_ = inst.type
            ptr = inst.operands[0]
            if id(ptr) in self._stack_slots:
                reg = self._stack_slot(ptr, type_)
                if reg is not None:
                    return [OP_LOAD_SLOT, dst, reg]
            ops = self._operands(inst, (ptr,))
            if ops is None:
                return None
            if isinstance(type_, ty.IntType):
                return [OP_LOAD_I, dst, ops[0], type_.size(),
                        type_.bits > 1]
            if isinstance(type_, ty.FloatType):
                return [OP_LOAD_F, dst, ops[0]]
            return [OP_LOAD_P, dst, ops[0], type_, type_.size()]

        if isinstance(inst, ins.BinOp):
            ops = self._operands(inst, (inst.lhs, inst.rhs))
            if ops is None:
                return None
            dst = slots[id(inst)]
            type_ = inst.type
            if (isinstance(type_, ty.IntType) and type_.bits == 64
                    and inst.op in _FAST_OPCODE):
                return [_FAST_OPCODE[inst.op], dst, ops[0], ops[1],
                        inst.op, type_, inst.loc]
            return [OP_BINOP, dst, ops[0], ops[1], inst.op, type_, inst.loc]

        if isinstance(inst, ins.ICmp):
            ops = self._operands(inst, (inst.lhs, inst.rhs))
            if ops is None:
                return None
            return [OP_ICMP, slots[id(inst)], _ICMP_INDEX[inst.pred],
                    ops[0], ops[1]]

        if isinstance(inst, ins.Cast):
            ops = self._operands(inst, (inst.value,))
            if ops is None:
                return None
            dst = slots[id(inst)]
            to = inst.type
            if isinstance(to, ty.PointerType):
                return [OP_CAST_P, dst, ops[0]]
            if isinstance(to, ty.IntType):
                return [OP_CAST_I, dst, ops[0], to.bits]
            if isinstance(to, ty.FloatType):
                return [OP_CAST_F, dst, ops[0]]
            return [OP_RAISE, VMError, f"unsupported cast target {to}"]

        if isinstance(inst, ins.GetField):
            ops = self._operands(inst, (inst.ptr,))
            if ops is None:
                return None
            return [OP_GETFIELD, slots[id(inst)], ops[0],
                    inst.struct.field_offset(inst.index)]

        if isinstance(inst, ins.GetElem):
            ops = self._operands(inst, (inst.ptr, inst.index))
            if ops is None:
                return None
            pointee = inst.type.pointee
            assert pointee is not None
            return [OP_GETELEM, slots[id(inst)], ops[0], ops[1],
                    pointee.size()]

        if isinstance(inst, ins.Alloca):
            if id(inst) in self._stack_slots:
                return [OP_ALLOCA_SLOT, self._stack_slots[id(inst)][0],
                        inst.alloc_type.size(), inst.alloc_type,
                        f"alloca:{inst.name}"]
            return [OP_ALLOCA, slots[id(inst)], inst.alloc_type.size(),
                    inst.alloc_type, f"alloca:{inst.name}"]

        if isinstance(inst, ins.Malloc):
            ops = self._operands(inst, (inst.count,))
            if ops is None:
                return None
            return [OP_MALLOC, slots[id(inst)], ops[0],
                    inst.alloc_type.size(), inst.alloc_type,
                    f"malloc:{inst.name}"]

        if isinstance(inst, ins.PAlloc):
            ops = self._operands(inst, (inst.count,))
            if ops is None:
                return None
            return [OP_PALLOC, slots[id(inst)], ops[0],
                    inst.alloc_type.size(), inst.alloc_type,
                    f"palloc:{inst.name}"]

        if isinstance(inst, ins.Free):
            ops = self._operands(inst, (inst.ptr,))
            if ops is None:
                return None
            return [OP_FREE, ops[0]]

        if isinstance(inst, ins.Memcpy):
            ops = self._operands(inst, (inst.dst, inst.src, inst.size))
            if ops is None:
                return None
            return [OP_MEMCPY, ops[0], ops[1], ops[2]]

        if isinstance(inst, ins.Memset):
            ops = self._operands(inst, (inst.dst, inst.byte, inst.size))
            if ops is None:
                return None
            return [OP_MEMSET, ops[0], ops[1], ops[2]]

        if isinstance(inst, ins.Flush):
            ops = self._operands(inst, (inst.ptr, inst.size))
            if ops is None:
                return None
            return [OP_FLUSH, ops[0], ops[1]]

        if isinstance(inst, ins.Fence):
            return [OP_FENCE]

        if isinstance(inst, ins.TxBegin):
            return [OP_TXBEGIN, inst.kind, inst.label]

        if isinstance(inst, ins.TxEnd):
            return [OP_TXEND, inst.kind]

        if isinstance(inst, ins.TxAdd):
            ops = self._operands(inst, (inst.ptr, inst.size))
            if ops is None:
                return None
            return [OP_TXADD, ops[0], ops[1], inst.loc]

        if isinstance(inst, ins.Call):
            # Args are evaluated before callee resolution in the tree
            # engine, so an unbound argument outranks an unknown callee.
            ops = self._operands(inst, inst.args)
            if ops is None:
                return None
            dst = slots[id(inst)] if inst.has_result() else -1
            name = inst.callee
            if bi.is_builtin(name):
                return [OP_CALL_BI, dst, bi.get_builtin(name),
                        tuple(ops), name]
            callee = self.module.get_function(name)
            if callee is None or callee.is_declaration():
                return [OP_RAISE, VMError,
                        f"call to undefined function @{name}"]
            if len(inst.args) != len(callee.args):
                return [OP_RAISE, VMError,
                        f"@{name} expects {len(callee.args)} args, "
                        f"got {len(inst.args)}"]
            return [OP_CALL_FN, dst, self.fns[name], tuple(ops)]

        if isinstance(inst, ins.Spawn):
            # The tree engine resolves the callee before evaluating args.
            callee = self.module.get_function(inst.callee)
            if callee is None:
                return [OP_RAISE, IRError,
                        f"no function @{inst.callee} in module "
                        f"{self.module.name!r}"]
            if callee.is_declaration():
                return [OP_RAISE, IRError,
                        f"@{callee.name} is a declaration; it has no "
                        f"entry block"]
            ops = self._operands(inst, inst.args)
            if ops is None:
                return None
            return [OP_SPAWN, slots[id(inst)], callee, tuple(ops)]

        if isinstance(inst, ins.Join):
            ops = self._operands(inst, (inst.thread,))
            if ops is None:
                return None
            return [OP_JOIN, ops[0]]

        if isinstance(inst, ins.Br):
            ops = self._operands(inst, (inst.cond,))
            if ops is None:
                return None
            pc = len(self.code)
            self._label_fixups.append((pc, 2))
            self._label_fixups.append((pc, 3))
            return [OP_BR, ops[0], inst.then_label, inst.else_label]

        if isinstance(inst, ins.Jmp):
            pc = len(self.code)
            self._label_fixups.append((pc, 1))
            return [OP_JMP, inst.target]

        if isinstance(inst, ins.Ret):
            if inst.value is None:
                return [OP_RET, -1]
            ops = self._operands(inst, (inst.value,))
            if ops is None:
                return None
            return [OP_RET, ops[0]]

        return [OP_RAISE, VMError, f"cannot execute {inst.format()}"]
