"""Register bytecode for the NVM IR: opcodes, compiled functions, and the
flat dispatch loop.

The tree-walking interpreter (:mod:`repro.vm.interpreter`) re-derives per
instruction, on every execution, facts that never change: which register a
value lives in, whether an operand is a constant, which callee a ``call``
resolves to, what a struct field's byte offset is. The bytecode engine
moves all of that to compile time (:mod:`repro.vm.compile`) and executes a
flat list of operand-resolved tuples in a single dispatch loop with the
interpreter state held in locals.

Semantics are the *tree engine's*, observable-event for observable-event:
the persist-event stream, NVM stats, telemetry counters, crash images,
scheduler consultations, and error messages must match (docs/VM.md states
the full equivalence contract; ``tests/vm/test_engine_differential.py``
enforces it). The one documented divergence: the step budget is checked at
bytecode-instruction granularity, so a run that exhausts ``max_steps``
inside a fused pair may execute one extra component before raising.

The opcode table below (:data:`OPSPECS`) is the single source of truth for
the generated instruction reference in docs/VM.md (:mod:`repro.vm.docgen`)
and for the profiler's component-op accounting: a fused pair still counts
both component IR ops in ``vm.op.*``, which is what keeps PR 6's
across-engines counter determinism intact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import CrashInjected, VMError
from ..ir import types as ty
from ..ir.function import Function
from .interpreter import Interpreter, Thread, TxRecord
from .memory import Pointer

# ---------------------------------------------------------------------------
# Opcode registry (drives dispatch, disassembly, docs/VM.md, and profiling)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OpSpec:
    """Static description of one bytecode opcode."""

    code: int
    name: str
    #: operand layout after the opcode, for docs/disassembly
    operands: str
    #: IR opcode names this op executes (what ``vm.op.*`` counts)
    components: Tuple[str, ...]
    #: ``persist.*`` event kinds executing this op may emit
    events: Tuple[str, ...]
    #: "", "head", "tail" (fusion-eligible position) or "fused"
    fusion: str
    doc: str


OPSPECS: List[OpSpec] = []


def _op(name: str, operands: str, components: Sequence[str],
        events: Sequence[str] = (), fusion: str = "", doc: str = "") -> int:
    code = len(OPSPECS)
    OPSPECS.append(OpSpec(code, name, operands, tuple(components),
                          tuple(events), fusion, doc))
    return code


OP_LOAD_I = _op(
    "load_i", "dst, ptr, size, signed", ["load"], ["persist.load-count"],
    fusion="head",
    doc="Load a sized integer through ptr; counts a persistent load when "
        "the target allocation is persistent.")
OP_LOAD_P = _op(
    "load_p", "dst, ptr, type, size", ["load"], ["persist.load-count"],
    doc="Load a pointer through ptr. Any other type reaching it (an "
        "aggregate) goes to the typed-memory layer, which refuses it.")
OP_LOAD_F = _op(
    "load_f", "dst, ptr", ["load"], ["persist.load-count"],
    doc="Load an f64 through ptr.")
OP_STORE_I = _op(
    "store_i", "val, ptr, size", ["store"], ["persist.store"],
    doc="Store a sized integer; dirties covered cachelines when the target "
        "is persistent and emits one persist.store event.")
OP_STORE_P = _op(
    "store_p", "val, ptr, type, size", ["store"], ["persist.store"],
    doc="Store a pointer, encoded into 8 bytes. A None or non-pointer "
        "value, or an aggregate type, goes to the typed-memory layer.")
OP_STORE_F = _op(
    "store_f", "val, ptr", ["store"], ["persist.store"],
    doc="Store an f64.")
OP_ADD64 = _op(
    "add64", "dst, a, b", ["binop"], fusion="tail",
    doc="Wrapping signed 64-bit add; falls back to the generic binop path "
        "for non-int operands.")
OP_SUB64 = _op("sub64", "dst, a, b", ["binop"], fusion="tail",
               doc="Wrapping signed 64-bit subtract.")
OP_MUL64 = _op("mul64", "dst, a, b", ["binop"], fusion="tail",
               doc="Wrapping signed 64-bit multiply.")
OP_AND64 = _op("and64", "dst, a, b", ["binop"], fusion="tail",
               doc="64-bit bitwise and.")
OP_OR64 = _op("or64", "dst, a, b", ["binop"], fusion="tail",
              doc="64-bit bitwise or.")
OP_XOR64 = _op("xor64", "dst, a, b", ["binop"], fusion="tail",
               doc="64-bit bitwise xor.")
OP_SDIV64 = _op(
    "sdiv64", "dst, a, b", ["binop"],
    doc="Signed 64-bit division truncating toward zero, wrapping; a "
        "non-int operand or a zero divisor takes the generic binop path, "
        "which raises.")
OP_SREM64 = _op(
    "srem64", "dst, a, b", ["binop"],
    doc="Signed 64-bit remainder with the dividend's sign; a non-int "
        "operand or a zero divisor takes the generic binop path, which "
        "raises.")
OP_BINOP = _op(
    "binop", "dst, a, b, op, type", ["binop"],
    doc="Generic binary op (shl/lshr and all non-i64 widths), with the "
        "tree engine's exact wrap and error semantics.")
OP_ICMP = _op(
    "icmp", "dst, pred, a, b", ["icmp"], fusion="head",
    doc="Integer/pointer comparison producing i1 (pointers compare by "
        "their encoded form).")
OP_CAST_I = _op("cast_i", "dst, src, bits", ["cast"],
                doc="Cast to an integer width (pointers encode first).")
OP_CAST_P = _op("cast_p", "dst, src", ["cast"],
                doc="Cast to pointer (ints decode).")
OP_CAST_F = _op("cast_f", "dst, src", ["cast"], doc="Cast to f64.")
OP_GETFIELD = _op(
    "getfield", "dst, ptr, offset", ["getfield"],
    doc="Struct field address: ptr + precomputed field offset.")
OP_GETELEM = _op(
    "getelem", "dst, ptr, idx, esize", ["getelem"],
    doc="Element address: ptr + idx * precomputed element size.")
OP_ALLOCA = _op("alloca", "dst, size, type, label", ["alloca"],
                doc="Stack allocation, freed when the frame returns.")
OP_MALLOC = _op("malloc", "dst, count, esize, type, label", ["malloc"],
                doc="Volatile heap allocation of count elements.")
OP_PALLOC = _op(
    "palloc", "dst, count, esize, type, label", ["palloc"],
    ["persist.palloc"],
    doc="Persistent heap allocation, registered with the persist domain.")
OP_FREE = _op("free", "ptr", ["free"], ["persist.pfree"],
              doc="Free a heap allocation (emits persist.pfree when "
                  "persistent).")
OP_MEMCPY = _op("memcpy", "dst, src, size", ["memcpy"], ["persist.store"],
                doc="Byte copy; one store event when the destination is "
                    "persistent.")
OP_MEMSET = _op("memset", "dst, byte, size", ["memset"], ["persist.store"],
                doc="Byte fill; one store event when the destination is "
                    "persistent.")
OP_FLUSH = _op(
    "flush", "ptr, size", ["flush"], ["persist.flush"],
    doc="clwb-like write-back initiation of all covered cachelines.")
OP_FENCE = _op(
    "fence", "", ["fence"],
    ["persist.fence", "persist.evict", "persist.drop", "persist.torn"],
    doc="sfence-like barrier: drains the pending flush set to the device.")
OP_TXBEGIN = _op("txbegin", "kind, label", ["txbegin"], ["persist.txbegin"],
                 doc="Enter a durable-tx / epoch / strand region.")
OP_TXEND = _op(
    "txend", "kind", ["txend"],
    ["persist.flush", "persist.fence", "persist.txend"],
    doc="Leave the innermost region of kind; a durable tx commits "
        "(flush logged ranges + fence) before the txend event.")
OP_TXADD = _op("txadd", "ptr, size", ["txadd"], ["persist.txadd"],
               doc="Undo-log a range into the enclosing durable tx.")
OP_CALL_FN = _op(
    "call_fn", "dst, fn, args", ["call"],
    doc="Call a module function resolved at compile time to its compiled "
        "body; pushes a frame.")
OP_CALL_BI = _op("call_bi", "dst, builtin, args", ["call"],
                 doc="Call a pre-bound host builtin.")
OP_CALL_RT = _op(
    "call_rt", "inst, args", ["call"],
    doc="Dispatch any other __deepmc_* call by name to the attached "
        "dynamic runtime's handle() (no-op when none is attached).")
OP_HOOK_WRITE = _op(
    "hook_write", "ptr, size, loc", ["call"],
    doc="A two-argument __deepmc_write: calls the attached runtime's "
        "on_write directly (no-op when none is attached).")
OP_HOOK_READ = _op(
    "hook_read", "ptr, size, loc", ["call"],
    doc="A two-argument __deepmc_read: calls the attached runtime's "
        "on_read directly (no-op when none is attached).")
OP_HOOK_FENCE = _op(
    "hook_fence", "", ["call"],
    doc="An argument-less __deepmc_fence: calls the attached runtime's "
        "on_fence directly (no-op when none is attached).")
OP_SPAWN = _op("spawn", "dst, fn, args", ["spawn"],
               doc="Start a new interpreter thread; yields to the "
                   "scheduler loop.")
OP_JOIN = _op("join", "thread", ["join"],
              doc="Block until the target thread finishes (re-executed "
                  "while blocked, burning a step per retry like the tree "
                  "engine).")
OP_BR = _op("br", "cond, then_pc, else_pc", ["br"],
            doc="Conditional branch to pre-resolved pcs.")
OP_JMP = _op("jmp", "pc", ["jmp"], doc="Unconditional branch.")
OP_RET = _op("ret", "val", ["ret"],
             doc="Return: frees frame allocas, pops the frame, writes the "
                 "caller's destination register.")
OP_RAISE = _op(
    "raise", "exc, message", [],
    doc="Raise a pre-formatted error when executed — compile-time-known "
        "failures (undefined callee, arity mismatch, unbound value, "
        "unsupported cast) keep the tree engine's raise-at-execution "
        "semantics and messages.")
OP_FUSE_LOAD_BINOP = _op(
    "fuse_load_binop", "ldst, ptr, size, signed, kind, dst, other, swapped",
    ["load", "binop"], ["persist.load-count"], fusion="fused",
    doc="Fused integer load + i64 binop (add/sub/mul/and/or/xor). Writes "
        "both result registers, counts both component ops, and charges "
        "both instruction costs; 2 steps.")
OP_FUSE_ICMP_BR = _op(
    "fuse_icmp_br", "cdst, pred, a, b, then_pc, else_pc",
    ["icmp", "br"], fusion="fused",
    doc="Fused comparison + conditional branch. Writes the i1 result "
        "register, then branches; counts both component ops; 2 steps.")

NOPCODES = len(OPSPECS)

#: fast binop kinds shared by the standalone i64 opcodes and the fused pair
FAST_BINOPS: Dict[str, int] = {
    "add": 0, "sub": 1, "mul": 2, "and": 3, "or": 4, "xor": 5,
}

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1
_U64 = (1 << 64) - 1


def _wrap64(r: int) -> int:
    r &= _U64
    return r - (1 << 64) if r >= 1 << 63 else r


def binop_values(op: str, a: Any, b: Any, type_: Any, loc: Any) -> Any:
    """The tree engine's ``_binop`` over raw values (shared slow path)."""
    if isinstance(a, Pointer) or isinstance(b, Pointer):
        raise VMError(f"arithmetic on pointers at {loc}; cast first")
    if op == "add":
        r = a + b
    elif op == "sub":
        r = a - b
    elif op == "mul":
        r = a * b
    elif op == "sdiv":
        if b == 0:
            raise VMError(f"division by zero at {loc}")
        # C truncates toward zero; floor division agrees when the
        # signs match, and integers stay exact past 2**53
        r = a // b if (a < 0) == (b < 0) else -(abs(a) // abs(b))
    elif op == "srem":
        if b == 0:
            raise VMError(f"remainder by zero at {loc}")
        r = a - (a // b if (a < 0) == (b < 0) else -(abs(a) // abs(b))) * b
    elif op == "and":
        r = a & b
    elif op == "or":
        r = a | b
    elif op == "xor":
        r = a ^ b
    elif op == "shl":
        r = a << (b & 63)
    elif op == "lshr":
        mask = (1 << type_.size() * 8) - 1
        r = (a & mask) >> (b & 63)
    else:  # pragma: no cover - compile rejects unknown ops
        raise VMError(f"unknown binop {op}")
    if isinstance(type_, ty.IntType):
        bits = type_.bits
        r &= (1 << bits) - 1
        if bits > 1 and r >= 1 << (bits - 1):
            r -= 1 << bits
    return r


# ---------------------------------------------------------------------------
# Compiled containers
# ---------------------------------------------------------------------------


class BytecodeFunction:
    """One compiled function: flat code plus everything resolved early."""

    __slots__ = ("name", "ir_fn", "code", "locs", "trace_ops", "reg_init",
                 "arg_slots", "nregs", "slot_names", "block_starts",
                 "fused_pairs")

    def __init__(self, name: str, ir_fn: Function):
        self.name = name
        self.ir_fn = ir_fn
        #: flat instruction tuples, ``code[pc][0]`` is the opcode
        self.code: List[tuple] = []
        #: source location per pc (crash-point matching, vm.inst tracing)
        self.locs: List[Any] = []
        #: tree-engine op name per pc (``vm.inst`` event parity)
        self.trace_ops: List[str] = []
        #: register-file template: constants prefilled, the rest None
        self.reg_init: List[Any] = []
        #: register slot of each formal argument, in order
        self.arg_slots: List[int] = []
        self.nregs = 0
        #: slot -> stable display name for disassembly
        self.slot_names: Dict[int, str] = {}
        #: block label -> starting pc
        self.block_starts: Dict[str, int] = {}
        self.fused_pairs = 0

    def disassemble(self) -> str:
        lines = [f"@{self.name} (regs={self.nregs}, "
                 f"args=[{', '.join(f'r{s}' for s in self.arg_slots)}], "
                 f"fused_pairs={self.fused_pairs})"]
        consts = [(slot, v) for slot, v in enumerate(self.reg_init)
                  if v is not None and slot not in self.arg_slots]
        if consts:
            lines.append("  consts: " + ", ".join(
                f"r{slot}={v}" for slot, v in consts))
        starts = {pc: label for label, pc in self.block_starts.items()}
        for pc, t in enumerate(self.code):
            if pc in starts:
                lines.append(f"  %{starts[pc]}:")
            lines.append(f"  {pc:4d}  {format_instruction(t)}")
        return "\n".join(lines)


class BytecodeProgram:
    """All compiled functions of one module, one fusion variant."""

    __slots__ = ("module", "fns", "fused", "has_spawn")

    def __init__(self, module, fns: Dict[str, BytecodeFunction],
                 fused: bool, has_spawn: bool):
        self.module = module
        self.fns = fns
        self.fused = fused
        self.has_spawn = has_spawn

    def fused_pairs(self) -> int:
        return sum(f.fused_pairs for f in self.fns.values())

    def disassemble(self) -> str:
        head = (f"; module {self.module.name} — bytecode "
                f"({'fused' if self.fused else 'plain'}, "
                f"{len(self.fns)} function(s), "
                f"{self.fused_pairs()} fused pair(s))")
        parts = [head]
        parts += [self.fns[name].disassemble() for name in sorted(self.fns)]
        return "\n\n".join(parts) + "\n"


def _r(slot: int) -> str:
    return f"r{slot}" if slot >= 0 else "_"


def format_instruction(t: tuple) -> str:
    """Stable one-line rendering of one instruction tuple."""
    op = t[0]
    name = OPSPECS[op].name.ljust(15)
    if op in (OP_LOAD_I,):
        return f"{name} {_r(t[1])} <- *{_r(t[2])} size={t[3]}" + \
            (" signed" if t[4] else " unsigned")
    if op == OP_LOAD_P:
        return f"{name} {_r(t[1])} <- *{_r(t[2])} type={t[3]}"
    if op == OP_LOAD_F:
        return f"{name} {_r(t[1])} <- *{_r(t[2])}"
    if op == OP_STORE_I:
        return f"{name} *{_r(t[2])} <- {_r(t[1])} size={t[3]}"
    if op == OP_STORE_P:
        return f"{name} *{_r(t[2])} <- {_r(t[1])} type={t[3]}"
    if op == OP_STORE_F:
        return f"{name} *{_r(t[2])} <- {_r(t[1])}"
    if op in (OP_ADD64, OP_SUB64, OP_MUL64, OP_AND64, OP_OR64, OP_XOR64,
              OP_SDIV64, OP_SREM64):
        return f"{name} {_r(t[1])} <- {_r(t[2])}, {_r(t[3])}"
    if op == OP_BINOP:
        return f"{name} {_r(t[1])} <- {t[4]} {t[5]} {_r(t[2])}, {_r(t[3])}"
    if op == OP_ICMP:
        from ..ir.instructions import ICMP_PREDS
        return f"{name} {_r(t[1])} <- {ICMP_PREDS[t[2]]} {_r(t[3])}, {_r(t[4])}"
    if op == OP_CAST_I:
        return f"{name} {_r(t[1])} <- {_r(t[2])} to i{t[3]}"
    if op in (OP_CAST_P, OP_CAST_F):
        return f"{name} {_r(t[1])} <- {_r(t[2])}"
    if op == OP_GETFIELD:
        return f"{name} {_r(t[1])} <- {_r(t[2])} + {t[3]}"
    if op == OP_GETELEM:
        return f"{name} {_r(t[1])} <- {_r(t[2])} + {_r(t[3])} * {t[4]}"
    if op == OP_ALLOCA:
        return f"{name} {_r(t[1])} <- {t[3]} ({t[2]} bytes)"
    if op in (OP_MALLOC, OP_PALLOC):
        return f"{name} {_r(t[1])} <- {t[4]} x {_r(t[2])} ({t[3]} bytes/elem)"
    if op == OP_FREE:
        return f"{name} {_r(t[1])}"
    if op in (OP_MEMCPY, OP_MEMSET):
        return f"{name} {_r(t[1])}, {_r(t[2])}, {_r(t[3])}"
    if op == OP_FLUSH:
        return f"{name} {_r(t[1])}, {_r(t[2])}"
    if op == OP_FENCE:
        return name.rstrip()
    if op == OP_TXBEGIN:
        label = f' "{t[2]}"' if t[2] else ""
        return f"{name} {t[1]}{label}"
    if op == OP_TXEND:
        return f"{name} {t[1]}"
    if op == OP_TXADD:
        return f"{name} {_r(t[1])}, {_r(t[2])}"
    if op == OP_CALL_FN:
        args = ", ".join(_r(a) for a in t[3])
        return f"{name} {_r(t[1])} <- @{t[2].name}({args})"
    if op == OP_CALL_BI:
        args = ", ".join(_r(a) for a in t[3])
        return f"{name} {_r(t[1])} <- @{t[4]}({args})"
    if op == OP_CALL_RT:
        args = ", ".join(_r(a) for a in t[2])
        return f"{name} @{t[1].callee}({args})"
    if op in (OP_HOOK_WRITE, OP_HOOK_READ):
        return f"{name} {_r(t[1])}, {_r(t[2])}"
    if op == OP_HOOK_FENCE:
        return name.rstrip()
    if op == OP_SPAWN:
        args = ", ".join(_r(a) for a in t[3])
        return f"{name} {_r(t[1])} <- @{t[2].name}({args})"
    if op == OP_JOIN:
        return f"{name} {_r(t[1])}"
    if op == OP_BR:
        return f"{name} {_r(t[1])} ? {t[2]} : {t[3]}"
    if op == OP_JMP:
        return f"{name} {t[1]}"
    if op == OP_RET:
        return f"{name} {_r(t[1])}" if t[1] >= 0 else f"{name} void"
    if op == OP_RAISE:
        return f"{name} {t[1].__name__}: {t[2]!r}"
    if op == OP_FUSE_LOAD_BINOP:
        kind = [k for k, v in FAST_BINOPS.items() if v == t[5]][0]
        sides = (f"{_r(t[7])}, <loaded>" if t[8]
                 else f"<loaded>, {_r(t[7])}")
        return (f"{name} {_r(t[1])} <- *{_r(t[2])} size={t[3]}; "
                f"{_r(t[6])} <- {kind} {sides}")
    if op == OP_FUSE_ICMP_BR:
        from ..ir.instructions import ICMP_PREDS
        return (f"{name} {_r(t[1])} <- {ICMP_PREDS[t[2]]} "
                f"{_r(t[3])}, {_r(t[4])} ? {t[5]} : {t[6]}")
    raise VMError(f"cannot format opcode {op}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Execution state
# ---------------------------------------------------------------------------


class BCFrame:
    """One bytecode function activation."""

    __slots__ = ("fn", "pc", "regs", "allocas", "dest_reg")

    def __init__(self, fn: BytecodeFunction, dest_reg: int = -1):
        self.fn = fn
        self.pc = 0
        self.regs = fn.reg_init.copy()
        self.allocas: List[int] = []
        #: caller register receiving our return value (-1 for none)
        self.dest_reg = dest_reg


class BCThread(Thread):
    """A cooperative thread running compiled frames.

    Mirrors :class:`repro.vm.interpreter.Thread` field-for-field (the
    dynamic runtime and crash-state inspection read ``region_stack``,
    ``tx_stack``, ``thread_id`` and friends duck-typed), but its frames
    are register files instead of id()-keyed dicts.
    """

    def __init__(self, interpreter: "BytecodeInterpreter", thread_id: int,
                 fn: Function, args: Sequence[Any],
                 program: BytecodeProgram):
        self.interpreter = interpreter
        self.thread_id = thread_id
        self.frames: List[BCFrame] = []
        self.finished = False
        self.result: Any = None
        self.waiting_on: Optional[int] = None
        self.region_stack: List[Tuple[str, int, str]] = []
        self.tx_stack: List[Any] = []
        if len(args) != len(fn.args):
            raise VMError(
                f"@{fn.name} expects {len(fn.args)} args, got {len(args)}"
            )
        frame = BCFrame(program.fns[fn.name])
        regs = frame.regs
        for slot, actual in zip(frame.fn.arg_slots, args):
            regs[slot] = actual
        self.frames.append(frame)


class BytecodeInterpreter(Interpreter):
    """Executes a module through compiled bytecode. One instance per run.

    Construction compiles (or fetches from the per-module cache) the
    fusion variant the run can use: fusion is disabled whenever the module
    spawns threads (scheduler-consultation parity), a crash point is set
    (per-IR-instruction crash matching), or instruction tracing is on
    (per-IR-instruction ``vm.inst`` events).
    """

    def __init__(self, module, **kwargs: Any):
        super().__init__(module, **kwargs)
        from .compile import compile_module
        want_fused = (self.crash_point is None
                      and not self._trace_instructions)
        self._program = compile_module(module, fuse=want_fused)
        if self.op_profiler is not None:
            self._prof_counts = [0] * NOPCODES
            self._prof_time = [0.0] * NOPCODES
            self._prof_timed = [0] * NOPCODES

    # -- thread management --------------------------------------------------
    def _spawn_thread(self, fn: Function, args: Sequence[Any]) -> BCThread:
        tid = self._next_thread_id
        self._next_thread_id += 1
        thread = BCThread(self, tid, fn, args, self._program)
        self.threads[tid] = thread
        return thread

    # -- profiler folding ---------------------------------------------------
    def _fold_profile(self) -> None:
        """Fold the per-opcode arrays into the shared OpProfiler dicts.

        Fused opcodes credit every component IR op, so ``vm.op.*``
        counters stay identical to the tree engine's; sampled time of a
        fused unit is attributed to its first component (the whole-pair
        cost — documented in docs/OBSERVABILITY.md).
        """
        prof = self.op_profiler
        if prof is None:
            return
        counts, time_s, timed = prof.counts, prof.time_s, prof.timed
        for code, n in enumerate(self._prof_counts):
            if not n:
                continue
            for comp in OPSPECS[code].components:
                counts[comp] = counts.get(comp, 0) + n
            k = self._prof_timed[code]
            if k:
                first = OPSPECS[code].components[0]
                time_s[first] = time_s.get(first, 0.0) + self._prof_time[code]
                timed[first] = timed.get(first, 0) + k
        self._prof_counts = [0] * NOPCODES
        self._prof_time = [0.0] * NOPCODES
        self._prof_timed = [0] * NOPCODES

    # -- the scheduler loop -------------------------------------------------
    def _loop(self) -> None:
        try:
            while True:
                runnable = [
                    t for t in self.threads.values()
                    if not t.finished and not t.blocked()
                ]
                if not runnable:
                    unfinished = [t for t in self.threads.values()
                                  if not t.finished]
                    if unfinished:
                        raise VMError(
                            f"deadlock: {len(unfinished)} thread(s) "
                            f"blocked forever"
                        )
                    return
                if len(runnable) == 1:
                    # Run uninterrupted until the thread blocks, finishes,
                    # or changes the thread set — the tree engine never
                    # consults the scheduler with one runnable thread, so
                    # this preserves scheduler-state parity exactly.
                    self._run_thread(runnable[0], 0)
                else:
                    self._run_thread(self.scheduler.pick(runnable), 1)
        finally:
            self._fold_profile()

    # -- the flat dispatch loop ---------------------------------------------
    def _run_thread(self, thread: BCThread, budget: int) -> None:
        """Execute up to ``budget`` IR steps (0 = until a thread event).

        Interpreter state lives in locals for the duration; ``steps``,
        cycle accounting, and the current frame's pc are flushed back on
        every exit path (including exceptions).

        Each step makes two tests besides its dispatch. ``slow`` guards
        the per-step work only some runs need: a crash point, the
        ``vm.inst`` trace, the op profiler. ``steps >= limit`` is the one
        test after the op. ``limit`` is ``end``, the step count at which
        the loop must leave (past ``max_steps``, or at the end of the
        scheduler budget), or 0 when the check must fire now: after an op
        that changes the thread set or blocks (spawn, a blocked join, a
        thread's last ``ret`` set ``end`` too), and after a step the
        profiler times, to close its sample.
        """
        mem = self.memory
        allocs = mem.allocs
        ptr_type = ty.PointerType
        domain = self.domain
        st = domain.stats
        is_persistent = mem.is_persistent
        cost = self.cost
        c_ins = cost.instruction
        c_load = c_ins + cost.load
        c_store = c_ins + cost.store
        c_byte = cost.byte_move
        c_flush_issue = cost.flush_issue
        c_tx = cost.tx_overhead
        cp = self.crash_point
        trace = self._trace_instructions
        emit = self._emit
        rt = self.deepmc_runtime
        prof = self.op_profiler
        prof_on = prof is not None
        if prof_on:
            pcounts = self._prof_counts
            ptime = self._prof_time
            ptimed = self._prof_timed
            stride = prof.sample_every
            clock = prof.clock
        slow = cp is not None or trace or prof_on
        t0 = -1.0
        frames = thread.frames
        frame = frames[-1]
        fn = frame.fn
        code = fn.code
        locs = fn.locs
        regs = frame.regs
        pc = frame.pc
        steps = self.steps
        max_steps = self.max_steps
        end = max_steps + 1
        if budget:
            end = min(end, steps + budget)
        limit = end
        cyc = 0
        try:
            while True:
                t = code[pc]
                op = t[0]
                if slow:
                    if cp is not None and cp.matches(locs[pc], steps):
                        raise CrashInjected(f"crash injected at {locs[pc]}")
                    if trace:
                        self.telemetry.event(
                            "vm.inst", step=steps, thread=thread.thread_id,
                            fn=fn.name, op=fn.trace_ops[pc],
                            loc=str(locs[pc]),
                        )
                    if prof_on:
                        c = pcounts[op]
                        pcounts[op] = c + 1
                        if not c % stride:
                            t0 = clock()
                            limit = 0

                # The chain tests opcodes in the order of their dispatch
                # counts over one app_dynamic pass (seed 1, every pair plain
                # and checked) plus one fuzz_triage pass (crashsim recording
                # and the dynamic run of its 100 programs): load_i 59,736;
                # store_i 46,268; fuse_load_binop 43,396; jmp 25,572;
                # fuse_icmp_br 25,572; call_bi 24,000; srem64 21,780;
                # getfield 21,566; getelem 17,780; ret 13,312; call_fn
                # 13,082; add64 6,822; txadd 5,780; txbegin 5,488; txend
                # 5,488; hook_write 4,077; fence 2,106; alloca 1,662;
                # hook_read 1,600; flush 1,584; hook_fence 1,053; palloc
                # 866; sub64, icmp and cast_i 800 each; sdiv64 10; 351,000
                # in all. The opcodes neither pass runs come last.
                #
                # Integer and pointer loads/stores probe the allocation
                # table once and apply Memory._check_range's tests, in its
                # order, to that record. An access they refuse takes the
                # Memory method the tree engine calls, which raises the
                # MemoryFault: every fault message is made in memory.py.
                if op == OP_LOAD_I:
                    p = regs[t[2]]
                    if p.__class__ is not Pointer:
                        p = self._as_pointer(p, "load")
                    a = allocs.get(p.alloc_id)
                    off = p.offset
                    n = t[3]
                    if (a is not None and not a.freed and off >= 0
                            and off + n <= a.size):
                        regs[t[1]] = int.from_bytes(a.data[off:off + n],
                                                    "little", signed=t[4])
                        persistent = a.persistent
                    else:
                        regs[t[1]] = mem.read_int(p, n, t[4])
                        persistent = is_persistent(p.alloc_id)
                    st.loads += 1
                    cyc += c_load
                    if persistent:
                        domain.on_load(p.alloc_id, off, n)
                    pc += 1
                elif op == OP_STORE_I:
                    p = regs[t[2]]
                    if p.__class__ is not Pointer:
                        p = self._as_pointer(p, "store")
                    v = int(regs[t[1]])
                    a = allocs.get(p.alloc_id)
                    off = p.offset
                    n = t[3]
                    if (a is not None and not a.freed and off >= 0
                            and off + n <= a.size):
                        a.data[off:off + n] = (
                            v & ((1 << 8 * n) - 1)).to_bytes(n, "little")
                        persistent = a.persistent
                    else:
                        mem.write_int(p, v, n)
                        persistent = is_persistent(p.alloc_id)
                    st.stores += 1
                    cyc += c_store
                    if persistent:
                        domain.on_store(p.alloc_id, off, n)
                    pc += 1
                elif op == OP_FUSE_LOAD_BINOP:
                    p = regs[t[2]]
                    if p.__class__ is not Pointer:
                        p = self._as_pointer(p, "load")
                    a = allocs.get(p.alloc_id)
                    off = p.offset
                    n = t[3]
                    if (a is not None and not a.freed and off >= 0
                            and off + n <= a.size):
                        v = int.from_bytes(a.data[off:off + n], "little",
                                           signed=t[4])
                        persistent = a.persistent
                    else:
                        v = mem.read_int(p, n, t[4])
                        persistent = is_persistent(p.alloc_id)
                    regs[t[1]] = v
                    st.loads += 1
                    cyc += c_load + c_ins
                    if persistent:
                        domain.on_load(p.alloc_id, off, n)
                    y = regs[t[7]]
                    if y.__class__ is int:
                        kind = t[5]
                        if t[8]:
                            a, b = y, v
                        else:
                            a, b = v, y
                        if kind == 0:
                            r = a + b
                        elif kind == 1:
                            r = a - b
                        elif kind == 2:
                            r = a * b
                        elif kind == 3:
                            r = a & b
                        elif kind == 4:
                            r = a | b
                        else:
                            r = a ^ b
                        regs[t[6]] = (r if _I64_MIN <= r <= _I64_MAX
                                      else _wrap64(r))
                    else:
                        a, b = (y, v) if t[8] else (v, y)
                        regs[t[6]] = binop_values(t[9], a, b, t[10], t[11])
                    steps += 1
                    pc += 1
                elif op == OP_JMP:
                    pc = t[1]
                    cyc += c_ins
                elif op == OP_FUSE_ICMP_BR:
                    x = regs[t[3]]
                    y = regs[t[4]]
                    if x.__class__ is Pointer:
                        x = x.encode()
                    if y.__class__ is Pointer:
                        y = y.encode()
                    pred = t[2]
                    if pred == 0:
                        c1 = x == y
                    elif pred == 1:
                        c1 = x != y
                    elif pred == 2:
                        c1 = x < y
                    elif pred == 3:
                        c1 = x <= y
                    elif pred == 4:
                        c1 = x > y
                    else:
                        c1 = x >= y
                    if c1:
                        regs[t[1]] = 1
                        pc = t[5]
                    else:
                        regs[t[1]] = 0
                        pc = t[6]
                    steps += 1
                    cyc += c_ins + c_ins
                elif op == OP_CALL_BI:
                    args = [regs[i] for i in t[3]]
                    result = t[2](thread, args)
                    if t[1] >= 0:
                        regs[t[1]] = result
                    cyc += c_ins
                    pc += 1
                elif op == OP_SREM64:
                    x = regs[t[2]]
                    y = regs[t[3]]
                    if x.__class__ is int is y.__class__ and y:
                        # C's remainder takes the dividend's sign, Python's
                        # the divisor's: they agree when the signs match
                        r = x % y if (x < 0) == (y < 0) else -(-x % y)
                        regs[t[1]] = (r if _I64_MIN <= r <= _I64_MAX
                                      else _wrap64(r))
                    else:
                        regs[t[1]] = binop_values(t[4], x, y, t[5], t[6])
                    cyc += c_ins
                    pc += 1
                elif op == OP_GETFIELD:
                    p = regs[t[2]]
                    if p.__class__ is not Pointer:
                        p = self._as_pointer(p, "getfield")
                    regs[t[1]] = Pointer(p.alloc_id, p.offset + t[3])
                    cyc += c_ins
                    pc += 1
                elif op == OP_GETELEM:
                    p = regs[t[2]]
                    if p.__class__ is not Pointer:
                        p = self._as_pointer(p, "getelem")
                    regs[t[1]] = Pointer(
                        p.alloc_id, p.offset + int(regs[t[3]]) * t[4])
                    cyc += c_ins
                    pc += 1
                elif op == OP_RET:
                    value = regs[t[1]] if t[1] >= 0 else None
                    frames.pop()
                    for aid in frame.allocas:
                        alloc = mem.allocation(aid)
                        if not alloc.freed:
                            alloc.freed = True
                    cyc += c_ins
                    if not frames:
                        thread.finished = True
                        thread.result = value
                        if thread.region_stack:
                            raise VMError(
                                f"thread {thread.thread_id} finished inside "
                                f"an open {thread.region_stack[-1][0]} region"
                            )
                        end = limit = 0
                    else:
                        dest = frame.dest_reg
                        frame = frames[-1]
                        fn = frame.fn
                        code = fn.code
                        locs = fn.locs
                        regs = frame.regs
                        pc = frame.pc
                        if dest >= 0:
                            regs[dest] = value
                elif op == OP_CALL_FN:
                    frame.pc = pc + 1
                    callee = BCFrame(t[2], dest_reg=t[1])
                    cregs = callee.regs
                    for slot, areg in zip(t[2].arg_slots, t[3]):
                        cregs[slot] = regs[areg]
                    frames.append(callee)
                    frame = callee
                    fn = frame.fn
                    code = fn.code
                    locs = fn.locs
                    regs = cregs
                    pc = 0
                    cyc += c_ins
                elif op == OP_ADD64:
                    x = regs[t[2]]
                    y = regs[t[3]]
                    if x.__class__ is int is y.__class__:
                        r = x + y
                        regs[t[1]] = (r if _I64_MIN <= r <= _I64_MAX
                                      else _wrap64(r))
                    else:
                        regs[t[1]] = binop_values(t[4], x, y, t[5], t[6])
                    cyc += c_ins
                    pc += 1
                elif op == OP_TXADD:
                    p = regs[t[1]]
                    if p.__class__ is not Pointer:
                        p = self._as_pointer(p, "txadd")
                    size = int(regs[t[2]])
                    if not thread.tx_stack:
                        raise VMError(
                            f"txadd outside any durable transaction at {t[3]}"
                        )
                    snapshot = mem.read_bytes(p, size)
                    thread.tx_stack[-1].logged.append((p, size, snapshot))
                    cyc += c_ins + c_tx + size * c_byte
                    if emit is not None:
                        emit("persist.txadd", thread=thread.thread_id,
                             alloc=p.alloc_id, offset=p.offset, size=size)
                    pc += 1
                elif op == OP_TXBEGIN:
                    self._region_counter += 1
                    rid = self._region_counter
                    kind = t[1]
                    thread.region_stack.append((kind, rid, t[2]))
                    if kind == "tx":
                        thread.tx_stack.append(TxRecord(rid))
                    st.record_tx_begin(kind)
                    cyc += c_ins + c_tx
                    if emit is not None:
                        emit("persist.txbegin", thread=thread.thread_id,
                             region_kind=kind, region=rid)
                    pc += 1
                elif op == OP_TXEND:
                    # _end_region charges cycles to st directly; flush the
                    # local batch first so accounting order stays sane.
                    st.cycles += cyc
                    cyc = 0
                    rid = self._end_region(thread, t[1])
                    cyc += c_ins
                    if emit is not None:
                        emit("persist.txend", thread=thread.thread_id,
                             region_kind=t[1], region=rid)
                    pc += 1
                elif op == OP_HOOK_WRITE:
                    if rt is not None:
                        rt.on_write(thread, regs[t[1]], regs[t[2]], t[3])
                    cyc += c_ins
                    pc += 1
                elif op == OP_FENCE:
                    domain.fence()
                    cyc += c_ins
                    pc += 1
                elif op == OP_ALLOCA:
                    ptr = mem.alloc(t[2], elem_type=t[3], label=t[4])
                    frame.allocas.append(ptr.alloc_id)
                    regs[t[1]] = ptr
                    cyc += c_ins
                    pc += 1
                elif op == OP_HOOK_READ:
                    if rt is not None:
                        rt.on_read(thread, regs[t[1]], regs[t[2]], t[3])
                    cyc += c_ins
                    pc += 1
                elif op == OP_FLUSH:
                    p = regs[t[1]]
                    if p.__class__ is not Pointer:
                        p = self._as_pointer(p, "flush")
                    size = int(regs[t[2]])
                    if is_persistent(p.alloc_id):
                        domain.flush(p.alloc_id, p.offset, size)
                    else:
                        st.flushes += 1
                        st.flushes_clean += 1
                        cyc += c_flush_issue
                    cyc += c_ins
                    pc += 1
                elif op == OP_HOOK_FENCE:
                    if rt is not None:
                        rt.on_fence(thread)
                    cyc += c_ins
                    pc += 1
                elif op == OP_PALLOC:
                    count = int(regs[t[2]])
                    size = t[3] * max(count, 0)
                    ptr = mem.alloc(size, persistent=True, elem_type=t[4],
                                    label=t[5])
                    domain.on_palloc(ptr.alloc_id, size)
                    regs[t[1]] = ptr
                    cyc += c_ins
                    pc += 1
                elif op == OP_SUB64:
                    x = regs[t[2]]
                    y = regs[t[3]]
                    if x.__class__ is int is y.__class__:
                        r = x - y
                        regs[t[1]] = (r if _I64_MIN <= r <= _I64_MAX
                                      else _wrap64(r))
                    else:
                        regs[t[1]] = binop_values(t[4], x, y, t[5], t[6])
                    cyc += c_ins
                    pc += 1
                elif op == OP_ICMP:
                    x = regs[t[3]]
                    y = regs[t[4]]
                    if x.__class__ is Pointer:
                        x = x.encode()
                    if y.__class__ is Pointer:
                        y = y.encode()
                    pred = t[2]
                    if pred == 0:
                        c1 = x == y
                    elif pred == 1:
                        c1 = x != y
                    elif pred == 2:
                        c1 = x < y
                    elif pred == 3:
                        c1 = x <= y
                    elif pred == 4:
                        c1 = x > y
                    else:
                        c1 = x >= y
                    regs[t[1]] = 1 if c1 else 0
                    cyc += c_ins
                    pc += 1
                elif op == OP_CAST_I:
                    v = regs[t[2]]
                    if v.__class__ is Pointer:
                        v = v.encode()
                    bits = t[3]
                    v = int(v) & ((1 << bits) - 1)
                    if bits > 1 and v >= 1 << (bits - 1):
                        v -= 1 << bits
                    regs[t[1]] = v
                    cyc += c_ins
                    pc += 1
                elif op == OP_SDIV64:
                    x = regs[t[2]]
                    y = regs[t[3]]
                    if x.__class__ is int is y.__class__ and y:
                        # C truncates toward zero, Python's // floors: they
                        # agree when the signs match
                        r = x // y if (x < 0) == (y < 0) else -(-x // y)
                        regs[t[1]] = (r if _I64_MIN <= r <= _I64_MAX
                                      else _wrap64(r))
                    else:
                        regs[t[1]] = binop_values(t[4], x, y, t[5], t[6])
                    cyc += c_ins
                    pc += 1
                elif op == OP_BR:
                    pc = t[2] if int(regs[t[1]]) else t[3]
                    cyc += c_ins
                elif op == OP_LOAD_P:
                    p = regs[t[2]]
                    if p.__class__ is not Pointer:
                        p = self._as_pointer(p, "load")
                    a = allocs.get(p.alloc_id)
                    off = p.offset
                    if (t[3].__class__ is ptr_type and a is not None
                            and not a.freed and off >= 0
                            and off + 8 <= a.size):
                        regs[t[1]] = Pointer.decode(
                            int.from_bytes(a.data[off:off + 8], "little"))
                        persistent = a.persistent
                    else:
                        regs[t[1]] = mem.read_typed(p, t[3])
                        persistent = is_persistent(p.alloc_id)
                    st.loads += 1
                    cyc += c_load
                    if persistent:
                        domain.on_load(p.alloc_id, off, t[4])
                    pc += 1
                elif op == OP_STORE_P:
                    p = regs[t[2]]
                    if p.__class__ is not Pointer:
                        p = self._as_pointer(p, "store")
                    v = regs[t[1]]
                    a = allocs.get(p.alloc_id)
                    off = p.offset
                    if (v.__class__ is Pointer and t[3].__class__ is ptr_type
                            and a is not None and not a.freed and off >= 0
                            and off + 8 <= a.size):
                        # encode() raises before any byte is written, as
                        # it does under write_typed
                        a.data[off:off + 8] = (
                            v.encode() & _U64).to_bytes(8, "little")
                        persistent = a.persistent
                    else:
                        mem.write_typed(p, v, t[3])
                        persistent = is_persistent(p.alloc_id)
                    st.stores += 1
                    cyc += c_store
                    if persistent:
                        domain.on_store(p.alloc_id, off, t[4])
                    pc += 1
                elif op == OP_MUL64:
                    x = regs[t[2]]
                    y = regs[t[3]]
                    if x.__class__ is int is y.__class__:
                        r = x * y
                        regs[t[1]] = (r if _I64_MIN <= r <= _I64_MAX
                                      else _wrap64(r))
                    else:
                        regs[t[1]] = binop_values(t[4], x, y, t[5], t[6])
                    cyc += c_ins
                    pc += 1
                elif op in (OP_AND64, OP_OR64, OP_XOR64):
                    x = regs[t[2]]
                    y = regs[t[3]]
                    if x.__class__ is int is y.__class__:
                        if op == OP_AND64:
                            regs[t[1]] = x & y
                        elif op == OP_OR64:
                            regs[t[1]] = x | y
                        else:
                            regs[t[1]] = x ^ y
                    else:
                        regs[t[1]] = binop_values(t[4], x, y, t[5], t[6])
                    cyc += c_ins
                    pc += 1
                elif op == OP_BINOP:
                    regs[t[1]] = binop_values(
                        t[4], regs[t[2]], regs[t[3]], t[5], t[6])
                    cyc += c_ins
                    pc += 1
                elif op == OP_LOAD_F:
                    p = regs[t[2]]
                    if p.__class__ is not Pointer:
                        p = self._as_pointer(p, "load")
                    regs[t[1]] = mem.read_f64(p)
                    st.loads += 1
                    cyc += c_load
                    if is_persistent(p.alloc_id):
                        domain.on_load(p.alloc_id, p.offset, 8)
                    pc += 1
                elif op == OP_STORE_F:
                    p = regs[t[2]]
                    if p.__class__ is not Pointer:
                        p = self._as_pointer(p, "store")
                    mem.write_f64(p, float(regs[t[1]]))
                    st.stores += 1
                    cyc += c_store
                    if is_persistent(p.alloc_id):
                        domain.on_store(p.alloc_id, p.offset, 8)
                    pc += 1
                elif op == OP_CAST_P:
                    v = regs[t[2]]
                    regs[t[1]] = (v if v.__class__ is Pointer
                                  else Pointer.decode(int(v)))
                    cyc += c_ins
                    pc += 1
                elif op == OP_CAST_F:
                    regs[t[1]] = float(regs[t[2]])
                    cyc += c_ins
                    pc += 1
                elif op == OP_MALLOC:
                    count = int(regs[t[2]])
                    ptr = mem.alloc(t[3] * max(count, 0), elem_type=t[4],
                                    label=t[5])
                    regs[t[1]] = ptr
                    cyc += c_ins
                    pc += 1
                elif op == OP_FREE:
                    p = regs[t[1]]
                    if p.__class__ is not Pointer:
                        p = self._as_pointer(p, "free")
                    alloc = mem.free(p)
                    if alloc.persistent:
                        domain.on_pfree(alloc.alloc_id)
                    cyc += c_ins
                    pc += 1
                elif op == OP_MEMCPY:
                    dst = regs[t[1]]
                    if dst.__class__ is not Pointer:
                        dst = self._as_pointer(dst, "memcpy dst")
                    src = regs[t[2]]
                    if src.__class__ is not Pointer:
                        src = self._as_pointer(src, "memcpy src")
                    size = int(regs[t[3]])
                    mem.write_bytes(dst, mem.read_bytes(src, size))
                    cyc += c_ins + size * c_byte
                    st.stores += 1
                    if is_persistent(dst.alloc_id):
                        domain.on_store(dst.alloc_id, dst.offset, size)
                    pc += 1
                elif op == OP_MEMSET:
                    dst = regs[t[1]]
                    if dst.__class__ is not Pointer:
                        dst = self._as_pointer(dst, "memset dst")
                    byte = int(regs[t[2]]) & 0xFF
                    size = int(regs[t[3]])
                    mem.write_bytes(dst, bytes([byte]) * size)
                    cyc += c_ins + size * c_byte
                    st.stores += 1
                    if is_persistent(dst.alloc_id):
                        domain.on_store(dst.alloc_id, dst.offset, size)
                    pc += 1
                elif op == OP_CALL_RT:
                    if rt is not None:
                        rt.handle(t[1].callee, thread,
                                  [regs[i] for i in t[2]], t[1])
                    cyc += c_ins
                    pc += 1
                elif op == OP_SPAWN:
                    args = [regs[i] for i in t[3]]
                    child = self._spawn_thread(t[2], args)
                    regs[t[1]] = child.thread_id
                    if rt is not None:
                        rt.on_spawn(thread, child)
                    cyc += c_ins
                    pc += 1
                    end = limit = 0
                elif op == OP_JOIN:
                    target = int(regs[t[1]])
                    if target not in self.threads:
                        raise VMError(f"join of unknown thread {target}")
                    cyc += c_ins
                    if not self.threads[target].finished:
                        # Retry later: pc stays on the join, the step is
                        # still counted (tree-engine parity).
                        thread.waiting_on = target
                        end = limit = 0
                    else:
                        if rt is not None:
                            rt.on_join(thread, self.threads[target])
                        pc += 1
                elif op == OP_RAISE:
                    cyc += c_ins
                    raise t[1](t[2])
                else:  # pragma: no cover - compiler emits only known ops
                    raise VMError(f"cannot execute opcode {op}")

                steps += 1
                if steps >= limit:
                    if t0 >= 0.0:
                        ptime[op] += clock() - t0
                        ptimed[op] += 1
                        t0 = -1.0
                        limit = end
                    if steps > max_steps:
                        raise VMError(f"step budget exceeded ({max_steps})")
                    if steps >= end:
                        return
        finally:
            frame.pc = pc
            self.steps = steps
            st.cycles += cyc
