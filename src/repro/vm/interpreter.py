"""The NVM IR interpreter.

Executes a verified module on the simulated memory + persist domain.
Design points that matter for the reproduction:

* **Persistence is modelled, not mocked** — stores dirty cachelines,
  ``flush`` initiates write-back, ``fence`` drains: the durable image on
  the simulated device is exactly what a crash would leave behind.
* **Durable transactions have PMDK-like semantics** — ``txadd`` undo-logs
  a range (snapshotting pre-modification content), and ``txend tx``
  flushes all logged ranges and fences, which is why *unlogged* writes
  inside a transaction are genuinely not durable (Figure 2's bug class).
  Epoch and strand regions have **no** implicit barrier: the programmer
  (or framework) must fence, which is what the missing-barrier bug
  classes violate.
* **Threads are cooperative and deterministic** — a seeded scheduler
  interleaves them so the dynamic checker can hunt strand races
  reproducibly.
* **Instrumentation calls** (``__deepmc_*``) inserted by the dynamic
  checker's instrumenter are dispatched to an attached runtime library;
  their cost is real executed work, which is what the Figure 12 overhead
  experiment measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import CrashInjected, VMError
from ..ir import instructions as ins
from ..ir import types as ty
from ..ir.function import Function
from ..ir.module import Module
from ..ir.sourceloc import SourceLoc
from ..ir.values import Argument, Constant, Value
from ..nvm.costmodel import DEFAULT_COST_MODEL, CostModel
from ..nvm.domain import PersistDomain
from ..telemetry import NULL_TELEMETRY, Telemetry
from . import builtins as bi
from .memory import NULL, Memory, Pointer
from .profiler import OpProfiler, op_name
from .scheduler import RoundRobinScheduler, Scheduler


@dataclass
class CrashPoint:
    """Crash immediately *before* executing the matching instruction.

    Matching is by source location; ``occurrence`` selects the n-th dynamic
    hit (1-based) within one run. Alternatively set ``at_step`` to crash at
    an absolute instruction count.
    """

    file: str = ""
    line: int = 0
    occurrence: int = 1
    at_step: int = 0
    #: hits so far; every interpreter counts on its own zeroed copy
    _hits: int = field(default=0, init=False, repr=False, compare=False)

    def matches(self, loc: SourceLoc, step: int) -> bool:
        if self.at_step:
            return step >= self.at_step
        if loc.file == self.file and loc.line == self.line:
            self._hits += 1
            return self._hits >= self.occurrence
        return False


@dataclass
class TxRecord:
    """One open durable transaction: its undo log."""

    region_id: int
    #: (pointer, size, pre-modification snapshot)
    logged: List[Tuple[Pointer, int, bytes]] = field(default_factory=list)


class Frame:
    """One function activation."""

    __slots__ = ("fn", "block", "index", "regs", "allocas", "dest")

    def __init__(self, fn: Function, dest: Optional[ins.Instruction] = None):
        self.fn = fn
        self.block = fn.entry
        self.index = 0
        self.regs: Dict[int, Any] = {}
        self.allocas: List[int] = []
        self.dest = dest  # caller instruction receiving our return value


class Thread:
    """A cooperative interpreter thread."""

    def __init__(self, interpreter: "Interpreter", thread_id: int,
                 fn: Function, args: Sequence[Any]):
        self.interpreter = interpreter
        self.thread_id = thread_id
        self.frames: List[Frame] = []
        self.finished = False
        self.result: Any = None
        self.waiting_on: Optional[int] = None
        #: stack of (kind, region instance id, label)
        self.region_stack: List[Tuple[str, int, str]] = []
        #: open durable transactions, innermost last
        self.tx_stack: List[TxRecord] = []
        frame = Frame(fn)
        if len(args) != len(fn.args):
            raise VMError(
                f"@{fn.name} expects {len(fn.args)} args, got {len(args)}"
            )
        for formal, actual in zip(fn.args, args):
            frame.regs[id(formal)] = actual
        self.frames.append(frame)

    # -- region helpers used by the dynamic runtime -------------------------
    def current_region(self, kind: str) -> Optional[Tuple[str, int, str]]:
        for entry in reversed(self.region_stack):
            if entry[0] == kind:
                return entry
        return None

    def current_strand_id(self) -> int:
        """Strand identity for race detection: innermost strand region, or
        a per-thread implicit strand."""
        region = self.current_region(ins.REGION_STRAND)
        if region is not None:
            return region[1]
        return -self.thread_id - 1  # implicit strand, disjoint from real ids

    def blocked(self) -> bool:
        if self.waiting_on is None:
            return False
        target = self.interpreter.threads.get(self.waiting_on)
        if target is None or target.finished:
            self.waiting_on = None
            return False
        return True


@dataclass
class ExecResult:
    """Outcome of one interpreted execution."""

    value: Any
    steps: int
    output: List[str]
    crashed: bool
    interpreter: "Interpreter"

    @property
    def stats(self):
        return self.interpreter.domain.stats

    @property
    def memory(self) -> Memory:
        return self.interpreter.memory

    @property
    def domain(self) -> PersistDomain:
        return self.interpreter.domain


class Interpreter:
    """Executes a module by walking its IR. One instance per execution.

    This tree walker is the semantic reference: production runs use its
    subclass :class:`repro.vm.bytecode.BytecodeInterpreter` (built by
    :func:`repro.vm.engine.make_interpreter`), which the differential
    tests hold observably identical to it.
    """

    def __init__(
        self,
        module: Module,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        scheduler: Optional[Scheduler] = None,
        max_steps: int = 50_000_000,
        crash_point: Optional[CrashPoint] = None,
        seed: int = 0x9E3779B9,
        telemetry: Optional[Telemetry] = None,
        trace_instructions: bool = False,
        fault_injector: Optional[object] = None,
        op_profile: Optional[bool] = None,
    ):
        self.module = module
        self.memory = Memory()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        # Resolve the event hook once: the dispatch loop and the persist
        # domain see either a bound emitter or None, never a facade call.
        emit = (self.telemetry.event
                if self.telemetry.events_enabled else None)
        self._trace_instructions = trace_instructions and emit is not None
        # Op profiler: on by default whenever telemetry is (counting is a
        # dict increment; timing is sampled), off via op_profile=False.
        # Disabled runs keep the bare dispatch loop — one attribute load
        # and a branch.
        if op_profile is None:
            op_profile = self.telemetry.enabled
        self.op_profiler = OpProfiler() if op_profile else None
        if self.op_profiler is not None:
            emit = self.op_profiler.wrap_emitter(emit)
        #: the resolved emitter is shared with the persist domain so the
        #: transaction events below interleave correctly with the
        #: store/flush/fence stream (crashsim replays that combined order).
        self._emit = emit
        #: optional repro.faults.FaultInjector: NVM-layer faults go to the
        #: persist domain; a VM-layer crash step becomes a CrashPoint.
        self.fault_injector = fault_injector
        self.domain = PersistDomain(self.memory.read_alloc_bytes, cost_model,
                                    event_emitter=emit,
                                    fault_injector=fault_injector)
        if (crash_point is None and fault_injector is not None
                and getattr(fault_injector, "vm_crash_step", None)):
            step = fault_injector.vm_crash_step()
            if step:
                crash_point = CrashPoint(at_step=step)
        self.cost = cost_model
        self.scheduler = scheduler or RoundRobinScheduler()
        self.max_steps = max_steps
        # a private copy, so each run counts its own crash-point hits
        self.crash_point = (replace(crash_point)
                            if crash_point is not None else None)
        self.threads: Dict[int, Thread] = {}
        self._next_thread_id = 1
        self._region_counter = 0
        self.steps = 0
        self.rng_state = seed or 1
        self.capture_output: Optional[List[str]] = []
        #: attached dynamic-analysis runtime (duck-typed like
        #: repro.dynamic.runtime.DeepMCRuntime: this engine calls handle(),
        #: on_spawn() and on_join(); bytecode calls the on_* hooks directly)
        self.deepmc_runtime = None
        self.crashed = False

    # -- public API ---------------------------------------------------------
    def run(self, entry: str = "main", args: Sequence[Any] = ()) -> ExecResult:
        fn = self.module.function(entry)
        if fn.is_declaration():
            raise VMError(f"entry @{entry} is a declaration")
        main = self._spawn_thread(fn, list(args))
        with self.telemetry.span("vm.run", module=self.module.name,
                                 entry=entry) as span:
            try:
                self._loop()
            except CrashInjected:
                self.crashed = True
            span.set("steps", self.steps)
            span.set("crashed", self.crashed)
            if self.op_profiler is not None and self.op_profiler.counts:
                span.set("top_ops", self.op_profiler.top_ops())
        if self.telemetry.enabled:
            self._publish_stats(entry)
        return ExecResult(
            value=main.result,
            steps=self.steps,
            output=list(self.capture_output or []),
            crashed=self.crashed,
            interpreter=self,
        )

    def _publish_stats(self, entry: str) -> None:
        """Mirror this run's NVMStats into the telemetry registry."""
        tel = self.telemetry
        stats = self.domain.stats.snapshot()
        tel.metrics.counter("vm.runs").inc()
        tel.metrics.publish("vm", stats)
        tel.metrics.histogram("vm.steps").observe(self.steps)
        if self.op_profiler is not None:
            self.op_profiler.publish(tel.metrics)
        tel.event("vm_run_end", module=self.module.name, entry=entry,
                  steps=self.steps, crashed=self.crashed, **stats)

    # -- thread management ------------------------------------------------------
    def _spawn_thread(self, fn: Function, args: Sequence[Any]) -> Thread:
        tid = self._next_thread_id
        self._next_thread_id += 1
        thread = Thread(self, tid, fn, args)
        self.threads[tid] = thread
        return thread

    def _loop(self) -> None:
        while True:
            runnable = [
                t for t in self.threads.values()
                if not t.finished and not t.blocked()
            ]
            if not runnable:
                unfinished = [t for t in self.threads.values() if not t.finished]
                if unfinished:
                    raise VMError(
                        f"deadlock: {len(unfinished)} thread(s) blocked forever"
                    )
                return
            # Scheduling only matters with real concurrency; the fast path
            # keeps single-threaded throughput measurements honest.
            thread = runnable[0] if len(runnable) == 1 else self.scheduler.pick(runnable)
            self._step(thread)
            self.steps += 1
            if self.steps > self.max_steps:
                raise VMError(f"step budget exceeded ({self.max_steps})")

    # -- evaluation ----------------------------------------------------------------
    def _eval(self, frame: Frame, value: Value) -> Any:
        if isinstance(value, Constant):
            if value.value is None:
                return NULL
            if value.value == "undef":
                return 0
            return value.value
        try:
            return frame.regs[id(value)]
        except KeyError:
            raise VMError(
                f"value %{value.name} has no runtime binding in @{frame.fn.name}"
            ) from None

    def _as_pointer(self, v: Any, what: str) -> Pointer:
        if isinstance(v, Pointer):
            return v
        if isinstance(v, int):
            return Pointer.decode(v)
        raise VMError(f"{what} expects a pointer, got {v!r}")

    # -- the dispatch loop -------------------------------------------------------
    def _step(self, thread: Thread) -> None:
        frame = thread.frames[-1]
        inst = frame.block.instructions[frame.index]
        if self.crash_point is not None and self.crash_point.matches(inst.loc, self.steps):
            raise CrashInjected(f"crash injected at {inst.loc}")
        if self._trace_instructions:
            self.telemetry.event(
                "vm.inst", step=self.steps, thread=thread.thread_id,
                fn=frame.fn.name, op=inst.__class__.__name__.lower(),
                loc=str(inst.loc),
            )
        self.domain.stats.cycles += self.cost.instruction
        prof = self.op_profiler
        if prof is not None:
            op = op_name(inst.__class__)
            seen = prof.counts.get(op, 0)
            prof.counts[op] = seen + 1
            if seen % prof.sample_every == 0:
                t0 = prof.clock()
                advance = self._execute(thread, frame, inst)
                prof.time_s[op] = (prof.time_s.get(op, 0.0)
                                   + prof.clock() - t0)
                prof.timed[op] = prof.timed.get(op, 0) + 1
            else:
                advance = self._execute(thread, frame, inst)
        else:
            advance = self._execute(thread, frame, inst)
        if advance:
            frame.index += 1

    def _set_result(self, frame: Frame, inst: ins.Instruction, value: Any) -> None:
        if inst.has_result():
            frame.regs[id(inst)] = value

    def _execute(self, thread: Thread, frame: Frame, inst: ins.Instruction) -> bool:
        """Execute one instruction; returns False if control already moved."""
        st = self.domain.stats
        mem = self.memory

        if isinstance(inst, ins.Store):
            value = self._eval(frame, inst.value)
            ptr = self._as_pointer(self._eval(frame, inst.ptr), "store")
            size = inst.value.type.size()
            mem.write_typed(ptr, value, inst.value.type)
            st.stores += 1
            st.cycles += self.cost.store
            if mem.is_persistent(ptr.alloc_id):
                self.domain.on_store(ptr.alloc_id, ptr.offset, size)
            return True

        if isinstance(inst, ins.Load):
            ptr = self._as_pointer(self._eval(frame, inst.ptr), "load")
            value = mem.read_typed(ptr, inst.type)
            st.loads += 1
            st.cycles += self.cost.load
            if mem.is_persistent(ptr.alloc_id):
                self.domain.on_load(ptr.alloc_id, ptr.offset, inst.type.size())
            self._set_result(frame, inst, value)
            return True

        if isinstance(inst, ins.GetField):
            ptr = self._as_pointer(self._eval(frame, inst.ptr), "getfield")
            offset = inst.struct.field_offset(inst.index)
            self._set_result(frame, inst, ptr.moved(offset))
            return True

        if isinstance(inst, ins.GetElem):
            ptr = self._as_pointer(self._eval(frame, inst.ptr), "getelem")
            index = int(self._eval(frame, inst.index))
            pointee = inst.type.pointee
            assert pointee is not None
            base = inst.ptr.type.pointee
            if isinstance(base, ty.ArrayType):
                # &arr[0] baseline: pointer to array indexes inside it.
                self._set_result(frame, inst, ptr.moved(index * pointee.size()))
            else:
                self._set_result(frame, inst, ptr.moved(index * pointee.size()))
            return True

        if isinstance(inst, ins.Alloca):
            ptr = mem.alloc(inst.alloc_type.size(), elem_type=inst.alloc_type,
                            label=f"alloca:{inst.name}")
            frame.allocas.append(ptr.alloc_id)
            self._set_result(frame, inst, ptr)
            return True

        if isinstance(inst, ins.Malloc):
            count = int(self._eval(frame, inst.count))
            ptr = mem.alloc(inst.alloc_type.size() * max(count, 0),
                            elem_type=inst.alloc_type, label=f"malloc:{inst.name}")
            self._set_result(frame, inst, ptr)
            return True

        if isinstance(inst, ins.PAlloc):
            count = int(self._eval(frame, inst.count))
            size = inst.alloc_type.size() * max(count, 0)
            ptr = mem.alloc(size, persistent=True, elem_type=inst.alloc_type,
                            label=f"palloc:{inst.name}")
            self.domain.on_palloc(ptr.alloc_id, size)
            self._set_result(frame, inst, ptr)
            return True

        if isinstance(inst, ins.Free):
            ptr = self._as_pointer(self._eval(frame, inst.ptr), "free")
            alloc = mem.free(ptr)
            if alloc.persistent:
                self.domain.on_pfree(alloc.alloc_id)
            return True

        if isinstance(inst, ins.Memcpy):
            dst = self._as_pointer(self._eval(frame, inst.dst), "memcpy dst")
            src = self._as_pointer(self._eval(frame, inst.src), "memcpy src")
            size = int(self._eval(frame, inst.size))
            data = mem.read_bytes(src, size)
            mem.write_bytes(dst, data)
            st.cycles += size * self.cost.byte_move
            st.stores += 1
            if mem.is_persistent(dst.alloc_id):
                self.domain.on_store(dst.alloc_id, dst.offset, size)
            return True

        if isinstance(inst, ins.Memset):
            dst = self._as_pointer(self._eval(frame, inst.dst), "memset dst")
            byte = int(self._eval(frame, inst.byte)) & 0xFF
            size = int(self._eval(frame, inst.size))
            mem.write_bytes(dst, bytes([byte]) * size)
            st.cycles += size * self.cost.byte_move
            st.stores += 1
            if mem.is_persistent(dst.alloc_id):
                self.domain.on_store(dst.alloc_id, dst.offset, size)
            return True

        if isinstance(inst, ins.Flush):
            ptr = self._as_pointer(self._eval(frame, inst.ptr), "flush")
            size = int(self._eval(frame, inst.size))
            if mem.is_persistent(ptr.alloc_id):
                self.domain.flush(ptr.alloc_id, ptr.offset, size)
            else:
                # clwb of volatile memory: costs latency, persists nothing.
                st.flushes += 1
                st.flushes_clean += 1
                st.cycles += self.cost.flush_issue
            return True

        if isinstance(inst, ins.Fence):
            self.domain.fence()
            return True

        if isinstance(inst, ins.TxBegin):
            self._region_counter += 1
            rid = self._region_counter
            thread.region_stack.append((inst.kind, rid, inst.label))
            if inst.kind == ins.REGION_TX:
                thread.tx_stack.append(TxRecord(rid))
            st.record_tx_begin(inst.kind)
            st.cycles += self.cost.tx_overhead
            if self._emit is not None:
                self._emit("persist.txbegin", thread=thread.thread_id,
                           region_kind=inst.kind, region=rid)
            return True

        if isinstance(inst, ins.TxEnd):
            rid = self._end_region(thread, inst.kind)
            # Emitted *after* _end_region so a durable commit's flush+fence
            # events precede the txend event: a replay that crashes inside
            # the commit window still sees the transaction as open (and can
            # roll it back), matching the live tx_stack semantics.
            if self._emit is not None:
                self._emit("persist.txend", thread=thread.thread_id,
                           region_kind=inst.kind, region=rid)
            return True

        if isinstance(inst, ins.TxAdd):
            ptr = self._as_pointer(self._eval(frame, inst.ptr), "txadd")
            size = int(self._eval(frame, inst.size))
            if not thread.tx_stack:
                raise VMError(f"txadd outside any durable transaction at {inst.loc}")
            snapshot = mem.read_bytes(ptr, size)
            thread.tx_stack[-1].logged.append((ptr, size, snapshot))
            st.cycles += self.cost.tx_overhead + size * self.cost.byte_move
            if self._emit is not None:
                self._emit("persist.txadd", thread=thread.thread_id,
                           alloc=ptr.alloc_id, offset=ptr.offset, size=size)
            return True

        if isinstance(inst, ins.Call):
            return self._execute_call(thread, frame, inst)

        if isinstance(inst, ins.Spawn):
            fn = self.module.function(inst.callee)
            args = [self._eval(frame, a) for a in inst.args]
            child = self._spawn_thread(fn, args)
            self._set_result(frame, inst, child.thread_id)
            if self.deepmc_runtime is not None:
                self.deepmc_runtime.on_spawn(thread, child)
            return True

        if isinstance(inst, ins.Join):
            target = int(self._eval(frame, inst.thread))
            if target not in self.threads:
                raise VMError(f"join of unknown thread {target}")
            if not self.threads[target].finished:
                thread.waiting_on = target
                return False  # retry the join later
            if self.deepmc_runtime is not None:
                self.deepmc_runtime.on_join(thread, self.threads[target])
            return True

        if isinstance(inst, ins.Br):
            cond = int(self._eval(frame, inst.cond))
            label = inst.then_label if cond else inst.else_label
            frame.block = frame.fn.block(label)
            frame.index = 0
            return False

        if isinstance(inst, ins.Jmp):
            frame.block = frame.fn.block(inst.target)
            frame.index = 0
            return False

        if isinstance(inst, ins.Ret):
            value = self._eval(frame, inst.value) if inst.value is not None else None
            self._return_from(thread, value)
            return False

        if isinstance(inst, ins.BinOp):
            a = self._eval(frame, inst.lhs)
            b = self._eval(frame, inst.rhs)
            self._set_result(frame, inst, self._binop(inst, a, b))
            return True

        if isinstance(inst, ins.ICmp):
            a = self._eval(frame, inst.lhs)
            b = self._eval(frame, inst.rhs)
            self._set_result(frame, inst, 1 if self._icmp(inst.pred, a, b) else 0)
            return True

        if isinstance(inst, ins.Cast):
            v = self._eval(frame, inst.value)
            self._set_result(frame, inst, self._cast(v, inst.type))
            return True

        raise VMError(f"cannot execute {inst.format()}")

    # -- calls / returns -------------------------------------------------------
    def _execute_call(self, thread: Thread, frame: Frame, inst: ins.Call) -> bool:
        name = inst.callee
        args = [self._eval(frame, a) for a in inst.args]
        if name.startswith("__deepmc_"):
            if self.deepmc_runtime is not None:
                self.deepmc_runtime.handle(name, thread, args, inst)
            return True
        if bi.is_builtin(name):
            result = bi.get_builtin(name)(thread, args)
            self._set_result(frame, inst, result)
            return True
        fn = self.module.get_function(name)
        if fn is None or fn.is_declaration():
            raise VMError(f"call to undefined function @{name}")
        callee_frame = Frame(fn, dest=inst if inst.has_result() else None)
        if len(args) != len(fn.args):
            raise VMError(f"@{name} expects {len(fn.args)} args, got {len(args)}")
        for formal, actual in zip(fn.args, args):
            callee_frame.regs[id(formal)] = actual
        frame.index += 1  # resume after the call on return
        thread.frames.append(callee_frame)
        return False

    def _return_from(self, thread: Thread, value: Any) -> None:
        frame = thread.frames.pop()
        for aid in frame.allocas:
            alloc = self.memory.allocation(aid)
            if not alloc.freed:
                alloc.freed = True
        if not thread.frames:
            thread.finished = True
            thread.result = value
            if thread.region_stack:
                raise VMError(
                    f"thread {thread.thread_id} finished inside an open "
                    f"{thread.region_stack[-1][0]} region"
                )
            return
        caller = thread.frames[-1]
        if frame.dest is not None:
            caller.regs[id(frame.dest)] = value

    def _end_region(self, thread: Thread, kind: str) -> int:
        for i in range(len(thread.region_stack) - 1, -1, -1):
            if thread.region_stack[i][0] == kind:
                _, rid, _ = thread.region_stack.pop(i)
                break
        else:
            raise VMError(f"txend {kind} with no matching txbegin")
        st = self.domain.stats
        st.record_tx_end(kind)
        st.cycles += self.cost.tx_overhead
        if kind == ins.REGION_TX:
            # Commit: flush everything undo-logged, then a persist barrier —
            # PMDK's "cacheline flush operations at the end of the
            # transaction" (§3.2). Unlogged writes stay unflushed.
            record = None
            for i in range(len(thread.tx_stack) - 1, -1, -1):
                if thread.tx_stack[i].region_id == rid:
                    record = thread.tx_stack.pop(i)
                    break
            if record is not None and record.logged:
                for ptr, size, _snap in record.logged:
                    if self.memory.is_persistent(ptr.alloc_id):
                        self.domain.flush(ptr.alloc_id, ptr.offset, size)
                self.domain.fence()
        return rid

    # -- scalar ops ----------------------------------------------------------------
    def _binop(self, inst: ins.BinOp, a: Any, b: Any) -> Any:
        if isinstance(a, Pointer) or isinstance(b, Pointer):
            raise VMError(f"arithmetic on pointers at {inst.loc}; cast first")
        op = inst.op
        if op == "add":
            r = a + b
        elif op == "sub":
            r = a - b
        elif op == "mul":
            r = a * b
        elif op == "sdiv":
            if b == 0:
                raise VMError(f"division by zero at {inst.loc}")
            # C truncates toward zero; floor division agrees when the
            # signs match, and integers stay exact past 2**53
            r = a // b if (a < 0) == (b < 0) else -(abs(a) // abs(b))
        elif op == "srem":
            if b == 0:
                raise VMError(f"remainder by zero at {inst.loc}")
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
            mask = (1 << inst.type.size() * 8) - 1
            r = (a & mask) >> (b & 63)
        else:  # pragma: no cover - guarded by BinOp.__init__
            raise VMError(f"unknown binop {op}")
        if isinstance(inst.type, ty.IntType):
            bits = inst.type.bits
            r &= (1 << bits) - 1
            if bits > 1 and r >= 1 << (bits - 1):
                r -= 1 << bits
        return r

    def _icmp(self, pred: str, a: Any, b: Any) -> bool:
        if isinstance(a, Pointer):
            a = a.encode()
        if isinstance(b, Pointer):
            b = b.encode()
        return {
            "eq": a == b,
            "ne": a != b,
            "slt": a < b,
            "sle": a <= b,
            "sgt": a > b,
            "sge": a >= b,
        }[pred]

    def _cast(self, v: Any, to_type: ty.Type) -> Any:
        if isinstance(to_type, ty.PointerType):
            if isinstance(v, Pointer):
                return v
            return Pointer.decode(int(v))
        if isinstance(to_type, ty.IntType):
            if isinstance(v, Pointer):
                v = v.encode()
            bits = to_type.bits
            v = int(v) & ((1 << bits) - 1)
            if bits > 1 and v >= 1 << (bits - 1):
                v -= 1 << bits
            return v
        if isinstance(to_type, ty.FloatType):
            return float(v)
        raise VMError(f"unsupported cast target {to_type}")
