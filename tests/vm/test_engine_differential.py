"""The engine differential wall: tree reference vs bytecode, identical.

docs/VM.md states the equivalence contract; this file enforces it over
the real workloads. Production runs every program on the bytecode
engine; the ``tree_reference`` fixture (tests/conftest.py) reruns the
same call on the tree walker. For every corpus program (both variants)
and every litmus case, the two must produce the same persist-event
trace, the same NVM stats, the same telemetry counters (``vm.op.*``
per-op counts included — fused opcodes count their components), the
same execution result, and — downstream of all that — the same
crash-image set. The whole ``crashsim``, ``litmus`` and ``fuzz`` JSON
reports must match byte for byte. Plus spot checks for the contract's
sharper clauses: byte-identical error messages (a wall of memory faults
over every load/store shape the bytecode engine checks inline),
pick-for-pick scheduler parity on threaded programs, and dynamic-checker
warning parity.

Anything this file catches is a bytecode-engine bug by definition: the
tree engine is the semantic ground truth.
"""

import re
import zlib

import pytest

from repro.apps import ALL_MIXES, APP_BUILDERS
from repro.cli import main
from repro.corpus import REGISTRY
from repro.crashsim.enumerate import enumerate_crash_images
from repro.crashsim.trace import record_trace
from repro.dynamic import DynamicChecker
from repro.errors import MemoryFault, VMError
from repro.faults import FaultInjector
from repro.fuzz import build_program
from repro.ir import (
    REGION_STRAND,
    IRBuilder,
    Module,
    types as ty,
    verify_module,
)
from repro.ir.values import Constant, null_ptr
from repro.litmus import CATALOG, cases
from repro.litmus.observe import litmus_spec, project_outcomes
from repro.nvm.costmodel import DEFAULT_COST_MODEL
from repro.telemetry import Telemetry
from repro.telemetry.sinks import Sink
from repro.vm.bytecode import OP_FUSE_LOAD_BINOP, OPSPECS, BytecodeInterpreter
from repro.vm.engine import make_interpreter
from repro.vm.interpreter import CrashPoint, Interpreter
from repro.vm.scheduler import SeededScheduler

CORPUS_CASES = [(p.name, fixed)
                for p in REGISTRY.programs() for fixed in (False, True)]
LITMUS_CASES = [(t.name, m) for t, m in cases(CATALOG, None)]


def _trace_fingerprint(program, fixed):
    """Everything the contract says must match, for one corpus run."""
    module = program.build(fixed=fixed)
    tel = Telemetry()  # enabled -> record_trace folds vm.* counters in
    trace = record_trace(module, entry="main", telemetry=tel)
    enum = enumerate_crash_images(trace, program.model, max_states=512)
    images = frozenset(tuple(sorted(img.image.items()))
                       for img in enum.images)
    return {
        "events": trace.events,  # TraceEvent carries no wall-clock
        "result": (trace.result.value, trace.result.steps,
                   trace.result.output, trace.result.crashed),
        "stats": trace.result.stats.snapshot(),
        "counters": tel.metrics.dump()["counters"],
        "states": enum.states,
        "crash_points": enum.crash_points,
        "images": images,
    }


class TestCorpusDifferential:
    """Both engines over every corpus program, buggy and fixed."""

    @pytest.mark.parametrize("name,fixed", CORPUS_CASES,
                             ids=[f"{n}-{'fixed' if f else 'buggy'}"
                                  for n, f in CORPUS_CASES])
    def test_trace_stats_counters_images_match(self, name, fixed,
                                              tree_reference):
        program = REGISTRY.program(name)
        tree = tree_reference(_trace_fingerprint, program, fixed)
        byte = _trace_fingerprint(program, fixed)
        for key in tree:
            assert tree[key] == byte[key], (
                f"{name} (fixed={fixed}): engines diverge on {key} — "
                f"see the equivalence contract in docs/VM.md")


class TestLitmusDifferential:
    """Crash-image outcome sets over the full litmus catalog."""

    @pytest.mark.parametrize("test_name,model", LITMUS_CASES,
                             ids=[f"{t}-{m}" for t, m in LITMUS_CASES])
    def test_outcome_sets_match(self, test_name, model, tree_reference):
        test = next(t for t in CATALOG if t.name == test_name)

        def observe():
            spec = litmus_spec(test, model)
            injector = (FaultInjector(nvm_directive=test.fault)
                        if test.fault is not None else None)
            trace = record_trace(spec.to_module(), entry="main",
                                 fault_injector=injector)
            enum = enumerate_crash_images(trace, model, max_states=1024)
            return (project_outcomes(enum, trace, test),
                    enum.states, enum.crash_points, trace.events)

        assert tree_reference(observe) == observe()


def _bench_pair_seed(app, mix):
    """The scheduler seed perfbench ``app_dynamic`` gives a pair at its
    workload seed 1."""
    return zlib.crc32(f"1/{app}/{mix}".encode()) | 1


APP_PAIRS = [(app, mix.name) for app in APP_BUILDERS
             for mix in ALL_MIXES[app]]
FUZZ_PROGRAMS = [(seed, index) for seed in range(4) for index in range(8)]


def _dynamic_fingerprint(module, model, seeds, **run_kwargs):
    """Everything a dynamic check observes, per seed."""
    report, runs = DynamicChecker(module, model).run(seeds=seeds,
                                                     **run_kwargs)
    return (
        [(w.rule_id, str(w.loc), w.message) for w in report.warnings()],
        [(r.seed, r.exec_result.value, r.exec_result.steps,
          r.exec_result.output, r.exec_result.crashed,
          r.exec_result.stats.snapshot(), r.runtime.events_handled,
          [(race.kind, race.alloc_id, race.offset, str(race.first_loc),
            str(race.second_loc), race.first_strand, race.second_strand,
            race.same_thread) for race in r.runtime.races])
         for r in runs],
    )


class TestDynamicCheckerDifferential:
    """The instrumented (in-place rewritten) module runs identically —
    exercising invalidate_bytecode_cache and the hooks. The tree walker
    sends each hook through ``DeepMCRuntime.handle``; bytecode runs the
    hook opcodes, which call ``on_write``/``on_read``/``on_fence``."""

    @pytest.mark.parametrize("name", ["pmdk_btree_map", "mnemosyne_chash",
                                      "pmfs_journal"])
    def test_warning_parity(self, name, tree_reference):
        program = REGISTRY.program(name)

        def check():
            return _dynamic_fingerprint(program.build(), program.model,
                                        (1, 2, 3))

        assert tree_reference(check) == check()

    @pytest.mark.parametrize("app,mix", APP_PAIRS,
                             ids=[f"{a}-{m}" for a, m in APP_PAIRS])
    def test_app_pairs_match(self, app, mix, tree_reference):
        seed = _bench_pair_seed(app, mix)
        mix_spec = next(m for m in ALL_MIXES[app] if m.name == mix)

        def check():
            module = APP_BUILDERS[app](mix_spec)
            return _dynamic_fingerprint(module, None, (seed,),
                                        entry="main", args=[400],
                                        switch_prob=0.1, seed=seed)

        tree = tree_reference(check)
        events_handled = tree[1][0][6]
        assert events_handled > 0 or mix in ("100%read", "GET", "YCSB-C")
        assert tree == check()

    @pytest.mark.parametrize("test_name,model", LITMUS_CASES,
                             ids=[f"{t}-{m}" for t, m in LITMUS_CASES])
    def test_litmus_cases_match(self, test_name, model, tree_reference):
        test = next(t for t in CATALOG if t.name == test_name)

        def check():
            return _dynamic_fingerprint(
                litmus_spec(test, model).to_module(), model, (1,))

        assert tree_reference(check) == check()

    @pytest.mark.parametrize("seed,index", FUZZ_PROGRAMS,
                             ids=[f"seed{s}-{i}" for s, i in FUZZ_PROGRAMS])
    def test_fuzz_campaign_matches(self, seed, index, tree_reference):
        spec = build_program(seed, index)

        def check():
            return _dynamic_fingerprint(spec.to_module(), spec.model, (1,))

        assert tree_reference(check) == check()

    def test_threaded_strand_races_match(self, tree_reference):
        def check():
            return _dynamic_fingerprint(_racing_threads_module(), None,
                                        range(6))

        tree = tree_reference(check)
        # both race kinds, within and across threads, are in the stream
        races = [race for run in tree[1] for race in run[7]]
        assert {(r[0], r[7]) for r in races} >= {
            ("WAW", True), ("WAW", False), ("RAW", False)}
        assert tree == check()


def _racing_threads_module():
    """Two workers spawned on one persistent record, each writing and
    reading it inside strands, with and without fences, joined by main,
    which then writes it in a strand of its own."""
    mod = Module("race", persistency_model="strand")
    rec = mod.define_struct("rec", [("a", ty.I64), ("b", ty.I64)])
    worker = mod.define_function("w", ty.VOID, [("p", ty.pointer_to(rec)),
                                                ("k", ty.I64)],
                                 source_file="race.c")
    wb = IRBuilder(worker)
    p, k = worker.arg("p"), worker.arg("k")
    fa, fb = wb.getfield(p, "a", line=2), wb.getfield(p, "b", line=3)
    for i, fence in enumerate((False, True, False)):
        base = 10 + 10 * i
        wb.txbegin(REGION_STRAND, line=base)
        wb.store(k, fa, line=base + 1)
        wb.store(wb.add(k, i), fa, line=base + 2)
        wb.load(fb, line=base + 3)
        wb.txend(REGION_STRAND, line=base + 4)
        if fence:
            wb.fence(line=base + 5)
        wb.txbegin(REGION_STRAND, line=base + 6)
        wb.store(k, fb, line=base + 7)
        wb.load(fa, line=base + 8)
        wb.txend(REGION_STRAND, line=base + 9)
    wb.fence(line=50)
    wb.ret()
    fn = mod.define_function("main", ty.VOID, [], source_file="race.c")
    b = IRBuilder(fn)
    p = b.palloc(rec, line=60)
    fa = b.getfield(p, "a", line=61)
    b.store(0, fa, line=62)
    t1 = b.spawn(worker, [p, 1], line=63)
    t2 = b.spawn(worker, [p, 2], line=64)
    b.join(t1, line=65)
    b.txbegin(REGION_STRAND, line=66)
    b.store(3, fa, line=67)
    b.txend(REGION_STRAND, line=68)
    b.join(t2, line=69)
    b.fence(line=70)
    b.ret(line=71)
    verify_module(mod)
    return mod


def _failing_module():
    mod = Module("diverge", persistency_model="strict")
    fn = mod.define_function("main", ty.I64, [], source_file="t.c")
    b = IRBuilder(fn)
    b.ret(b.binop("sdiv", 1, 0))
    verify_module(mod)
    return mod


#: the load/store shapes whose range test the bytecode loop makes inline
ACCESS_SHAPES = ("load_i", "fuse_load_binop", "store_i", "load_p", "store_p")
#: fault -> the MemoryFault message both engines must raise; the target
#: is a 2-slot heap array unless the fault needs another allocation
ACCESS_FAULTS = {
    "null": r"^null pointer dereference$",
    "dangling-id": r"^dangling allocation id 999$",
    "heap-use-after-free": r"^use after free: &1\+0$",
    "returned-alloca": r"^use after free: &1\+0$",
    "negative-offset": (r"^out-of-bounds access: &1\+-8 size 8 "
                        r"\(allocation is 16 bytes\)$"),
    "one-past-the-end": (r"^out-of-bounds access: &1\+16 size 8 "
                         r"\(allocation is 16 bytes\)$"),
}
#: a crash point that never matches: the bytecode engine compiles unfused
NEVER = CrashPoint(file="never.c", line=1)


def _access_module(shape, fault, value=None):
    """``main`` makes one access of ``shape`` through a pointer that
    faults as ``fault`` names ("last-slot": the last in-bounds slot).
    ``value`` overrides what ``store_p`` stores."""
    mod = Module("faults", persistency_model="strict")
    elem = ty.pointer_to(ty.I64) if shape.endswith("_p") else ty.I64
    if fault == "returned-alloca":
        escape = mod.define_function("escape", ty.pointer_to(elem), [],
                                     source_file="t.c")
        eb = IRBuilder(escape)
        eb.ret(eb.alloca(elem))
    fn = mod.define_function("main", ty.I64, [], source_file="t.c")
    b = IRBuilder(fn)
    if fault == "null":
        q = null_ptr(elem)
    elif fault == "dangling-id":
        q = b.cast(b.const(999 << 40), ty.pointer_to(elem))
    elif fault == "returned-alloca":
        q = b.call("escape")
    else:
        q = b.malloc(elem, 2)
        if fault == "heap-use-after-free":
            b.free(q)
        else:
            q = b.getelem(q, {"negative-offset": -1, "one-past-the-end": 2,
                              "last-slot": 1}[fault])
    if shape == "load_i":
        b.ret(b.load(q))
    elif shape == "fuse_load_binop":
        b.ret(b.add(b.load(q), 5))
    elif shape == "store_i":
        b.store(7, q)
        b.ret(0)
    elif shape == "load_p":
        b.ret(b.cast(b.load(q), ty.I64))
    else:
        b.store(value(b) if value else b.alloca(ty.I64), q)
        b.ret(0)
    verify_module(mod)
    return mod


def _run_both(mod, fused):
    """Run ``main`` on the tree walker and on the bytecode engine (fused
    or unfused as asked); each side is its result or the error raised."""
    outcomes = []
    for interpreter in (Interpreter, make_interpreter):
        vm = interpreter(mod, **({} if fused else {"crash_point": NEVER}))
        try:
            r = vm.run("main", [])
        except VMError as exc:
            outcomes.append((type(exc), str(exc)))
        else:
            outcomes.append((r.value, r.steps, r.stats.snapshot()))
    assert set(mod.bytecode) == {fused}  # the variant the test asked for
    return outcomes


#: signed division with mixed signs past 2**53 (where a float quotient
#: is off), and the overflowing I64_MIN / -1 both engines wrap:
#: (op, a, b, C's truncating result)
SIGNED_DIVISION = [
    ("sdiv", -(2**62 + 1), 3, -1537228672809129301),
    ("srem", -(2**62 + 1), 3, -2),
    ("sdiv", 2**62 + 1, -3, -1537228672809129301),
    ("srem", 2**62 + 1, -3, 2),
    ("sdiv", -(2**63 - 1), 2**62 + 3, -1),
    ("srem", -(2**63 - 1), 2**62 + 3, -(2**62 - 4)),
    ("sdiv", -(2**63), -1, -(2**63)),
    ("srem", -(2**63), -1, 0),
    # every sign combination of small operands, and a zero dividend
    ("sdiv", 7, 2, 3),
    ("srem", 7, 2, 1),
    ("sdiv", -7, 2, -3),
    ("srem", -7, 2, -1),
    ("sdiv", 7, -2, -3),
    ("srem", 7, -2, 1),
    ("sdiv", -7, -2, 3),
    ("srem", -7, -2, -1),
    ("sdiv", 0, -5, 0),
    ("srem", 0, -5, 0),
]


class TestSignedDivisionParity:
    @pytest.mark.parametrize("fused", [True, False],
                             ids=["fused", "unfused"])
    @pytest.mark.parametrize("op,a,b,expected", SIGNED_DIVISION)
    def test_exact_and_identical(self, op, a, b, expected, fused):
        mod = Module("div", persistency_model="strict")
        fn = mod.define_function("main", ty.I64, [], source_file="t.c")
        builder = IRBuilder(fn)
        builder.ret(builder.binop(op, a, b))
        verify_module(mod)
        tree, byte = _run_both(mod, fused)
        assert tree[0] == expected
        assert tree == byte
        # the i64 fast path ran, not the generic binop
        code = mod.bytecode[fused].fns["main"].code
        assert [OPSPECS[t[0]].name for t in code][0] == f"{op}64"

    @pytest.mark.parametrize("op,message", [
        ("sdiv", "division by zero"), ("srem", "remainder by zero")])
    @pytest.mark.parametrize("width", [64, 32])
    def test_zero_divisor_raises_the_tree_message(self, op, message,
                                                  width):
        mod = Module("div", persistency_model="strict")
        fn = mod.define_function("main", ty.I64, [("d", ty.I64)],
                                 source_file="t.c")
        builder = IRBuilder(fn)
        d = fn.arg("d")
        if width != 64:
            d = builder.cast(d, ty.I32, line=1)
        builder.ret(builder.cast(builder.binop(op, d, d, line=2), ty.I64,
                                 line=3), line=4)
        verify_module(mod)
        errors = []
        for interpreter in (Interpreter, make_interpreter):
            with pytest.raises(VMError) as exc_info:
                interpreter(mod).run("main", [0])
            errors.append(str(exc_info.value))
        assert errors[0] == errors[1] == f"{message} at t.c:2"


class TestErrorParity:
    """Errors must match byte for byte, not just by type."""

    @pytest.mark.parametrize("fused", [True, False],
                             ids=["fused", "unfused"])
    @pytest.mark.parametrize("fault", list(ACCESS_FAULTS))
    @pytest.mark.parametrize("shape", ACCESS_SHAPES)
    def test_memory_fault_messages_identical(self, shape, fault, fused):
        mod = _access_module(shape, fault)
        tree, byte = _run_both(mod, fused)
        assert tree[0] is MemoryFault
        assert re.match(ACCESS_FAULTS[fault], tree[1]), tree
        assert tree == byte
        if shape == "fuse_load_binop":
            code = mod.bytecode[fused].fns["main"].code
            assert any(t[0] == OP_FUSE_LOAD_BINOP for t in code) is fused

    @pytest.mark.parametrize("fused", [True, False],
                             ids=["fused", "unfused"])
    @pytest.mark.parametrize("shape", ACCESS_SHAPES)
    def test_last_in_bounds_slot_runs_identically(self, shape, fused):
        tree, byte = _run_both(_access_module(shape, "last-slot"), fused)
        assert tree == byte
        assert tree[1] > 0  # a result, not an error

    @pytest.mark.parametrize("fault,value,message", [
        # the value is refused before the target is looked at
        ("last-slot", lambda b: Constant(ty.pointer_to(ty.I64), 5),
         r"^storing non-pointer 5 as i64\*$"),
        ("null", lambda b: Constant(ty.pointer_to(ty.I64), 5),
         r"^storing non-pointer 5 as i64\*$"),
        ("last-slot", lambda b: b.getelem(b.alloca(ty.I64), 1 << 38),
         r"^pointer &\d+\+2199023255552 not encodable in 8 bytes$"),
        ("one-past-the-end", lambda b: b.getelem(b.alloca(ty.I64), 1 << 38),
         r"^pointer &\d+\+2199023255552 not encodable in 8 bytes$"),
    ], ids=["non-pointer", "non-pointer-null-target", "unencodable",
            "unencodable-out-of-bounds-target"])
    @pytest.mark.parametrize("fused", [True, False],
                             ids=["fused", "unfused"])
    def test_store_p_value_faults_identical(self, fault, value, message,
                                            fused):
        tree, byte = _run_both(_access_module("store_p", fault, value),
                               fused)
        assert tree[0] is MemoryFault
        assert re.match(message, tree[1]), tree
        assert tree == byte

    @pytest.mark.parametrize("fused", [True, False],
                             ids=["fused", "unfused"])
    def test_aggregate_load_refused_before_the_range_test(self, fused):
        mod = Module("agg", persistency_model="strict")
        pair = mod.define_struct("pair", [("a", ty.I64), ("b", ty.I64)])
        fn = mod.define_function("main", ty.I64, [], source_file="t.c")
        b = IRBuilder(fn)
        b.load(null_ptr(pair))
        b.ret(0)
        verify_module(mod)
        tree, byte = _run_both(mod, fused)
        assert tree[0] is MemoryFault
        assert tree[1].startswith("cannot load aggregate type")
        assert tree == byte

    def test_vmerror_messages_identical(self):
        messages = []
        for interpreter in (Interpreter, make_interpreter):
            with pytest.raises(VMError) as exc_info:
                interpreter(_failing_module()).run("main", [])
            messages.append(str(exc_info.value))
        assert messages[0] == messages[1]

    def test_step_budget_exhaustion_matches(self):
        mod = Module("spin", persistency_model="strict")
        fn = mod.define_function("main", ty.VOID, [], source_file="t.c")
        b = IRBuilder(fn)
        loop = b.new_block("loop")
        b.jmp(loop)
        b.position_at(loop)
        b.jmp(loop)
        verify_module(mod)
        messages = []
        for interpreter in (Interpreter, make_interpreter):
            with pytest.raises(VMError) as exc_info:
                interpreter(mod, max_steps=1000).run("main", [])
            messages.append(str(exc_info.value))
        assert messages[0] == messages[1]


def _counting_loop_module():
    """A loop of 10 rounds of load + add + store into a persistent slot
    (a fused load/add and a fused icmp/br per round), then a return."""
    mod = Module("loop", persistency_model="strict")
    fn = mod.define_function("main", ty.I64, [], source_file="loop.c")
    b = IRBuilder(fn)
    p = b.palloc(ty.I64, line=1)
    i = b.alloca(ty.I64, line=2)
    b.store(0, p, line=3)
    b.store(0, i, line=4)
    head = b.new_block("head")
    body = b.new_block("body")
    done = b.new_block("done")
    b.jmp(head, line=5)
    b.position_at(head)
    b.br(b.icmp("slt", b.load(i, line=6), 10, line=6), body, done, line=6)
    b.position_at(body)
    b.store(b.add(b.load(p, line=7), 3, line=7), p, line=7)
    b.store(b.add(b.load(i, line=8), 1, line=8), i, line=8)
    b.jmp(head, line=9)
    b.position_at(done)
    b.ret(b.load(p, line=10), line=10)
    verify_module(mod)
    return mod


class _ListSink(Sink):
    def __init__(self):
        self.events = []

    def emit(self, event):
        self.events.append(event)


def _step_outcome(interpreter, mod, **kwargs):
    """Result or error, plus the step and cycle counts either leaves."""
    vm = interpreter(mod, **kwargs)
    try:
        r = vm.run("main", [])
    except VMError as exc:
        outcome = (type(exc), str(exc))
    else:
        outcome = (r.value, r.crashed)
    return outcome, vm.steps, vm.domain.stats.snapshot()


class TestStepCheck:
    """The loop compares one ``limit`` per step; it must stop where the
    tree walker's per-step ``max_steps`` test stops."""

    def _total_steps(self):
        return Interpreter(_counting_loop_module()).run("main", []).steps

    @pytest.mark.parametrize("fused", [True, False],
                             ids=["fused", "unfused"])
    def test_max_steps_reached_exactly_does_not_raise(self, fused):
        total = self._total_steps()
        kwargs = {"max_steps": total}
        if not fused:
            kwargs["crash_point"] = NEVER
        tree = _step_outcome(Interpreter, _counting_loop_module(), **kwargs)
        byte = _step_outcome(make_interpreter, _counting_loop_module(),
                             **kwargs)
        assert tree[0] == (30, False)
        assert tree[1] == total
        assert tree == byte

    @pytest.mark.parametrize("fused", [True, False],
                             ids=["fused", "unfused"])
    def test_max_steps_exceeded_by_one(self, fused):
        total = self._total_steps()
        kwargs = {"max_steps": total - 1}
        if not fused:
            kwargs["crash_point"] = NEVER
        tree = _step_outcome(Interpreter, _counting_loop_module(), **kwargs)
        byte = _step_outcome(make_interpreter, _counting_loop_module(),
                             **kwargs)
        assert tree[0] == (VMError, f"step budget exceeded ({total - 1})")
        assert tree == byte

    def test_every_budget_matches_unfused(self):
        for max_steps in range(1, self._total_steps() + 2):
            kwargs = {"max_steps": max_steps, "crash_point": NEVER}
            assert (_step_outcome(Interpreter, _counting_loop_module(),
                                  **kwargs)
                    == _step_outcome(make_interpreter,
                                     _counting_loop_module(), **kwargs))

    def test_max_steps_exceeded_inside_a_fused_pair(self):
        """The documented divergence: a budget that runs out after a
        fused pair's first component still runs the second one, so the
        bytecode engine stops one step (one instruction's cycles) later,
        with the same message. Every other budget matches exactly."""
        diverged = 0
        for max_steps in range(1, self._total_steps() + 2):
            tree = _step_outcome(Interpreter, _counting_loop_module(),
                                 max_steps=max_steps)
            byte = _step_outcome(make_interpreter, _counting_loop_module(),
                                 max_steps=max_steps)
            if tree == byte:
                continue
            diverged += 1
            assert tree[0] == byte[0] == (
                VMError, f"step budget exceeded ({max_steps})")
            assert byte[1] == tree[1] + 1 == max_steps + 2
            assert (byte[2]["cycles"] - tree[2]["cycles"]
                    == DEFAULT_COST_MODEL.instruction)
        assert diverged > 0

    def test_crash_point_matches(self, tree_reference):
        def crash():
            tel = Telemetry()
            trace = record_trace(
                _counting_loop_module(), entry="main", telemetry=tel,
                crash_point=CrashPoint(file="loop.c", line=7, occurrence=4))
            return (trace.result.crashed, trace.result.steps,
                    trace.result.stats.snapshot(), trace.events,
                    tel.metrics.dump()["counters"])

        tree = tree_reference(crash)
        assert tree[0] is True
        assert tree == crash()

    def test_instruction_trace_matches(self):
        streams = []
        for interpreter in (Interpreter, make_interpreter):
            tel = Telemetry()
            sink = _ListSink()
            tel.add_sink(sink)
            result = interpreter(_counting_loop_module(), telemetry=tel,
                                 trace_instructions=True).run("main", [])
            streams.append((result.value, result.steps,
                            [{k: v for k, v in e.items() if k != "ts"}
                             for e in sink.events
                             if e["event"] == "vm.inst"]))
        assert len(streams[0][2]) == streams[0][1]
        assert streams[0] == streams[1]

    @pytest.mark.parametrize("threads", [False, True],
                             ids=["one-thread", "threads"])
    def test_op_profile_matches(self, threads):
        build = (TestSchedulerParity()._threaded_module if threads
                 else _counting_loop_module)
        runs = []
        for interpreter in (Interpreter, make_interpreter):
            tel = Telemetry()
            result = interpreter(
                build(), telemetry=tel, op_profile=True,
                scheduler=SeededScheduler(seed=3)).run("main", [])
            runs.append((result.value, result.steps,
                         result.stats.snapshot(),
                         tel.metrics.dump()["counters"]))
        assert runs[0][3]["vm.op.load"] > 0
        assert runs[0] == runs[1]


class TestSchedulerParity:
    """Seeded interleavings replay pick for pick on either engine."""

    def _threaded_module(self):
        mod = Module("sched", persistency_model="strict")
        worker = mod.define_function(
            "worker", ty.VOID, [("p", ty.pointer_to(ty.I64))],
            source_file="t.c")
        wb = IRBuilder(worker)
        for _ in range(4):
            v = wb.load(worker.arg("p"))
            wb.store(wb.add(v, 1), worker.arg("p"))
        wb.ret()
        fn = mod.define_function("main", ty.I64, [], source_file="t.c")
        b = IRBuilder(fn)
        p = b.palloc(ty.I64)
        b.store(0, p)
        t1 = b.spawn(worker, [p])
        t2 = b.spawn(worker, [p])
        b.join(t1)
        b.join(t2)
        b.ret(b.load(p))
        verify_module(mod)
        return mod

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_interleavings_match(self, seed):
        results = []
        for interpreter in (Interpreter, make_interpreter):
            result = interpreter(
                self._threaded_module(),
                scheduler=SeededScheduler(seed=seed)).run("main", [])
            results.append((result.value, result.steps,
                            result.stats.snapshot()))
        assert results[0] == results[1]


def _cli_json(argv, capsys):
    """Exit code and stdout of one ``deepmc ... --format json`` run."""
    code = main(argv + ["--format", "json"])
    return code, capsys.readouterr().out


class TestWholeReportDifferential:
    """Whole CLI reports, byte for byte: anything from a persist event to
    a crash-image verdict that depends on the engine shows up here."""

    @pytest.mark.parametrize("argv", [
        ["crashsim"],
        ["litmus"],
        ["fuzz", "--seeds", "0..9", "--budget", "5"],
    ], ids=["crashsim-corpus", "litmus-all-models", "fuzz-seeds-0-9"])
    def test_json_report_identical(self, argv, capsys, tree_reference):
        tree = tree_reference(_cli_json, argv, capsys)
        byte = _cli_json(argv, capsys)
        assert byte[1]
        assert tree == byte


class TestReferenceGuard:
    """The fixture cannot silently compare bytecode with itself."""

    def test_make_interpreter_builds_the_reference(self, tree_reference):
        interp = tree_reference(make_interpreter, _failing_module())
        assert type(interp) is Interpreter
        assert type(make_interpreter(_failing_module())) \
            is BytecodeInterpreter

    def test_building_bytecode_under_the_reference_fails(self,
                                                          tree_reference):
        with pytest.raises(pytest.fail.Exception, match="tree reference"):
            tree_reference(BytecodeInterpreter, _failing_module())
