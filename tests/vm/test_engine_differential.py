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

import pytest

from repro.cli import main
from repro.corpus import REGISTRY
from repro.crashsim.enumerate import enumerate_crash_images
from repro.crashsim.trace import record_trace
from repro.dynamic import DynamicChecker
from repro.errors import MemoryFault, VMError
from repro.faults import FaultInjector
from repro.ir import IRBuilder, Module, types as ty, verify_module
from repro.ir.values import Constant, null_ptr
from repro.litmus import CATALOG, cases
from repro.litmus.observe import litmus_spec, project_outcomes
from repro.telemetry import Telemetry
from repro.vm.bytecode import OP_FUSE_LOAD_BINOP, BytecodeInterpreter
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


class TestDynamicCheckerDifferential:
    """The instrumented (in-place rewritten) module runs identically —
    exercising invalidate_bytecode_cache and instrumentation hooks."""

    @pytest.mark.parametrize("name", ["pmdk_btree_map", "mnemosyne_chash",
                                      "pmfs_journal"])
    def test_warning_parity(self, name, tree_reference):
        program = REGISTRY.program(name)

        def check():
            report, runs = DynamicChecker(
                program.build(), program.model).run(seeds=(1, 2, 3))
            return (
                {(w.rule_id, w.loc.file, w.loc.line)
                 for w in report.warnings()},
                [(r.seed, r.exec_result.value, r.exec_result.steps,
                  r.exec_result.output, r.exec_result.crashed,
                  r.exec_result.stats.snapshot()) for r in runs],
            )

        assert tree_reference(check) == check()


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
