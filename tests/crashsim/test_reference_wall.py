"""Differential wall: shipped crash simulation against the plain reference.

The enumerator skips a subset unbuilt when its ``(generation, {line:
content})`` was already seen, and the classifier reuses the pre result
when recovery is the identity. ``reference.py`` does neither. Both must
give the same images (index, crash point, persisted lines, bytes, open
transactions), the same ``pruned``/``truncated``/``crash_points`` and
the same verdicts on every input family: the oracle programs (buggy and
fixed), every litmus case under each of its models (enumeration only),
two fuzz campaigns, the classification tests' pair modules (two of them
with a recovery entry), and hand-built traces that reach what the
generated programs rarely do: ``evict``, ``torn``, ``drop`` and
``pfree``, a fence that drains nothing new, a write-back that changes
no byte, and open transactions whose rollback does or does not change
a byte. Each enumeration is compared at its family's budget and at a
budget of 3, with and without pruning.
"""

from collections import Counter

import pytest

from repro.corpus import REGISTRY
from repro.crashsim import (
    DEFAULT_MAX_STATES,
    Invariant,
    Oracle,
    PersistTrace,
    TraceEvent,
    classify_image,
    enumerate_crash_images,
    record_trace,
    simulate_program,
)
from repro.faults.injector import FaultInjector
from repro.fuzz import build_program
from repro.fuzz.oracle import DEFAULT_MAX_STATES as FUZZ_MAX_STATES
from repro.fuzz.oracle import build_oracle
from repro.ir import IRBuilder, Module, REGION_TX, types as ty, verify_module
from repro.litmus.catalog import cases
from repro.litmus.spec import litmus_spec
from repro.telemetry import Telemetry
from tests.crashsim.reference import (
    enumeration_fields,
    reference_classify,
    reference_enumerate,
    verdict_fields,
)
from tests.crashsim.test_oracle import (
    _with_recovery,
    buggy_pair_module,
    logged_pair_module,
    pair_invariant,
)

FUZZ_CAMPAIGNS = (0, 97)
FUZZ_PROGRAMS = 30
#: a budget every family reaches, so truncated runs are compared too
SMALL_BUDGET = 3


# -- hand-built traces --------------------------------------------------------

def _recording():
    """A run that allocates ``a`` (two lines) and ``b`` (one line) and
    does nothing else: its allocation table gives the hand-built traces'
    images their objects."""
    mod = Module("hand", persistency_model="strict")
    fn = mod.define_function("main", ty.VOID, [], source_file="h.c")
    b = IRBuilder(fn)
    b.palloc(ty.I64, 16, name="a", line=1)
    b.palloc(ty.I64, 8, name="b", line=2)
    b.ret(line=3)
    verify_module(mod)
    return record_trace(mod)


def _line(value):
    return value.to_bytes(8, "little") * 8


def _hand_oracle(a, b):
    def a_not_8(state):
        obj = state.object(a)
        return len(obj.durable) < 8 or obj.read_int(0) != 8

    def b_not_3(state):
        obj = state.object(b)
        if len(obj.durable) >= 8 and obj.read_int(0) == 3:
            raise ValueError("b holds 3")
        return True

    return Oracle((Invariant("a[0] != 8", a_not_8),
                   Invariant("b[0] != 3, else raise", b_not_3)))


def _steps(name, a, b):
    """The event list of hand-built case ``name`` as (kind, fields)."""
    size = {a: 128, b: 64}

    def palloc(x):
        return ("palloc", {"alloc": x, "size": size[x]})

    def store(x, line, value):
        return ("store", {"alloc": x, "offset": line * 64, "size": 64,
                          "content": {(x, line): _line(value)}})

    def flush(x, line):
        return ("flush", {"alloc": x, "offset": line * 64, "size": 64})

    def at_line(kind, x, line, **more):
        return (kind, {"alloc": x, "line": line, **more})

    def tx(kind, region):
        return (kind, {"thread": 0, "region": region,
                       "region_kind": REGION_TX})

    def txadd(x, offset, snapshot):
        return ("txadd", {"thread": 0, "alloc": x, "offset": offset,
                          "size": len(snapshot), "snapshot": snapshot})

    fence = ("fence", {})
    return {
        # a write-back outside any fence; the second evict changes no byte
        "evict": [palloc(a), store(a, 0, 1), at_line("evict", a, 0),
                  store(a, 0, 2), store(a, 1, 3), flush(a, 0), flush(a, 1),
                  fence, at_line("evict", a, 1), store(a, 0, 1),
                  at_line("evict", a, 0), fence],
        # a drain that kept only the first bytes of its line
        "torn": [palloc(a), store(a, 0, 5), flush(a, 0),
                 at_line("torn", a, 0, keep=8), fence, store(a, 1, 6),
                 flush(a, 1), at_line("torn", a, 1, keep=16),
                 store(a, 1, 7), flush(a, 1), fence],
        # a lost drain: the fence after it drains nothing new; the 8
        # that a later fence makes durable is silent corruption
        "drop": [palloc(a), store(a, 0, 8), flush(a, 0),
                 at_line("drop", a, 0), fence, flush(a, 0), fence],
        # b's last value makes its invariant raise, with no tx open
        "pfree": [palloc(a), palloc(b), store(a, 0, 1), store(b, 0, 2),
                  flush(a, 0), flush(b, 0), fence, ("pfree", {"alloc": a}),
                  store(b, 0, 3), flush(b, 0), fence,
                  ("pfree", {"alloc": b})],
        # epoch: a[0]'s unflushed 1 escapes in the first epoch only; a
        # fence drains a[1], and a store of the same 1 makes a[0] a
        # candidate again, now over a new durable base
        "restore": [palloc(a), store(a, 0, 1), fence, store(a, 1, 2),
                    flush(a, 1), fence, store(a, 0, 1), fence],
        # write-backs of lines whose bytes are already durable
        "quiet-fence": [palloc(a), store(a, 0, 0), flush(a, 0), fence,
                        fence, store(a, 0, 4), fence, flush(a, 0), fence],
        # the logged range already holds its snapshot: rollback is a no-op
        "tx-identity": [palloc(a), store(a, 0, 9), flush(a, 0), fence,
                        tx("txbegin", 1), txadd(a, 0, _line(9)[:8]),
                        store(a, 1, 4), flush(a, 1), fence, tx("txend", 1),
                        fence],
        # a durable in-tx 8 that rollback undoes; b raises mid-tx too
        "tx-rollback": [palloc(a), palloc(b), tx("txbegin", 1),
                        txadd(a, 0, bytes(64)), store(a, 0, 8), flush(a, 0),
                        fence, store(b, 0, 3), flush(b, 0), fence,
                        tx("txend", 1), fence],
    }[name]


HAND_BUILT = ("evict", "torn", "drop", "pfree", "restore", "quiet-fence",
              "tx-identity", "tx-rollback")


def _hand_built(name, model):
    rec = _recording()
    a, b = (ev.alloc for ev in rec.events if ev.kind == "palloc")
    events = [TraceEvent(index=i, kind=kind, **fields)
              for i, (kind, fields) in enumerate(_steps(name, a, b))]
    trace = PersistTrace(events=events, alloc_sizes={a: 128, b: 64},
                         result=rec.result)
    return trace, model, _hand_oracle(a, b), rec.interpreter.module


# -- input families -----------------------------------------------------------

def _oracle_program(program, fixed):
    module = program.build(fixed=fixed)
    trace = record_trace(module, entry=program.entry or "main")
    return (trace, module.persistency_model or program.model,
            program.oracle, module)


def _litmus(test, model):
    injector = (FaultInjector(nvm_directive=test.fault)
                if test.fault is not None else None)
    trace = record_trace(litmus_spec(test, model).to_module(), entry="main",
                         fault_injector=injector)
    return trace, model, None, None


def _fuzz(seed, index):
    spec = build_program(seed, index)
    module = spec.to_module()
    return (record_trace(module, entry="main"), spec.model,
            build_oracle(spec), module)


def _pair(build, recovery_entry):
    module = build()
    return (record_trace(module), "strict",
            Oracle((pair_invariant(),), recovery_entry=recovery_entry),
            module)


def _inputs():
    """(id, builder of (trace, model, oracle or None, module), budget)."""
    for program in REGISTRY.programs():
        if program.oracle is None:
            continue
        for fixed in (False, True):
            variant = "fixed" if fixed else "buggy"
            yield (f"oracle:{program.name}:{variant}",
                   lambda p=program, f=fixed: _oracle_program(p, f),
                   DEFAULT_MAX_STATES)
    for test, model in cases():
        yield (f"litmus:{test.name}:{model}",
               lambda t=test, m=model: _litmus(t, m), DEFAULT_MAX_STATES)
    for seed in FUZZ_CAMPAIGNS:
        for index in range(FUZZ_PROGRAMS):
            yield (f"fuzz:{seed}:{index}",
                   lambda s=seed, i=index: _fuzz(s, i), FUZZ_MAX_STATES)
    for name, module, entry in (
            ("buggy", buggy_pair_module, None),
            ("logged", logged_pair_module, None),
            ("repair", lambda: _with_recovery(True), "repair"),
            ("unpersisted-repair", lambda: _with_recovery(False), "repair")):
        yield (f"pair:{name}", lambda b=module, e=entry: _pair(b, e),
               DEFAULT_MAX_STATES)
    for name in HAND_BUILT:
        for model in ("strict", "epoch"):
            yield (f"hand:{name}:{model}",
                   lambda n=name, m=model: _hand_built(n, m),
                   DEFAULT_MAX_STATES)


INPUTS = list(_inputs())


@pytest.mark.parametrize("build,budget", [entry[1:] for entry in INPUTS],
                         ids=[entry[0] for entry in INPUTS])
def test_crash_simulation_matches_reference(build, budget):
    trace, model, oracle, module = build()
    for max_states in (budget, SMALL_BUDGET):
        for prune in (True, False):
            got = enumerate_crash_images(trace, model, max_states=max_states,
                                         prune=prune)
            want = reference_enumerate(trace, model, max_states=max_states,
                                       prune=prune)
            assert enumeration_fields(got) == enumeration_fields(want), \
                (max_states, prune)
    if oracle is None:
        return
    enum = enumerate_crash_images(trace, model, max_states=budget)
    recording = trace.interpreter
    got = [verdict_fields(classify_image(img, oracle, recording, module))
           for img in enum.images]
    want = [verdict_fields(reference_classify(img, oracle, recording,
                                              module))
            for img in enum.images]
    assert got == want


def test_every_family_is_covered():
    families = Counter(entry[0].split(":")[0] for entry in INPUTS)
    assert families == {"oracle": 18, "litmus": len(cases()),
                        "fuzz": len(FUZZ_CAMPAIGNS) * FUZZ_PROGRAMS,
                        "pair": 4, "hand": 2 * len(HAND_BUILT)}


def test_hand_built_traces_reach_every_outcome():
    """The hand-built family exercises each classification path."""
    outcomes = Counter()
    for name in HAND_BUILT:
        trace, model, oracle, module = _hand_built(name, "strict")
        for img in enumerate_crash_images(trace, model).images:
            verdict = classify_image(img, oracle, trace.interpreter, module)
            outcomes[verdict.outcome] += 1
    assert set(outcomes) == {"consistent", "recovered", "corrupted",
                             "recovery-crash"}


# -- work counts --------------------------------------------------------------

#: images built per oracle program at the default budget: (buggy, fixed)
ORACLE_IMAGES_BUILT = {
    "mnemosyne_phlog": (6, 10),
    "nvmdirect_locks": (12, 12),
    "pmdk_btree_map": (11, 13),
    "pmdk_hashmap": (23, 15),
    "pmdk_hashmap_atomic": (34, 26),
    "pmdk_obj_pmemlog": (12, 8),
    "pmdk_obj_pmemlog_simple": (12, 8),
    "pmfs_journal": (10, 16),
    "pmfs_symlink": (26, 20),
}


def test_oracle_programs_images_built():
    """``simulate_program`` publishes ``Enumeration.built`` as
    ``crashsim.images_built``."""
    built = {}
    for name in ORACLE_IMAGES_BUILT:
        row = []
        for fixed in (False, True):
            tel = Telemetry()
            simulate_program(name, fixed=fixed, telemetry=tel)
            row.append(
                tel.metrics.dump()["counters"]["crashsim.images_built"])
        built[name] = tuple(row)
    assert built == ORACLE_IMAGES_BUILT
    assert {p.name for p in REGISTRY.programs()
            if p.oracle is not None} == set(ORACLE_IMAGES_BUILT)


def test_fuzz_campaign_images_built():
    """Campaign-0 programs 0..99: 2,235 distinct images cost 5,023
    builds; an enumerator that builds every subset makes 9,611."""
    built = reference_built = states = 0
    for index in range(100):
        spec = build_program(0, index)
        trace = record_trace(spec.to_module(), entry="main")
        enum = enumerate_crash_images(trace, spec.model,
                                      max_states=FUZZ_MAX_STATES)
        built += enum.built
        states += enum.states
        reference_built += reference_enumerate(
            trace, spec.model, max_states=FUZZ_MAX_STATES).built
    assert (states, built, reference_built) == (2235, 5023, 9611)
