"""Rendering the execution-layer contract into ``docs/VM.md``.

Same scheme as :mod:`repro.litmus.docgen` / docs/MODELS.md: the prose
layer — the engine overview, the equivalence contract, the fusion and
determinism rules — is hand-authored *here*, as constants, and the
instruction reference is rendered from :data:`repro.vm.bytecode.OPSPECS`,
the same table that drives dispatch, disassembly, and the profiler's
component-op accounting. ``python -m repro.vm.docgen`` regenerates the
complete file deterministically and CI diffs it against the committed
copy, so the documented instruction set can never drift from the
executable one: adding an opcode without regenerating the docs fails CI,
and changing execution semantics without updating the differential tests
fails ``tests/vm/test_engine_differential.py`` first.

Nothing in the output depends on wall-clock, environment, or iteration
order of unordered containers — byte-stable regeneration is the contract
the CI check relies on.
"""

from __future__ import annotations

import sys
from typing import List

from .bytecode import NOPCODES, OPSPECS

_GENERATED_MARK = (
    "<!-- Generated by `python -m repro.vm.docgen`. Edit the prose in\n"
    "     src/repro/vm/docgen.py and the opcode table in\n"
    "     src/repro/vm/bytecode.py, then regenerate. CI fails if this\n"
    "     file differs from regeneration. -->")

PREAMBLE = """\
# The VM execution layer — bytecode, the tree reference, and the equivalence contract

DeepMC executes NVM IR on one engine, with a second kept as its
reference:

* **`bytecode`** — the production engine
  (`repro.vm.bytecode.BytecodeInterpreter`). Every VM run in the tool —
  `deepmc run`, crashsim, litmus, fuzz, the dynamic checker, the bench —
  is built by `repro.vm.engine.make_interpreter`, which always returns
  this engine; there is no option to pick another. IR is lowered once
  per module (`repro.vm.compile`) to flat register bytecode: operands
  are pre-resolved to register slots, constants are materialized into
  the register-file template, callees and builtins are pre-bound,
  struct field offsets and element sizes are precomputed, and adjacent
  instruction pairs are fused where legal. A single dispatch loop then
  executes tuples with the interpreter state held in locals.
* **`tree`** — the reference tree walker
  (`repro.vm.interpreter.Interpreter`). It interprets IR instruction
  objects directly and is the semantic ground truth: every rule below is
  stated as "whatever the tree engine does". Only tests run it: they
  construct it directly, or wrap a call in the `tree_reference` fixture
  (`tests/conftest.py`), under which `make_interpreter` builds the tree
  walker and building a `BytecodeInterpreter` fails the test.

`deepmc run --dump-bytecode` prints the compiled program instead of
running it.

Compiled programs are cached on the module object itself (one variant
with fusion, one without), so they are freed together with it; passes
that mutate IR in place — the dynamic checker's instrumenter — call
`repro.vm.compile.invalidate_bytecode_cache(module)` after rewriting.

## The equivalence contract

The two engines must be **observably identical**. Concretely, for any
module, entry point, arguments, scheduler, fault injector, and crash
point, both engines produce:

* the same **persist-event stream** — every `persist.*` event, in the
  same order with the same payload fields (`ts` excepted: wall-clock is
  never part of the contract). Crashsim records this stream and replays
  crash images from it, so this clause is what makes crash-image sets
  engine-independent.
* the same **NVM stats** (`persistent_stores`, `flushes`, `fences`,
  `cycles`, …) — the simulated cost model charges the same costs in the
  same places, including one `cost.instruction` per *IR* step.
* the same **telemetry counters** — `vm.op.*` per-op counts,
  `vm.event.*` counts, and `vm.*` run stats. Fused opcodes count every
  component IR op, so op counts are fusion-invariant.
* the same **execution results** — return value, steps, output,
  `crashed` flag, and crash images / recovery outcomes downstream.
* the same **errors** — `VMError`/`MemoryFault`/`CrashInjected` with
  byte-identical messages, including compile-time-detectable failures
  (undefined callee, arity mismatch, unbound value), which the compiler
  lowers to `raise` instructions so they still fire only if and when
  the faulty instruction executes. Every `MemoryFault` message is made
  in `repro.vm.memory`, on both engines (see the memory fast path
  below).
* the same **scheduler consultations** — the bytecode engine runs an
  unbounded inner loop while exactly one thread is runnable and asks
  the scheduler once per step otherwise, exactly like the tree loop, so
  seeded interleavings match pick for pick.

Engine-dependent by design (and only these): wall-clock, and the
`vm.optime.*` timing histograms — the sampled profiler attributes a
fused pair's time to its first component, so timing *attribution*
shifts even though counts do not.

`tests/vm/test_engine_differential.py` enforces the contract over the
corpus and the litmus catalog, and diffs the full `crashsim` (whole
corpus), `litmus` (all models) and `fuzz --seeds 0..9 --budget 5` JSON
reports byte for byte between the tree reference and production;
`tests/property/test_engine_equivalence.py` fuzzes it with generated
programs, and its `TestDynamicCheckerDifferential` runs the dynamic
checker over the 15 application pairs (at 400 transactions, with the
benchmark's scheduler seeds), the litmus cases and a fuzz campaign:
races, `events_handled`, results and `NVMStats` must match, with the
hooks sent through `DeepMCRuntime.handle` on the tree engine and through
the hook opcodes on bytecode. `TestStepCheck` holds the step budget,
crash points, instruction tracing and the op profiler to the tree
engine. Its `TestErrorParity` holds the error clause: besides a
division by zero and step-budget exhaustion, a wall of memory faults
runs each load/store shape the dispatch loop range-checks inline
(`load_i`, `fuse_load_binop`, `store_i`, `load_p`, `store_p`) through
a null pointer, a dangling allocation id, a freed heap object, a
returned stack slot, a negative offset and one slot past the end, on
the fused and on the unfused program, plus the last in-bounds slot and
the `store_p` value faults (a non-pointer, an unencodable pointer).
Both engines must raise the same type with the same message.

### Documented divergences

Three corner cases diverge, all outside the behavior envelope of
verified IR:

1. **Step-budget granularity.** The budget is checked per bytecode
   instruction, so a run exhausting `max_steps` inside a fused pair
   executes the second component before raising: one more step and one
   more instruction's cycles than the tree engine, with the same
   message. The step *count* of non-exhausted runs is identical (a
   fused pair is 2 steps).
2. **Branches to missing labels** raise when the `br` executes, not
   only when the missing side is taken. The verifier rejects such IR.
3. **Use before definition across blocks** reads the register file's
   initial `None` instead of raising "no runtime binding". The verifier
   rejects such IR; uses of genuinely undefined *names* still raise the
   tree engine's exact error.

## Instruction fusion

The compiler fuses two adjacent-pair shapes, eliminating one dispatch
per pair while preserving every observable:

* `load_i` + i64 `add/sub/mul/and/or/xor` whose loaded value feeds
  exactly one side of the binop (`fuse_load_binop`);
* `icmp` + `br` on the just-computed condition (`fuse_icmp_br`).

Fusion requires the pair to be adjacent in one basic block with all
operands bound; a block boundary or an intervening instruction
(including `txbegin`/`txend` — transaction boundaries split fusion
windows) blocks it. A multi-use intermediate does *not* block fusion:
fused ops write *both* result
registers (later uses of the intermediate value read the real value),
count both component ops in `vm.op.*`, charge both instruction costs,
and advance the step counter by 2.

Fusion is disabled wholesale — the plain-variant program is compiled —
when any of these need instruction-granular behavior:

* the module spawns threads (scheduler consultations must match the
  tree engine's per-instruction cadence);
* a crash point is set (crash injection matches source locations per
  IR instruction);
* instruction tracing is on (`vm.inst` events are emitted one per IR
  instruction).

## The dispatch loop

`BytecodeInterpreter._run_thread` executes one thread until it blocks,
finishes, changes the thread set, or uses up its scheduler budget. Each
step makes two tests besides its dispatch:

* `slow` guards the per-step work only some runs need: the crash-point
  match, the `vm.inst` event, the op profiler's count and sampled
  timer. Runs without a crash point, tracing or profiler skip all three
  with one test.
* After the op, `steps >= limit` is the only test. `limit` is the step
  count at which the loop must leave: `max_steps + 1`, or the end of the
  scheduler budget when that comes first. Spawn, a blocked join and a
  thread's last `ret` set it to 0, as does a step the profiler times,
  to close its sample. When the test fires, a run past `max_steps`
  raises first, with the tree engine's message; otherwise the loop
  returns at the end of the budget or after such an op, and carries on
  after a timed step. A budget of 1 (several runnable threads) still
  means one dispatch.

The opcode tests form one `elif` chain, ordered by the dispatch counts
of one `app_dynamic` pass plus one `fuzz_triage` pass of the benchmark
(the counts are in a comment above the chain); opcodes neither pass
runs come last.

Two kinds of IR get opcodes of their own so that the hot cases skip the
generic paths:

* i64 `sdiv` and `srem` (`sdiv64`, `srem64`) compute C's truncating
  quotient and remainder on two ints with a non-zero divisor, wrapping
  like every i64 op. Any other operand, a zero divisor and every other
  width take `binop_values`, the tree engine's `_binop` over raw values,
  so every error message stays the same.
* The instrumenter's hooks (`__deepmc_write` and `__deepmc_read` with a
  pointer and a size, `__deepmc_fence` with no argument) compile to
  `hook_write`, `hook_read` and `hook_fence`, which call the attached
  runtime's `on_write`, `on_read` and `on_fence` with the operands, with
  no argument list and no name compare. Any other `__deepmc_*` call
  keeps `call_rt`, which goes through `DeepMCRuntime.handle` by name,
  as the tree engine does for every hook.

All five count as their IR op (`binop`, `call`) in `vm.op.*`.

## The memory fast path

Memory is a table of allocations, and a pointer is an
`(allocation id, byte offset)` pair (`repro.vm.memory.Pointer`), so
every heap access is a lookup in that table. The dispatch loop makes
the lookup itself for the five common access opcodes — `load_i`,
`fuse_load_binop`, `store_i`, `load_p` with a pointer type, and
`store_p` with a `Pointer` value and a pointer type: one
`Memory.allocs.get(id)`, then `Memory._check_range`'s tests in its
order (the allocation exists, is not freed, `0 <= offset` and
`offset + size <= allocation size`). When they pass, the loop reads or
writes the allocation's `data` bytes in place and takes persistence
from the same record's `persistent` flag. When any fails, the opcode
calls the `Memory` method the tree engine calls (`read_int`,
`write_int`, `read_typed`, `write_typed`), which raises the
`MemoryFault`; so no fault message is made in the loop. The checks
that precede the range test stay where they were: `store_i` converts
its value with `int()` first, aggregates are refused by `read_typed`
before any range test, a `None` or non-pointer value takes
`write_typed`, and a stored pointer is encoded (`Pointer.encode`
refuses an unencodable one) before any byte is written, as under
`write_typed`. `load_f`/`store_f`, `memcpy`, `memset`, `txadd` and
`flush` still go through `Memory`.

## Determinism and snapshot-friendliness (DPOR)

Bytecode execution state is deliberately flat and copyable, with a
stateless-exploration future (DPOR-style systematic interleaving
search) in mind:

* a thread is a stack of frames; a frame is `(function, pc, registers,
  allocas)` where registers is a plain list — snapshotting a thread is
  copying lists, with no interpreter-internal aliasing;
* the program counter is written back to the frame on every scheduler
  switch, so a suspended thread is fully described by its frame stack;
* compiled code is immutable and shared — snapshots never copy it;
* registers hold ints, floats and `Pointer`s, and a `Pointer` is
  immutable by contract: a slotted value class whose `alloc_id` and
  `offset` nothing assigns after construction (not enforced: a
  guarding `__setattr__` would make construction about as slow as the
  frozen dataclass it replaced), so a copied register list can share
  them;
* scheduler consultations are the only nondeterminism source, and they
  match the tree engine pick for pick (see the contract above), so a
  recorded schedule replays identically on either engine.

## Instruction reference

Generated from `repro.vm.bytecode.OPSPECS` — the registry that also
drives dispatch, `--dump-bytecode` disassembly, and the profiler's
component-op accounting. **components** lists the IR ops an opcode
executes (what `vm.op.*` counts); **persist events** lists the
`persist.*` kinds it may emit; **fusion** marks pair eligibility
(`head` ops may start a fused pair, `tail` ops may end one, `fused`
opcodes are the result).
"""


def render_instruction_table() -> List[str]:
    lines = [
        "| # | opcode | operands | components | persist events | fusion |",
        "|---|---|---|---|---|---|",
    ]
    for spec in OPSPECS:
        components = ", ".join(f"`{c}`" for c in spec.components) or "—"
        events = ", ".join(f"`{e}`" for e in spec.events) or "—"
        operands = f"`{spec.operands}`" if spec.operands else "—"
        lines.append(
            f"| {spec.code} | `{spec.name}` | {operands} "
            f"| {components} | {events} | {spec.fusion or '—'} |")
    lines.append("")
    lines.append("### Per-opcode notes")
    lines.append("")
    for spec in OPSPECS:
        lines.append(f"* **`{spec.name}`** — {spec.doc}")
    return lines


def render_vm_md() -> str:
    """The complete ``docs/VM.md`` content (byte-stable)."""
    lines: List[str] = [_GENERATED_MARK, "", PREAMBLE, ""]
    lines.append(f"{NOPCODES} opcodes:")
    lines.append("")
    lines.extend(render_instruction_table())
    text = "\n".join(lines)
    while "\n\n\n" in text:
        text = text.replace("\n\n\n", "\n\n")
    return text if text.endswith("\n") else text + "\n"


def main(argv: List[str]) -> int:
    path = argv[0] if argv else "docs/VM.md"
    text = render_vm_md()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"deepmc: wrote {path} ({len(text)} bytes)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
