"""Recovery oracles: classify what each crash image means.

A crash image by itself is just bytes; an *oracle* says whether those
bytes are a state the program's recovery story can live with. Oracles are
WITCHER-style output checkers specialized to a program:

* a tuple of :class:`Invariant` predicates over the durable image
  ("``nbuckets`` is set whenever any bucket is non-empty"), each
  optionally annotated with the ``file:line`` of the corpus bug it
  *validates* — the hook that turns a static warning into a "validated by
  crash image #k" verdict;
* optionally a ``recovery_entry``: the name of an IR function that is run
  in a fresh VM seeded with the crash image (one pointer argument per
  persistent allocation, in allocation order) to perform application-
  level repair before the invariants are re-checked. It runs only on
  images in which every allocation already exists — a crash before the
  pool is created has nothing to repair.

Classification of one image:

1. check the invariants on the raw image (*pre* state);
2. apply recovery — undo-log rollback of every transaction open at the
   crash (mirroring PMDK/NVM-Direct recovery, and matching
   :meth:`repro.vm.crash.CrashState.recovered`), then the VM
   ``recovery_entry`` if the oracle names one;
3. re-check the invariants on the *post* state.

===========  ==========  =====================================
pre          post        outcome
===========  ==========  =====================================
ok           ok          ``consistent``
violated     ok          ``recovered`` (detected and repaired)
—            violated    ``corrupted`` (silent corruption)
—            crashed     ``recovery-crash``
===========  ==========  =====================================

Invariant checks must tolerate images from early crash points where some
allocations do not exist yet (their ``PersistentObject.durable`` is
empty) — return True for states they cannot judge. An exception raised
while checking the *post* state counts as a recovery crash.

Invariants must be pure functions of the state: same image, same
result (or the same exception), and no writes to the state. That lets
classification run **one** invariant pass when recovery is the
identity — no recovery entry runs and the rollback changes no byte —
because then the post state is the pre state and the pre result is
reused for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from ..errors import VMError
from ..ir.module import Module
from ..vm.crash import CrashState
from ..vm.engine import make_interpreter
from ..vm.interpreter import Interpreter
from .enumerate import CrashImage, OpenTx

CONSISTENT = "consistent"
RECOVERED = "recovered"
CORRUPTED = "corrupted"
RECOVERY_CRASH = "recovery-crash"
#: every classification, in severity order
OUTCOMES = (CONSISTENT, RECOVERED, CORRUPTED, RECOVERY_CRASH)
#: outcomes that make an image a *failing* image
FAILING_OUTCOMES = (CORRUPTED, RECOVERY_CRASH)


@dataclass(frozen=True)
class Invariant:
    """One durable-consistency predicate over a crash image."""

    description: str
    check: Callable[[CrashState], bool]
    #: corpus bug coordinates this invariant validates when it fails
    validates: Tuple[Tuple[str, int], ...] = ()


@dataclass(frozen=True)
class Oracle:
    """A program's recovery contract: invariants + optional VM recovery."""

    invariants: Tuple[Invariant, ...] = ()
    recovery_entry: Optional[str] = None


@dataclass
class Verdict:
    """Classification of one crash image."""

    image: int
    event_index: int
    outcome: str
    #: descriptions of invariants violated in the post-recovery state
    failed: Tuple[str, ...] = ()
    error: Optional[str] = None


def rollback_open_tx(image: Dict[int, bytes],
                     open_tx: Tuple[OpenTx, ...]) -> Dict[int, bytes]:
    """Undo-log recovery: restore every logged range of every open tx."""
    img = {aid: bytearray(b) for aid, b in image.items()}
    for tx in open_tx:
        for lr in tx.logged:
            buf = img.get(lr.alloc)
            if buf is not None:
                buf[lr.offset: lr.offset + lr.size] = lr.snapshot
    return {aid: bytes(b) for aid, b in img.items()}


def run_recovery_entry(module: Module, entry: str, image: Dict[int, bytes],
                       recording: Interpreter) -> CrashState:
    """Run ``entry`` in a fresh VM whose NVM is seeded from ``image``.

    The function receives one pointer per persistent allocation of the
    recorded run, in allocation order. Its repairs count only if it
    persists them (flush + fence): the returned state is the recovery
    VM's *durable* image — recovery code is held to the same persistency
    rules as the code it repairs.
    """
    interp = make_interpreter(module)
    ptrs = []
    for aid, alloc in sorted(recording.memory.persistent_allocations().items()):
        data = image.get(aid)
        if data is None:
            continue
        p = interp.memory.alloc(len(data), persistent=True,
                                elem_type=alloc.elem_type, label=alloc.label)
        interp.domain.on_palloc(p.alloc_id, len(data))
        interp.memory.write_bytes(p, bytes(data))
        interp.domain.on_store(p.alloc_id, 0, len(data))
        interp.domain.flush(p.alloc_id, 0, len(data))
        ptrs.append(p)
    interp.domain.fence()  # the seed image is durable before recovery runs
    result = interp.run(entry, ptrs)
    if result.crashed:
        raise VMError(f"recovery entry @{entry} crashed")
    return CrashState(interp)


def _eval(oracle: Oracle, state: CrashState) -> Tuple[bool, Tuple[str, ...]]:
    failed = tuple(inv.description for inv in oracle.invariants
                   if not inv.check(state))
    return not failed, failed


def classify_image(crash_image: CrashImage, oracle: Oracle,
                   recording: Interpreter,
                   module: Optional[Module] = None) -> Verdict:
    """Classify one enumerated image against an oracle (see module doc)."""
    pre = CrashState(recording, crash_image.image)
    pre_error: Optional[Exception] = None
    try:
        pre_ok, failed = _eval(oracle, pre)
    except Exception as exc:
        # an invariant that cannot even read the raw image marks it
        # inconsistent-before-recovery; recovery still gets its chance
        pre_ok, pre_error = False, exc
    recovered_image = crash_image.image
    if crash_image.open_tx:
        recovered_image = rollback_open_tx(crash_image.image,
                                           crash_image.open_tx)
    # the VM recovery entry only makes sense once the pool it repairs
    # exists: images from crash points before some allocation get
    # rollback-only recovery (there is nothing for the entry to open)
    run_entry = bool(oracle.recovery_entry) and set(
        recording.memory.persistent_allocations()) <= set(recovered_image)
    try:
        if not run_entry and recovered_image == crash_image.image:
            # recovery is the identity, so the post state is the pre
            # state: pure invariants give the pre result, or raise again
            if pre_error is not None:
                raise pre_error
            post_ok = pre_ok
        else:
            if run_entry:
                post = run_recovery_entry(module or recording.module,
                                          oracle.recovery_entry,
                                          recovered_image, recording)
            else:
                post = CrashState(recording, recovered_image)
            post_ok, failed = _eval(oracle, post)
    except Exception as exc:
        return Verdict(crash_image.index, crash_image.event_index,
                       RECOVERY_CRASH, error=f"{type(exc).__name__}: {exc}")
    if post_ok:
        return Verdict(crash_image.index, crash_image.event_index,
                       CONSISTENT if pre_ok else RECOVERED)
    return Verdict(crash_image.index, crash_image.event_index,
                   CORRUPTED, failed=failed)
