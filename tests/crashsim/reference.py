"""Plain crash simulation: the reference the shipped code must match.

The shipped enumerator skips a subset unbuilt when its persist state
was already seen in the same replay generation, and the shipped
classifier runs one invariant pass when recovery is the identity. The
code below does neither: it builds and hashes every subset's image,
always rolls back, and always evaluates the pre and the post state on
separate :class:`~repro.vm.crash.CrashState` objects. Budgets count
distinct images only, as in the shipped enumerator.
"""

import itertools

from repro.crashsim import enumerate as enum_mod
from repro.crashsim.enumerate import (
    CrashImage,
    Enumeration,
    ReplayState,
    _digest,
)
from repro.crashsim.oracle import (
    CONSISTENT,
    CORRUPTED,
    RECOVERED,
    RECOVERY_CRASH,
    Verdict,
    rollback_open_tx,
    run_recovery_entry,
)
from repro.vm.crash import CrashState


def reference_enumerate(trace, model, max_states=4096, prune=True):
    """Every legal (crash point, subset) image, built and hashed."""
    replay = ReplayState(trace.alloc_sizes)
    images, seen = [], set()
    pruned = built = 0
    truncated = False
    crash_points = len(trace.events) + 1
    for k in range(crash_points):
        if k > 0:
            replay.apply(trace.events[k - 1])
        candidates = replay.candidates(model)
        effective = ([l for l in candidates if not replay.is_noop(l)]
                     if prune else list(candidates))
        if len(effective) > enum_mod.MAX_LINES:
            subsets = [(), tuple(effective)]
            truncated = True
        else:
            subsets = [s for r in range(len(effective) + 1)
                       for s in itertools.combinations(effective, r)]
        pruned += 2 ** len(candidates) - len(subsets)
        open_tx = replay.open_tx_snapshot()
        for subset in subsets:
            image = replay.image_for(subset)
            built += 1
            key = _digest(image, open_tx)
            if prune and key in seen:
                pruned += 1
                continue
            seen.add(key)
            if len(images) >= max_states:
                return Enumeration(images, k + 1, pruned, True, built)
            images.append(CrashImage(len(images) + 1, k, subset, image,
                                     open_tx))
    return Enumeration(images, crash_points, pruned, truncated, built)


def reference_classify(crash_image, oracle, recording, module=None):
    """Pre pass, rollback, recovery entry if due, post pass: always."""
    pre = CrashState(recording, dict(crash_image.image))
    try:
        pre_ok = all([inv.check(pre) for inv in oracle.invariants])
    except Exception:
        pre_ok = False
    recovered = rollback_open_tx(crash_image.image, crash_image.open_tx)
    allocs = set(recording.memory.persistent_allocations())
    try:
        if oracle.recovery_entry and allocs <= set(recovered):
            post = run_recovery_entry(module or recording.module,
                                      oracle.recovery_entry, recovered,
                                      recording)
        else:
            post = CrashState(recording, recovered)
        failed = tuple(inv.description for inv in oracle.invariants
                       if not inv.check(post))
    except Exception as exc:
        return Verdict(crash_image.index, crash_image.event_index,
                       RECOVERY_CRASH, error=f"{type(exc).__name__}: {exc}")
    if failed:
        return Verdict(crash_image.index, crash_image.event_index,
                       CORRUPTED, failed=failed)
    return Verdict(crash_image.index, crash_image.event_index,
                   CONSISTENT if pre_ok else RECOVERED)


def enumeration_fields(enum):
    """What the shipped enumerator must reproduce (``built`` excluded)."""
    return ([(img.index, img.event_index, img.persisted, img.image,
              img.open_tx) for img in enum.images],
            enum.pruned, enum.truncated, enum.crash_points)


def verdict_fields(verdict):
    return (verdict.image, verdict.event_index, verdict.outcome,
            verdict.failed, verdict.error)
