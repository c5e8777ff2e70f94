"""Crash-image enumeration from a recorded persist-event trace.

Given a :class:`~repro.crashsim.trace.PersistTrace`, replay the event
stream through a model of the persist pipeline and, at every event prefix
(= crash point), enumerate the durable images a real power failure could
expose under the active persistency model:

* **strict** (PMDK, NVM-Direct): the durable base plus any subset of the
  *pending* lines — flushed (``clwb``) but not yet fenced. ``clwb``
  completion is unordered until the fence, so each subset is legal; lines
  a fence already drained are in the base of every later image (the
  fence-ordered prefix).
* **epoch** (PMFS, Mnemosyne): additionally, any subset of the lines
  *dirtied in the current epoch* (since the last fence). Epoch persistency
  only orders across epoch boundaries, so within the open epoch a write-
  back may race ahead of an explicit flush. Unflushed lines from *earlier*
  epochs are deliberately excluded: enumerating spontaneous eviction of
  arbitrarily old writes would be legal but explodes the space without
  exercising the bug patterns the corpus models (the ``strand`` model is
  treated like epoch here).

Pruning keeps enumeration tractable:

* **persist-equivalence**: a candidate line whose architectural content
  already equals its durable content is a no-op — including or excluding
  it yields the same image — so it is dropped before subsetting, halving
  the space per such line;
* **dedup**: images are hashed together with the open-transaction state
  (two byte-identical images recover differently if one still has an
  undo log to roll back) and each equivalence class is emitted once, at
  its first crash point. A subset is not even built when its persist
  state was already seen: the replay's ``generation`` changes whenever
  the durable base or the undo logs may change, so an equal
  ``(generation, {line: content})`` pair means an equal image and equal
  undo logs. The hash still catches duplicates across generations;
* **budget**: a per-crash-point candidate cap (:data:`MAX_LINES`; above
  it only the two extreme images — nothing / everything persisted — are
  emitted) and a global ``max_states`` budget on distinct images; both
  set ``truncated``.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..deadline import Deadline
from ..ir.instructions import REGION_TX
from ..nvm.cacheline import LineId, line_span, lines_covering
from .trace import PersistTrace, TraceEvent

#: the image budget that every default crash budget in the tool reads
DEFAULT_MAX_STATES = 4096

#: models whose in-epoch dirty lines are enumeration candidates
_EPOCH_LIKE = ("epoch", "strand")

#: candidate lines at one crash point above which only the two extreme
#: images are emitted (read at use time)
MAX_LINES = 14

#: event kinds that start a new replay generation; a write-back
#: (``fence``, ``evict``) does so only when it changes durable bytes
_NEW_GENERATION = frozenset(
    ("palloc", "pfree", "torn", "txbegin", "txadd", "txend"))


@dataclass(frozen=True)
class LoggedRange:
    """One ``txadd``-logged range: where, and the pre-modification bytes."""

    alloc: int
    offset: int
    size: int
    snapshot: bytes


@dataclass(frozen=True)
class OpenTx:
    """A durable transaction still open at the crash point."""

    thread: int
    region: int
    logged: Tuple[LoggedRange, ...]


@dataclass
class CrashImage:
    """One enumerated durable image.

    ``index`` is the stable 1-based "crash image #k" the CLI and the
    validation verdicts refer to. ``event_index`` is the crash point: the
    image is legal after replaying ``trace.events[:event_index]``.
    """

    index: int
    event_index: int
    persisted: Tuple[LineId, ...]
    image: Dict[int, bytes]
    open_tx: Tuple[OpenTx, ...]


@dataclass
class Enumeration:
    """The full result of enumerating one trace.

    ``deadline_exceeded`` marks a *cooperative* truncation: a deadline
    budget ran out mid-enumeration, so ``images`` holds every image
    enumerated so far (each individually complete and legal) and
    ``truncated`` is also set. Budget truncation (``max_states``) leaves
    ``deadline_exceeded`` False.
    """

    images: List[CrashImage]
    crash_points: int
    pruned: int
    truncated: bool
    #: images actually built and hashed (the rest were skipped unbuilt)
    built: int
    deadline_exceeded: bool = False

    @property
    def states(self) -> int:
        return len(self.images)


class ReplayState:
    """The persist-pipeline state machine, rebuilt from trace events.

    Mirrors :class:`repro.nvm.domain.PersistDomain` exactly — stores dirty
    lines, flushes move dirty lines into a FIFO pending set, fences drain
    it — but runs on recorded content instead of live memory, and
    additionally tracks what the domain does not need: the set of lines
    dirtied in the current epoch and the per-thread open-transaction undo
    logs (both from the trace's txbegin/txadd/txend events).

    ``generation`` changes whenever the durable base or the undo logs
    may change, so two crash points with the same generation share both.
    """

    def __init__(self, alloc_sizes: Dict[int, int]):
        self._sizes = dict(alloc_sizes)
        self.generation = 0
        self.durable: Dict[int, bytearray] = {}
        #: latest post-store content per line (tracks architectural memory)
        self.content: Dict[LineId, bytes] = {}
        self.dirty: Dict[LineId, None] = {}
        self.pending: Dict[LineId, None] = {}
        self.epoch_dirty: Dict[LineId, None] = {}
        #: per-thread stack of [region_id, [LoggedRange, ...]]
        self._tx: Dict[int, List[list]] = {}

    # -- event application --------------------------------------------------
    def apply(self, ev: TraceEvent) -> None:
        if ev.kind in _NEW_GENERATION:
            self.generation += 1
        if ev.kind == "palloc":
            self.durable[ev.alloc] = bytearray(ev.size)
        elif ev.kind == "pfree":
            self.durable.pop(ev.alloc, None)
            for coll in (self.content, self.dirty, self.pending,
                         self.epoch_dirty):
                for ln in [l for l in coll if l[0] == ev.alloc]:
                    del coll[ln]
        elif ev.kind == "store":
            for ln, data in ev.content.items():
                self.content[ln] = data
                self.dirty[ln] = None
                self.epoch_dirty[ln] = None
        elif ev.kind == "flush":
            for idx in lines_covering(ev.offset, ev.size):
                ln = (ev.alloc, idx)
                if ln in self.dirty:
                    # re-flush of a pending line re-queues it at the tail,
                    # matching the domain's FIFO move_to_end
                    self.pending.pop(ln, None)
                    self.pending[ln] = None
        elif ev.kind == "fence":
            for ln in list(self.pending):
                self._write_back(ln)
            self.pending.clear()
            self.epoch_dirty.clear()
        elif ev.kind == "evict":
            ln = (ev.alloc, ev.line)
            self._write_back(ln)
            self.pending.pop(ln, None)
            self.epoch_dirty.pop(ln, None)
        elif ev.kind == "drop":
            # injected dropped flush: the drain never happened — the line
            # leaves the pending set but stays dirty (a later flush+fence
            # can still persist it)
            self.pending.pop((ev.alloc, ev.line), None)
        elif ev.kind == "torn":
            # injected torn write-back: only the first `keep` bytes of
            # the line reached the device; the line is clean thereafter
            ln = (ev.alloc, ev.line)
            data = self.content.get(ln)
            buf = self.durable.get(ev.alloc)
            if data is not None and buf is not None:
                start, end = line_span(ln[1])
                end = min(end, len(buf))
                keep = max(0, min(ev.keep or 0, end - start, len(data)))
                buf[start:start + keep] = data[:keep]
            self.dirty.pop(ln, None)
            self.pending.pop(ln, None)
        elif ev.kind == "txbegin" and ev.region_kind == REGION_TX:
            self._tx.setdefault(ev.thread, []).append([ev.region, []])
        elif ev.kind == "txadd":
            stack = self._tx.get(ev.thread)
            if stack:
                stack[-1][1].append(
                    LoggedRange(ev.alloc, ev.offset, ev.size, ev.snapshot))
        elif ev.kind == "txend" and ev.region_kind == REGION_TX:
            stack = self._tx.get(ev.thread, [])
            for i in range(len(stack) - 1, -1, -1):
                if stack[i][0] == ev.region:
                    del stack[i]
                    break

    def _write_back(self, ln: LineId) -> None:
        data = self.content.get(ln)
        buf = self.durable.get(ln[0])
        if data is None or buf is None:
            return
        start, end = line_span(ln[1])
        end = min(end, len(buf))
        if buf[start:end] != data[: end - start]:
            buf[start:end] = data[: end - start]
            self.generation += 1
        self.dirty.pop(ln, None)

    # -- crash-point queries ------------------------------------------------
    def candidates(self, model: str) -> List[LineId]:
        """Lines that may or may not have reached NVM at this instant."""
        out = list(self.pending)
        if model in _EPOCH_LIKE:
            out.extend(l for l in self.epoch_dirty if l not in self.pending)
        return out

    def is_noop(self, ln: LineId) -> bool:
        """True when persisting ``ln`` would not change the image."""
        buf = self.durable.get(ln[0])
        data = self.content.get(ln)
        if buf is None or data is None:
            return True
        start, end = line_span(ln[1])
        end = min(end, len(buf))
        return bytes(buf[start:end]) == data[: end - start]

    def image_for(self, persisted: Tuple[LineId, ...]) -> Dict[int, bytes]:
        image = {aid: bytearray(buf) for aid, buf in self.durable.items()}
        for ln in persisted:
            buf = image.get(ln[0])
            if buf is None:
                continue
            start, end = line_span(ln[1])
            end = min(end, len(buf))
            buf[start:end] = self.content[ln][: end - start]
        return {aid: bytes(b) for aid, b in image.items()}

    def open_tx_snapshot(self) -> Tuple[OpenTx, ...]:
        return tuple(
            OpenTx(thread, region, tuple(logged))
            for thread in sorted(self._tx)
            for region, logged in self._tx[thread]
        )


def _digest(image: Dict[int, bytes], open_tx: Tuple[OpenTx, ...]) -> bytes:
    h = hashlib.sha256()
    for aid in sorted(image):
        h.update(aid.to_bytes(8, "little"))
        h.update(image[aid])
    for tx in open_tx:
        h.update(f"T{tx.thread}:{tx.region}".encode())
        for lr in tx.logged:
            h.update(f"L{lr.alloc}:{lr.offset}:{lr.size}".encode())
            h.update(lr.snapshot)
    return h.digest()


def enumerate_crash_images(
    trace: PersistTrace,
    model: str,
    max_states: int = DEFAULT_MAX_STATES,
    prune: bool = True,
    deadline: Optional[Deadline] = None,
) -> Enumeration:
    """Enumerate every distinct crash image legal under ``model``.

    Crash points are all event prefixes: before any event (k=0) and after
    each of the N events. ``pruned`` counts legal states *not* emitted for
    equivalence reasons (no-op lines, duplicate images, per-point caps);
    a distinct image beyond the global ``max_states`` budget sets
    ``truncated`` instead and ends the enumeration there.

    ``prune=False`` disables both equivalence reductions — no-op candidate
    filtering and cross-point image dedup — and emits one image per legal
    (crash point, candidate subset) pair. The distinct-image set must be
    identical either way (persist-equivalence pruning only drops
    duplicates); the litmus suite asserts exactly that.

    ``deadline`` (optional) is polled at every crash-point boundary: on
    expiry the images enumerated so far come back with ``truncated`` and
    ``deadline_exceeded`` both set — a well-formed partial result, never
    a half-built image.
    """
    replay = ReplayState(trace.alloc_sizes)
    images: List[CrashImage] = []
    seen = set()
    #: (generation, {line: content}) of every subset built so far
    seen_persist = set()
    pruned = built = 0
    truncated = False
    crash_points = len(trace.events) + 1
    for k in range(crash_points):
        if deadline is not None and deadline.expired():
            return Enumeration(images, k, pruned, True, built,
                               deadline_exceeded=True)
        if k > 0:
            replay.apply(trace.events[k - 1])
        candidates = replay.candidates(model)
        effective = ([l for l in candidates if not replay.is_noop(l)]
                     if prune else list(candidates))
        legal = 2 ** len(candidates)
        if len(effective) > MAX_LINES:
            # combinatorial cliff: keep the two extreme images only
            subsets = [(), tuple(effective)]
            truncated = True
        else:
            subsets = [
                s for r in range(len(effective) + 1)
                for s in itertools.combinations(effective, r)
            ]
        pruned += legal - len(subsets)
        open_tx = replay.open_tx_snapshot()
        for subset in subsets:
            if prune:
                persist = (replay.generation, frozenset(
                    (ln, replay.content[ln]) for ln in subset))
                if persist in seen_persist:
                    pruned += 1
                    continue
                seen_persist.add(persist)
            image = replay.image_for(subset)
            built += 1
            key = _digest(image, open_tx)
            if key in seen:
                if prune:
                    pruned += 1
                    continue
            else:
                seen.add(key)
            if len(images) >= max_states:
                return Enumeration(images, k + 1, pruned, True, built)
            images.append(CrashImage(index=len(images) + 1, event_index=k,
                                     persisted=subset, image=image,
                                     open_tx=open_tx))
    return Enumeration(images, crash_points, pruned, truncated, built)
