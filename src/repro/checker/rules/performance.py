"""Performance-bug rules (Table 5).

These are model-independent (§3.3): unnecessary persistent operations that
do not break crash consistency but waste NVM write bandwidth and latency
(an extra write-back costs 2–4x, per the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ...analysis.ranges import MemRange, union_size
from ...analysis.traces import (
    EV_ALLOC,
    EV_FENCE,
    EV_FLUSH,
    EV_TXADD,
    EV_TXBEGIN,
    EV_TXEND,
    EV_WRITE,
    Event,
)
from ...ir.instructions import REGION_TX
from .base import CheckContext, EventFacts, TraceRule, copy_lists, node_label

#: Minimum provably-unwritten bytes in a flush before we call it
#: "flushing unmodified fields" (avoids noise from cacheline padding).
UNMODIFIED_FIELD_THRESHOLD = 8


class FlushUnmodifiedRule(TraceRule):
    """Writing back unmodified data: a flush with no (or far too little)
    preceding modification. The field-sensitive DSG is what lets this rule
    tell "one field written, whole object flushed" apart from a full
    rewrite (the Figure 5 ``pi_task`` bug)."""

    emits = ("perf.flush-unmodified",)
    kinds = frozenset((EV_ALLOC, EV_WRITE, EV_FLUSH))

    def __init__(self) -> None:
        super().__init__()
        #: unconsumed writes per node
        self._writes: Dict[int, List[Tuple[MemRange, Event]]] = {}
        #: ranges already flushed per node with no intervening write
        self._flushed: Dict[int, List[MemRange]] = {}

    def fork(self) -> "FlushUnmodifiedRule":
        twin = self._twin()
        twin._writes = copy_lists(self._writes)
        twin._flushed = copy_lists(self._flushed)
        return twin

    def on_event(self, facts: EventFacts, ctx: CheckContext) -> None:
        kind = facts.kind
        key = facts.key
        event = facts.event
        if kind == EV_ALLOC:
            # A fresh object: the alloc-site node is reused, but nothing
            # about the previous incarnation carries over.
            self._writes.pop(key, None)
            self._flushed.pop(key, None)
            return
        if kind == EV_WRITE:
            assert key is not None
            rng = facts.range
            self._writes.setdefault(key, []).append((rng, event))
            if key in self._flushed:
                self._flushed[key] = [
                    f for f in self._flushed[key] if f.overlaps(rng) is False
                ]
            return
        if kind != EV_FLUSH or not facts.persistent:
            return
        assert key is not None
        frange = facts.range
        # Already-flushed overlap is the redundant-flush rule's territory.
        if any(f.overlaps(frange) is not False for f in self._flushed.get(key, ())):
            self._flushed.setdefault(key, []).append(frange)
            return
        entries = self._writes.get(key, [])
        certain = [(r, e) for r, e in entries if frange.overlaps(r) is True]
        maybe = [(r, e) for r, e in entries if frange.overlaps(r) is None]
        if not certain and not maybe:
            self.warn(
                "perf.flush-unmodified",
                event,
                f"flush of {node_label(event)} with no preceding write to "
                f"the flushed range",
            )
        elif certain and not maybe:
            # Rebase write ranges onto the flush origin and clip to the
            # flush extent: certain overlaps are always offset-comparable,
            # so deltas are concrete even for symbolic (loop-element)
            # addresses.
            rebased = []
            for r, _ in certain:
                delta = r.offset.delta(frange.offset)
                if delta is None or r.size is None or frange.size is None:
                    rebased = None
                    break
                start = max(delta, 0)
                end = min(delta + r.size, frange.size)
                rebased.append(MemRange.concrete(start, max(end - start, 0)))
            covered = union_size(rebased) if rebased is not None else None
            if (
                covered is not None
                and frange.size is not None
                and frange.size - covered >= UNMODIFIED_FIELD_THRESHOLD
            ):
                self.warn(
                    "perf.flush-unmodified",
                    event,
                    f"flushing {frange.size} bytes of {node_label(event)} "
                    f"when only {covered} byte(s) were modified — "
                    f"unmodified fields are written back",
                )
            self._consume(key, frange)
        else:
            # Unresolvable overlap: stay quiet (perf warnings aim for
            # precision) but consume certain hits.
            self._consume(key, frange)
        self._flushed.setdefault(key, []).append(frange)

    def _consume(self, key: int, frange: MemRange) -> None:
        """Subtract the flushed range from unconsumed writes — partial
        flushes (per-field, per-line) consume incrementally."""
        from ...analysis.ranges import subtract

        entries = self._writes.get(key, [])
        remaining = []
        for r, e in entries:
            pieces = subtract(r, frange)
            if pieces is None:
                # Unresolvable relation: keep unless it certainly vanished.
                if frange.covers(r) is True:
                    continue
                remaining.append((r, e))
            else:
                remaining.extend((p, e) for p in pieces)
        self._writes[key] = remaining


class RedundantFlushRule(TraceRule):
    """Redundant write-backs of modified data: flushing a range again with
    no intervening write (the Figure 6 ``nvm_free_blk`` bug)."""

    emits = ("perf.redundant-flush",)
    kinds = frozenset((EV_ALLOC, EV_WRITE, EV_FLUSH))

    def __init__(self) -> None:
        super().__init__()
        #: flushes that wrote back *modified* data (range, event)
        self._flushed: Dict[int, List[Tuple[MemRange, Event]]] = {}
        #: every write seen so far, per node
        self._writes: Dict[int, List[MemRange]] = {}

    def fork(self) -> "RedundantFlushRule":
        twin = self._twin()
        twin._flushed = copy_lists(self._flushed)
        twin._writes = copy_lists(self._writes)
        return twin

    def on_event(self, facts: EventFacts, ctx: CheckContext) -> None:
        kind = facts.kind
        key = facts.key
        event = facts.event
        if kind == EV_ALLOC:
            self._writes.pop(key, None)
            self._flushed.pop(key, None)
            return
        if kind == EV_WRITE and key is not None:
            rng = facts.range
            self._writes.setdefault(key, []).append(rng)
            if key in self._flushed:
                self._flushed[key] = [
                    (f, e)
                    for f, e in self._flushed[key]
                    if f.overlaps(rng) is False
                ]
            return
        if kind != EV_FLUSH or not facts.persistent:
            return
        assert key is not None
        frange = facts.range
        prior = [
            (f, e)
            for f, e in self._flushed.get(key, ())
            if f.overlaps(frange) is True
        ]
        if prior:
            _f, first = prior[0]
            self.warn(
                "perf.redundant-flush",
                event,
                f"{node_label(event)} was already written back at "
                f"{first.loc} and not modified since",
            )
        # Table 5 row 2 targets redundant write-backs of *modified* data:
        # only a flush that may have covered a write arms the check (a
        # flush of never-written data is the flush-unmodified rule's bug).
        armed = any(
            frange.overlaps(w) is not False
            for w in self._writes.get(key, ())
        )
        if armed:
            self._flushed.setdefault(key, []).append((frange, event))


@dataclass
class _TxPersist:
    begin: Event
    #: per node: list of (range, event) persist-intent ops (txadd/flush)
    ops: Dict[int, List[Tuple[MemRange, Event]]] = field(default_factory=dict)
    warned_nodes: set = field(default_factory=set)


class MultiPersistInTxRule(TraceRule):
    """Persist the same object multiple times in a transaction: repeated
    ``txadd`` logging or flushing of overlapping ranges inside one durable
    transaction."""

    emits = ("perf.multi-persist-tx",)
    kinds = frozenset((EV_TXBEGIN, EV_TXEND, EV_TXADD, EV_FLUSH))

    def __init__(self) -> None:
        super().__init__()
        self._stack: List[_TxPersist] = []

    def fork(self) -> "MultiPersistInTxRule":
        twin = self._twin()
        twin._stack = [
            _TxPersist(tx.begin, copy_lists(tx.ops), set(tx.warned_nodes))
            for tx in self._stack
        ]
        return twin

    def on_event(self, facts: EventFacts, ctx: CheckContext) -> None:
        kind = facts.kind
        event = facts.event
        if kind == EV_TXBEGIN and facts.region_kind == REGION_TX:
            self._stack.append(_TxPersist(event))
            return
        if kind == EV_TXEND and facts.region_kind == REGION_TX:
            if self._stack:
                self._stack.pop()
            return
        if kind not in (EV_TXADD, EV_FLUSH) or not self._stack:
            return
        key = facts.key
        if key is None or not facts.persistent:
            return
        top = self._stack[-1]
        rng = facts.range
        prior = top.ops.get(key, [])
        if (
            key not in top.warned_nodes
            and any(rng.overlaps(p) is True for p, _ in prior)
        ):
            verb = "logged" if kind == EV_TXADD else "flushed"
            self.warn(
                "perf.multi-persist-tx",
                event,
                f"{node_label(event)} is {verb} again within the same "
                f"durable transaction",
            )
            top.warned_nodes.add(key)
        top.ops.setdefault(key, []).append((rng, event))


@dataclass
class _TxWrites:
    begin: Event
    has_write: bool = False


class EmptyDurableTxRule(TraceRule):
    """Durable transaction without persistent writes: the transaction's
    ordering/durability machinery runs for nothing (Figure 7)."""

    emits = ("perf.empty-durable-tx",)
    kinds = frozenset((EV_TXBEGIN, EV_TXEND, EV_WRITE))

    def __init__(self) -> None:
        super().__init__()
        self._stack: List[_TxWrites] = []

    def fork(self) -> "EmptyDurableTxRule":
        twin = self._twin()
        twin._stack = [replace(record) for record in self._stack]
        return twin

    def on_event(self, facts: EventFacts, ctx: CheckContext) -> None:
        kind = facts.kind
        if kind == EV_TXBEGIN and facts.region_kind == REGION_TX:
            self._stack.append(_TxWrites(facts.event))
            return
        if kind == EV_TXEND and facts.region_kind == REGION_TX:
            if self._stack:
                record = self._stack.pop()
                if not record.has_write:
                    self.warn(
                        "perf.empty-durable-tx",
                        record.begin,
                        "durable transaction contains no persistent write "
                        "on this path; its persist operations are pure "
                        "overhead",
                    )
            return
        if kind == EV_WRITE:
            for record in self._stack:
                record.has_write = True
