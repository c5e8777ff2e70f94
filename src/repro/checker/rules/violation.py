"""Model-violation rules (Table 4).

Each rule implements one row of Table 4 as an event-walk over a merged
trace. See DESIGN.md for how rule ids map to the bug classes of Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ...analysis.ranges import MemRange
from ...analysis.traces import (
    EV_FENCE,
    EV_FLUSH,
    EV_LOAD,
    EV_TXADD,
    EV_TXBEGIN,
    EV_TXEND,
    EV_WRITE,
    Event,
)
from ...ir.instructions import REGION_EPOCH, REGION_STRAND, REGION_TX
from .base import CheckContext, EventFacts, TraceRule, copy_lists, node_label


class UnflushedWriteRule(TraceRule):
    """Unflushed/unlogged write (strict and epoch variants).

    A persistent write must be covered, before the trace ends, by either a
    flush of (at least) its byte range or an undo-log entry of a durable
    transaction that commits. Flushes through unresolvable pointers do NOT
    discharge writes — the checker is conservative, which is one source of
    the paper's false positives (§5.4).
    """

    kinds = frozenset((EV_WRITE, EV_FLUSH, EV_TXADD, EV_TXBEGIN, EV_TXEND))

    def __init__(self, rule_id: str):
        super().__init__()
        self.rule_id = rule_id
        self.emits = (rule_id,)
        #: pending (write, innermost-tx marker, uncovered remnants)
        self._pending: List[
            Tuple[EventFacts, Optional[int], List[MemRange]]] = []
        #: open durable transactions: (tx id, logged (node, range) entries)
        self._tx_stack: List[Tuple[int, List[Tuple[Optional[int], MemRange]]]] = []
        self._tx_counter = 0

    def fork(self) -> "UnflushedWriteRule":
        twin = self._twin()
        twin._pending = [(w, m, list(remnants))
                         for w, m, remnants in self._pending]
        twin._tx_stack = [(tx_id, list(logged))
                          for tx_id, logged in self._tx_stack]
        return twin

    def _discharge(self, key: Optional[int], rng: MemRange) -> None:
        """Subtract a covering flush/log range from pending writes.

        Partial coverage splits the pending range — large writes flushed
        piecewise (per field or per cacheline) discharge incrementally.
        """
        from ...analysis.ranges import subtract

        still = []
        for w, m, remnants in self._pending:
            if w.key != key:
                still.append((w, m, remnants))
                continue
            new_remnants: List[MemRange] = []
            for r in remnants:
                if rng.covers(r) is True:
                    continue
                pieces = subtract(r, rng)
                if pieces is None:
                    new_remnants.append(r)  # unresolvable: stay pending
                else:
                    new_remnants.extend(pieces)
            if new_remnants:
                still.append((w, m, new_remnants))
        self._pending = still

    def on_event(self, facts: EventFacts, ctx: CheckContext) -> None:
        kind = facts.kind
        if kind == EV_WRITE:
            marker = self._tx_stack[-1][0] if self._tx_stack else None
            self._pending.append((facts, marker, [facts.range]))
            return
        if kind == EV_FLUSH:
            self._discharge(facts.key, facts.range)
            return
        if kind == EV_TXADD and self._tx_stack:
            self._tx_stack[-1][1].append((facts.key, facts.range))
            return
        if kind == EV_TXBEGIN and facts.region_kind == REGION_TX:
            self._tx_counter += 1
            self._tx_stack.append((self._tx_counter, []))
            return
        if kind == EV_TXEND and facts.region_kind == REGION_TX:
            if not self._tx_stack:
                return
            tx_id, logged = self._tx_stack.pop()
            # Commit flushes every logged range (PMDK semantics).
            for key, rng in logged:
                self._discharge(key, rng)
            # Writes made directly inside this transaction must be durable
            # by its commit — crossing the commit unlogged and unflushed
            # breaks the transaction's atomicity (the Figure 2 bug).
            still = []
            for w, m, remnants in self._pending:
                if m == tx_id:
                    self._warn_write(w)
                else:
                    still.append((w, m, remnants))
            self._pending = still

    def _warn_write(self, w: EventFacts) -> None:
        self.warn(
            self.rule_id,
            w.event,
            f"persistent write to {node_label(w.event)} is never flushed, "
            f"logged, or committed",
        )

    def on_end(self, ctx: CheckContext) -> None:
        for w, _m, _remnants in self._pending:
            self._warn_write(w)


class MultiWritePerBarrierRule(TraceRule):
    """Multiple writes made durable at once (strict; and, under epoch,
    writes *outside* any epoch region, which must follow per-write
    durability)."""

    emits = ("strict.multi-write-barrier",)
    kinds = frozenset((EV_TXBEGIN, EV_TXEND, EV_WRITE, EV_FLUSH, EV_FENCE))

    def __init__(self, model_name: str):
        super().__init__()
        self.model_name = model_name
        self._writes: List[EventFacts] = []
        self._flushes: List[EventFacts] = []
        self._epoch_depth = 0

    def fork(self) -> "MultiWritePerBarrierRule":
        twin = self._twin()
        twin._writes = list(self._writes)
        twin._flushes = list(self._flushes)
        return twin

    def _reset(self) -> None:
        self._writes = []
        self._flushes = []

    def on_event(self, facts: EventFacts, ctx: CheckContext) -> None:
        kind = facts.kind
        if kind == EV_TXBEGIN and facts.region_kind == REGION_EPOCH:
            self._epoch_depth += 1
            return
        if kind == EV_TXEND and facts.region_kind == REGION_EPOCH:
            self._epoch_depth = max(0, self._epoch_depth - 1)
            return
        if kind in (EV_TXBEGIN, EV_TXEND):
            self._reset()  # durable-tx commits segment separately
            return
        if kind == EV_WRITE:
            if self.model_name == "epoch" and self._epoch_depth > 0:
                return  # multiple writes inside an epoch are the point
            self._writes.append(facts)
            return
        if kind == EV_FLUSH:
            self._flushes.append(facts)
            return
        if kind == EV_FENCE:
            # Only writes actually made durable by this barrier count:
            # covered by some flush of this segment.
            durable = [
                w
                for w in self._writes
                if any(
                    w.key == f.key and f.range.covers(w.range) is True
                    for f in self._flushes
                )
            ]
            distinct: List[EventFacts] = []
            for w in durable:
                if not any(
                    w.key == d.key and w.range.same_range(d.range) is True
                    for d in distinct
                ):
                    distinct.append(w)
            if len(distinct) >= 2:
                self.warn(
                    "strict.multi-write-barrier",
                    facts.event,
                    f"one persist barrier makes {len(distinct)} distinct "
                    f"writes durable at once",
                )
            self._reset()


class StrictMissingBarrierRule(TraceRule):
    """Missing persist barrier after a flush (strict): every flush must be
    fenced before the next persistent operation or transaction begins
    (the NVM-Direct Figure 3 pattern)."""

    emits = ("strict.missing-barrier",)
    kinds = frozenset((EV_FLUSH, EV_FENCE, EV_WRITE, EV_TXBEGIN))

    def __init__(self) -> None:
        super().__init__()
        self._unbarriered: List[Event] = []

    def fork(self) -> "StrictMissingBarrierRule":
        twin = self._twin()
        twin._unbarriered = list(self._unbarriered)
        return twin

    def _flag(self, reason: str) -> None:
        for f in self._unbarriered:
            self.warn(
                "strict.missing-barrier",
                f,
                f"cacheline flush is not followed by a persist barrier "
                f"before {reason}",
            )
        self._unbarriered = []

    def on_event(self, facts: EventFacts, ctx: CheckContext) -> None:
        kind = facts.kind
        if kind == EV_FLUSH:
            self._unbarriered.append(facts.event)
            return
        if kind == EV_FENCE:
            self._unbarriered = []
            return
        if kind == EV_WRITE and self._unbarriered:
            self._flag("the next persistent write")
            return
        if kind == EV_TXBEGIN and facts.region_kind == REGION_TX:
            if self._unbarriered:
                self._flag("the next transaction begins")

    def on_end(self, ctx: CheckContext) -> None:
        self._flag("the end of execution")


@dataclass
class _EpochState:
    begin: Event
    nested: bool
    persist_op_since_fence: bool = False
    had_persist_op: bool = False


class EpochBarrierRule(TraceRule):
    """Missing persist barriers between consecutive epochs and at the end
    of nested (inner) epochs — the two epoch rows of Table 4."""

    emits = ("epoch.missing-barrier", "epoch.nested-missing-barrier")
    kinds = frozenset((EV_TXBEGIN, EV_TXEND, EV_FENCE, EV_WRITE, EV_FLUSH))

    def __init__(self, check_between: bool = True, check_nested: bool = True):
        super().__init__()
        self.check_between = check_between
        self.check_nested = check_nested
        self._stack: List[_EpochState] = []
        #: last top-level epoch that ended without a trailing barrier
        self._dangling_end: Optional[Event] = None

    def fork(self) -> "EpochBarrierRule":
        twin = self._twin()
        twin._stack = [replace(state) for state in self._stack]
        return twin

    def on_event(self, facts: EventFacts, ctx: CheckContext) -> None:
        kind = facts.kind
        event = facts.event
        if kind == EV_TXBEGIN and facts.region_kind == REGION_EPOCH:
            if self._dangling_end is not None and self.check_between:
                self.warn(
                    "epoch.missing-barrier",
                    self._dangling_end,
                    "no persist barrier between the end of this epoch and "
                    "the next epoch",
                )
            self._dangling_end = None
            self._stack.append(_EpochState(event, nested=bool(self._stack)))
            return
        if kind == EV_TXEND and facts.region_kind == REGION_EPOCH:
            if not self._stack:
                return
            state = self._stack.pop()
            unbarriered = state.persist_op_since_fence and state.had_persist_op
            if state.nested or self._stack:
                if unbarriered and self.check_nested:
                    self.warn(
                        "epoch.nested-missing-barrier",
                        event,
                        "inner epoch (nested transaction) ends without a "
                        "persist barrier; its writes are not ordered before "
                        "the outer transaction resumes",
                    )
                # inner activity counts as persist ops of the outer epoch
                if self._stack and state.had_persist_op:
                    self._stack[-1].persist_op_since_fence |= unbarriered
                    self._stack[-1].had_persist_op = True
            else:
                if unbarriered:
                    self._dangling_end = event
            return
        if kind == EV_FENCE:
            if self._stack:
                self._stack[-1].persist_op_since_fence = False
            self._dangling_end = None
            return
        if kind in (EV_WRITE, EV_FLUSH):
            if self._stack:
                self._stack[-1].persist_op_since_fence = True
                self._stack[-1].had_persist_op = True


class SemanticMismatchRule(TraceRule):
    """Mismatch between program semantics and model (Table 4 row 6).

    Consecutive persist groups — epoch regions under the epoch model,
    fence-delimited segments under strict — must not write *disjoint
    fields of the same persistent object*: splitting one object's
    initialization across two groups breaks the atomicity the programmer
    intended (the Figure 1 hashmap bug)."""

    emits = ("epoch.semantic-mismatch",)
    kinds = frozenset((EV_WRITE, EV_TXBEGIN, EV_TXEND, EV_FENCE))

    def __init__(self, model_name: str):
        super().__init__()
        self.model_name = model_name
        #: writes of the group being accumulated: node -> [(range, event)]
        self._cur: Dict[int, List[Tuple[MemRange, Event]]] = {}
        self._prev: Dict[int, List[Tuple[MemRange, Event]]] = {}
        self._epoch_depth = 0

    def fork(self) -> "SemanticMismatchRule":
        twin = self._twin()
        twin._cur = copy_lists(self._cur)
        twin._prev = copy_lists(self._prev)
        return twin

    def _group_end(self) -> None:
        if self._cur:
            for key, entries in self._cur.items():
                prev_entries = self._prev.get(key)
                if not prev_entries:
                    continue
                disjoint = all(
                    rng.overlaps(prng) is False
                    for rng, _ in entries
                    for prng, _ in prev_entries
                )
                if disjoint:
                    _rng, ev = entries[0]
                    self.warn(
                        "epoch.semantic-mismatch",
                        ev,
                        f"consecutive persist groups write disjoint fields "
                        f"of the same {node_label(ev)}; the object is meant "
                        f"to be persisted atomically",
                    )
            self._prev = self._cur
            self._cur = {}

    def on_event(self, facts: EventFacts, ctx: CheckContext) -> None:
        kind = facts.kind
        if kind == EV_WRITE:
            key = facts.key
            if key is not None:
                self._cur.setdefault(key, []).append((facts.range, facts.event))
            return
        if self.model_name == "epoch":
            if kind == EV_TXBEGIN and facts.region_kind == REGION_EPOCH:
                self._epoch_depth += 1
                return
            if kind == EV_TXEND and facts.region_kind == REGION_EPOCH:
                self._epoch_depth = max(0, self._epoch_depth - 1)
                if self._epoch_depth == 0:
                    self._group_end()
                return
            if kind == EV_FENCE and self._epoch_depth == 0:
                self._group_end()
            return
        # strict: groups are the atomic sections the programmer delimited —
        # durable transactions. (Fence-delimited grouping would flag every
        # legitimate store-persist-store-persist sequence.)
        if kind == EV_TXEND and facts.region_kind == REGION_TX:
            self._group_end()


class StrandOverlapRule(TraceRule):
    """Static strand-dependence check: consecutive strands with no barrier
    between them must have disjoint footprints (Table 4 last row). The
    full check — including cross-thread interleavings — is the dynamic
    checker's job; statically we catch same-trace overlaps."""

    emits = ("strand.dependence",)
    kinds = frozenset((EV_TXBEGIN, EV_TXEND, EV_FENCE, EV_WRITE, EV_LOAD))

    def __init__(self) -> None:
        super().__init__()
        self._in_strand = False
        self._cur_writes: Dict[int, List[Tuple[MemRange, Event]]] = {}
        self._cur_reads: Dict[int, List[Tuple[MemRange, Event]]] = {}
        self._prev_writes: Dict[int, List[Tuple[MemRange, Event]]] = {}
        self._barrier_since_prev = True

    def fork(self) -> "StrandOverlapRule":
        twin = self._twin()
        twin._cur_writes = copy_lists(self._cur_writes)
        twin._cur_reads = copy_lists(self._cur_reads)
        twin._prev_writes = copy_lists(self._prev_writes)
        return twin

    def on_event(self, facts: EventFacts, ctx: CheckContext) -> None:
        kind = facts.kind
        if kind == EV_TXBEGIN and facts.region_kind == REGION_STRAND:
            self._in_strand = True
            self._cur_writes = {}
            self._cur_reads = {}
            return
        if kind == EV_TXEND and facts.region_kind == REGION_STRAND:
            self._in_strand = False
            if not self._barrier_since_prev:
                self._check_overlap()
            self._prev_writes = self._cur_writes
            self._barrier_since_prev = False
            return
        if kind == EV_FENCE:
            self._barrier_since_prev = True
            return
        if not self._in_strand:
            return
        key = facts.key
        if key is None:
            return
        if kind == EV_WRITE:
            self._cur_writes.setdefault(key, []).append(
                (facts.range, facts.event))
        elif kind == EV_LOAD:
            self._cur_reads.setdefault(key, []).append(
                (facts.range, facts.event))

    def _check_overlap(self) -> None:
        for key, prev_entries in self._prev_writes.items():
            for cur_map, dep in ((self._cur_writes, "WAW"), (self._cur_reads, "RAW")):
                for rng, ev in cur_map.get(key, ()):
                    if any(rng.overlaps(prng) is not False for prng, _ in prev_entries):
                        self.warn(
                            "strand.dependence",
                            ev,
                            f"{dep} dependence between concurrent strands on "
                            f"{node_label(ev)} with no ordering barrier",
                        )
                        break
