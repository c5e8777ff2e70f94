"""Rule framework for the static checker.

A rule consumes the events of a merged trace in program order, each as
an :class:`EventFacts` record, and emits warnings. Its state may depend
only on the events seen so far: the engine walks a prefix trie of a
root's traces, runs each rule once per distinct prefix on the event
kinds it declares in :attr:`TraceRule.kinds`, and
:meth:`TraceRule.fork`-s its state where traces diverge. The report
deduplicates by (rule, loc).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional

from ...analysis.ranges import MemRange
from ...analysis.traces import Event, Trace
from ...ir.module import Module
from ...models import PersistencyModel
from ..report import Warning_


@dataclass
class CheckContext:
    """Shared inputs for a rule run."""

    module: Module
    model: PersistencyModel
    root: str


class EventFacts:
    """What the rules read of one event, computed once.

    The trace collector never merges DSA nodes, so the union-find is
    final before collection starts and an event's node key, range and
    persistence hold for the whole run. The engine has the collector
    make one record per distinct event of a root, as the payload of the
    root's prefix trie; :meth:`TraceRule.check` builds a fresh one per
    event.
    """

    __slots__ = ("event", "kind", "region_kind", "key", "range",
                 "persistent")

    def __init__(self, event: Event):
        self.event = event
        self.kind = event.kind
        self.region_kind = event.region_kind
        cell = event.cell
        #: identity of the object the event touches (DSG representative id)
        self.key: Optional[int] = None
        #: the bytes the event touches
        self.range: Optional[MemRange] = None
        self.persistent = False
        if cell is not None:
            node = cell.node.find()
            self.key = node.node_id
            self.range = cell.range(event.size)
            self.persistent = node.persistent


def copy_lists(groups: Dict[int, list]) -> Dict[int, list]:
    """A copy of a dict of lists that shares no list with the original."""
    return {key: list(items) for key, items in groups.items()}


class TraceRule:
    """Base class: subclasses implement the event walk and :meth:`fork`."""

    #: rule ids this class can emit (for engine bookkeeping)
    emits: tuple = ()
    #: event kinds :meth:`on_event` reacts to; the engine calls it for no
    #: other kind, so every subclass must declare them
    kinds: FrozenSet[str]

    def __init__(self) -> None:
        self.warnings: List[Warning_] = []

    # -- subclass protocol -------------------------------------------------
    def on_event(self, facts: EventFacts, ctx: CheckContext) -> None:
        """Consume one event. Must leave the state unchanged, and warn
        nothing, for an event whose kind is not in :attr:`kinds`."""
        raise NotImplementedError

    def on_end(self, ctx: CheckContext) -> None:
        """Called once after the last event of the trace."""

    def fork(self) -> "TraceRule":
        """A copy of this rule's state, with no warnings, that shares no
        mutable container (list, dict, set, mutable record) with the
        original, so the two can see different suffixes."""
        raise NotImplementedError

    def _twin(self) -> "TraceRule":
        """Shallow copy with an empty warning list (start of a fork)."""
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        twin.warnings = []
        return twin

    # -- reference walk -----------------------------------------------------------
    def check(self, trace: Trace, ctx: CheckContext) -> List[Warning_]:
        """Walk one trace from a fresh rule: the trace-by-trace semantics
        the engine's trie walk must reproduce (tests compare the two).
        Every event reaches :meth:`on_event`, whatever :attr:`kinds`
        says, with facts computed afresh."""
        from ...analysis.traces import EV_TRUNCATED

        self.warnings = []
        truncated = False
        for event in trace.events:
            if event.kind == EV_TRUNCATED:
                # The path was cut by a loop/size bound: everything after
                # the cut would be checked against incomplete state (e.g. a
                # flush whose barrier sits in the elided tail). Stop here —
                # every truncated path has complete siblings with fewer
                # loop iterations that cover the rest of the trace.
                truncated = True
                break
            self.on_event(EventFacts(event), ctx)
        if not truncated:
            self.on_end(ctx)
        return self.warnings

    # -- helpers -------------------------------------------------------------------
    def warn(self, rule_id: str, event: Event, message: str) -> None:
        self.warnings.append(
            Warning_(rule_id, event.loc, event.fn, message, source="static")
        )


def node_label(event: Event) -> str:
    if event.cell is None:
        return "?"
    node = event.cell.node.find()
    if node.alloc_sites:
        fn, loc = sorted(node.alloc_sites)[0]
        return f"object allocated at {loc}"
    if node.elem_type is not None:
        return f"object of type {node.elem_type}"
    return f"object N{node.node_id}"
