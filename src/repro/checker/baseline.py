"""A generic (model-agnostic) crash-consistency checker — the baseline.

The paper's positioning (§1, §6): existing tools "focused on basic
programming bugs and fall short of detecting the violations of a specific
memory persistency model"; e.g. "the model-violation bugs identified by
DeepMC cannot be detected by existing tools such as AGAMOTTO".

This module implements that class of tool over the same traces: it knows
nothing about persistency models and checks only the two universal
properties such tools report, as one :class:`GenericRule` that the static
checker's engine walks over each root's prefix trie —

* **unflushed write**: a persistent write that is *never* covered by any
  later flush or log anywhere in the execution (no model-scoped windows:
  a flush at program end discharges everything before it);
* **missing final drain**: a flush never followed by any fence by the end
  of the execution.

Everything model-specific — per-write barriers under strict, epoch
boundary ordering, nested-transaction barriers, semantic mismatches,
model-aware performance rules — is invisible to it, which is what the
comparison benchmark quantifies.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..analysis.ranges import MemRange, subtract
from ..analysis.traces import (
    EV_FENCE,
    EV_FLUSH,
    EV_TXADD,
    EV_TXEND,
    EV_WRITE,
    Event,
    TraceCollector,
)
from ..ir.instructions import REGION_TX
from ..ir.module import Module
from ..ir.verifier import verify_module
from ..models import R_GENERIC_UNDRAINED, R_GENERIC_UNFLUSHED
from .engine import _walk_trie, analysis_roots
from .report import Report
from .rules import CheckContext, EventFacts, TraceRule

RULE_GENERIC_UNFLUSHED = R_GENERIC_UNFLUSHED.rule_id
RULE_GENERIC_UNDRAINED = R_GENERIC_UNDRAINED.rule_id


class GenericRule(TraceRule):
    """The baseline's two checks, as one rule over a trace."""

    emits = (RULE_GENERIC_UNFLUSHED, RULE_GENERIC_UNDRAINED)
    kinds = frozenset({EV_WRITE, EV_FLUSH, EV_TXADD, EV_FENCE, EV_TXEND})

    def __init__(self) -> None:
        super().__init__()
        #: (write, uncovered remnants)
        self.pending: List[Tuple[EventFacts, List[MemRange]]] = []
        self.unfenced_flushes: List[Event] = []
        #: all TX_ADD-logged (node, range) pairs, globally (no tx scoping)
        self.logged: List[Tuple[Optional[int], MemRange]] = []

    def fork(self) -> "GenericRule":
        twin = self._twin()
        twin.pending = list(self.pending)
        twin.unfenced_flushes = list(self.unfenced_flushes)
        twin.logged = list(self.logged)
        return twin

    def _discharge(self, key: Optional[int], rng: MemRange) -> None:
        still = []
        for w, remnants in self.pending:
            if w.key != key:
                still.append((w, remnants))
                continue
            new_remnants: List[MemRange] = []
            for r in remnants:
                if rng.covers(r) is True:
                    continue
                pieces = subtract(r, rng)
                new_remnants.extend(pieces if pieces is not None else [r])
            if new_remnants:
                still.append((w, new_remnants))
        self.pending = still

    def on_event(self, facts: EventFacts, ctx: CheckContext) -> None:
        kind = facts.kind
        if kind == EV_WRITE:
            self.pending.append((facts, [facts.range]))
        elif kind == EV_FLUSH:
            # no model scoping: any covering flush, anywhere, counts
            self._discharge(facts.key, facts.range)
            self.unfenced_flushes.append(facts.event)
        elif kind == EV_TXADD:
            self.logged.append((facts.key, facts.range))
        elif kind == EV_FENCE:
            self.unfenced_flushes = []
        elif kind == EV_TXEND and facts.region_kind == REGION_TX:
            # it understands transaction commits (real tools model PMDK's
            # undo log) but nothing about the model's windowing
            for key, rng in self.logged:
                self._discharge(key, rng)
            self.unfenced_flushes = []

    def on_end(self, ctx: CheckContext) -> None:
        for w, _remnants in self.pending:
            self.warn(RULE_GENERIC_UNFLUSHED, w.event,
                      "write to persistent memory never written back")
        for f in self.unfenced_flushes:
            self.warn(RULE_GENERIC_UNDRAINED, f,
                      "flush never drained by a fence")


class GenericChecker:
    """Runs the baseline over a module's merged traces."""

    def __init__(self, module: Module):
        self.module = module

    def run(self) -> Report:
        verify_module(self.module)
        collector = TraceCollector(self.module)
        report = Report(self.module.name, "generic")
        for root in analysis_roots(collector.dsa.callgraph):
            trie, _count = collector.prefix_trie(root, EventFacts)
            ctx = CheckContext(self.module, None, root)  # no model
            warnings, _visited, _forks, _calls = _walk_trie(
                trie, [GenericRule()], ctx)
            report.extend(warnings)
        return report
