"""A generic (model-agnostic) crash-consistency checker — the baseline.

The paper's positioning (§1, §6): existing tools "focused on basic
programming bugs and fall short of detecting the violations of a specific
memory persistency model"; e.g. "the model-violation bugs identified by
DeepMC cannot be detected by existing tools such as AGAMOTTO".

This module implements that class of tool over the same traces: it knows
nothing about persistency models and checks only the two universal
properties such tools report —

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
    Trace,
    TraceCollector,
)
from ..ir.instructions import REGION_TX
from ..ir.module import Module
from ..ir.verifier import verify_module
from .engine import analysis_roots
from .report import Report, Warning_

RULE_GENERIC_UNFLUSHED = "generic.unflushed-write"
RULE_GENERIC_UNDRAINED = "generic.undrained-flush"


class _GenericTraceCheck:
    """One trace walk of the baseline's two checks."""

    def __init__(self) -> None:
        #: (write event, uncovered remnants)
        self.pending: List[Tuple[Event, List[MemRange]]] = []
        self.unfenced_flushes: List[Event] = []
        #: all TX_ADD-logged (node, range) pairs, globally (no tx scoping)
        self.logged: List[Tuple[Optional[int], MemRange]] = []
        self.warnings: List[Warning_] = []

    def _node(self, event: Event) -> Optional[int]:
        if event.cell is None:
            return None
        return event.cell.node.find().node_id

    def _discharge(self, key: Optional[int], rng: MemRange) -> None:
        still = []
        for w, remnants in self.pending:
            if self._node(w) != key:
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

    def feed(self, event: Event) -> None:
        if event.kind == EV_WRITE:
            self.pending.append((event, [event.cell.range(event.size)]))
        elif event.kind == EV_FLUSH:
            # no model scoping: any covering flush, anywhere, counts
            self._discharge(self._node(event), event.cell.range(event.size))
            self.unfenced_flushes.append(event)
        elif event.kind == EV_TXADD:
            self.logged.append((self._node(event), event.cell.range(event.size)))
        elif event.kind == EV_FENCE:
            self.unfenced_flushes = []
        elif event.kind == EV_TXEND and event.region_kind == REGION_TX:
            # it understands transaction commits (real tools model PMDK's
            # undo log) but nothing about the model's windowing
            for key, rng in self.logged:
                self._discharge(key, rng)
            self.unfenced_flushes = []

    def finish(self) -> List[Warning_]:
        for w, _remnants in self.pending:
            self.warnings.append(Warning_(
                RULE_GENERIC_UNFLUSHED, w.loc, w.fn,
                "write to persistent memory never written back",
                source="static",
            ))
        for f in self.unfenced_flushes:
            self.warnings.append(Warning_(
                RULE_GENERIC_UNDRAINED, f.loc, f.fn,
                "flush never drained by a fence",
                source="static",
            ))
        return self.warnings


class GenericChecker:
    """Runs the baseline over a module's merged traces."""

    def __init__(self, module: Module):
        self.module = module

    def run(self) -> Report:
        verify_module(self.module)
        collector = TraceCollector(self.module)
        report = Report(self.module.name, "generic")
        for root in analysis_roots(collector.dsa.callgraph):
            for trace in collector.traces_for(root):
                from ..analysis.traces import EV_TRUNCATED

                check = _GenericTraceCheck()
                truncated = False
                for event in trace.events:
                    if event.kind == EV_TRUNCATED:
                        truncated = True
                        break
                    if event.kind == EV_TXEND or event.cell is not None \
                            or event.kind == EV_FENCE:
                        check.feed(event)
                if not truncated:
                    report.extend(check.finish())
        return report
