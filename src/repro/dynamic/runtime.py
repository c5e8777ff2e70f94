"""The DeepMC runtime library (step 6 of Figure 8).

Instrumented programs call ``__deepmc_write`` / ``__deepmc_read`` /
``__deepmc_fence``. The tree walker routes those calls here by name
(:meth:`DeepMCRuntime.handle`); compiled bytecode has an opcode per hook
that calls ``on_write`` / ``on_read`` / ``on_fence`` directly. The runtime
keeps per-thread vector clocks (spawn/join edges), per-thread fence
counters, and shadow segments over persistent allocations, and runs
happens-before WAW/RAW detection between strands:

* same thread, both accesses inside *different* strand regions, and no
  persist barrier in between → the strands are persist-concurrent and the
  dependence is a strand-persistency violation;
* different threads, access unordered by the spawn/join vector clocks →
  a cross-thread WAW/RAW race on persistent data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..checker.report import Report, Warning_
from ..errors import VMError
from ..ir.sourceloc import SourceLoc
from ..vm.memory import Pointer
from .shadow import WORD, ShadowSegment, ShadowSpace, WriteRecord
from .vectorclock import VectorClock


@dataclass
class RaceRecord:
    """One detected WAW/RAW dependence between strands."""

    kind: str  # "WAW" or "RAW"
    alloc_id: int
    offset: int
    first_loc: SourceLoc
    second_loc: SourceLoc
    first_strand: int
    second_strand: int
    same_thread: bool


@dataclass
class _ThreadState:
    vc: VectorClock
    fence_epoch: int = 0


class DeepMCRuntime:
    """Attachable runtime for one interpreter execution."""

    def __init__(self, report_limit: int = 1000):
        self.shadow = ShadowSpace()
        self.races: List[RaceRecord] = []
        self.report_limit = report_limit
        self._threads: Dict[int, _ThreadState] = {}
        self.events_handled = 0

    # -- interpreter integration -----------------------------------------
    def _state(self, thread_id: int) -> _ThreadState:
        st = self._threads.get(thread_id)
        if st is None:
            st = _ThreadState(VectorClock({thread_id: 1}))
            self._threads[thread_id] = st
        return st

    def on_spawn(self, parent, child) -> None:
        ps = self._state(parent.thread_id)
        cs = self._state(child.thread_id)
        cs.vc.merge(ps.vc)
        cs.vc.tick(child.thread_id)
        ps.vc.tick(parent.thread_id)

    def on_join(self, joiner, joined) -> None:
        js = self._state(joiner.thread_id)
        ts = self._state(joined.thread_id)
        js.vc.merge(ts.vc)
        js.vc.tick(joiner.thread_id)

    def handle(self, name: str, thread, args, inst) -> None:
        """Dispatch one ``__deepmc_*`` call by name: the tree walker's
        entry. Compiled bytecode calls the ``on_*`` hooks directly."""
        if name == "__deepmc_write":
            self.on_write(thread, args[0], args[1] if len(args) > 1 else 8,
                          inst.loc)
        elif name == "__deepmc_read":
            self.on_read(thread, args[0], args[1] if len(args) > 1 else 8,
                         inst.loc)
        elif name == "__deepmc_fence":
            self.on_fence(thread)
        else:
            self.events_handled += 1
            raise VMError(f"unknown DeepMC runtime entry {name}")

    def on_write(self, thread, ptr, size, loc: SourceLoc) -> None:
        self.events_handled += 1
        self._access(thread, ptr, size, loc, True)

    def on_read(self, thread, ptr, size, loc: SourceLoc) -> None:
        self.events_handled += 1
        self._access(thread, ptr, size, loc, False)

    def on_fence(self, thread) -> None:
        self.events_handled += 1
        state = self._state(thread.thread_id)
        state.fence_epoch += 1
        # FastTrack-style: the logical clock advances at synchronization
        # points, not per access.
        state.vc.tick(thread.thread_id)

    # -- the happens-before check ---------------------------------------------
    def _access(self, thread, ptr, size, loc: SourceLoc,
                is_write: bool) -> None:
        if not isinstance(ptr, Pointer):
            return
        size = int(size)
        alloc = thread.interpreter.memory.allocs.get(ptr.alloc_id)
        if alloc is None or not alloc.persistent or alloc.freed:
            return
        tid = thread.thread_id
        state = self._state(tid)
        strand = thread.current_strand_id()
        in_strand = strand >= 0
        epoch = state.fence_epoch
        clock = state.vc.get(tid)
        words = self.shadow.segment(ptr.alloc_id).words
        for word in ShadowSegment.words_for(ptr.offset, size):
            prev = words.get(word)
            if prev is not None and self._races_with(prev, tid, state,
                                                     strand, in_strand):
                if len(self.races) < self.report_limit:
                    self.races.append(
                        RaceRecord(
                            kind="WAW" if is_write else "RAW",
                            alloc_id=ptr.alloc_id,
                            offset=word * WORD,
                            first_loc=prev.loc,
                            second_loc=loc,
                            first_strand=prev.strand_id,
                            second_strand=strand,
                            same_thread=prev.thread_id == tid,
                        )
                    )
            if is_write:
                if (prev is not None and prev.thread_id == tid
                        and prev.clock == clock and prev.strand_id == strand
                        and prev.fence_epoch == epoch):
                    # FastTrack's same-epoch case (Flanagan & Freund, PLDI
                    # 2009): the new record would differ only in loc
                    prev.loc = loc
                else:
                    words[word] = WriteRecord(tid, clock, strand, in_strand,
                                              epoch, loc)

    def _races_with(self, prev: WriteRecord, tid: int, state: _ThreadState,
                    strand: int, in_strand: bool) -> bool:
        if prev.thread_id == tid:
            # Same thread: persist-concurrency only between distinct
            # explicit strands with no barrier in between.
            return (
                prev.in_strand
                and in_strand
                and prev.strand_id != strand
                and prev.fence_epoch == state.fence_epoch
            )
        # Cross-thread: ordered only via spawn/join vector clocks.
        return not state.vc.dominates_epoch(prev.thread_id, prev.clock)

    # -- report rendering -----------------------------------------------------------
    def to_report(self, module_name: str = "", model: str = "strand") -> Report:
        report = Report(module_name, model)
        for race in self.races:
            where = "same thread" if race.same_thread else "across threads"
            report.add(
                Warning_(
                    rule_id="strand.dependence",
                    loc=race.second_loc,
                    fn="<dynamic>",
                    message=(
                        f"{race.kind} dependence between strands "
                        f"{race.first_strand} and {race.second_strand} "
                        f"({where}) on persistent allocation "
                        f"{race.alloc_id}+{race.offset}; first access at "
                        f"{race.first_loc}"
                    ),
                    source="dynamic",
                )
            )
        return report
