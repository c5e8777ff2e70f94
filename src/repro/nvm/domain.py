"""Persist domain: ties the cache model to the durable device.

This is the component that gives the simulator x86-like persistence
semantics:

* a store to persistent memory dirties its cachelines (and may cause an
  eviction, which writes the line back *without* any flush — the source of
  "sometimes survives anyway" behaviour of unflushed writes);
* ``flush`` (clwb-like) *initiates* write-back: the line moves to a pending
  set but durability is not guaranteed yet;
* ``fence`` (sfence-like) drains the pending set: only then are the flushed
  lines durably on the device.

Crash semantics: at any instant the durable state is the device image; the
crash tester may additionally consider any subset of *pending* (flushed but
unfenced) lines as having completed, because clwb gives no ordering until
the fence.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Iterable, List, Optional

from .cache import WriteBackCache
from .cacheline import CACHELINE, LineId, intern_line, line_span, lines_covering
from .costmodel import DEFAULT_COST_MODEL, CostModel
from .device import NVMDevice
from .stats import NVMStats

#: Reads architectural memory: (alloc_id, start, end) -> bytes.
MemoryReader = Callable[[int, int, int], bytes]


class PersistDomain:
    """The persistence state machine between CPU stores and NVM media."""

    def __init__(
        self,
        memory_reader: MemoryReader,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        cache_capacity_lines: int = 8192,
        event_emitter: Optional[Callable[..., None]] = None,
        fault_injector: Optional[object] = None,
    ):
        self._read_mem = memory_reader
        self.cost = cost_model
        #: telemetry hook ``emit(kind, **fields)`` for the persist-event
        #: stream (store/flush/fence/write-back); None keeps the hot path
        #: at one attribute load + branch per event.
        self._emit = event_emitter
        #: optional :class:`repro.faults.FaultInjector` (duck-typed:
        #: ``nvm_drain_fault(line)`` / ``nvm_spurious_evict(line)``).
        #: None keeps the fault-free hot path at one branch per fence
        #: drain and per store.
        self._faults = fault_injector
        self.stats = NVMStats()
        self.device = NVMDevice()
        self.cache = WriteBackCache(cache_capacity_lines)
        self.cache.set_writeback(self._write_back)
        #: flushed-but-unfenced lines, in issue order.
        self._pending: "OrderedDict[LineId, None]" = OrderedDict()
        self._alloc_sizes: Dict[int, int] = {}

    # -- allocation lifecycle ---------------------------------------------
    def on_palloc(self, alloc_id: int, size: int) -> None:
        self.device.register(alloc_id, size)
        self._alloc_sizes[alloc_id] = size
        if self._emit is not None:
            self._emit("persist.palloc", alloc=alloc_id, size=size)

    def on_pfree(self, alloc_id: int) -> None:
        self.cache.drop_allocation(alloc_id)
        for line in [l for l in self._pending if l[0] == alloc_id]:
            del self._pending[line]
        self.device.release(alloc_id)
        self._alloc_sizes.pop(alloc_id, None)
        if self._emit is not None:
            self._emit("persist.pfree", alloc=alloc_id)

    def is_persistent(self, alloc_id: int) -> bool:
        return alloc_id in self._alloc_sizes

    # -- CPU-side events -------------------------------------------------------
    def on_store(self, alloc_id: int, offset: int, size: int) -> None:
        """A store hit persistent memory: dirty the covered lines."""
        self.stats.persistent_stores += 1
        # Fast path: almost every store fits one cacheline. Same
        # semantics as the loop below — one touch_dirty keeps the LRU
        # move-to-end order identical — minus the generator machinery.
        if 0 < size <= CACHELINE - offset % CACHELINE:
            line = intern_line(alloc_id, offset // CACHELINE)
            self.cache.touch_dirty(line)
            lines = (line,)
        else:
            lines = []
            for idx in lines_covering(offset, size):
                line = intern_line(alloc_id, idx)
                # A new store invalidates a pending-but-undrained flush
                # of the same line (its content snapshot would be stale
                # on real HW too: clwb persists whatever is in the line
                # when it drains).
                self.cache.touch_dirty(line)
                lines.append(line)
        if self._emit is not None:
            self._emit("persist.store", alloc=alloc_id, offset=offset,
                       size=size)
        if self._faults is not None:
            # Spurious eviction: the cache writes a just-dirtied line back
            # on its own, before any flush/fence orders it — the
            # "unpredictable cache evictions" failure mode, on demand.
            # Checked after the store event is emitted so the recorded
            # stream keeps content capture ahead of the write-back.
            for line in lines:
                if self.cache.is_dirty(line) and \
                        self._faults.nvm_spurious_evict(line):
                    self._write_back(line, evicted=True)

    def on_load(self, alloc_id: int, offset: int, size: int) -> None:
        self.stats.persistent_loads += 1

    def flush(self, alloc_id: int, offset: int, size: int) -> None:
        """Initiate write-back of all lines covering the byte range.

        Cost is charged per covered cacheline: a range flush is a loop of
        one ``clwb`` per line, so flushing a 4-line object for a 1-line
        update costs 4x the issue latency even when 3 lines are clean.
        """
        self.stats.flushes += 1
        any_dirty = False
        # Single-line fast path, mirroring on_store's: identical stats
        # accounting and pending-queue (move-to-end) transitions.
        if 0 < size <= CACHELINE - offset % CACHELINE:
            self.stats.cycles += self.cost.flush_issue
            line = intern_line(alloc_id, offset // CACHELINE)
            if self.cache.is_dirty(line):
                any_dirty = True
                if line in self._pending:
                    self.stats.flushes_duplicate += 1
                    self._pending.move_to_end(line)
                else:
                    self._pending[line] = None
            elif line in self._pending:
                self.stats.flushes_duplicate += 1
        else:
            for idx in lines_covering(offset, size):
                self.stats.cycles += self.cost.flush_issue
                line = intern_line(alloc_id, idx)
                if self.cache.is_dirty(line):
                    any_dirty = True
                    if line in self._pending:
                        self.stats.flushes_duplicate += 1
                        self._pending.move_to_end(line)
                    else:
                        self._pending[line] = None
                else:
                    # Flushing a clean line costs latency and NVM traffic
                    # on real hardware (clflush unconditionally writes
                    # back); count it as pure overhead.
                    if line in self._pending:
                        self.stats.flushes_duplicate += 1
        if not any_dirty:
            self.stats.flushes_clean += 1
        if self._emit is not None:
            self._emit("persist.flush", alloc=alloc_id, offset=offset,
                       size=size, clean=not any_dirty,
                       pending=len(self._pending))

    def fence(self) -> int:
        """Drain pending flushes; returns the number of lines persisted.

        With a fault injector attached, each drain may be *dropped* (the
        clwb is silently lost: the line stays dirty and never reaches the
        device — a later flush+fence can still persist it) or *torn*
        (only the first ``keep`` bytes of the line reach the device, as
        when power fails mid write-back). Both emit their own persist
        event before the fence event so a recorded trace replays to the
        same durable image the live device holds.
        """
        self.stats.fences += 1
        self.stats.cycles += self.cost.fence
        drained = 0
        while self._pending:
            line, _ = self._pending.popitem(last=False)
            fault = (self._faults.nvm_drain_fault(line)
                     if self._faults is not None else None)
            if fault is None:
                self._write_back(line, evicted=False)
                drained += 1
            elif fault[0] == "drop":
                if self._emit is not None:
                    self._emit("persist.drop", alloc=line[0], line=line[1])
            elif fault[0] == "torn":
                self._torn_write_back(line, int(fault[1]))
                drained += 1
            else:
                raise ValueError(f"unknown NVM drain fault {fault!r}")
        if drained == 0:
            self.stats.fences_empty += 1
        if self._emit is not None:
            self._emit("persist.fence", drained=drained, empty=drained == 0)
        return drained

    # -- write-back sink -----------------------------------------------------
    def _write_back(self, line: LineId, evicted: bool) -> None:
        alloc_id, idx = line
        size = self._alloc_sizes.get(alloc_id)
        if size is None:
            return  # allocation freed while line pending
        start, end = line_span(idx)
        end = min(end, size)
        content = self._read_mem(alloc_id, start, end)
        written = self.device.write_back_line(line, content)
        self.cache.clean(line)
        self._pending.pop(line, None)
        self.stats.lines_written_back += 1
        self.stats.nvm_write_bytes += written
        self.stats.cycles += self.cost.nvm_line_writeback
        if evicted:
            self.stats.lines_evicted += 1
            if self._emit is not None:
                self._emit("persist.evict", alloc=alloc_id, line=idx,
                           bytes=written)

    def _torn_write_back(self, line: LineId, keep: int) -> None:
        """Persist only the first ``keep`` bytes of a draining line.

        Models a write-back racing power failure: the line is clean as
        far as the cache is concerned, but the device holds a partial
        update. The lost tail keeps its old durable content.
        """
        alloc_id, idx = line
        size = self._alloc_sizes.get(alloc_id)
        if size is None:
            return  # allocation freed while line pending
        start, end = line_span(idx)
        end = min(end, size)
        content = self._read_mem(alloc_id, start, end)
        keep = max(0, min(keep, len(content)))
        written = self.device.write_back_line(line, content[:keep])
        self.cache.clean(line)
        self._pending.pop(line, None)
        self.stats.lines_written_back += 1
        self.stats.nvm_write_bytes += written
        self.stats.cycles += self.cost.nvm_line_writeback
        if self._emit is not None:
            self._emit("persist.torn", alloc=alloc_id, line=idx, keep=keep)

    # -- crash-state inspection --------------------------------------------------
    def pending_lines(self) -> List[LineId]:
        return list(self._pending)

    def line_bytes(self, line: LineId) -> bytes:
        """Current *architectural* content of one cacheline — what a
        completing flush of that line would persist right now."""
        alloc_id, idx = line
        size = self._alloc_sizes[alloc_id]
        start, end = line_span(idx)
        end = min(end, size)
        return self._read_mem(alloc_id, start, end)

    def dirty_unflushed_lines(self) -> List[LineId]:
        return [l for l in self.cache.dirty_lines() if l not in self._pending]

    def durable_snapshot(self) -> Dict[int, bytes]:
        return self.device.durable_snapshot()

    def crash_state(self, completed_pending: Optional[Iterable[LineId]] = None
                    ) -> Dict[int, bytes]:
        """Durable image at a crash, with a chosen subset of pending
        flushes considered completed (clwb completion is unordered until
        the fence, so any subset is a legal crash state)."""
        image = {aid: bytearray(img) for aid, img in
                 self.device.durable_snapshot().items()}
        for line in completed_pending or ():
            if line not in self._pending:
                raise ValueError(f"line {line} is not pending")
            alloc_id, idx = line
            size = self._alloc_sizes[alloc_id]
            start, end = line_span(idx)
            end = min(end, size)
            image[alloc_id][start:end] = self._read_mem(alloc_id, start, end)
        return {aid: bytes(img) for aid, img in image.items()}
