"""Trace collection (§4.3).

A *trace* is one control-flow path's sequence of persistence-relevant
events: persistent writes, flushes, fences, region begin/end markers, and
undo-log additions. Collection follows the paper:

* per-function paths are enumerated by DFS over the CFG, bounded in loop
  iterations (:data:`LOOP_LIMIT`) and total paths, with **persistent-op
  priority** — paths touching persistent state are kept first;
* call sites to module-defined functions are then *merged*: the callee's
  traces are spliced in, with every callee event's DSG cell translated
  into the caller's node space through the bottom-up clone maps
  (Figure 11); recursion is cut at depth :data:`RECURSION_LIMIT`;
* calls to *annotated* framework entry points expand into their declared
  abstract effects instead of being inlined;
* the checker reads a root's merged traces as a prefix trie
  (:meth:`TraceCollector.prefix_trie`), built from the root's paths
  without building any of its traces as a list.

Only events on persistent (or provenance-unknown) objects are kept, which
is what keeps traces small (§4.3 "the DSG limits traces to only operations
involving persistent memory").
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..errors import AnalysisError
from ..ir import instructions as ins
from ..ir import types as ty
from ..ir.annotations import (
    EFFECT_FENCE,
    EFFECT_FLUSH,
    EFFECT_LOG,
    EFFECT_TX_BEGIN,
    EFFECT_TX_END,
    EFFECT_WRITE,
)
from ..ir.function import Function
from ..ir.module import Module
from ..ir.sourceloc import SourceLoc
from ..ir.values import Constant, Value
from .cfg import CFG
from .dsa import Cell, DSAResult, run_dsa
from .dsa.graph import F_ARG, F_HEAP, F_PHEAP, F_STACK, F_UNKNOWN

# Event kinds.
EV_WRITE = "write"
EV_LOAD = "load"
EV_FLUSH = "flush"
EV_FENCE = "fence"
EV_TXBEGIN = "txbegin"
EV_TXEND = "txend"
EV_TXADD = "txadd"
EV_SPAWN = "spawn"
EV_CALL = "call"  # placeholder, removed by merging
EV_TRUNCATED = "truncated"  # path was cut (loop/size bound); no clean end
EV_ALLOC = "alloc"  # fresh persistent allocation (resets per-object state)

# Collection bounds, read at use time. The first two are the paper's
# (§4.3); the other four are this reproduction's size caps.
#: visits of one block on one path before the path is cut
LOOP_LIMIT = 10
#: nested activations of one callee before the call is dropped
RECURSION_LIMIT = 5
#: local paths kept per function (DFS expansion budget: 8x this)
MAX_PATHS = 48
#: merged traces kept per function
MAX_MERGED = 96
#: callee traces spliced in at one call site
MAX_CALLEE_TRACES = 4
#: events in one trace before it is cut
MAX_EVENTS = 20000


@dataclass(frozen=True)
class Event:
    """One persistence-relevant operation in a trace."""

    kind: str
    loc: SourceLoc
    fn: str
    cell: Optional[Cell] = None
    size: Optional[int] = None
    region_kind: str = ""
    region_label: str = ""
    #: name of the annotated framework function that produced this event
    via: str = ""
    #: call instruction (only for EV_CALL placeholders)
    call_inst: Optional[ins.Instruction] = None

    def is_memory(self) -> bool:
        return self.kind in (EV_WRITE, EV_LOAD, EV_FLUSH, EV_TXADD)

    def __str__(self) -> str:
        bits = [self.kind]
        if self.cell is not None:
            bits.append(str(self.cell))
        if self.size is not None:
            bits.append(f"+{self.size}")
        if self.region_kind:
            bits.append(self.region_kind)
        bits.append(f"@{self.loc}")
        return " ".join(bits)


@dataclass
class Trace:
    """One merged control-flow path of events, in program order."""

    root: str
    events: List[Event] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.events)

    def persistent_ops(self) -> int:
        return sum(1 for e in self.events if e.is_memory())

    def render(self) -> str:
        return "\n".join(f"  {e}" for e in self.events)


class PrefixNode:
    """One distinct trace prefix of a root, as a trie node holding the
    payload of the prefix's last event (None at the root, whose prefix
    is empty)."""

    __slots__ = ("payload", "first", "end", "children")

    def __init__(self, payload: Any, first: int):
        self.payload = payload
        #: lowest index of a trace through this prefix
        self.first = first
        #: lowest index of a trace that ends with this prefix
        self.end: Optional[int] = None
        #: next events, keyed by identity, in first-trace order
        self.children: Dict[int, "PrefixNode"] = {}


def _clean(events: List[Event]) -> int:
    """Index of the first truncation marker in ``events``, or its length."""
    for i, event in enumerate(events):
        if event.kind == EV_TRUNCATED:
            return i
    return len(events)


class TraceCollector:
    """Collects per-function traces and merges them interprocedurally."""

    def __init__(
        self,
        module: Module,
        dsa: Optional[DSAResult] = None,
        field_sensitive: bool = True,
        interprocedural: bool = True,
        tracer=None,
    ):
        from ..telemetry import NULL_TRACER

        self.module = module
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self.dsa = dsa if dsa is not None else run_dsa(
            module, interprocedural=interprocedural, tracer=self._tracer
        )
        #: ablation knob: False analyzes each function in isolation —
        #: call sites are dropped instead of merged (no Figure 11).
        self.interprocedural = interprocedural
        #: ablation knob: False degrades every event to whole-object
        #: granularity, emulating a field-INsensitive alias analysis
        #: (Andersen/Steensgaard-class, §4.2); used to reproduce the
        #: paper's claim that field sensitivity is necessary.
        self.field_sensitive = field_sensitive
        self._local_cache: Dict[str, List[List[Event]]] = {}
        # The next three memos make equal events one object, so the
        # checker's identity-keyed prefix trie shares every common prefix.
        self._block_cache: Dict[Tuple[str, str], List[Event]] = {}
        #: (call instruction id, callee event id) -> (callee event,
        #: caller-space event); the callee event is held so its id stays
        #: unique while the entry lives
        self._translated: Dict[Tuple[int, int], Tuple[Event, Event]] = {}
        #: merged traces of functions whose result no recursion depth
        #: can change (see :meth:`_merged`)
        self._merged_cache: Dict[str, List[List[Event]]] = {}
        self._reach_cache: Dict[str, Set[str]] = {}

    # -- public API -----------------------------------------------------------
    def traces_for(self, fn_name: str) -> List[Trace]:
        """Fully merged traces rooted at ``fn_name``."""
        with self._tracer.span("traces.root", root=fn_name) as sp:
            merged = self._merged(fn_name, depth={})
            sp.set("traces", len(merged))
            sp.set("events", sum(len(events) for events in merged))
        return [Trace(fn_name, events) for events in merged]

    def prefix_trie(self, fn_name: str, payload: Callable[[Event], Any]
                    ) -> Tuple[PrefixNode, int]:
        """The prefix trie of the traces :meth:`traces_for` gives for
        ``fn_name``, keyed by event identity with one ``payload(event)``
        per distinct event, and the number of those traces.

        A trace stops at its first truncation marker: its cut-off tail is
        not in the trie, and it has no end. The trie is built from the
        root's local paths without copying a trace: at each call site the
        walk steps into each translated callee trace in turn, depth
        first, so the traces come in :meth:`_merge`'s order and under its
        caps. The events are the collector's memoized ones, so their
        identities stay unique while the collector lives.
        """
        root = PrefixNode(None, 0)
        made: Dict[int, Any] = {}
        count = nodes = 0

        def grow(node: PrefixNode, events: List[Event], n: int) -> PrefixNode:
            nonlocal nodes
            for event in events if n == len(events) else events[:n]:
                ident = id(event)
                child = node.children.get(ident)
                if child is None:
                    value = made.get(ident)
                    if value is None:
                        value = made[ident] = payload(event)
                    child = node.children[ident] = PrefixNode(value, count)
                    nodes += 1
                node = child
            return node

        with self._tracer.span("traces.root", root=fn_name) as sp:
            graph = self.dsa.graph(fn_name)
            # callee traces per call site, each with its clean length
            options: Dict[int, List[Tuple[List[Event], int]]] = {}
            for path in self._local_paths(fn_name):
                if count >= MAX_MERGED:
                    break
                # The path's K + 1 event runs around its K combining call
                # sites. A trace of it is 2K + 1 segments: run 0, a callee
                # trace of site 0, run 1, ..., run K.
                runs: List[List[Event]] = [[]]
                sites: List[List[Tuple[List[Event], int]]] = []
                for event in path:
                    if event.kind != EV_CALL:
                        runs[-1].append(event)
                        continue
                    site = options.get(id(event.call_inst))
                    if site is None:
                        traces = self._callee_traces(graph, event.call_inst, {})
                        if traces is None:
                            continue  # cut recursion, drop the call
                        site = options[id(event.call_inst)] = [
                            (t, _clean(t)) for t in traces]
                    sites.append(site)
                    runs.append([])
                segments = [(run, _clean(run)) for run in runs]
                last = 2 * len(sites)
                # A trace that stops in run k, or in the callee trace
                # before it, counts once per choice of callee traces at
                # sites k, k + 1, ..., as _expand_path multiplies it.
                spread = [1] * (len(sites) + 1)
                for k in range(len(sites) - 1, -1, -1):
                    spread[k] = min(MAX_MERGED, len(sites[k]) * spread[k + 1])
                # (segment index, the segment and its clean length, trie
                # node before it, trace length before it); each turn makes
                # one trace, taking the first callee trace of each site on
                # the way and pushing the others
                stack = [(0, segments[0], root, 0)]
                while stack and count < MAX_MERGED:
                    j, (events, clean), node, length = stack.pop()
                    while True:
                        n = clean
                        if j < last:
                            # _expand_path cuts a trace past MAX_EVENTS
                            # where it combines it at the next call site
                            n = min(clean, MAX_EVENTS - length)
                        if n:
                            node = grow(node, events, n)
                        if n < len(events):
                            count += min(spread[(j + 1) // 2],
                                         MAX_MERGED - count)
                            break
                        if j == last:
                            if node.end is None:
                                node.end = count
                            count += 1
                            break
                        length += len(events)
                        j += 1
                        if j % 2:
                            site = sites[j // 2]
                            stack.extend((j, option, node, length)
                                         for option in reversed(site[1:]))
                            events, clean = site[0]
                        else:
                            events, clean = segments[j // 2]
            sp.set("traces", count)
            sp.set("events", nodes)
        return root, count

    # -- local path enumeration -----------------------------------------------
    def _local_paths(self, fn_name: str) -> List[List[Event]]:
        if fn_name in self._local_cache:
            return self._local_cache[fn_name]
        fn = self.module.function(fn_name)
        if fn.is_declaration():
            self._local_cache[fn_name] = [[]]
            return self._local_cache[fn_name]
        cfg = CFG(fn)
        graph = self.dsa.graph(fn_name)
        paths: List[List[Event]] = []
        # Iterative DFS over block paths with bounded revisits per block.
        # Each stack entry: (block label, visit counts dict, events so far)
        stack: List[Tuple[str, Dict[str, int], List[Event]]] = [
            (fn.entry.label, {}, [])
        ]
        budget = MAX_PATHS * 8  # expansion budget before cutting off
        while stack and budget > 0:
            budget -= 1
            label, counts, events = stack.pop()
            counts = dict(counts)
            counts[label] = counts.get(label, 0) + 1
            if counts[label] > LOOP_LIMIT:
                paths.append(events + [self._truncation_marker(fn_name)])
                continue
            block_events = self._block_events(fn, graph, label)
            events = events + block_events
            if len(events) > MAX_EVENTS:
                events = events[:MAX_EVENTS]
                paths.append(events + [self._truncation_marker(fn_name)])
                continue
            succs = cfg.succs.get(label, [])
            if not succs:
                paths.append(events)
                continue
            # Push in reverse so the first successor is explored first.
            for nxt in reversed(succs):
                stack.append((nxt, counts, events))
            if len(paths) >= MAX_PATHS:
                break
        # Persistent-op priority: keep the paths that touch the most
        # persistent state, then the shortest (stable for determinism).
        paths.sort(key=lambda evs: (-sum(1 for e in evs if e.is_memory()), len(evs)))
        paths = paths[:MAX_PATHS] or [[]]
        self._local_cache[fn_name] = paths
        return paths

    def _truncation_marker(self, fn_name: str) -> Event:
        from ..ir.sourceloc import UNKNOWN_LOC

        return Event(EV_TRUNCATED, UNKNOWN_LOC, fn_name)

    def _block_events(self, fn: Function, graph, label: str) -> List[Event]:
        key = (fn.name, label)
        cached = self._block_cache.get(key)
        if cached is not None:
            return cached
        out: List[Event] = []
        for inst in fn.block(label).instructions:
            events = self._events_of(fn, graph, inst)
            if not self.field_sensitive:
                events = [self._degrade(e) for e in events]
            out.extend(events)
        self._block_cache[key] = out
        return out

    def _degrade(self, event: Event) -> Event:
        """Collapse a memory event to whole-object granularity (the
        field-insensitive ablation)."""
        if event.cell is None or not event.is_memory():
            return event
        from .dsa.graph import Cell
        from .ranges import SymOffset

        node = event.cell.node.find()
        return replace(
            event,
            cell=Cell(node, SymOffset.of(0)),
            size=node.object_size(),
        )

    # -- per-instruction event extraction ----------------------------------------
    def _cell(self, graph, value: Value) -> Optional[Cell]:
        if isinstance(value, Constant):
            return None
        if graph.has_cell(value):
            return graph.cell_of(value)
        return None

    def _const_size(self, value: Value) -> Optional[int]:
        if isinstance(value, Constant) and isinstance(value.value, int):
            return value.value
        return None

    def _keep(self, cell: Optional[Cell], allow_unknown: bool) -> bool:
        if cell is None:
            return False
        node = cell.node.find()
        if node.persistent:
            return True
        # A pure argument node — no caller resolved its provenance — may be
        # persistent; dropping it would blind the checker to library
        # functions analyzed standalone (most LIB bugs reach NVM through
        # pointer arguments). Nodes with a known volatile allocation site
        # are safe to drop.
        if F_ARG in node.flags and F_STACK not in node.flags \
                and F_HEAP not in node.flags:
            return True
        return allow_unknown and F_UNKNOWN in node.flags

    def _events_of(self, fn: Function, graph, inst: ins.Instruction) -> List[Event]:
        name = fn.name

        if isinstance(inst, ins.PAlloc):
            cell = self._cell(graph, inst)
            if cell is not None:
                return [Event(EV_ALLOC, inst.loc, name, cell,
                              cell.node.object_size())]
            return []

        if isinstance(inst, ins.Store):
            cell = self._cell(graph, inst.ptr)
            if self._keep(cell, allow_unknown=False):
                return [Event(EV_WRITE, inst.loc, name, cell,
                              inst.value.type.size())]
            return []

        if isinstance(inst, ins.Load):
            cell = self._cell(graph, inst.ptr)
            if self._keep(cell, allow_unknown=False):
                return [Event(EV_LOAD, inst.loc, name, cell, inst.type.size())]
            return []

        if isinstance(inst, (ins.Memset, ins.Memcpy)):
            dst = inst.dst
            cell = self._cell(graph, dst)
            if self._keep(cell, allow_unknown=False):
                return [Event(EV_WRITE, inst.loc, name, cell,
                              self._const_size(inst.size))]
            return []

        if isinstance(inst, ins.Flush):
            cell = self._cell(graph, inst.ptr)
            if self._keep(cell, allow_unknown=True):
                return [Event(EV_FLUSH, inst.loc, name, cell,
                              self._const_size(inst.size))]
            return []

        if isinstance(inst, ins.Fence):
            return [Event(EV_FENCE, inst.loc, name)]

        if isinstance(inst, ins.TxBegin):
            return [Event(EV_TXBEGIN, inst.loc, name,
                          region_kind=inst.kind, region_label=inst.label)]

        if isinstance(inst, ins.TxEnd):
            return [Event(EV_TXEND, inst.loc, name, region_kind=inst.kind)]

        if isinstance(inst, ins.TxAdd):
            cell = self._cell(graph, inst.ptr)
            if self._keep(cell, allow_unknown=True):
                return [Event(EV_TXADD, inst.loc, name, cell,
                              self._const_size(inst.size))]
            return []

        if isinstance(inst, ins.Spawn):
            return [Event(EV_SPAWN, inst.loc, name, call_inst=inst)]

        if isinstance(inst, ins.Call):
            return self._call_events(fn, graph, inst)

        return []

    def _call_events(self, fn: Function, graph, inst: ins.Call) -> List[Event]:
        annotation = self.module.annotations.lookup(inst.callee)
        if annotation is not None:
            return self._expand_annotation(fn, graph, inst, annotation)
        target = self.module.get_function(inst.callee)
        if target is not None and not target.is_declaration():
            if not self.interprocedural:
                return []  # ablation: the call's effects are invisible
            return [Event(EV_CALL, inst.loc, fn.name, call_inst=inst)]
        return []  # builtin

    def _expand_annotation(self, fn: Function, graph, inst: ins.Call,
                           annotation) -> List[Event]:
        out: List[Event] = []
        for effect in annotation.effects:
            if effect.kind == EFFECT_FENCE:
                out.append(Event(EV_FENCE, inst.loc, fn.name, via=annotation.function))
                continue
            if effect.kind == EFFECT_TX_BEGIN:
                out.append(Event(EV_TXBEGIN, inst.loc, fn.name,
                                 region_kind=effect.region_kind,
                                 via=annotation.function))
                continue
            if effect.kind == EFFECT_TX_END:
                out.append(Event(EV_TXEND, inst.loc, fn.name,
                                 region_kind=effect.region_kind,
                                 via=annotation.function))
                continue
            # pointer-carrying effects
            if effect.ptr_arg >= len(inst.args):
                raise AnalysisError(
                    f"annotation for @{annotation.function}: ptr_arg "
                    f"{effect.ptr_arg} out of range at {inst.loc}"
                )
            cell = self._cell(graph, inst.args[effect.ptr_arg])
            size: Optional[int] = None
            if effect.size_arg >= 0:
                if effect.size_arg >= len(inst.args):
                    raise AnalysisError(
                        f"annotation for @{annotation.function}: size_arg "
                        f"{effect.size_arg} out of range at {inst.loc}"
                    )
                size = self._const_size(inst.args[effect.size_arg])
            elif cell is not None:
                size = cell.node.object_size()
            kind = {
                EFFECT_WRITE: EV_WRITE,
                EFFECT_FLUSH: EV_FLUSH,
                EFFECT_LOG: EV_TXADD,
            }.get(effect.kind)
            if kind is None:
                continue  # alloc handled by DSA
            allow_unknown = kind in (EV_FLUSH, EV_TXADD)
            if self._keep(cell, allow_unknown=allow_unknown):
                out.append(Event(kind, inst.loc, fn.name, cell, size,
                                 via=annotation.function))
        return out

    # -- interprocedural merging -----------------------------------------------
    def _merged(self, fn_name: str, depth: Dict[str, int]) -> List[List[Event]]:
        # ``depth`` is read only at call sites, so it can change the result
        # only through a function reachable from ``fn_name``; otherwise
        # every caller gets the same (cached) depth-free traces.
        reach = self._reach(fn_name)
        if any(f in reach for f in depth):
            return self._merge(fn_name, depth)
        cached = self._merged_cache.get(fn_name)
        if cached is None:
            cached = self._merged_cache[fn_name] = self._merge(fn_name, {})
        return cached

    def _reach(self, fn_name: str) -> Set[str]:
        """Functions reachable from ``fn_name`` over one or more calls."""
        reach = self._reach_cache.get(fn_name)
        if reach is None:
            callees = self.dsa.callgraph.callees
            reach = set()
            work = list(callees.get(fn_name, ()))
            while work:
                f = work.pop()
                if f not in reach:
                    reach.add(f)
                    work.extend(callees.get(f, ()))
            self._reach_cache[fn_name] = reach
        return reach

    def _merge(self, fn_name: str, depth: Dict[str, int]) -> List[List[Event]]:
        local = self._local_paths(fn_name)
        graph = self.dsa.graph(fn_name)
        merged: List[List[Event]] = []
        for path in local:
            expanded = self._expand_path(fn_name, graph, path, depth)
            merged.extend(expanded)
            if len(merged) >= MAX_MERGED:
                merged = merged[:MAX_MERGED]
                break
        return merged

    def _callee_traces(self, graph, call_inst,
                       depth: Dict[str, int]) -> Optional[List[List[Event]]]:
        """The callee traces a call site chooses among, translated into
        the caller's graph (``[[]]`` when there are none), or None where
        recursion is cut and the call is dropped."""
        callee = call_inst.callee
        d = depth.get(callee, 0)
        if d >= RECURSION_LIMIT:
            return None
        child_depth = dict(depth)
        child_depth[callee] = d + 1
        callee_traces = self._merged(callee, child_depth)
        mapping = graph.call_clone_maps.get(id(call_inst), {})
        return [
            self._translate(tr, call_inst, mapping)
            for tr in callee_traces[:MAX_CALLEE_TRACES]
        ] or [[]]

    def _expand_path(self, fn_name: str, graph, path: List[Event],
                     depth: Dict[str, int]) -> List[List[Event]]:
        results: List[List[Event]] = [[]]
        for event in path:
            if event.kind != EV_CALL:
                for r in results:
                    r.append(event)
                continue
            translated = self._callee_traces(graph, event.call_inst, depth)
            if translated is None:
                continue  # cut recursion, drop the call
            new_results: List[List[Event]] = []
            for r in results:
                for t in translated:
                    combined = r + t
                    if len(combined) > MAX_EVENTS:
                        # Cut visibly, as _local_paths does: rules stop at
                        # the marker instead of reading a trace with a hole.
                        combined = combined[:MAX_EVENTS]
                        combined.append(self._truncation_marker(fn_name))
                    new_results.append(combined)
                    if len(new_results) >= MAX_MERGED:
                        break
                if len(new_results) >= MAX_MERGED:
                    break
            results = new_results
        return results

    def _translate(self, events: List[Event], call_inst,
                   mapping) -> List[Event]:
        """Rewrite callee-graph cells into caller-graph cells (Figure 11),
        once per (call site, callee event)."""
        out: List[Event] = []
        for e in events:
            if e.cell is None:
                out.append(e)
                continue
            key = (id(call_inst), id(e))
            hit = self._translated.get(key)
            if hit is None:
                resolved = e.cell.resolved()
                mapped_node = mapping.get(resolved.node.node_id)
                # An unmapped node is not visible at this call site
                # (callee-internal, e.g. recursion cut) — keep the event in
                # callee space; persistence flags still resolve via
                # union-find.
                moved = e if mapped_node is None else replace(
                    e, cell=Cell(mapped_node.find(), resolved.offset))
                hit = self._translated[key] = (e, moved)
            out.append(hit[1])
        return out
