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
* a merged trace is a tuple of *runs*, each the events of one local
  path between two of its call sites, or such a run translated into a
  caller. One expansion (:meth:`TraceCollector._expand`) builds them, so
  a callee trace is referenced at a call site and never copied;
  :meth:`TraceCollector.traces_for` flattens the tuples into lists, and
  the checker reads them as a prefix trie
  (:meth:`TraceCollector.prefix_trie`) that folds them.

Only events on persistent (or provenance-unknown) objects are kept, which
is what keeps traces small (§4.3 "the DSG limits traces to only operations
involving persistent memory").
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import islice, takewhile
from operator import is_
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


#: a stretch of one local path's events between two of its call sites,
#: or such a stretch translated into a caller; a merged trace is a tuple
#: of runs that it shares with every other trace through them
Run = Tuple[Event, ...]


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
        self._split_cache: Dict[str, List[Tuple[List[Run],
                                                List[ins.Call]]]] = {}
        # The next four memos make equal events one object, and equal
        # runs one tuple, so the checker's identity-keyed prefix trie
        # shares every common prefix and its fold can skip shared runs.
        self._block_cache: Dict[Tuple[str, str], List[Event]] = {}
        #: (call instruction id, callee event id) -> (callee event,
        #: caller-space event); the callee event is held so its id stays
        #: unique while the entry lives
        self._translated: Dict[Tuple[int, int], Tuple[Event, Event]] = {}
        #: (call instruction id, callee run id) -> (callee run,
        #: caller-space run), held likewise
        self._translated_runs: Dict[Tuple[int, int], Tuple[Run, Run]] = {}
        #: merged traces of functions whose result no recursion depth
        #: can change (see :meth:`_merged`)
        self._merged_cache: Dict[str, List[Tuple[Run, ...]]] = {}
        self._reach_cache: Dict[str, Set[str]] = {}

    # -- public API -----------------------------------------------------------
    def traces_for(self, fn_name: str) -> List[Trace]:
        """Fully merged traces rooted at ``fn_name``, as event lists."""
        with self._tracer.span("traces.root", root=fn_name) as sp:
            merged = [[event for run in runs for event in run]
                      for runs in self._merged(fn_name, depth={})]
            sp.set("traces", len(merged))
            sp.set("events", sum(len(events) for events in merged))
        return [Trace(fn_name, events) for events in merged]

    def prefix_trie(self, fn_name: str, payload: Callable[[Event], Any]
                    ) -> Tuple[PrefixNode, int]:
        """The prefix trie of the traces :meth:`traces_for` gives for
        ``fn_name``, keyed by event identity with one ``payload(event)``
        per distinct event, and the number of those traces.

        A trace stops at its first truncation marker: its cut-off tail is
        not in the trie, and it has no end. The trie folds the root's run
        tuples in order, each trace resuming after the runs it shares with
        the trace before it. The events are the collector's memoized
        ones, so their identities stay unique while the collector lives.
        """
        root = PrefixNode(None, 0)
        made: Dict[int, Any] = {}
        nodes = 0
        prev: Tuple[Run, ...] = ()
        # after[i]: the node after the first i runs of prev, the trace
        # before, for each run it grew in full; if prev was cut, the cut
        # is in its run len(after) - 1
        after = [root]
        with self._tracer.span("traces.root", root=fn_name) as sp:
            merged = self._merged(fn_name, depth={})
            for index, runs in enumerate(merged):
                # the leading runs this trace shares with prev, by identity
                shared = len(list(takewhile(bool, map(is_, runs, prev))))
                prev = runs
                if shared >= len(after):
                    continue  # cut in the same run as the trace before
                del after[shared + 1:]
                node = after[shared]
                cut = False
                for run in runs[shared:]:
                    for event in run:
                        if event.kind == EV_TRUNCATED:
                            cut = True
                            break
                        ident = id(event)
                        child = node.children.get(ident)
                        if child is None:
                            value = made.get(ident)
                            if value is None:
                                value = made[ident] = payload(event)
                            child = node.children[ident] = PrefixNode(value,
                                                                      index)
                            nodes += 1
                        node = child
                    if cut:
                        break
                    after.append(node)
                if not cut and node.end is None:
                    node.end = index
            sp.set("traces", len(merged))
            sp.set("events", nodes)
        return root, len(merged)

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
        while stack:
            if budget == 0:
                # Out of budget: each partial path is cut visibly, as a
                # loop bound cuts it, instead of being dropped.
                paths.extend(events + [self._truncation_marker(fn_name)]
                             for _label, _counts, events in reversed(stack))
                break
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
        paths = paths[:MAX_PATHS]
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
    def _merged(self, fn_name: str, depth: Dict[str, int]
                ) -> List[Tuple[Run, ...]]:
        # ``depth`` is read only at call sites, so it can change the result
        # only through a function reachable from ``fn_name``; otherwise
        # every caller gets the same (cached) depth-free traces.
        reach = self._reach(fn_name)
        if any(f in reach for f in depth):
            return self._expand(fn_name, depth)
        cached = self._merged_cache.get(fn_name)
        if cached is None:
            cached = self._merged_cache[fn_name] = self._expand(fn_name, {})
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

    def _split_paths(self, fn_name: str
                     ) -> List[Tuple[List[Run], List[ins.Call]]]:
        """Each local path of ``fn_name`` as its K + 1 event runs around
        its K call sites, with those call instructions, split once."""
        split = self._split_cache.get(fn_name)
        if split is None:
            split = self._split_cache[fn_name] = []
            for path in self._local_paths(fn_name):
                at = [i for i, event in enumerate(path)
                      if event.kind == EV_CALL]
                split.append(([tuple(path[a + 1:b])
                               for a, b in zip([-1] + at, at + [len(path)])],
                              [path[i].call_inst for i in at]))
        return split

    def _expand(self, fn_name: str, depth: Dict[str, int]
                ) -> List[Tuple[Run, ...]]:
        """The merged traces of ``fn_name``, each a tuple of runs: the
        first :data:`MAX_MERGED`, path by path, each path's traces in
        lexicographic order of their callee-trace choices. A trace is cut
        only where a call site would combine it past :data:`MAX_EVENTS`,
        so its last run may take it past the cap, and a cut trace still
        takes each later run and each later choice."""
        graph = self.dsa.graph(fn_name)
        # callee traces per call site, each with its length
        options: Dict[int, Optional[List[Tuple[Tuple[Run, ...], int]]]] = {}
        merged: List[Tuple[Run, ...]] = []
        for runs, calls in self._split_paths(fn_name):
            room = MAX_MERGED - len(merged)
            if room <= 0:
                break
            for call in calls:
                if id(call) not in options:
                    callee = self._callee_traces(graph, call, depth)
                    options[id(call)] = None if callee is None else [
                        (t, sum(map(len, t))) for t in callee]
            # (runs, length) of each trace of the path so far; empty runs
            # are left out
            traces = [((runs[0],) if runs[0] else (), len(runs[0]))]
            for call, run in zip(calls, runs[1:]):
                site = options[id(call)]
                if site is not None:  # None: recursion cut, call dropped
                    traces = list(islice(
                        ((r + t, n + m) if n + m <= MAX_EVENTS
                         else self._cut(fn_name, r + t)
                         for r, n in traces for t, m in site), room))
                if run:
                    traces = [(r + (run,), n + len(run)) for r, n in traces]
            merged.extend(r for r, _n in traces)
        return merged

    def _cut(self, fn_name: str, runs: Tuple[Run, ...]
             ) -> Tuple[Tuple[Run, ...], int]:
        """The first :data:`MAX_EVENTS` events of ``runs`` and a
        truncation marker, and their number: a trace is cut visibly, as
        :meth:`_local_paths` cuts, so rules stop at the marker instead of
        reading a trace with a hole."""
        kept: List[Run] = []
        room = MAX_EVENTS
        for run in runs:
            if len(run) >= room:
                kept.append(run if len(run) == room else run[:room])
                break
            kept.append(run)
            room -= len(run)
        kept.append((self._truncation_marker(fn_name),))
        return tuple(kept), MAX_EVENTS + 1

    def _callee_traces(self, graph, call_inst, depth: Dict[str, int]
                       ) -> Optional[List[Tuple[Run, ...]]]:
        """The callee traces a call site chooses among, translated into
        the caller's graph (one empty trace when there are none), or None
        where recursion is cut and the call is dropped."""
        callee = call_inst.callee
        d = depth.get(callee, 0)
        if d >= RECURSION_LIMIT:
            return None
        child_depth = dict(depth)
        child_depth[callee] = d + 1
        callee_traces = self._merged(callee, child_depth)
        mapping = graph.call_clone_maps.get(id(call_inst), {})
        return [
            tuple(self._translate(run, call_inst, mapping) for run in trace)
            for trace in callee_traces[:MAX_CALLEE_TRACES]
        ] or [()]

    def _translate(self, run: Run, call_inst, mapping) -> Run:
        """Rewrite callee-graph cells into caller-graph cells (Figure 11),
        once per (call site, callee run) and per (call site, callee
        event)."""
        site = id(call_inst)
        hit = self._translated_runs.get((site, id(run)))
        if hit is not None:
            return hit[1]
        out: List[Event] = []
        for e in run:
            if e.cell is None:
                out.append(e)
                continue
            pair = self._translated.get((site, id(e)))
            if pair is None:
                resolved = e.cell.resolved()
                mapped_node = mapping.get(resolved.node.node_id)
                # An unmapped node is not visible at this call site
                # (callee-internal, e.g. recursion cut) — keep the event in
                # callee space; persistence flags still resolve via
                # union-find.
                moved = e if mapped_node is None else replace(
                    e, cell=Cell(mapped_node.find(), resolved.offset))
                pair = self._translated[(site, id(e))] = (e, moved)
            out.append(pair[1])
        hit = self._translated_runs[(site, id(run))] = (run, tuple(out))
        return hit[1]
