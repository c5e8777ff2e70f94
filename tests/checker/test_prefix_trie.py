"""The collector's one trace expansion, against a list reference; the
prefix trie it folds, against the trie folded from its flattened
lists; and the walk's copy policy at trace ends.

``TraceCollector._expand`` builds every merged trace as a tuple of
shared event runs. ``reference_traces`` below builds them as lists
instead, copying one list per combination of callee traces, from the
same local paths and clone maps; ``traces_for`` must equal it event for
event. ``TraceCollector.prefix_trie`` folds the run tuples,
resuming each trace after the runs it shares with the one before; a
plain fold of ``traces_for``'s lists must give the same trie on every
node: children by event identity in the same order, the same ``first``
and ``end``, the same payload, and the same trace count. Both
comparisons run for every root of every input family of
``test_trie_differential.py``, at the default caps, at each cap patched
low and at raised caps.
"""

from collections import Counter
from dataclasses import replace
from itertools import islice

import pytest

from repro.analysis import traces as trace_mod
from repro.analysis.dsa import Cell, run_dsa
from repro.analysis.traces import (EV_CALL, EV_TRUNCATED, Event, PrefixNode,
                                   TraceCollector)
from repro.checker.engine import StaticChecker, _walk_trie, analysis_roots
from repro.checker.rules import (CheckContext, EventFacts,
                                 MultiWritePerBarrierRule,
                                 StrictMissingBarrierRule, TraceRule,
                                 UnflushedWriteRule)
from repro.ir import IRBuilder, Module, types as ty
from repro.ir.sourceloc import UNKNOWN_LOC
from repro.models import get_model
from tests.checker.test_trie_differential import INPUTS

#: a MAX_EVENTS that cuts traces where a root's call site combines them
CUT_AT_CALL = 5
#: a MAX_EVENTS that some complete traces exceed after their last call
LONG_TAIL = 20
#: (name, cap overrides), applied after an input's own
CAPS = [
    ("default", {}),
    ("merged-5", {"MAX_MERGED": 5}),
    ("callee-1", {"MAX_CALLEE_TRACES": 1}),
    ("paths-3", {"MAX_PATHS": 3}),
    ("recursion-0", {"RECURSION_LIMIT": 0}),
    ("recursion-1", {"RECURSION_LIMIT": 1}),
    ("events-cut-at-call", {"MAX_EVENTS": CUT_AT_CALL}),
    ("events-long-tail", {"MAX_EVENTS": LONG_TAIL}),
    ("raised", {"MAX_PATHS": 256, "MAX_MERGED": 1024,
                "MAX_CALLEE_TRACES": 1024}),
]


def _prefix_trie(traces, payload):
    """Fold a root's traces into a trie keyed by event identity, with one
    ``payload(event)`` per distinct event. A trace stops at its
    truncation marker: its cut-off tail is never checked, and it has no
    end."""
    root = PrefixNode(None, 0)
    made = {}
    for index, trace in enumerate(traces):
        node = root
        for event in trace.events:
            if event.kind == EV_TRUNCATED:
                break
            ident = id(event)
            child = node.children.get(ident)
            if child is None:
                known = made.get(ident)
                if known is None:
                    known = made[ident] = payload(event)
                child = node.children[ident] = PrefixNode(known, index)
            node = child
        else:
            if node.end is None:
                node.end = index
    return root


def reference_traces(collector, root):
    """The merged traces of ``root`` as event lists, built by copying: a
    local path is expanded call site by call site, one list per
    combination of callee traces, under the caps as
    :mod:`repro.analysis.traces` reads them now. A trace past
    ``MAX_EVENTS`` is cut where a call site combines it and goes on
    after its marker. Only the collector's local paths and the DSA's
    clone maps are read; events compare by value."""
    memo = {}

    def merge(fn, depth):
        key = (fn, tuple(sorted(depth.items())))
        if key not in memo:
            merged = []
            for path in collector._local_paths(fn):
                if len(merged) >= trace_mod.MAX_MERGED:
                    break
                merged.extend(expand_path(fn, path, depth))
            memo[key] = merged[:trace_mod.MAX_MERGED]
        return memo[key]

    def translate(event, mapping):
        if event.cell is None:
            return event
        cell = event.cell.resolved()
        node = mapping.get(cell.node.node_id)
        return event if node is None else replace(
            event, cell=Cell(node.find(), cell.offset))

    def callee_traces(fn, call, depth):
        d = depth.get(call.callee, 0)
        if d >= trace_mod.RECURSION_LIMIT:
            return None
        traces = merge(call.callee, {**depth, call.callee: d + 1})
        mapping = collector.dsa.graph(fn).call_clone_maps.get(id(call), {})
        return [[translate(event, mapping) for event in trace]
                for trace in traces[:trace_mod.MAX_CALLEE_TRACES]] or [[]]

    def expand_path(fn, path, depth):
        results = [[]]
        for event in path:
            if event.kind != EV_CALL:
                for trace in results:
                    trace.append(event)
                continue
            options = callee_traces(fn, event.call_inst, depth)
            if options is None:
                continue  # recursion cut: the call is dropped
            limit = trace_mod.MAX_EVENTS
            combined = islice((r + t for r in results for t in options),
                              trace_mod.MAX_MERGED)
            results = [
                trace if len(trace) <= limit else
                trace[:limit] + [Event(EV_TRUNCATED, UNKNOWN_LOC, fn)]
                for trace in combined]
        return results

    return merge(root, {})


def _assert_same_trie(got, want):
    stack = [((), got, want)]
    while stack:
        where, g, w = stack.pop()
        assert (g.first, g.end) == (w.first, w.end), where
        assert g.payload is w.payload, where
        assert list(g.children) == list(w.children), where
        stack.extend((where + (ident,), g.children[ident], w.children[ident])
                     for ident in g.children)


def _compare_roots(module, dsa):
    collector = TraceCollector(module, dsa)
    for root in analysis_roots(dsa.callgraph):
        made = []

        def payload(event):
            made.append(event)
            return event

        built, count = collector.prefix_trie(root, payload)
        traces = collector.traces_for(root)
        assert count == len(traces), root
        _assert_same_trie(built, _prefix_trie(traces, lambda event: event))
        assert len(made) == len({id(event) for event in made}), root


def _at_each_cap(build, bounds, monkeypatch, compare):
    module = build()
    dsa = run_dsa(module)  # no trace cap reaches the DSA
    for _name, caps in CAPS:
        with monkeypatch.context() as patch:
            for cap, value in {**bounds, **caps}.items():
                patch.setattr(trace_mod, cap, value)
            compare(module, dsa)


BY_INPUT = pytest.mark.parametrize(
    "build,bounds", [(e[1], e[3]) for e in INPUTS], ids=[e[0] for e in INPUTS])


@BY_INPUT
def test_built_trie_matches_the_fold(build, bounds, monkeypatch):
    _at_each_cap(build, bounds, monkeypatch, _compare_roots)


def _compare_with_reference(module, dsa):
    collector = TraceCollector(module, dsa)
    for root in analysis_roots(dsa.callgraph):
        got = [trace.events for trace in collector.traces_for(root)]
        assert got == reference_traces(collector, root), root


@BY_INPUT
def test_traces_match_the_list_reference(build, bounds, monkeypatch):
    _at_each_cap(build, bounds, monkeypatch, _compare_with_reference)


def _root_traces():
    for _name, build, _model, bounds in INPUTS:
        if not bounds:
            collector = TraceCollector(build())
            for root in analysis_roots(collector.dsa.callgraph):
                yield root, collector.traces_for(root)


def test_event_caps_reach_both_cut_cases(monkeypatch):
    """The two MAX_EVENTS settings above are not vacuous: at the first,
    some trace is cut where one of its root's call sites combines (the
    root's marker is followed by more events); at the second, some
    complete trace runs past the cap after its last call."""
    cut_at_call = long_tail = 0
    monkeypatch.setattr(trace_mod, "MAX_EVENTS", CUT_AT_CALL)
    for root, traces in _root_traces():
        for trace in traces:
            kinds = [event.kind for event in trace.events]
            if EV_TRUNCATED in kinds[:-1]:
                marker = trace.events[kinds.index(EV_TRUNCATED)]
                cut_at_call += marker.fn == root
    monkeypatch.setattr(trace_mod, "MAX_EVENTS", LONG_TAIL)
    for _root, traces in _root_traces():
        long_tail += sum(1 for trace in traces
                         if len(trace.events) > LONG_TAIL
                         and all(e.kind != EV_TRUNCATED for e in trace.events))
    assert cut_at_call > 0 and long_tail > 0


def test_traces_root_span_counts_traces_and_prefixes():
    module = INPUTS[0][1]()
    checker = StaticChecker(module)
    checker.run()
    spans = [span for span in checker.last_span.child("traces").children
             if span.name == "traces.root"]
    assert len(spans) == len(analysis_roots(checker.collector.dsa.callgraph))
    assert sum(s.attrs["traces"] for s in spans) == checker.traces_checked
    assert sum(s.attrs["events"] for s in spans) == checker.events_visited


# ---------------------------------------------------------------------------
# the walk copies only the rules that override on_end where a trace ends
# ---------------------------------------------------------------------------

def _end_inside_module():
    """After the flush at line 3 one path ends and two go on, writing
    different fields: the trie has a node that is a trace end and a
    branch at once."""
    mod = Module("end_inside", persistency_model="strict")
    rec = mod.define_struct("r", [("a", ty.I64), ("b", ty.I64),
                                  ("c", ty.I64)])
    fn = mod.define_function("main", ty.VOID, [("n", ty.I64)],
                             source_file="m.c")
    b = IRBuilder(fn)
    more, left, right, done = (b.new_block(n)
                               for n in ("more", "left", "right", "done"))
    p = b.palloc(rec, line=1)
    fa = b.getfield(p, "a")
    b.store(1, fa, line=2)
    b.flush(fa, 8, line=3)
    b.br(b.icmp("ne", fn.arg("n"), 0), more, done)
    b.position_at(more)
    b.br(b.icmp("sgt", fn.arg("n"), 1), left, right)
    for block, field, line in ((left, "b", 5), (right, "c", 7)):
        b.position_at(block)
        b.store(2, b.getfield(p, field), line=line)
        b.fence(line=line + 1)
        b.jmp(done)
    b.position_at(done)
    b.ret()
    return mod


def _counting(cls, copies):
    class Counting(cls):
        def fork(self):
            copies[cls] += 1
            return super().fork()
    return Counting


def test_trace_ends_copy_only_rules_with_on_end():
    assert MultiWritePerBarrierRule.on_end is TraceRule.on_end
    module = _end_inside_module()
    collector = TraceCollector(module)
    trie, _count = collector.prefix_trie("main", EventFacts)
    branches = ends_inside = 0
    stack = [trie]
    while stack:
        node = stack.pop()
        branches += max(len(node.children) - 1, 0)
        ends_inside += node.end is not None and bool(node.children)
        stack.extend(node.children.values())
    assert branches > 0 and ends_inside > 0

    copies = Counter()
    rules = [_counting(MultiWritePerBarrierRule, copies)("strict"),
             _counting(UnflushedWriteRule, copies)("strict.unflushed-write"),
             _counting(StrictMissingBarrierRule, copies)()]
    ctx = CheckContext(module, get_model("strict"), "main")
    _warnings, _visited, forks, _calls = _walk_trie(trie, rules, ctx)
    assert forks == branches + ends_inside
    assert copies == {MultiWritePerBarrierRule: branches,
                      UnflushedWriteRule: branches + ends_inside,
                      StrictMissingBarrierRule: branches + ends_inside}
