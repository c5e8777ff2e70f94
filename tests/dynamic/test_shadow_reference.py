"""The runtime's shadow against a record-per-write reference.

``DeepMCRuntime._access`` makes one allocation-table probe per access
and, when a write falls in the same epoch as its word's last write (same
thread, clock, strand and fence epoch), rewrites that record's ``loc`` in
place (FastTrack's same-epoch case). ``RecordPerWriteRuntime`` below is
the access path as it was before: persistence through
``Memory.is_persistent``, and one new frozen record per word per write.
Both runtimes are fed the same hook streams (spawn/join, strands,
fences, accesses of every shape), and must report the same races, count
the same events, and end with the same shadow contents.
"""

import random
import types
from dataclasses import dataclass

import pytest

from repro.analysis.dsa import run_dsa
from repro.dynamic import (
    DeepMCRuntime,
    ShadowSegment,
    WriteRecord,
    plan_hooks,
)
from repro.dynamic import runtime as runtime_module
from repro.dynamic.runtime import RaceRecord
from repro.ir.sourceloc import SourceLoc
from repro.vm.engine import make_interpreter
from repro.vm.memory import Memory, Pointer
from repro.vm.scheduler import SeededScheduler


@dataclass(frozen=True)
class _Record:
    thread_id: int
    clock: int
    strand_id: int
    in_strand: bool
    fence_epoch: int
    loc: SourceLoc


class RecordPerWriteRuntime(DeepMCRuntime):
    """The reference shadow: a new record for every word of every write."""

    def __init__(self):
        super().__init__()
        self.words = {}
        self.records_made = 0

    def _access(self, thread, ptr, size, loc, is_write):
        if not isinstance(ptr, Pointer):
            return
        size = int(size)
        if not thread.interpreter.memory.is_persistent(ptr.alloc_id):
            return
        state = self._state(thread.thread_id)
        strand = thread.current_strand_id()
        in_strand = strand >= 0
        words = self.words.setdefault(ptr.alloc_id, {})
        for word in ShadowSegment.words_for(ptr.offset, size):
            prev = words.get(word)
            if prev is not None and self._reference_race(
                    prev, thread, state, strand, in_strand):
                if len(self.races) < self.report_limit:
                    self.races.append(RaceRecord(
                        kind="WAW" if is_write else "RAW",
                        alloc_id=ptr.alloc_id, offset=word * 8,
                        first_loc=prev.loc, second_loc=loc,
                        first_strand=prev.strand_id, second_strand=strand,
                        same_thread=prev.thread_id == thread.thread_id))
            if is_write:
                self.records_made += 1
                words[word] = _Record(
                    thread.thread_id, state.vc.get(thread.thread_id),
                    strand, in_strand, state.fence_epoch, loc)

    @staticmethod
    def _reference_race(prev, thread, state, strand, in_strand):
        if prev.thread_id == thread.thread_id:
            return (prev.in_strand and in_strand
                    and prev.strand_id != strand
                    and prev.fence_epoch == state.fence_epoch)
        return not state.vc.dominates_epoch(prev.thread_id, prev.clock)


def _shadow_of(runtime):
    """Shadow contents as plain tuples, whichever runtime kept them."""
    if isinstance(runtime, RecordPerWriteRuntime):
        segments = runtime.words
    else:
        segments = {aid: seg.words
                    for aid, seg in runtime.shadow._segments.items()}
    return {(aid, word): (r.thread_id, r.clock, r.strand_id, r.in_strand,
                          r.fence_epoch, r.loc)
            for aid, words in segments.items() if words
            for word, r in words.items()}


class _Thread:
    """What the runtime reads of an interpreter thread."""

    def __init__(self, interpreter, thread_id):
        self.interpreter = interpreter
        self.thread_id = thread_id
        self.strands = []

    def current_strand_id(self):
        if self.strands:
            return self.strands[-1]
        return -self.thread_id - 1


def _hook_stream(seed, length=120):
    """A seeded random hook stream over two persistent allocations, a
    volatile one and a freed persistent one, for up to four threads."""
    rng = random.Random(seed)
    mem = Memory()
    persistent = [mem.alloc(64, persistent=True), mem.alloc(32,
                                                           persistent=True)]
    volatile = mem.alloc(32)
    freed = mem.alloc(16, persistent=True)
    mem.free(freed)
    targets = persistent * 3 + [volatile, freed, 7]
    interp = types.SimpleNamespace(memory=mem)
    region = iter(range(1, 10_000))
    events = []
    threads = [1]
    for step in range(length):
        tid = rng.choice(threads)
        roll = rng.random()
        loc = SourceLoc("stream.c", step + 1)
        if roll < 0.45:
            target = rng.choice(targets)
            ptr = (target.moved(rng.choice((0, 4, 8, 16, 24)))
                   if isinstance(target, Pointer) else target)
            size = rng.choice((8, 8, 8, 4, 16, 0))
            kind = "write" if rng.random() < 0.65 else "read"
            events.append((kind, tid, ptr, size, loc))
        elif roll < 0.55:
            events.append(("fence", tid))
        elif roll < 0.70:
            events.append(("begin", tid, next(region)))
        elif roll < 0.80:
            events.append(("end", tid))
        elif roll < 0.90 and len(threads) < 4:
            child = max(threads) + 1
            threads.append(child)
            events.append(("spawn", tid, child))
        elif len(threads) > 1:
            other = rng.choice([t for t in threads if t != tid])
            events.append(("join", tid, other))
    return interp, events


def _replay(runtime, interp, events):
    threads = {}

    def thread(tid):
        if tid not in threads:
            threads[tid] = _Thread(interp, tid)
        return threads[tid]

    for event in events:
        kind, tid = event[0], event[1]
        t = thread(tid)
        if kind == "write":
            runtime.on_write(t, *event[2:])
        elif kind == "read":
            runtime.on_read(t, *event[2:])
        elif kind == "fence":
            runtime.on_fence(t)
        elif kind == "begin":
            t.strands.append(event[2])
        elif kind == "end":
            if t.strands:
                t.strands.pop()
        elif kind == "spawn":
            runtime.on_spawn(t, thread(event[2]))
        else:
            runtime.on_join(t, thread(event[2]))
    return runtime


def _observed(runtime):
    return runtime.races, runtime.events_handled, _shadow_of(runtime)


class TestAgainstTheReference:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_hook_streams(self, seed):
        interp, events = _hook_stream(seed)
        reference = _replay(RecordPerWriteRuntime(), interp, events)
        runtime = _replay(DeepMCRuntime(), interp, events)
        assert _observed(runtime) == _observed(reference)

    def test_streams_reach_every_case(self, monkeypatch):
        """The streams race both ways and reuse records: the comparison
        above is not vacuous."""
        made = []

        def counting_record(*fields):
            made.append(fields)
            return WriteRecord(*fields)

        monkeypatch.setattr(runtime_module, "WriteRecord", counting_record)
        kinds = set()
        reference_records = 0
        for seed in range(40):
            interp, events = _hook_stream(seed)
            runtime = _replay(DeepMCRuntime(), interp, events)
            kinds |= {(r.kind, r.same_thread) for r in runtime.races}
            reference = _replay(RecordPerWriteRuntime(), interp, events)
            reference_records += reference.records_made
        assert kinds == {("WAW", True), ("WAW", False), ("RAW", True),
                         ("RAW", False)}
        # some writes reused their word's record instead of making one
        assert 0 < len(made) < reference_records

    @pytest.mark.parametrize("app", ["memcached", "redis", "nstore"])
    def test_app_runs_match(self, app):
        """Real hooked runs (bytecode hook opcodes) of each app's
        write-heaviest mix leave the same shadow and races."""
        from repro.apps import ALL_MIXES, APP_BUILDERS

        mix = max(ALL_MIXES[app], key=lambda m: m.write_fraction)
        module = APP_BUILDERS[app](mix)
        plan = plan_hooks(module, run_dsa(module))
        observed = []
        for runtime in (RecordPerWriteRuntime(), DeepMCRuntime()):
            interp = make_interpreter(
                module, hooks=plan,
                scheduler=SeededScheduler(seed=5, switch_prob=0.1))
            interp.deepmc_runtime = runtime
            interp.run("main", [200])
            observed.append(_observed(runtime))
        assert observed[0][1] > 0
        assert observed[0] == observed[1]


class TestSameEpochRecord:
    def _runtime(self):
        mem = Memory()
        ptr = mem.alloc(16, persistent=True)
        thread = _Thread(types.SimpleNamespace(memory=mem), 1)
        return DeepMCRuntime(), thread, ptr

    def test_a_same_epoch_write_rewrites_the_record(self):
        runtime, thread, ptr = self._runtime()
        thread.strands.append(1)
        runtime.on_write(thread, ptr, 8, SourceLoc("e.c", 1))
        words = runtime.shadow.segment(ptr.alloc_id).words
        first = words[0]
        runtime.on_write(thread, ptr, 8, SourceLoc("e.c", 2))
        assert words[0] is first
        assert first.loc == SourceLoc("e.c", 2)
        assert runtime.races == []

    @pytest.mark.parametrize("change", ["fence", "strand", "spawn",
                                        "thread"])
    def test_a_new_epoch_writes_a_new_record(self, change):
        runtime, thread, ptr = self._runtime()
        runtime.on_write(thread, ptr, 8, SourceLoc("e.c", 1))
        words = runtime.shadow.segment(ptr.alloc_id).words
        first = words[0]
        if change == "fence":
            runtime.on_fence(thread)
        elif change == "strand":
            thread.strands.append(7)
        elif change == "spawn":
            runtime.on_spawn(thread, _Thread(thread.interpreter, 2))
        else:
            thread = _Thread(thread.interpreter, 2)
        runtime.on_write(thread, ptr, 8, SourceLoc("e.c", 2))
        assert words[0] is not first
        assert first.loc == SourceLoc("e.c", 1)
        assert words[0].loc == SourceLoc("e.c", 2)
