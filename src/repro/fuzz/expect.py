"""Ground-truth expectation simulators.

For every generated (or mutated, or shrunk) :class:`~repro.fuzz.spec.
ProgramSpec`, these three simulators predict what each engine *should*
report, by re-running the engines' specifications — not their code — over
the spec's flattened op stream:

* :func:`expected_static_rules` mirrors every Table 4/5 rule machine on
  concrete byte ranges (the fuzzer's programs are fully concrete: every
  field is an 8-byte slot on its own cacheline, so the DSA/range algebra
  that makes the real checker conservative degenerates to exact interval
  arithmetic);
* :func:`expected_crashsim_failing` decides whether *any* legal crash
  image violates the commit-flag oracle, by reading :func:`crash_points`:
  the persist pipeline that :mod:`repro.crashsim.enumerate` replays from
  a trace, walked per field over the spec. The litmus suite reads its
  outcome sets from the same walk (:func:`expected_outcomes`);
* :func:`expected_dynamic_rules` mirrors the happens-before runtime's
  same-thread strand race condition.

Because expectations are recomputed from the spec, they stay derivable
for arbitrary sub-programs — which is what lets the shrinker delete ops
freely while preserving "expected vs observed" disagreements.

One deliberate divergence between spec and simulation scope: the static
trace collector explores loop paths of *every* feasible iteration count
(0..loop bound..truncation) and unions warnings across paths, while the
simulators unroll loops exactly ``loop_count`` times. For the op
vocabulary the generator emits this is sound: iterating a unit more or
fewer times never changes the *set* of rule ids that fire (iterations
repeat the same ranges at the same source lines, and warnings are
deduplicated), and the zero-iteration path only removes events.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from ..models import get_model
from ..nvm.cacheline import CACHELINE
from .spec import ROOT, Op, ProgramSpec, field_range

Range = Tuple[int, int]

#: simulator-internal region kinds
_TX, _EPOCH, _STRAND = "tx", "epoch", "strand"

#: mirror of rules.performance.UNMODIFIED_FIELD_THRESHOLD
_UNMODIFIED_THRESHOLD = 8


def _overlaps(a: Range, b: Range) -> bool:
    return a[0] < b[1] and b[0] < a[1]


def _covers(a: Range, b: Range) -> bool:
    """a covers b entirely."""
    return a[0] <= b[0] and b[1] <= a[1]


def _subtract(r: Range, cut: Range) -> List[Range]:
    """r minus cut, as 0..2 pieces."""
    if not _overlaps(r, cut):
        return [r]
    pieces = []
    if r[0] < cut[0]:
        pieces.append((r[0], cut[0]))
    if cut[1] < r[1]:
        pieces.append((cut[1], r[1]))
    return pieces


def _union_size(ranges: List[Range]) -> int:
    total, last_end = 0, None
    for start, end in sorted(ranges):
        if last_end is None or start >= last_end:
            total += end - start
            last_end = end
        elif end > last_end:
            total += end - last_end
            last_end = end
    return total


def _prim_events(spec: ProgramSpec) -> List[Tuple]:
    """The spec's flat op stream as primitive persist events.

    ``("write", obj, range)``, ``("flush", obj, range)``, ``("fence",)``,
    ``("txbegin", kind)``, ``("txend", kind)``, ``("txadd", obj, range)``.
    """
    out: List[Tuple] = []
    for op in spec.flat_ops():
        kind = op[0]
        if kind == "store":
            out.append(("write", op[1], field_range(op[2])))
        elif kind == "flush":
            out.append(("flush", op[1], field_range(op[2])))
        elif kind == "fence":
            out.append(("fence",))
        elif kind == "tx_add":
            out.append(("txadd", op[1], (0, spec.object_size(op[1]))))
        elif kind in ("tx_begin", "tx_end"):
            out.append(("txbegin" if kind == "tx_begin" else "txend", _TX))
        elif kind in ("epoch_begin", "epoch_end"):
            out.append(
                ("txbegin" if kind == "epoch_begin" else "txend", _EPOCH))
        elif kind in ("strand_begin", "strand_end"):
            out.append(
                ("txbegin" if kind == "strand_begin" else "txend", _STRAND))
        else:
            raise ValueError(f"unknown op kind {kind!r}")
    return out


# ---------------------------------------------------------------------------
# static checker
# ---------------------------------------------------------------------------

def expected_static_rules(spec: ProgramSpec) -> Set[str]:
    """Rule ids the static checker should report for ``spec``."""
    ids = set(get_model(spec.model).rule_ids)
    events = _prim_events(spec)
    fired: Set[str] = set()

    # -- UnflushedWriteRule (strict/epoch variant by model) -----------------
    unflushed_id = ("strict.unflushed-write"
                    if "strict.unflushed-write" in ids
                    else "epoch.unflushed-write"
                    if "epoch.unflushed-write" in ids else None)
    pending: List[Tuple[int, List[Range], Optional[int]]] = []
    tx_stack: List[Tuple[int, List[Tuple[int, Range]]]] = []
    tx_counter = 0

    def discharge(obj: int, rng: Range) -> None:
        nonlocal pending
        still = []
        for o, remnants, marker in pending:
            if o != obj:
                still.append((o, remnants, marker))
                continue
            new_remnants: List[Range] = []
            for r in remnants:
                if _covers(rng, r):
                    continue
                new_remnants.extend(_subtract(r, rng))
            if new_remnants:
                still.append((o, new_remnants, marker))
        pending = still

    # -- MultiWritePerBarrierRule -------------------------------------------
    mw_writes: List[Tuple[int, Range]] = []
    mw_flushes: List[Tuple[int, Range]] = []
    mw_epoch_depth = 0

    # -- StrictMissingBarrierRule -------------------------------------------
    unbarriered = False

    # -- EpochBarrierRule ---------------------------------------------------
    eb_between = "epoch.missing-barrier" in ids
    eb_nested = "epoch.nested-missing-barrier" in ids
    eb_active = eb_between or eb_nested
    eb_stack: List[Dict[str, bool]] = []
    eb_dangling = False

    # -- SemanticMismatchRule -----------------------------------------------
    sm_cur: Dict[int, List[Range]] = {}
    sm_prev: Dict[int, List[Range]] = {}
    sm_depth = 0

    def sm_group_end() -> None:
        nonlocal sm_cur, sm_prev
        if not sm_cur:
            return
        for obj, entries in sm_cur.items():
            prev_entries = sm_prev.get(obj)
            if not prev_entries:
                continue
            if all(not _overlaps(r, p)
                   for r in entries for p in prev_entries):
                fired.add("epoch.semantic-mismatch")
        sm_prev = sm_cur
        sm_cur = {}

    # -- StrandOverlapRule --------------------------------------------------
    so_in_strand = False
    so_cur: Dict[int, List[Range]] = {}
    so_prev: Dict[int, List[Range]] = {}
    so_barrier_since_prev = True

    # -- FlushUnmodifiedRule ------------------------------------------------
    fu_writes: Dict[int, List[Range]] = {}
    fu_flushed: Dict[int, List[Range]] = {}

    # -- RedundantFlushRule -------------------------------------------------
    rf_flushed: Dict[int, List[Range]] = {}
    rf_writes: Dict[int, List[Range]] = {}

    # -- MultiPersistInTxRule -----------------------------------------------
    mp_stack: List[Dict[int, List[Range]]] = []

    # -- EmptyDurableTxRule -------------------------------------------------
    et_stack: List[List[bool]] = []

    for ev in events:
        kind = ev[0]

        # unflushed-write
        if unflushed_id:
            if kind == "write":
                marker = tx_stack[-1][0] if tx_stack else None
                pending.append((ev[1], [ev[2]], marker))
            elif kind == "flush":
                discharge(ev[1], ev[2])
            elif kind == "txadd" and tx_stack:
                tx_stack[-1][1].append((ev[1], ev[2]))
            elif kind == "txbegin" and ev[1] == _TX:
                tx_counter += 1
                tx_stack.append((tx_counter, []))
            elif kind == "txend" and ev[1] == _TX and tx_stack:
                tx_id, logged = tx_stack.pop()
                for obj, rng in logged:
                    discharge(obj, rng)
                still = []
                for o, remnants, marker in pending:
                    if marker == tx_id:
                        fired.add(unflushed_id)
                    else:
                        still.append((o, remnants, marker))
                pending = still

        # multi-write-barrier
        if "strict.multi-write-barrier" in ids:
            if kind == "txbegin" and ev[1] == _EPOCH:
                mw_epoch_depth += 1
            elif kind == "txend" and ev[1] == _EPOCH:
                mw_epoch_depth = max(0, mw_epoch_depth - 1)
            elif kind in ("txbegin", "txend"):
                mw_writes, mw_flushes = [], []
            elif kind == "write":
                if not (spec.model == "epoch" and mw_epoch_depth > 0):
                    mw_writes.append((ev[1], ev[2]))
            elif kind == "flush":
                mw_flushes.append((ev[1], ev[2]))
            elif kind == "fence":
                durable = [
                    (o, r) for o, r in mw_writes
                    if any(fo == o and _covers(fr, r)
                           for fo, fr in mw_flushes)
                ]
                distinct: List[Tuple[int, Range]] = []
                for o, r in durable:
                    if not any(o == d[0] and r == d[1] for d in distinct):
                        distinct.append((o, r))
                if len(distinct) >= 2:
                    fired.add("strict.multi-write-barrier")
                mw_writes, mw_flushes = [], []

        # strict missing-barrier
        if "strict.missing-barrier" in ids:
            if kind == "flush":
                unbarriered = True
            elif kind == "fence":
                unbarriered = False
            elif kind == "write" and unbarriered:
                fired.add("strict.missing-barrier")
                unbarriered = False
            elif kind == "txbegin" and ev[1] == _TX and unbarriered:
                fired.add("strict.missing-barrier")
                unbarriered = False

        # epoch barriers
        if eb_active:
            if kind == "txbegin" and ev[1] == _EPOCH:
                if eb_dangling and eb_between:
                    fired.add("epoch.missing-barrier")
                eb_dangling = False
                eb_stack.append({"nested": bool(eb_stack),
                                 "since_fence": False, "had": False})
            elif kind == "txend" and ev[1] == _EPOCH and eb_stack:
                state = eb_stack.pop()
                unb = state["since_fence"] and state["had"]
                if state["nested"] or eb_stack:
                    if unb and eb_nested:
                        fired.add("epoch.nested-missing-barrier")
                    if eb_stack and state["had"]:
                        eb_stack[-1]["since_fence"] |= unb
                        eb_stack[-1]["had"] = True
                elif unb:
                    eb_dangling = True
            elif kind == "fence":
                if eb_stack:
                    eb_stack[-1]["since_fence"] = False
                eb_dangling = False
            elif kind in ("write", "flush") and eb_stack:
                eb_stack[-1]["since_fence"] = True
                eb_stack[-1]["had"] = True

        # semantic mismatch
        if "epoch.semantic-mismatch" in ids:
            if kind == "write":
                sm_cur.setdefault(ev[1], []).append(ev[2])
            elif spec.model == "epoch":
                if kind == "txbegin" and ev[1] == _EPOCH:
                    sm_depth += 1
                elif kind == "txend" and ev[1] == _EPOCH:
                    sm_depth = max(0, sm_depth - 1)
                    if sm_depth == 0:
                        sm_group_end()
                elif kind == "fence" and sm_depth == 0:
                    sm_group_end()
            elif kind == "txend" and ev[1] == _TX:
                sm_group_end()

        # strand overlap (static, consecutive strands only)
        if "strand.dependence" in ids:
            if kind == "txbegin" and ev[1] == _STRAND:
                so_in_strand = True
                so_cur = {}
            elif kind == "txend" and ev[1] == _STRAND:
                so_in_strand = False
                if not so_barrier_since_prev:
                    for obj, prev_entries in so_prev.items():
                        if any(_overlaps(r, p)
                               for r in so_cur.get(obj, ())
                               for p in prev_entries):
                            fired.add("strand.dependence")
                so_prev = so_cur
                so_barrier_since_prev = False
            elif kind == "fence":
                so_barrier_since_prev = True
            elif so_in_strand and kind == "write":
                so_cur.setdefault(ev[1], []).append(ev[2])

        # perf: flush-unmodified
        if "perf.flush-unmodified" in ids:
            if kind == "write":
                obj, rng = ev[1], ev[2]
                fu_writes.setdefault(obj, []).append(rng)
                if obj in fu_flushed:
                    fu_flushed[obj] = [
                        f for f in fu_flushed[obj] if not _overlaps(f, rng)]
            elif kind == "flush":
                obj, frange = ev[1], ev[2]
                if any(_overlaps(f, frange)
                       for f in fu_flushed.get(obj, ())):
                    fu_flushed.setdefault(obj, []).append(frange)
                else:
                    certain = [r for r in fu_writes.get(obj, [])
                               if _overlaps(frange, r)]
                    if not certain:
                        fired.add("perf.flush-unmodified")
                    else:
                        clipped = [(max(r[0], frange[0]),
                                    min(r[1], frange[1])) for r in certain]
                        covered = _union_size(clipped)
                        size = frange[1] - frange[0]
                        if size - covered >= _UNMODIFIED_THRESHOLD:
                            fired.add("perf.flush-unmodified")
                        remaining: List[Range] = []
                        for r in fu_writes.get(obj, []):
                            remaining.extend(_subtract(r, frange))
                        fu_writes[obj] = remaining
                    fu_flushed.setdefault(obj, []).append(frange)

        # perf: redundant-flush
        if "perf.redundant-flush" in ids:
            if kind == "write":
                obj, rng = ev[1], ev[2]
                rf_writes.setdefault(obj, []).append(rng)
                if obj in rf_flushed:
                    rf_flushed[obj] = [
                        f for f in rf_flushed[obj] if not _overlaps(f, rng)]
            elif kind == "flush":
                obj, frange = ev[1], ev[2]
                if any(_overlaps(f, frange)
                       for f in rf_flushed.get(obj, ())):
                    fired.add("perf.redundant-flush")
                if any(_overlaps(frange, w)
                       for w in rf_writes.get(obj, ())):
                    rf_flushed.setdefault(obj, []).append(frange)

        # perf: multi-persist-tx
        if "perf.multi-persist-tx" in ids:
            if kind == "txbegin" and ev[1] == _TX:
                mp_stack.append({})
            elif kind == "txend" and ev[1] == _TX:
                if mp_stack:
                    mp_stack.pop()
            elif kind in ("txadd", "flush") and mp_stack:
                obj, rng = ev[1], ev[2]
                top = mp_stack[-1]
                if any(_overlaps(rng, p) for p in top.get(obj, ())):
                    fired.add("perf.multi-persist-tx")
                top.setdefault(obj, []).append(rng)

        # perf: empty-durable-tx
        if "perf.empty-durable-tx" in ids:
            if kind == "txbegin" and ev[1] == _TX:
                et_stack.append([False])
            elif kind == "txend" and ev[1] == _TX:
                if et_stack and not et_stack.pop()[0]:
                    fired.add("perf.empty-durable-tx")
            elif kind == "write":
                for frame in et_stack:
                    frame[0] = True

    # trace end (complete, non-truncated paths reach on_end)
    if unflushed_id and pending:
        fired.add(unflushed_id)
    if "strict.missing-barrier" in ids and unbarriered:
        fired.add("strict.missing-barrier")

    return fired & ids


# ---------------------------------------------------------------------------
# persist pipeline: crashsim verdicts and litmus outcome sets
# ---------------------------------------------------------------------------

#: a field: (object index, field index); the commit flag is (ROOT, 0)
FieldKey = Tuple[int, int]

#: one admissible valuation of some fields in a crash image
Outcome = Tuple[int, ...]

#: models whose lines stored since the last fence are crash candidates
_EPOCH_LIKE = ("epoch", "strand")


def _torn_value(new: int, old: int, keep: int) -> int:
    """A field after a torn write-back of ``keep`` bytes of its line: the
    field is the line's first 8 bytes, little-endian."""
    k = max(0, min(keep, 8))
    new8 = new.to_bytes(8, "little", signed=True)
    old8 = old.to_bytes(8, "little", signed=True)
    return int.from_bytes(new8[:k] + old8[k:], "little", signed=True)


class FieldPipeline:
    """Crashsim's persist pipeline, one entry per field (each field owns
    its cacheline, so this is exact; a field never stored reads 0).

    Stores dirty a line; a flush queues a dirty line at the tail of the
    FIFO ``pending``; a fence drains ``pending`` and empties the epoch
    window ``epoch_dirty``, the lines stored since the last fence, which
    the epoch and strand models add to the crash candidates. An injected
    ``drop`` dequeues a line but leaves it dirty; ``torn`` persists a
    prefix of it and cleans it.
    """

    def __init__(self, epoch_like: bool, fault: Optional[Dict] = None):
        self.durable: Dict[FieldKey, int] = {}
        self.current: Dict[FieldKey, int] = {}
        self.dirty: Set[FieldKey] = set()
        #: insertion-ordered pending set (dict keys model the FIFO)
        self.pending: Dict[FieldKey, None] = {}
        self.epoch_dirty: Set[FieldKey] = set()
        self.epoch_like = epoch_like
        self.fault = fault
        #: lines drained by fences so far: the fault directive's ordinal
        self.drained = 0

    def admissible(self, key: FieldKey) -> Tuple[int, ...]:
        """The values ``key`` can read in a crash image at this point."""
        old = self.durable.get(key, 0)
        if key in self.pending or (self.epoch_like
                                   and key in self.epoch_dirty):
            new = self.current[key]
            if new != old:
                return (old, new)
        return (old,)

    def store(self, key: FieldKey, value: int) -> None:
        self.current[key] = value
        self.dirty.add(key)
        self.epoch_dirty.add(key)

    def flush(self, key: FieldKey) -> None:
        if key in self.dirty:
            self.pending.pop(key, None)
            self.pending[key] = None

    def fault_hit(self) -> bool:
        """Start a fence: apply the one-shot fault if it hits a line this
        fence drains. True when it did; its event is then a crash point
        before the fence completes."""
        fault, first = self.fault, self.drained
        self.drained += len(self.pending)
        if (fault is None or fault["kind"] not in ("drop", "torn")
                or not first <= fault["at"] < self.drained):
            return False
        key = list(self.pending)[fault["at"] - first]
        del self.pending[key]
        if fault["kind"] == "torn":
            self.durable[key] = _torn_value(
                self.current[key], self.durable.get(key, 0),
                int(fault.get("keep", 0)))
            self.dirty.discard(key)
        return True

    def drain(self) -> None:
        """Finish a fence: persist every pending line, close the epoch."""
        for key in self.pending:
            self.durable[key] = self.current[key]
            self.dirty.discard(key)
        self.pending.clear()
        self.epoch_dirty.clear()


def crash_points(spec: ProgramSpec,
                 fault: Optional[Dict] = None) -> Iterator[FieldPipeline]:
    """Walk ``spec.flat_ops()``, yielding the pipeline at each crash point.

    The crash points are crashsim's trace prefixes: one before any op
    (allocations done, nothing stored) and one after every op; inside a
    durable-transaction commit, one after each logged object's commit
    flush (the VM emits the commit's flush and fence events, and the
    point after the commit fence is the one after ``tx_end``); and one
    after an injected fault's event, before its fence completes.
    ``fault`` is a one-shot ``drop``/``torn`` directive
    (``FaultInjector.nvm_directive``) whose ``at`` counts the lines all
    fences drain. One pipeline object is yielded each time: read it
    before resuming the walk.
    """
    pipe = FieldPipeline(spec.model in _EPOCH_LIKE, fault)
    tx_logged: List[List[int]] = []  # objects logged per open durable tx
    yield pipe
    for op in spec.flat_ops():
        kind = op[0]
        if kind == "store":
            pipe.store((op[1], op[2]), op[3])
        elif kind == "flush":
            pipe.flush((op[1], op[2]))
        elif kind == "fence":
            if pipe.fault_hit():
                yield pipe
            pipe.drain()
        elif kind == "tx_begin":
            tx_logged.append([])
        elif kind == "tx_add" and tx_logged:
            tx_logged[-1].append(op[1])
        elif kind == "tx_end" and tx_logged:
            logged = tx_logged.pop()
            if logged:
                # commit: flush each logged object whole, then a fence
                for obj in logged:
                    for f in range(spec.object_size(obj) // CACHELINE):
                        pipe.flush((obj, f))
                    yield pipe
                if pipe.fault_hit():
                    yield pipe
                pipe.drain()
        # epoch/strand begin/end: no persist-pipeline effect
        yield pipe


def expected_outcomes(spec: ProgramSpec, fields: List[FieldKey],
                      fault: Optional[Dict] = None) -> FrozenSet[Outcome]:
    """Every valuation of ``fields`` a crash image of ``spec`` can hold,
    unioned over the crash points. Fields lie on distinct cachelines,
    so the valuations at one point are the product of each field's
    admissible values."""
    outcomes: Set[Outcome] = set()
    for pipe in crash_points(spec, fault):
        outcomes.update(itertools.product(
            *[pipe.admissible(key) for key in fields]))
    return frozenset(outcomes)


def expected_crashsim_failing(spec: ProgramSpec) -> bool:
    """Whether crash-image enumeration should find a failing image: one
    whose commit flag reads 1 while some payload field reads a non-final
    value. Fields lie on distinct cachelines, so such an image exists at
    a crash point iff the flag can read 1 and some field can read a
    value other than its final one."""
    expects = list(spec.field_expectations().items())
    root = (ROOT, 0)
    for pipe in crash_points(spec):
        if 1 in pipe.admissible(root) and any(
                value != want for key, want in expects
                for value in pipe.admissible(key)):
            return True
    return False


# ---------------------------------------------------------------------------
# dynamic checker
# ---------------------------------------------------------------------------

def expected_dynamic_rules(spec: ProgramSpec) -> Set[str]:
    """Rule ids the dynamic happens-before checker should report.

    Single-threaded programs race only through the same-thread strand
    condition: two stores to one shadow word from different strands with
    no fence between them.
    """
    fired: Set[str] = set()
    strand_counter = 0
    cur_strand: Optional[int] = None
    fence_epoch = 0
    last: Dict[Tuple[int, int], Tuple[Optional[int], int]] = {}
    for op in spec.flat_ops():
        kind = op[0]
        if kind == "strand_begin":
            strand_counter += 1
            cur_strand = strand_counter
        elif kind == "strand_end":
            cur_strand = None
        elif kind == "fence":
            fence_epoch += 1
        elif kind == "store":
            word = (op[1], op[2]) if op[1] != ROOT else (ROOT, 0)
            prev = last.get(word)
            if (prev is not None and prev[0] is not None
                    and cur_strand is not None
                    and prev[0] != cur_strand
                    and prev[1] == fence_epoch):
                fired.add("strand.dependence")
            last[word] = (cur_strand, fence_epoch)
        elif kind == "tx_end":
            # a durable-tx commit fences the persist domain but emits no
            # Fence instruction, so the instrumented runtime's fence
            # epoch does not advance — mirror that by doing nothing
            pass
    return fired
