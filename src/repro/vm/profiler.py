"""Op-level profiler for the VM dispatch loop.

The VM dispatch loop is the hot path of crashsim, chaos, fuzz, and the
Figure-12 overhead runs. Production runs the bytecode engine
(:mod:`repro.vm.bytecode`); the tree walker is the reference the tests
compare it against. Making the loop faster first requires seeing where
its time goes *per opcode*. The profiler keeps:

* **execution counters** per IR op — one increment per dispatched
  instruction (the bytecode engine counts per opcode and credits a
  fused opcode to each of its component IR ops), deterministic for a
  given program, so identical on both engines and across ``--jobs``
  values once merged;
* **sampled wall-clock attribution** — every ``sample_every``-th
  execution of each opcode is timed with ``perf_counter``, and the
  sampled mean extrapolates to an estimated total, Figure-12-style:
  measure a subset of real work instead of slowing down all of it;
* **persist-event emission counts** — how many ``persist.*`` events the
  run pushed into the telemetry sinks, the other per-op cost the
  crashsim pipeline pays.

The profiler is on whenever the interpreter runs with an enabled
telemetry instance (``op_profile=`` overrides that per interpreter), and
times every :data:`SAMPLE_EVERY`-th execution of each opcode. Its own
measured overhead is a bench scenario (``op_profiler_overhead`` in
``deepmc bench``), so "cheap enough to stay on" is a checked claim, not
a hope.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: stride between timed executions of each opcode
SAMPLE_EVERY = 64

#: opcode-class -> lowercase op name, filled lazily (cache shared by all
#: interpreter instances; class identity makes the lookup one dict hit)
_OP_NAMES: Dict[type, str] = {}


def op_name(cls: type) -> str:
    """Lowercase opcode name for an instruction class (cached)."""
    try:
        return _OP_NAMES[cls]
    except KeyError:
        name = cls.__name__.lower()
        _OP_NAMES[cls] = name
        return name


class OpProfiler:
    """Per-opcode counters, sampled time attribution, and event counts."""

    __slots__ = ("sample_every", "clock", "counts", "time_s", "timed",
                 "events")

    def __init__(self, sample_every: Optional[int] = None,
                 clock: Callable[[], float] = time.perf_counter):
        self.sample_every = max(1, SAMPLE_EVERY if sample_every is None
                                else sample_every)
        self.clock = clock
        #: opcode -> executions (exact, deterministic)
        self.counts: Dict[str, int] = {}
        #: opcode -> summed wall-clock of the timed samples
        self.time_s: Dict[str, float] = {}
        #: opcode -> number of timed samples
        self.timed: Dict[str, int] = {}
        #: persist-event kind -> emissions
        self.events: Dict[str, int] = {}

    # -- hooks ---------------------------------------------------------------
    def wrap_emitter(self, emit: Optional[Callable]) -> Optional[Callable]:
        """Count every event the interpreter/domain pushes to sinks."""
        if emit is None:
            return None
        events = self.events

        def counting_emit(kind: str, **fields: Any) -> None:
            events[kind] = events.get(kind, 0) + 1
            emit(kind, **fields)

        return counting_emit

    # -- derived views -------------------------------------------------------
    def estimated_time_s(self, op: str) -> float:
        """Sampled mean cost of ``op`` extrapolated to all executions."""
        timed = self.timed.get(op, 0)
        if not timed:
            return 0.0
        return self.time_s[op] / timed * self.counts.get(op, 0)

    def total_ops(self) -> int:
        return sum(self.counts.values())

    def total_estimated_s(self) -> float:
        return sum(self.estimated_time_s(op) for op in self.counts)

    def top_ops(self, n: int = 5) -> str:
        """Compact ``op:count`` ranking for span attributes."""
        ranked = sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return ",".join(f"{op}:{count}" for op, count in ranked[:n])

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready payload (``deepmc profile --run --format json``)."""
        return {
            "sample_every": self.sample_every,
            "counts": dict(sorted(self.counts.items())),
            "events": dict(sorted(self.events.items())),
            "estimated_time_s": {
                op: round(self.estimated_time_s(op), 9)
                for op in sorted(self.counts)
            },
        }

    def publish(self, metrics) -> None:
        """Fold this run into a :class:`MetricsRegistry`.

        Counters (``vm.op.*``, ``vm.event.*``) add across runs and merge
        deterministically across worker processes; the per-op sampled
        mean goes into a ``vm.optime.*`` histogram so repeated runs
        build a p50/p95 picture of each opcode's unit cost.
        """
        for op in sorted(self.counts):
            metrics.counter(f"vm.op.{op}").inc(self.counts[op])
        for kind in sorted(self.events):
            metrics.counter(f"vm.event.{kind}").inc(self.events[kind])
        for op in sorted(self.time_s):
            timed = self.timed.get(op, 0)
            if timed:
                metrics.histogram(f"vm.optime.{op}").observe(
                    self.time_s[op] / timed)


def render_op_profile(prof: OpProfiler) -> str:
    """Text table of the per-opcode profile, hottest (by est. time) first."""
    total_est = prof.total_estimated_s()
    header = ["op", "count", "est total", "%", "sampled", "mean/op"]
    rows: List[List[str]] = []
    order: List[Tuple[str, int]] = sorted(
        prof.counts.items(),
        key=lambda kv: (-prof.estimated_time_s(kv[0]), -kv[1], kv[0]))
    for op, count in order:
        est = prof.estimated_time_s(op)
        timed = prof.timed.get(op, 0)
        mean = (prof.time_s.get(op, 0.0) / timed) if timed else 0.0
        pct = est / total_est * 100.0 if total_est > 0 else 0.0
        rows.append([op, f"{count:,}", f"{est * 1e3:.3f}ms", f"{pct:5.1f}",
                     str(timed), f"{mean * 1e6:.2f}us"])
    widths = [max(len(r[i]) for r in [header] + rows)
              for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)),
             "  ".join("-" * w for w in widths)]
    lines += ["  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in rows]
    lines.append("")
    lines.append(f"ops executed: {prof.total_ops():,}  "
                 f"sample stride: {prof.sample_every}")
    if prof.events:
        lines.append("events: " + "  ".join(
            f"{kind}={count}"
            for kind, count in sorted(prof.events.items())))
    return "\n".join(lines)
