"""Persist-event trace recording for crash-state enumeration.

The interpreter and the persist domain already emit a structured event
stream (``persist.store`` / ``persist.flush`` / ``persist.fence`` / ...)
through the telemetry facade. Crashsim taps that stream with a
:class:`TraceRecorder` sink and — crucially — captures *content* at event
time: the architectural bytes of every cacheline a store touches, and the
pre-modification snapshot of every ``txadd``-logged range. With content in
the trace, the enumeration engine (:mod:`repro.crashsim.enumerate`) can
rebuild any legal durable image offline, without re-executing the program
once per crash point.

Why a sink and not interpreter hooks: the event stream is the already-
stable contract between the VM and observability (docs/OBSERVABILITY.md);
riding it means crashsim sees exactly the order the hardware model
committed to, including commit-time flushes that library code issues.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..ir.module import Module
from ..nvm.cacheline import LineId, lines_covering
from ..telemetry import Telemetry
from ..telemetry.sinks import Sink
from ..vm.engine import make_interpreter
from ..vm.interpreter import ExecResult, Interpreter


@dataclass
class TraceEvent:
    """One persist-relevant event, with content captured at event time.

    ``kind`` is the event name without the ``persist.`` prefix: one of
    ``palloc``, ``pfree``, ``store``, ``flush``, ``fence``, ``evict``,
    ``txbegin``, ``txadd``, ``txend`` — plus the injected-fault kinds
    ``drop`` (a fence drain silently lost a line) and ``torn`` (a drain
    persisted only the first ``keep`` bytes of its line). Only the
    fields relevant to each kind are set.
    """

    index: int
    kind: str
    alloc: Optional[int] = None
    offset: Optional[int] = None
    size: Optional[int] = None
    thread: Optional[int] = None
    region: Optional[int] = None
    region_kind: Optional[str] = None
    #: affected line index (``evict``/``drop``/``torn`` only)
    line: Optional[int] = None
    #: bytes that reached the device (``torn`` only)
    keep: Optional[int] = None
    #: post-store content of every covered cacheline (``store`` only)
    content: Dict[LineId, bytes] = field(default_factory=dict)
    #: pre-modification bytes of the logged range (``txadd`` only)
    snapshot: Optional[bytes] = None


class TraceRecorder(Sink):
    """Telemetry sink that captures the persist-event stream.

    Must be :meth:`attach`-ed to the interpreter before the run so store
    and txadd events can read line/range content synchronously — the
    architectural memory at event-receipt time is exactly the post-store
    (resp. pre-modification) content the replay needs.
    """

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        #: allocation sizes, never forgotten (unlike the live domain,
        #: which drops them at pfree) — replay needs them for any prefix.
        self.alloc_sizes: Dict[int, int] = {}
        self._interp: Optional[Interpreter] = None

    def attach(self, interpreter: Interpreter) -> None:
        self._interp = interpreter

    # -- Sink interface -----------------------------------------------------
    def emit(self, payload: Dict[str, Any]) -> None:
        kind = payload.get("event", "")
        if not kind.startswith("persist."):
            return
        short = kind[len("persist."):]
        ev = TraceEvent(index=len(self.events), kind=short)
        if short == "palloc":
            ev.alloc, ev.size = payload["alloc"], payload["size"]
            self.alloc_sizes[ev.alloc] = ev.size
        elif short == "pfree":
            ev.alloc = payload["alloc"]
        elif short == "store":
            ev.alloc = payload["alloc"]
            ev.offset, ev.size = payload["offset"], payload["size"]
            ev.content = self._capture_lines(ev.alloc, ev.offset, ev.size)
        elif short == "flush":
            ev.alloc = payload["alloc"]
            ev.offset, ev.size = payload["offset"], payload["size"]
        elif short == "fence":
            pass
        elif short == "evict":
            ev.alloc, ev.line = payload["alloc"], payload["line"]
        elif short == "drop":
            ev.alloc, ev.line = payload["alloc"], payload["line"]
        elif short == "torn":
            ev.alloc, ev.line = payload["alloc"], payload["line"]
            ev.keep = payload["keep"]
        elif short in ("txbegin", "txend"):
            ev.thread = payload["thread"]
            ev.region_kind = payload["region_kind"]
            ev.region = payload["region"]
        elif short == "txadd":
            ev.thread, ev.alloc = payload["thread"], payload["alloc"]
            ev.offset, ev.size = payload["offset"], payload["size"]
            ev.snapshot = self._read(ev.alloc, ev.offset,
                                     ev.offset + ev.size)
        else:  # future event kinds pass through un-modelled
            return
        self.events.append(ev)

    # -- content capture ----------------------------------------------------
    def _capture_lines(self, alloc: int, offset: int,
                       size: int) -> Dict[LineId, bytes]:
        assert self._interp is not None, "recorder not attached"
        domain = self._interp.domain
        return {
            (alloc, idx): domain.line_bytes((alloc, idx))
            for idx in lines_covering(offset, size)
        }

    def _read(self, alloc: int, start: int, end: int) -> bytes:
        assert self._interp is not None, "recorder not attached"
        return self._interp.memory.read_alloc_bytes(alloc, start, end)


@dataclass
class PersistTrace:
    """A recorded execution: the event stream plus run metadata."""

    events: List[TraceEvent]
    alloc_sizes: Dict[int, int]
    result: ExecResult

    @property
    def interpreter(self) -> Interpreter:
        return self.result.interpreter

    def __len__(self) -> int:
        return len(self.events)


def record_trace(module: Module, entry: str = "main",
                 args: Sequence[Any] = (),
                 telemetry: Optional[Telemetry] = None,
                 **interp_kwargs: Any) -> PersistTrace:
    """Execute ``entry`` once and return its persist-event trace.

    The run uses a private Telemetry whose only sink is the recorder, so
    recording composes with (and never pollutes) any caller telemetry.
    When a caller ``telemetry`` is supplied, the private run's metrics
    (``vm.*`` stats, ``vm.op.*`` profiler counters) are folded into it
    after the run — the serial path mirrors what the parallel path gets
    from merged worker dumps, so op counters stay identical across
    ``--jobs`` values. The VM op profiler runs only when a caller cares
    (enabled ``telemetry``), keeping unobserved recordings at full
    speed.
    """
    recorder = TraceRecorder()
    tel = Telemetry(sinks=[recorder])
    observed = telemetry is not None and telemetry.enabled
    interp_kwargs.setdefault("op_profile", observed)
    interp = make_interpreter(module, telemetry=tel, **interp_kwargs)
    recorder.attach(interp)
    result = interp.run(entry, args)
    if observed:
        telemetry.metrics.merge(tel.metrics.dump())
    return PersistTrace(events=recorder.events,
                        alloc_sizes=dict(recorder.alloc_sizes),
                        result=result)
