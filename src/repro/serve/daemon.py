"""The ``deepmc serve`` daemon: a resilient, long-lived analysis server.

Architecture (one process, a few threads, one worker pool)::

    accept thread ──► connection threads ──► admission queue ──► dispatcher
                         │       ▲                                  │
                         │       └── responses (per-conn lock) ◄────┤
                         │                                          ▼
                         └─ light methods, warm hits      run_tasks worker pool

* **Connection threads** parse frames, answer light methods (``ping``,
  ``health``, ``ready``, ``stats``, ``suppress``, ``methods``) and *warm*
  heavy requests (artifact-store hits) inline, and hand cold heavy
  requests to the admission queue. A warm hit never consumes an admission
  slot, so a hot working set stays responsive under overload.
* **Admission** is a bounded queue: at most ``max_inflight`` cold
  requests may be queued + executing. Beyond that the request is refused
  *immediately* with a structured ``overloaded`` error carrying a
  ``retry_after_ms`` hint — never silently dropped, never head-of-line
  blocked behind work that cannot be admitted.
* **The dispatcher** drains admitted requests in batches and runs them
  through the shared process-pool executor
  (:func:`repro.parallel.executor.run_tasks`) — the same machinery behind
  ``deepmc corpus --jobs N`` — inheriting its supervisor behaviour: a
  worker that crashes breaks only its pool generation (the pool is
  rebuilt with exponential backoff and the unfinished *sibling* requests
  are requeued, never dropped), a worker that hangs trips the progress
  deadline, and a request out of retries falls back to in-process
  execution. With ``jobs > 1`` the daemon owns one
  :class:`~repro.parallel.executor.WorkerPool` for its whole life: its
  workers fork on the first cold request (so start-up does not pay for
  them), every cold batch runs on them, a batch of one included, they
  are replaced only when one dies or stalls, and they are shut down
  after the drain. With ``jobs <= 1`` requests execute inline in the
  daemon (fault injection is disabled on that path by construction).
* **Deadlines** are cooperative budgets threaded *into* the analysis
  stages: the static checker raises ``DeadlineExceeded`` at its next
  checkpoint (→ a structured ``deadline_exceeded`` error naming the
  stage), crash simulation returns everything enumerated so far marked
  ``truncated`` + ``deadline_exceeded`` (→ a *successful* response whose
  result says it is partial). Each attempt gets the budget remaining at
  dispatch time.
* **Drain** (graceful shutdown): new heavy requests are refused with
  retryable ``shutting_down``; every already-admitted request completes
  and its response is flushed before sockets close. Zero in-flight
  requests are ever lost to a SIGTERM.

Telemetry is counters + events only — the daemon never opens tracer
spans from its many threads (the tracer is single-threaded by design).
"""

from __future__ import annotations

import os
import socket
import threading
from collections import deque
from dataclasses import dataclass, field
from time import monotonic
from typing import Any, Dict, List, Optional, Tuple

from ..deadline import Deadline
from ..errors import DeadlineExceeded, ReproError
from ..parallel.executor import WorkerPool, run_tasks
from ..telemetry import Telemetry
from . import methods as serve_methods
from .artifacts import ArtifactStore, is_complete
from .protocol import (
    HEAVY_METHODS,
    HELLO_SCHEMA,
    IDEMPOTENT_METHODS,
    LIGHT_METHODS,
    METHODS,
    ProtocolError,
    Request,
    encode,
    failure,
    success,
)
from .session import SessionState, parse_suppress_params

#: floor of the overload backpressure hint
MIN_RETRY_AFTER_MS = 50

#: per-queued-request increment of the backpressure hint: deeper queue,
#: longer hint, so colliding clients spread out instead of re-stampeding
RETRY_AFTER_STEP_MS = 150


@dataclass
class ServeConfig:
    """Everything the daemon needs to run (CLI flags map 1:1)."""

    socket_path: Optional[str] = None
    port: Optional[int] = None
    jobs: int = 1
    #: admission bound: max cold requests queued + executing
    max_inflight: int = 8
    #: default per-request deadline budget (seconds); None = unbounded.
    #: A request may lower/raise its own via ``params.timeout_s``.
    request_timeout_s: Optional[float] = 30.0
    #: progress deadline of the worker pool (hung-worker detector)
    pool_timeout_s: Optional[float] = 10.0
    #: worker-side analysis cache directory (None = no cache)
    cache_dir: Optional[str] = None
    #: corpus programs to pre-check before reporting ready
    warm_programs: Tuple[str, ...] = ()
    #: chaos only: deterministic executor-fault plan (jobs > 1 only)
    fault_plan: Any = None


@dataclass
class _Pending:
    """One admitted cold request awaiting dispatch."""

    seq: int
    request: Request
    params: Dict[str, Any]  # normalized
    key: str
    conn: "_Connection"
    deadline: Deadline
    admitted_at: float = field(default_factory=monotonic)


class _Connection:
    """One client connection: a socket, a write lock, a session."""

    def __init__(self, sock: socket.socket, server: "DeepMCServer"):
        self.sock = sock
        self.server = server
        self.session = SessionState()
        self._wlock = threading.Lock()
        self.closed = False

    def send(self, doc: Dict[str, Any]) -> bool:
        """Serialize one response; False when the peer is gone (the
        daemon must survive any client vanishing mid-request)."""
        try:
            with self._wlock:
                if self.closed:
                    return False
                self.sock.sendall(encode(doc))
            return True
        except OSError:
            self.server.telemetry.metrics.counter(
                "serve.orphaned_responses").inc()
            return False

    def close(self) -> None:
        with self._wlock:
            if self.closed:
                return
            self.closed = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


# -- task function ----------------------------------------------------------

def _serve_task(task: Dict[str, Any],
                _telemetry: Optional[Telemetry]) -> Dict[str, Any]:
    """Module-level (picklable) task function for one heavy request.

    Returns ``{"doc"}`` or a typed protocol error (``error_code``);
    genuine infrastructure failures raise, and the executor turns them
    into a traceback. The telemetry it is handed is ignored, so the
    daemon never accumulates per-request spans. Chaos executor faults
    apply only on the pool (``_attempt`` stamped, not the in-process
    fallback) — the same contract as the chaos corpus task. Under
    ``jobs > 1`` every cold batch runs on the pool, so a fault can hit
    a request that had the dispatcher to itself.
    """
    from ..faults.injector import apply_executor_fault

    # `_attempt` marks a pool attempt; inline (jobs <= 1), a crash fault
    # would take the daemon down with it
    if "_attempt" in task:
        apply_executor_fault(task)
    deadline_s = task.get("deadline_s")
    deadline = Deadline(deadline_s) if deadline_s is not None else None
    try:
        return {"doc": serve_methods.run_method(
            task["method"], task["params"], deadline=deadline,
            cache_dir=task.get("cache_dir"))}
    except DeadlineExceeded as exc:
        return {"error_code": "deadline_exceeded", "stage": exc.stage,
                "error": str(exc)}
    except ReproError as exc:
        # bad inputs surface as ReproError (unknown program/test/model)
        return {"error_code": "bad_request",
                "error": f"{type(exc).__name__}: {exc}"}


# -- the server -------------------------------------------------------------

class DeepMCServer:
    """See the module docstring for the architecture."""

    def __init__(self, config: ServeConfig,
                 telemetry: Optional[Telemetry] = None):
        self.config = config
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.store = ArtifactStore()
        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._conns: List[_Connection] = []
        self._conns_lock = threading.Lock()
        #: admission state, all under one condition
        self._cond = threading.Condition()
        self._queue: deque = deque()
        self._executing = 0
        self._draining = False
        self._stopping = False
        self._ready = threading.Event()
        self._stopped = threading.Event()
        self._seq = 0
        #: the cold-request workers (jobs > 1), forked on first use
        self._pool = WorkerPool(config.jobs) if config.jobs > 1 else None
        self._dispatcher: Optional[threading.Thread] = None
        self.address: Optional[Tuple[str, Any]] = None

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> Tuple[str, Any]:
        """Bind, warm, and go ready; returns the bound address (for
        ``--port 0`` the kernel-assigned port)."""
        cfg = self.config
        if (cfg.socket_path is None) == (cfg.port is None):
            raise ProtocolError(
                "exactly one of socket_path/port is required")
        if cfg.pool_timeout_s is not None and cfg.pool_timeout_s <= 0:
            raise ProtocolError(f"pool_timeout_s must be positive or None, "
                                f"got {cfg.pool_timeout_s}")
        if cfg.socket_path is not None:
            if os.path.exists(cfg.socket_path):
                os.unlink(cfg.socket_path)
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.bind(cfg.socket_path)
            self.address = ("unix", cfg.socket_path)
        else:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(("127.0.0.1", cfg.port))
            self.address = ("tcp", sock.getsockname())
        sock.listen(64)
        sock.settimeout(0.2)
        self._listener = sock

        for name, target in (("dispatcher", self._dispatch_loop),
                             ("acceptor", self._accept_loop)):
            t = threading.Thread(target=target, name=f"serve-{name}",
                                 daemon=True)
            t.start()
            self._threads.append(t)
        self._dispatcher = self._threads[0]

        for program in cfg.warm_programs:
            params = serve_methods.normalize("check", {"program": program})
            doc = serve_methods.run_method("check", params,
                                           cache_dir=cfg.cache_dir)
            self.store.put(serve_methods.method_key("check", params), doc)
        self._ready.set()
        self.telemetry.event("serve_started",
                             address=str(self.address),
                             jobs=cfg.jobs,
                             max_inflight=cfg.max_inflight)
        return self.address

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the daemon is fully shut down."""
        return self._stopped.wait(timeout)

    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = None) -> bool:
        """Stop the daemon. With ``drain`` every admitted request
        completes and its response is flushed before sockets close;
        returns False when the drain ran out of ``timeout``."""
        deadline = Deadline(timeout)
        with self._cond:
            self._draining = True
            self._cond.notify_all()
            drained = True
            if drain:
                while self._queue or self._executing:
                    remaining = deadline.remaining()
                    if remaining <= 0:
                        drained = False
                        break
                    self._cond.wait(None if remaining == float("inf")
                                    else min(remaining, 0.5))
            self._stopping = True
            self._cond.notify_all()
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            conn.close()
        for t in list(self._threads):
            if t is not threading.current_thread():
                t.join(timeout=5.0)
        if self._pool is not None:
            # a dispatcher still busy (no drain) has abandoned its batch
            self._pool.close(kill=self._dispatcher is not None
                             and self._dispatcher.is_alive())
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        if self.config.socket_path and os.path.exists(
                self.config.socket_path):
            try:
                os.unlink(self.config.socket_path)
            except OSError:
                pass
        self.telemetry.event("serve_stopped", drained=drained)
        self._stopped.set()
        return drained

    # -- accept / read ------------------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            with self._cond:
                if self._stopping:
                    return
            try:
                sock, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            conn = _Connection(sock, self)
            with self._conns_lock:
                self._conns.append(conn)
            t = threading.Thread(target=self._conn_loop, args=(conn,),
                                 name="serve-conn", daemon=True)
            t.start()
            self._threads.append(t)

    def _conn_loop(self, conn: _Connection) -> None:
        conn.send({"schema": HELLO_SCHEMA, "ready": self._ready.is_set()})
        try:
            reader = conn.sock.makefile("r", encoding="utf-8",
                                        errors="replace")
            for line in reader:
                line = line.strip()
                if not line:
                    continue
                self._handle_line(conn, line)
        except (OSError, ValueError):
            pass
        finally:
            conn.close()
            with self._conns_lock:
                if conn in self._conns:
                    self._conns.remove(conn)

    def _handle_line(self, conn: _Connection, line: str) -> None:
        metrics = self.telemetry.metrics
        try:
            request = Request.parse(line)
        except ProtocolError as exc:
            metrics.counter("serve.bad_requests").inc()
            conn.send(failure(None, "bad_request", str(exc)))
            return
        metrics.counter("serve.requests").inc()
        method = request.method
        if method not in METHODS:
            metrics.counter("serve.bad_requests").inc()
            conn.send(failure(request.id, "method_not_found",
                              f"unknown method {method!r} "
                              f"(choose from {', '.join(METHODS)})"))
            return
        if method in LIGHT_METHODS:
            conn.send(self._light(conn, request))
            return
        self._heavy(conn, request)

    # -- light methods ------------------------------------------------------
    def _light(self, conn: _Connection, request: Request) -> Dict[str, Any]:
        method, params = request.method, request.params
        try:
            if method == "ping":
                return success(request.id, {"pong": True})
            if method == "methods":
                return success(request.id, {
                    "methods": list(METHODS),
                    "idempotent": list(IDEMPOTENT_METHODS),
                })
            if method == "ready":
                return success(request.id,
                               {"ready": self._ready.is_set()
                                and not self._draining})
            if method == "health":
                with self._cond:
                    queued, executing = len(self._queue), self._executing
                    status = "draining" if self._draining else "ok"
                return success(request.id, {
                    "status": status,
                    "queued": queued,
                    "executing": executing,
                    "max_inflight": self.config.max_inflight,
                    "store": self.store.stats(),
                })
            if method == "stats":
                counters = self.telemetry.metrics.snapshot()
                return success(request.id, {
                    "store": self.store.stats(),
                    "counters": {k: v for k, v in sorted(counters.items())
                                 if k.startswith(("serve.", "executor.",
                                                  "cache."))},
                    "session": {
                        "id": conn.session.session_id,
                        "suppressions":
                            conn.session.suppression_count(),
                    },
                })
            # suppress
            rule, file, line, reason = parse_suppress_params(params)
            added = conn.session.suppress(rule, file, line, reason)
            return success(request.id, {
                "added": added,
                "suppressions": conn.session.suppression_count(),
            })
        except ValueError as exc:
            self.telemetry.metrics.counter("serve.bad_requests").inc()
            return failure(request.id, "bad_request", str(exc))

    # -- heavy methods ------------------------------------------------------
    def _heavy(self, conn: _Connection, request: Request) -> None:
        metrics = self.telemetry.metrics
        params = dict(request.params)
        timeout_s = params.pop("timeout_s", self.config.request_timeout_s)
        if timeout_s is not None and (
                not isinstance(timeout_s, (int, float))
                or isinstance(timeout_s, bool) or timeout_s <= 0):
            metrics.counter("serve.bad_requests").inc()
            conn.send(failure(request.id, "bad_request",
                              "'timeout_s' must be a positive number"))
            return
        try:
            normalized = serve_methods.normalize(request.method, params)
        except ValueError as exc:
            metrics.counter("serve.bad_requests").inc()
            conn.send(failure(request.id, "bad_request", str(exc)))
            return
        key = serve_methods.method_key(request.method, normalized)

        # Warm path: answered on the connection thread, outside the
        # admission bound — a hot working set stays live under overload.
        warm = self.store.get(key)
        if warm is not None:
            metrics.counter("serve.warm_hits").inc()
            if request.method == "check":
                warm = conn.session.filter_check_doc(warm)
            conn.send(success(request.id, warm, meta={"served": "warm"}))
            return
        metrics.counter("serve.cold_misses").inc()

        with self._cond:
            if self._draining:
                metrics.counter("serve.shutting_down").inc()
                response = failure(request.id, "shutting_down",
                                   "daemon is draining; retry elsewhere "
                                   "or later",
                                   retry_after_ms=MIN_RETRY_AFTER_MS)
            elif (len(self._queue) + self._executing
                    >= self.config.max_inflight):
                metrics.counter("serve.overloaded").inc()
                depth = len(self._queue) + self._executing
                response = failure(
                    request.id, "overloaded",
                    f"admission queue full "
                    f"({depth}/{self.config.max_inflight} in flight)",
                    retry_after_ms=MIN_RETRY_AFTER_MS
                    + RETRY_AFTER_STEP_MS * depth)
            else:
                self._seq += 1
                self._queue.append(_Pending(
                    seq=self._seq, request=request, params=normalized,
                    key=key, conn=conn, deadline=Deadline(timeout_s)))
                self._cond.notify_all()
                return
        conn.send(response)

    # -- dispatch -----------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stopping:
                    self._cond.wait(0.5)
                if self._stopping and not self._queue:
                    return
                batch: List[_Pending] = []
                while self._queue:
                    batch.append(self._queue.popleft())
                self._executing += len(batch)
            try:
                self._execute(batch)
            finally:
                with self._cond:
                    self._executing -= len(batch)
                    self._cond.notify_all()

    def _execute(self, batch: List[_Pending]) -> None:
        cfg = self.config
        tasks: List[Dict[str, Any]] = []
        for preq in batch:
            remaining = preq.deadline.remaining()
            task: Dict[str, Any] = {
                "name": f"req{preq.seq}",
                "method": preq.request.method,
                "params": preq.params,
                "deadline_s": (None if remaining == float("inf")
                               else max(0.0, remaining)),
                "cache_dir": cfg.cache_dir,
            }
            if cfg.fault_plan is not None and cfg.jobs > 1:
                # Fault decisions key on the request *content*, so the
                # same request draws the same fault under any client
                # interleaving — the byte-identical invariant depends
                # on it.
                fault = cfg.fault_plan.executor_fault(preq.key)
                if fault is not None:
                    task["fault"] = fault
            tasks.append(task)

        entries = run_tasks(_serve_task, tasks, timeout=cfg.pool_timeout_s,
                            telemetry=self.telemetry, pool=self._pool)
        served = "pool" if self._pool is not None else "inline"
        for preq, entry in zip(batch, entries):
            self._complete(preq, entry, served)

    def _complete(self, preq: _Pending, entry: Dict[str, Any],
                  served: str) -> None:
        metrics = self.telemetry.metrics
        rid = preq.request.id
        payload = entry["result"] if entry["ok"] else entry
        if "doc" in payload:
            doc = payload["doc"]
            self.store.put(preq.key, doc)  # refuses deadline partials
            if not is_complete(doc):
                metrics.counter("serve.degraded").inc()
            if preq.request.method == "check":
                doc = preq.conn.session.filter_check_doc(doc)
            preq.conn.send(success(rid, doc, meta={"served": served}))
            return
        code = payload.get("error_code")
        message = (payload.get("error") or "").strip()
        if code == "deadline_exceeded":
            metrics.counter("serve.deadline_exceeded").inc()
            preq.conn.send(failure(rid, code, message,
                                   stage=payload.get("stage")))
        elif code == "bad_request":
            metrics.counter("serve.bad_requests").inc()
            preq.conn.send(failure(rid, code, message))
        else:
            metrics.counter("serve.internal_errors").inc()
            last = message.splitlines()[-1] if message else "task failed"
            preq.conn.send(failure(rid, "internal", last))


__all__ = ["DeepMCServer", "ServeConfig", "HEAVY_METHODS"]
