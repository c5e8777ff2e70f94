"""The one fan-out path: every driver's units of work run through here.

DeepMC checks and validates each program on its own, so every driver
(corpus, crashsim, litmus, fuzz, chaos, the ``serve`` daemon) is "build
tasks → :func:`run_tasks` → read results". This module alone decides how
a task runs and how it reports, for every ``jobs`` value:

* ``jobs <= 1`` runs the tasks in order, in-process, against the
  caller's live telemetry — sinks see events as they happen;
* ``jobs > 1`` runs them on the workers of a :class:`WorkerPool`:
  forked processes, each driven over its own duplex pipe. Each worker
  records into a private :class:`~repro.telemetry.Telemetry` (when the
  caller's is enabled) and ships every root span and its metrics dump
  back; the parent adopts the spans (``Tracer.adopt``) and merges the
  metrics (``MetricsRegistry.merge``) in submission order, so ``--jobs
  N --profile`` shows the same tree as a serial run.

A call keeps every worker busy: the moment a worker answers, it is sent
the next task not yet started, so a slow task holds up only its own
worker. The call waits on the workers' pipes and their process sentinels
at once. A one-shot driver hands :func:`run_tasks` only ``jobs``, and
the call builds its own pool and closes it before returning. A
long-lived caller (each dispatcher of the ``serve`` daemon) owns a pool
and hands it to every call; its workers then outlive the calls, and no
call pays for forking them again.

Failure isolation and self-healing: an exception inside a task degrades
to a per-task error entry carrying its traceback. A worker that *dies*
(end of file on its pipe, or its sentinel fires) is reaped and replaced
in its slot, and only the task it was running loses an attempt; a
worker found dead while idle is replaced before its next task. A call
that sees no completion within its progress deadline (a *hung* worker)
kills and replaces the workers running its unfinished tasks and retries
those tasks; the other workers are left alone. Replacements within one
call wait an exponential backoff. A task
out of retries falls back to in-process execution, so one stubborn
worker never loses sibling results. Results always come back in
submission order, so parallel runs are deterministic and byte-identical
to serial ones — with or without injected faults (:mod:`repro.faults`
exercises exactly these paths).
"""

from __future__ import annotations

import heapq
import multiprocessing
import signal
import threading
import time
import traceback
from multiprocessing.connection import wait
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..telemetry import Span, Telemetry

#: re-submissions a task gets after its first attempt before it falls
#: back to running in the parent process
MAX_RETRIES = 2
#: first worker-restart backoff (seconds); doubles with every restart
#: within one call
BACKOFF_S = 0.05
#: ceiling the exponential backoff saturates at (seconds)
BACKOFF_CAP_S = 2.0

#: ``task_fn(task, telemetry)`` returns a JSON-able result or raises
TaskFn = Callable[[Dict[str, Any], Optional[Telemetry]], Any]

#: Forks are serialized across every pool in the process. A fork from
#: another thread between a worker's ``Pipe()`` and the parent closing
#: the child's end would leave a copy of that end in the sibling, and
#: the worker's death would then show neither end of file nor (for the
#: same reason) its sentinel until the sibling exits too.
_FORK_LOCK = threading.Lock()


def backoff_for(restarts: int) -> float:
    """Seconds to sleep before the ``restarts``-th worker restart of a
    call (1-based): exponential from :data:`BACKOFF_S`, saturating at
    :data:`BACKOFF_CAP_S`."""
    if BACKOFF_S <= 0 or restarts <= 0:
        return 0.0
    return min(BACKOFF_S * (2 ** (restarts - 1)), BACKOFF_CAP_S)


def _invoke(task_fn: TaskFn, task: Dict[str, Any],
            telemetry: Optional[Telemetry]) -> Dict[str, Any]:
    """Run one task; the entry format is the same for every ``jobs``."""
    try:
        return {"name": task.get("name"), "ok": True,
                "result": task_fn(task, telemetry)}
    except Exception:
        return {"name": task.get("name"), "ok": False,
                "error": traceback.format_exc()}


def _run_shipped(task_fn: TaskFn, task: Dict[str, Any],
                 record: bool) -> Dict[str, Any]:
    """Worker-side entry point: run one task against a private Telemetry
    (when ``record``) and attach every root span it recorded plus its
    metrics dump, for the parent to fold in."""
    tel = Telemetry() if record else None
    entry = _invoke(task_fn, task, tel)
    if tel is not None:
        entry["spans"] = [span.to_dict() for span in tel.tracer.roots]
        entry["metrics"] = tel.metrics.dump()
    return entry


def _worker_main(conn, parent_end) -> None:
    """A worker's life: answer each ``(task_fn, task, record)`` message
    on its pipe with the task's entry, until a ``None`` message or the
    parent's end closes."""
    # A daemonic worker is ended by SIGTERM when its parent's
    # interpreter exits; it must not keep a handler it inherited from
    # the parent (the serve daemon drains on SIGTERM and SIGINT). Its
    # parent ends it, so a Ctrl-C to the process group is not its own.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent_end.close()
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        if message is None:
            return
        task_fn, task, record = message
        entry = _run_shipped(task_fn, task, record)
        try:
            conn.send(entry)
        except Exception:
            # The entry does not pickle. ``send`` pickles before it
            # writes, so the pipe is still in step for the error entry.
            conn.send({"name": task.get("name"), "ok": False,
                       "error": traceback.format_exc()})


class _Worker:
    """One forked worker process and the parent's end of its pipe."""

    __slots__ = ("process", "conn")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn

    def kill(self) -> None:
        """Kill and reap the process; a no-op on one already reaped. The
        pipe stays open for the thread that drives the worker."""
        self.process.kill()
        self.process.join()


class WorkerPool:
    """``jobs`` worker slots whose processes outlive the
    :func:`run_tasks` calls they serve.

    A slot forks its worker when a call first hands it a task, so an
    owner that never needs the pool pays nothing for it, and a call with
    fewer tasks than slots forks only as many workers as it has tasks. A
    call that loses a worker (it died, or hung past the progress
    deadline) forks its replacement in the same slot at once; a worker
    found dead while idle is replaced before its next task. The owner
    keeps the same object throughout. :meth:`close` ends the workers (a
    ``with`` block closes the pool on exit), and a closed pool forks no
    new one. Only its owner's calls may use it, one at a time;
    ``close(kill=True)`` may come from another thread during a call,
    ``close()`` only between calls.
    """

    def __init__(self, jobs: int):
        if jobs < 1:
            raise ValueError(f"a worker pool needs at least one worker, "
                             f"got {jobs}")
        self.jobs = jobs
        self._lock = threading.Lock()
        #: per slot: its worker (alive, or dead until replaced), or None
        #: before its first task
        self._workers: List[Optional[_Worker]] = [None] * jobs
        self._closed = False

    def _start(self, slot: int, metrics) -> Optional[_Worker]:
        """Fork the worker of ``slot``; None once the pool is closed."""
        context = multiprocessing.get_context("fork")
        with self._lock:
            if self._closed:
                return None
            with _FORK_LOCK:
                conn, child_end = context.Pipe()
                process = context.Process(
                    target=_worker_main, args=(child_end, conn),
                    name=f"deepmc-worker-{slot}", daemon=True)
                process.start()
                child_end.close()
            worker = self._workers[slot] = _Worker(process, conn)
        if metrics is not None:
            metrics.counter("executor.workers_started").inc()
        return worker

    def close(self, kill: bool = False) -> None:
        """End every worker and reap it: ask each to exit after its
        current message, or with ``kill`` (a call may still be running
        on them) kill them at once."""
        with self._lock:
            self._closed = True
            workers = [w for w in self._workers if w is not None]
            self._workers = [None] * self.jobs
        for worker in workers:
            if kill:
                # a call running on this worker sees the death
                worker.kill()
                continue
            try:
                worker.conn.send(None)
            except OSError:
                pass  # already dead
            worker.process.join()
            worker.conn.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        self.close(kill=exc_type is not None)


def run_tasks(
    task_fn: TaskFn,
    tasks: List[Dict[str, Any]],
    jobs: int = 1,
    timeout: Optional[float] = None,
    telemetry: Optional[Telemetry] = None,
    pool: Optional[WorkerPool] = None,
) -> List[Dict[str, Any]]:
    """Run ``task_fn(task, telemetry)`` over ``tasks``; one entry per
    task, in submission order: ``{"name", "ok": True, "result"}`` or
    ``{"name", "ok": False, "error": <traceback>}``.

    ``task_fn`` must be module-level (picklable) and each task a
    picklable dict with a ``name`` key. Guarantees:

    * with no ``pool``, ``jobs <= 1`` calls ``task_fn`` in order with
      the caller's own ``telemetry``; no ``_attempt`` stamp is added;
    * otherwise the tasks run on a :class:`WorkerPool`: ``pool``, which
      the call leaves running for the caller's next call (``jobs`` is
      then not read), or a pool of ``jobs`` workers built for this call
      and closed before it returns. Tasks are shipped with a
      ``_attempt`` key (1-based) so fault-aware task functions
      (:mod:`repro.faults.chaos`) can restrict injection to early
      attempts. When ``telemetry`` is enabled each task records into a
      private Telemetry whose root spans and metrics are folded into
      ``telemetry`` in submission order (spans nest under the caller's
      innermost open span); this function opens no span of its own;
    * a worker that dies (a hard crash) is replaced, and only the task
      it was running is retried; its siblings keep their attempt;
    * ``timeout`` is a progress deadline: if *no* task completes within
      ``timeout`` seconds the workers running unfinished tasks are
      presumed hung, killed and replaced, and those tasks retried;
    * each task gets at most :data:`MAX_RETRIES` re-submissions, with
      :func:`backoff_for` sleeps before each worker restart; a task
      that exhausts them runs once more in the parent process, stamped
      ``_in_process``;
    * an exception raised by ``task_fn``, or a task or result that does
      not pickle, is deterministic — it becomes the task's error entry
      immediately, with no retry;
    * a task still unfinished when the pool's owner closes it becomes an
      error entry.

    ``telemetry`` also gets ``executor.workers_started`` (one per
    worker forked, replacements included) / ``executor.retries`` /
    ``executor.timeouts`` / ``executor.worker_restarts`` /
    ``executor.fallbacks`` counters.
    """
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be positive or None, got {timeout}")
    if pool is not None:
        return _supervise(pool, task_fn, tasks, timeout, telemetry)
    if jobs <= 1:
        return [_invoke(task_fn, task, telemetry) for task in tasks]
    with WorkerPool(jobs) as own:
        return _supervise(own, task_fn, tasks, timeout, telemetry)


def _supervise(pool: WorkerPool, task_fn: TaskFn,
               tasks: List[Dict[str, Any]], timeout: Optional[float],
               telemetry: Optional[Telemetry]) -> List[Dict[str, Any]]:
    """The pool side of :func:`run_tasks`: hand out tasks, watch for
    deaths and stalls, retry, fall back, and fold the workers' telemetry
    in."""
    record = telemetry is not None and telemetry.enabled
    metrics = telemetry.metrics if telemetry is not None else None
    results: List[Optional[Dict[str, Any]]] = [None] * len(tasks)
    attempts = [0] * len(tasks)
    #: indices of tasks waiting for a worker; the lowest goes first
    waiting = list(range(len(tasks)))
    #: slot -> (its worker, the index of the task it is running)
    running: Dict[int, Tuple[_Worker, int]] = {}
    restarts = 0

    def replace(slot: int, worker: _Worker) -> None:
        """Reap a lost worker and fork its slot's replacement, after
        the call's next backoff."""
        nonlocal restarts
        worker.kill()
        worker.conn.close()
        if pool._closed:
            return
        restarts += 1
        if metrics is not None:
            metrics.counter("executor.worker_restarts").inc()
        sleep_s = backoff_for(restarts)
        if sleep_s > 0:
            time.sleep(sleep_s)
        pool._start(slot, metrics)

    def lost(i: int) -> None:
        """Task ``i``'s worker died or was killed under it."""
        if pool._closed:
            results[i] = {"name": tasks[i].get("name"), "ok": False,
                          "error": "worker pool closed"}
        elif attempts[i] <= MAX_RETRIES:
            heapq.heappush(waiting, i)
        else:
            if metrics is not None:
                metrics.counter("executor.fallbacks").inc()
            run = dict(tasks[i], _attempt=attempts[i] + 1, _in_process=True)
            results[i] = _run_shipped(task_fn, run, record)

    while waiting or running:
        for slot in range(pool.jobs):
            if not waiting:
                break
            if slot in running:
                continue
            worker = pool._workers[slot]
            if worker is not None and not worker.process.is_alive():
                # died while idle, since it last answered
                replace(slot, worker)
                worker = pool._workers[slot]
            if worker is None:
                worker = pool._start(slot, metrics)
                if worker is None:
                    # the owner closed the pool under this call
                    break
            i = heapq.heappop(waiting)
            attempts[i] += 1
            if attempts[i] > 1 and metrics is not None:
                metrics.counter("executor.retries").inc()
            try:
                worker.conn.send(
                    (task_fn, dict(tasks[i], _attempt=attempts[i]), record))
            except OSError:
                pass  # the worker is dead: its sentinel reports it below
            except Exception:
                # the task does not pickle; nothing reached the pipe
                results[i] = {"name": tasks[i].get("name"), "ok": False,
                              "error": traceback.format_exc()}
                continue
            running[slot] = (worker, i)
        if pool._closed and not running:
            for i in waiting:
                results[i] = {"name": tasks[i].get("name"), "ok": False,
                              "error": "worker pool closed"}
            break
        if not running:
            continue

        handles: Dict[Any, int] = {}
        for slot, (worker, _i) in running.items():
            handles[worker.conn] = handles[worker.process.sentinel] = slot
        ready = wait(list(handles), timeout)
        if not ready:
            # Progress deadline expired: nothing finished within
            # `timeout` seconds, so the workers still running are hung.
            # Replace them and retry their tasks; idle workers stay.
            if metrics is not None:
                metrics.counter("executor.timeouts").inc()
            if telemetry is not None:
                telemetry.event("executor_stall", timeout_s=timeout,
                                unfinished=len(running))
            ready = list(handles)
        for slot in sorted({handles[handle] for handle in ready}):
            worker, i = running.pop(slot)
            entry = None
            try:
                if worker.conn.poll():
                    entry = worker.conn.recv()
            except (EOFError, OSError):
                pass  # died mid-message, or the pipe was closed
            if entry is None:
                # end of file, sentinel or stall: the worker is lost
                replace(slot, worker)
                lost(i)
            else:
                results[i] = entry

    for entry in results:
        spans = entry.pop("spans", ())
        dump = entry.pop("metrics", None)
        for span in spans:
            telemetry.tracer.adopt(Span.from_dict(span))
        if dump:
            telemetry.metrics.merge(dump)
    return results
