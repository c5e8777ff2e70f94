"""The one fan-out path: every driver's units of work run through here.

DeepMC checks and validates each program on its own, so every driver
(corpus, crashsim, litmus, fuzz, chaos, the ``serve`` daemon) is "build
tasks → :func:`run_tasks` → read results". This module alone decides how
a task runs and how it reports, for every ``jobs`` value:

* ``jobs <= 1`` runs the tasks in order, in-process, against the
  caller's live telemetry — sinks see events as they happen;
* ``jobs > 1`` runs them on a process pool. Each worker records into a
  private :class:`~repro.telemetry.Telemetry` (when the caller's is
  enabled) and ships every root span and its metrics dump back; the
  parent adopts the spans (``Tracer.adopt``) and merges the metrics
  (``MetricsRegistry.merge``) in submission order, so ``--jobs N
  --profile`` shows the same tree as a serial run.

Failure isolation and self-healing: an exception inside a task degrades
to a per-task error entry carrying its traceback; a worker that *dies*
(hard crash breaking the pool) or *hangs* (no progress within the
deadline) triggers pool recovery — the broken pool is killed, a fresh
one is built after an exponential backoff, and only the still-unfinished
tasks are requeued. A task out of retries falls back to in-process
execution, so one stubborn worker never loses sibling results. Results
always come back in submission order, so parallel runs are deterministic
and byte-identical to serial ones — with or without injected faults
(:mod:`repro.faults` exercises exactly these paths).
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor
from concurrent.futures import ProcessPoolExecutor, wait
from typing import Any, Callable, Dict, List, Optional

from ..telemetry import NULL_TELEMETRY, Span, Telemetry
from .cache import AnalysisCache, check_with_cache

#: re-submissions a task gets after its first attempt before it falls
#: back to running in the parent process
MAX_RETRIES = 2
#: first pool-rebuild backoff (seconds); doubles with every rebuild
BACKOFF_S = 0.05
#: ceiling the exponential backoff saturates at (seconds)
BACKOFF_CAP_S = 2.0

#: ``task_fn(task, telemetry)`` returns a JSON-able result or raises
TaskFn = Callable[[Dict[str, Any], Optional[Telemetry]], Any]


def backoff_for(rebuilds: int) -> float:
    """Seconds to sleep before the ``rebuilds``-th pool rebuild
    (1-based): exponential from :data:`BACKOFF_S`, saturating at
    :data:`BACKOFF_CAP_S`."""
    if BACKOFF_S <= 0 or rebuilds <= 0:
        return 0.0
    return min(BACKOFF_S * (2 ** (rebuilds - 1)), BACKOFF_CAP_S)


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
    """Pool-side entry point: run one task against a private Telemetry
    (when ``record``) and attach every root span it recorded plus its
    metrics dump, for the parent to fold in."""
    tel = Telemetry() if record else None
    entry = _invoke(task_fn, task, tel)
    if tel is not None:
        entry["spans"] = [span.to_dict() for span in tel.tracer.roots]
        entry["metrics"] = tel.metrics.dump()
    return entry


def _pool_context():
    """Prefer fork where available: it is the cheapest start method and
    inherits the already-populated corpus registry."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return None


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a (possibly wedged) pool down without waiting on its workers.

    ``shutdown(wait=False)`` alone leaves a hung worker running forever;
    terminating the worker processes is the only way to reclaim the slot.
    The ``_processes`` attribute is CPython-private but stable across
    3.8–3.13; if it ever disappears the shutdown still proceeds, just
    without the hard kill.
    """
    procs = list(getattr(pool, "_processes", {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        try:
            proc.terminate()
        except Exception:
            pass


def run_tasks(
    task_fn: TaskFn,
    tasks: List[Dict[str, Any]],
    jobs: int = 1,
    timeout: Optional[float] = None,
    telemetry: Optional[Telemetry] = None,
) -> List[Dict[str, Any]]:
    """Run ``task_fn(task, telemetry)`` over ``tasks``; one entry per
    task, in submission order: ``{"name", "ok": True, "result"}`` or
    ``{"name", "ok": False, "error": <traceback>}``.

    ``task_fn`` must be module-level (picklable) and each task a
    picklable dict with a ``name`` key. Guarantees:

    * ``jobs <= 1`` calls ``task_fn`` in order with the caller's own
      ``telemetry``; no ``_attempt`` stamp is added;
    * ``jobs > 1`` runs a pool of ``jobs`` workers. Tasks are shipped
      with a ``_attempt`` key (1-based) so fault-aware task functions
      (:mod:`repro.faults.chaos`) can restrict injection to early
      attempts. When ``telemetry`` is enabled each task records into a
      private Telemetry whose root spans and metrics are folded into
      ``telemetry`` in submission order (spans nest under the caller's
      innermost open span); this function opens no span of its own;
    * a broken pool (a worker died hard) requeues every not-yet-finished
      task on a fresh pool instead of failing them;
    * ``timeout`` is a progress deadline: if *no* task completes within
      ``timeout`` seconds the pool is presumed wedged (a hung worker),
      its processes are killed, and the unfinished tasks are requeued;
    * each task gets at most :data:`MAX_RETRIES` re-submissions, with
      :func:`backoff_for` sleeps between pool rebuilds; a task that
      exhausts them runs once more in the parent process, stamped
      ``_in_process``;
    * an exception raised by ``task_fn`` is deterministic — it becomes
      the task's error entry immediately, with no retry.

    ``telemetry`` also gets ``executor.retries`` / ``executor.timeouts``
    / ``executor.pool_rebuilds`` / ``executor.fallbacks`` counters.
    """
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be positive or None, got {timeout}")
    if jobs <= 1:
        return [_invoke(task_fn, task, telemetry) for task in tasks]

    record = telemetry is not None and telemetry.enabled
    metrics = telemetry.metrics if telemetry is not None else None
    results: List[Optional[Dict[str, Any]]] = [None] * len(tasks)
    attempts = [0] * len(tasks)
    pending = list(range(len(tasks)))
    rebuilds = 0
    while pending:
        pool = ProcessPoolExecutor(max_workers=jobs,
                                   mp_context=_pool_context())
        submitted: Dict[Any, int] = {}
        requeue: List[int] = []
        for i in pending:
            attempts[i] += 1
            if attempts[i] > 1 and metrics is not None:
                metrics.counter("executor.retries").inc()
            run = dict(tasks[i], _attempt=attempts[i])
            try:
                submitted[pool.submit(_run_shipped, task_fn, run, record)] = i
            except BrokenExecutor:
                # a worker died before every task was handed over
                requeue.append(i)
        stalled = False
        not_done = set(submitted)
        while not_done:
            done, not_done = wait(not_done, timeout=timeout,
                                  return_when=FIRST_COMPLETED)
            if not done:
                # Progress deadline expired: nothing finished within
                # `timeout` seconds, so a worker is hung (or the pool is
                # wedged). Kill it and requeue whatever is unfinished.
                stalled = True
                if metrics is not None:
                    metrics.counter("executor.timeouts").inc()
                if telemetry is not None:
                    telemetry.event("executor_stall", timeout_s=timeout,
                                    unfinished=len(not_done))
                break
            for future in done:
                i = submitted[future]
                try:
                    results[i] = future.result()
                except BrokenExecutor:
                    requeue.append(i)
                except Exception as exc:
                    results[i] = {"name": tasks[i].get("name"), "ok": False,
                                  "error": "".join(traceback.format_exception(
                                      type(exc), exc, exc.__traceback__))}
        if stalled:
            requeue.extend(submitted[f] for f in not_done)
        if requeue or stalled:
            _kill_pool(pool)
        else:
            pool.shutdown(wait=True)
        requeue.sort()
        pending = [i for i in requeue if attempts[i] <= MAX_RETRIES]
        for i in requeue:
            if attempts[i] > MAX_RETRIES:
                if metrics is not None:
                    metrics.counter("executor.fallbacks").inc()
                run = dict(tasks[i], _attempt=attempts[i] + 1,
                           _in_process=True)
                results[i] = _run_shipped(task_fn, run, record)
        if pending:
            rebuilds += 1
            if metrics is not None:
                metrics.counter("executor.pool_rebuilds").inc()
            sleep_s = backoff_for(rebuilds)
            if sleep_s > 0:
                time.sleep(sleep_s)

    for entry in results:
        spans = entry.pop("spans", ())
        dump = entry.pop("metrics", None)
        for span in spans:
            telemetry.tracer.adopt(Span.from_dict(span))
        if dump:
            telemetry.metrics.merge(dump)
    return results


# -- the corpus check task --------------------------------------------------

def _check_program_task(task: Dict[str, Any],
                        telemetry: Optional[Telemetry]) -> Dict[str, Any]:
    """Check one corpus program by name (module-level, picklable).

    It re-imports the corpus registry, so it works under any
    multiprocessing start method, not just fork.
    """
    from ..corpus import REGISTRY

    program = REGISTRY.program(task["name"])
    cache_dir = task.get("cache_dir")
    cache = (AnalysisCache(cache_dir, telemetry=telemetry)
             if cache_dir else None)
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    with tel.span("corpus.program", program=program.name,
                  framework=program.framework) as sp:
        checked = check_with_cache(program.build(), cache,
                                   telemetry=telemetry,
                                   **(task.get("checker_opts") or {}))
        sp.set("warnings", len(checked.report))
        if cache is not None:
            sp.set("cache", "hit" if checked.hit else "miss")
    return {
        "report": checked.report.to_dict(),
        "cache_hit": checked.hit if cache is not None else None,
    }


def check_programs(
    names: List[str],
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    checker_opts: Optional[Dict[str, Any]] = None,
    telemetry: Optional[Telemetry] = None,
) -> List[Dict[str, Any]]:
    """Check the named corpus programs through :func:`run_tasks`; each
    successful entry's ``result`` holds the serialized ``report`` and
    its ``cache_hit`` (None without a cache)."""
    tasks = [
        {
            "name": name,
            "cache_dir": str(cache_dir) if cache_dir else None,
            "checker_opts": dict(checker_opts or {}),
        }
        for name in names
    ]
    return run_tasks(_check_program_task, tasks, jobs=jobs,
                     telemetry=telemetry)
