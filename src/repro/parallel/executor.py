"""Process-pool execution of per-program static checks.

Every corpus program is an independent unit of work — its module is built
from the registry, checked, and matched against ground truth with no
shared mutable state — so the corpus walk fans out across worker
processes. Workers run the same cached check the serial path runs
(:func:`repro.parallel.cache.check_with_cache`) and ship back a plain
JSON-able payload: the serialized report, the per-phase timings, their
``corpus.program`` span tree, and their metrics dump. The parent grafts
worker spans into its own trace (``Tracer.adopt``) and folds worker
metrics into its registry (``MetricsRegistry.merge``), so ``deepmc
corpus --jobs 8 --profile`` still renders one coherent tree.

Failure isolation and self-healing: an exception inside a worker degrades
to a per-program error payload; a worker that *dies* (hard crash breaking
the pool) or *hangs* (no progress within the deadline) triggers pool
recovery — the broken pool is killed, a fresh one is built after an
exponential backoff, and only the still-unfinished tasks are requeued.
A task whose retry budget runs out falls back to in-process execution,
so one stubborn worker never loses sibling results. Results always come
back in submission order, so parallel runs are deterministic and
byte-identical to serial ones — with or without injected faults
(:mod:`repro.faults` exercises exactly these paths).
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor
from concurrent.futures import ProcessPoolExecutor, wait
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Mapping, Optional

from ..telemetry import Telemetry
from .cache import AnalysisCache, check_with_cache

#: default number of re-submissions a task gets after its first attempt
DEFAULT_MAX_RETRIES = 2
#: default base of the exponential pool-rebuild backoff (seconds)
DEFAULT_BACKOFF_S = 0.05
#: default ceiling of the exponential pool-rebuild backoff (seconds)
DEFAULT_BACKOFF_CAP_S = 2.0


@dataclass(frozen=True)
class ExecutorPolicy:
    """Typed retry/backoff/deadline configuration for :func:`run_tasks`.

    Historically these knobs were buried constants; the policy object
    makes them explicit, overridable per call site, and tunable from the
    environment without touching code. Resolution order (strongest last):
    dataclass defaults → keyword overrides passed to :meth:`from_env` →
    ``DEEPMC_EXECUTOR_*`` environment variables. The env always wins so
    an operator can re-tune a wedged deployment (say, shorten the hang
    deadline of a ``deepmc serve`` daemon) without a redeploy.

    * ``max_retries`` — re-submissions a task gets after its first
      attempt before falling back (``DEEPMC_EXECUTOR_MAX_RETRIES``);
    * ``backoff_s`` — base of the exponential pool-rebuild backoff
      (``DEEPMC_EXECUTOR_BACKOFF_S``);
    * ``backoff_cap_s`` — ceiling the exponential backoff saturates at
      (``DEEPMC_EXECUTOR_BACKOFF_CAP_S``);
    * ``timeout`` — progress deadline in seconds; ``None`` disables
      (``DEEPMC_EXECUTOR_TIMEOUT_S``; empty string or ``none`` → None);
    * ``in_process_fallback`` — whether a task out of retries runs once
      more in the parent (``DEEPMC_EXECUTOR_FALLBACK``: 0/1/true/false).
    """

    max_retries: int = DEFAULT_MAX_RETRIES
    backoff_s: float = DEFAULT_BACKOFF_S
    backoff_cap_s: float = DEFAULT_BACKOFF_CAP_S
    timeout: Optional[float] = None
    in_process_fallback: bool = True

    #: env var name per field (single source of truth for parsing/tests)
    ENV_VARS = {
        "max_retries": "DEEPMC_EXECUTOR_MAX_RETRIES",
        "backoff_s": "DEEPMC_EXECUTOR_BACKOFF_S",
        "backoff_cap_s": "DEEPMC_EXECUTOR_BACKOFF_CAP_S",
        "timeout": "DEEPMC_EXECUTOR_TIMEOUT_S",
        "in_process_fallback": "DEEPMC_EXECUTOR_FALLBACK",
    }

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, "
                             f"got {self.max_retries}")
        if self.backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {self.backoff_s}")
        if self.backoff_cap_s < 0:
            raise ValueError(f"backoff_cap_s must be >= 0, "
                             f"got {self.backoff_cap_s}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive or None, "
                             f"got {self.timeout}")

    def backoff_for(self, rebuilds: int) -> float:
        """Seconds to sleep before the ``rebuilds``-th pool rebuild
        (1-based): exponential from ``backoff_s``, saturating at
        ``backoff_cap_s``."""
        if self.backoff_s <= 0 or rebuilds <= 0:
            return 0.0
        return min(self.backoff_s * (2 ** (rebuilds - 1)),
                   self.backoff_cap_s)

    @classmethod
    def from_env(cls, env: Optional[Mapping[str, str]] = None,
                 **overrides: Any) -> "ExecutorPolicy":
        """Build a policy from keyword overrides plus ``DEEPMC_EXECUTOR_*``
        variables (env wins). Malformed values raise ``ValueError`` naming
        the offending variable — a typo'd deployment knob must fail loud,
        not silently fall back to defaults."""
        environ = os.environ if env is None else env
        known = {f.name for f in fields(cls)}
        unknown = set(overrides) - known
        if unknown:
            raise ValueError(
                f"unknown ExecutorPolicy field(s): {', '.join(sorted(unknown))}")
        values = dict(overrides)
        for field_name, var in cls.ENV_VARS.items():
            raw = environ.get(var)
            if raw is None:
                continue
            try:
                values[field_name] = _parse_env_value(field_name, raw)
            except ValueError as exc:
                raise ValueError(f"{var}={raw!r}: {exc}") from None
        return cls(**values)


def _parse_env_value(field_name: str, raw: str) -> Any:
    raw = raw.strip()
    if field_name == "max_retries":
        return int(raw)
    if field_name in ("backoff_s", "backoff_cap_s"):
        return float(raw)
    if field_name == "timeout":
        if raw == "" or raw.lower() in ("none", "off"):
            return None
        return float(raw)
    if field_name == "in_process_fallback":
        lowered = raw.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError("expected a boolean (0/1/true/false)")
    raise ValueError(f"unhandled field {field_name!r}")


def _check_program_task(task: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry point: check one corpus program by name.

    Module-level (picklable) and self-contained: it re-imports the corpus
    registry, so it works under any multiprocessing start method, not
    just fork.
    """
    name = task["name"]
    try:
        from ..corpus import REGISTRY

        program = REGISTRY.program(name)
        tel = Telemetry() if task.get("telemetry") else None
        cache_dir = task.get("cache_dir")
        cache = AnalysisCache(cache_dir, telemetry=tel) if cache_dir else None
        checker_opts = task.get("checker_opts") or {}

        span_obj = None
        if tel is not None:
            with tel.span("corpus.program", program=program.name,
                          framework=program.framework) as sp:
                module = program.build()
                checked = check_with_cache(module, cache, telemetry=tel,
                                           **checker_opts)
                sp.set("warnings", len(checked.report))
                sp.set("cache", "hit" if checked.hit else
                       ("miss" if cache is not None else "off"))
            span_obj = sp.to_dict()
        else:
            module = program.build()
            checked = check_with_cache(module, cache, telemetry=None,
                                       **checker_opts)

        return {
            "name": name,
            "ok": True,
            "report": checked.report.to_dict(),
            "timings": checked.timings,
            "traces_checked": checked.traces_checked,
            "cache_hit": checked.hit if cache is not None else None,
            "span": span_obj,
            "metrics": tel.metrics.dump() if tel is not None else None,
        }
    except Exception:
        return {"name": name, "ok": False, "error": traceback.format_exc()}


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


def _error_entry(task: Dict[str, Any], error: str) -> Dict[str, Any]:
    return {"name": task.get("name"), "ok": False, "error": error}


def _run_in_process(task_fn, task: Dict[str, Any],
                    attempt: int) -> Dict[str, Any]:
    """Last-resort fallback: run one task in the parent process."""
    run = dict(task)
    run["_attempt"] = attempt
    run["_in_process"] = True
    try:
        return task_fn(run)
    except Exception as exc:
        return _error_entry(task, f"{type(exc).__name__}: {exc}")


def run_tasks(
    task_fn,
    tasks: List[Dict[str, Any]],
    jobs: int = 1,
    timeout: Optional[float] = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    backoff_s: float = DEFAULT_BACKOFF_S,
    telemetry: Optional[Telemetry] = None,
    in_process_fallback: bool = True,
    policy: Optional[ExecutorPolicy] = None,
) -> List[Dict[str, Any]]:
    """Run ``task_fn`` over ``tasks`` on a process pool of ``jobs`` workers.

    The shared fan-out core behind ``deepmc corpus --jobs N``,
    ``deepmc crashsim --jobs N``, and ``deepmc chaos``. ``task_fn`` must
    be module-level (picklable) and each task a JSON-able dict with at
    least a ``name`` key. Guarantees:

    * ``jobs <= 1`` runs the identical task function in-process (no
      pool), keeping serial and parallel paths byte-for-byte comparable;
    * results come back in submission order, so parallel output is
      deterministic;
    * a broken pool (a worker died hard) requeues every not-yet-finished
      task on a fresh pool instead of failing them — one crashing worker
      never loses sibling results;
    * ``timeout`` is a progress deadline: if *no* task completes within
      ``timeout`` seconds the pool is presumed wedged (a hung worker),
      its processes are killed, and the unfinished tasks are requeued;
    * each task gets at most ``max_retries`` re-submissions (with
      exponential backoff between pool rebuilds); a task that exhausts
      them runs once more in the parent process when
      ``in_process_fallback`` is set, else degrades to a
      ``{"name", "ok": False, "error"}`` entry;
    * a plain exception raised by ``task_fn`` is deterministic — it
      degrades to a per-task error entry immediately, with no retry.

    Tasks are shipped with a ``_attempt`` key (1-based) so fault-aware
    task functions (:mod:`repro.faults.chaos`) can restrict injection to
    early attempts; ``_in_process`` marks the parent-process fallback.
    Telemetry (optional) gets ``executor.retries`` / ``executor.timeouts``
    / ``executor.pool_rebuilds`` / ``executor.fallbacks`` counters.

    The retry/backoff/deadline knobs can come in three ways, strongest
    last: the legacy keyword arguments above, an explicit
    :class:`ExecutorPolicy` (``policy=``), and ``DEEPMC_EXECUTOR_*``
    environment overrides (applied on top of either).
    """
    if policy is None:
        policy = ExecutorPolicy.from_env(
            max_retries=max_retries,
            backoff_s=backoff_s,
            timeout=timeout,
            in_process_fallback=in_process_fallback,
        )
    else:
        legacy = {"timeout": timeout, "max_retries": max_retries,
                  "backoff_s": backoff_s,
                  "in_process_fallback": in_process_fallback}
        defaults = {"timeout": None,
                    "max_retries": DEFAULT_MAX_RETRIES,
                    "backoff_s": DEFAULT_BACKOFF_S,
                    "in_process_fallback": True}
        conflicting = [k for k, v in legacy.items() if v != defaults[k]]
        if conflicting:
            raise ValueError(
                "run_tasks got both policy= and legacy keyword(s) "
                f"{', '.join(sorted(conflicting))}; put the knobs on "
                "the policy")
        policy = ExecutorPolicy.from_env(
            **{f.name: getattr(policy, f.name) for f in fields(policy)})
    timeout = policy.timeout
    max_retries = policy.max_retries
    in_process_fallback = policy.in_process_fallback
    if jobs <= 1:
        return [task_fn(task) for task in tasks]

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
            run = dict(tasks[i])
            run["_attempt"] = attempts[i]
            try:
                submitted[pool.submit(task_fn, run)] = i
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
                    results[i] = _error_entry(
                        tasks[i], f"{type(exc).__name__}: {exc}")
        if stalled:
            requeue.extend(submitted[f] for f in not_done)
        if requeue or stalled:
            _kill_pool(pool)
        else:
            pool.shutdown(wait=True)
        if not requeue:
            break
        requeue.sort()
        exhausted = [i for i in requeue if attempts[i] > max_retries]
        pending = [i for i in requeue if attempts[i] <= max_retries]
        for i in exhausted:
            if metrics is not None:
                metrics.counter("executor.fallbacks").inc()
            if in_process_fallback:
                results[i] = _run_in_process(task_fn, tasks[i],
                                             attempts[i] + 1)
            else:
                results[i] = _error_entry(
                    tasks[i],
                    f"task failed after {attempts[i]} attempt(s) "
                    f"(pool broken or deadline exceeded)")
        if pending:
            rebuilds += 1
            if metrics is not None:
                metrics.counter("executor.pool_rebuilds").inc()
            sleep_s = policy.backoff_for(rebuilds)
            if sleep_s > 0:
                time.sleep(sleep_s)
    # mypy-style guard: every slot is filled once the loop exits
    return [r if r is not None else _error_entry(tasks[i], "task was lost")
            for i, r in enumerate(results)]


def check_programs(
    names: List[str],
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    telemetry: bool = False,
    checker_opts: Optional[Dict[str, Any]] = None,
    timeout: Optional[float] = None,
    executor_telemetry: Optional[Telemetry] = None,
) -> List[Dict[str, Any]]:
    """Check the named corpus programs, fanning out across ``jobs``
    worker processes; returns one payload per program, in input order.

    ``jobs <= 1`` runs the identical task function in-process (no pool),
    which keeps the serial and parallel paths byte-for-byte comparable.
    ``executor_telemetry`` (the parent's live Telemetry, unlike the
    ``telemetry`` bool that asks *workers* to record) receives the
    executor's retry/timeout counters.
    """
    tasks = [
        {
            "name": name,
            "telemetry": telemetry,
            "cache_dir": str(cache_dir) if cache_dir else None,
            "checker_opts": dict(checker_opts or {}),
        }
        for name in names
    ]
    return run_tasks(_check_program_task, tasks, jobs=jobs, timeout=timeout,
                     telemetry=executor_telemetry)
