"""Parallel and incremental checking.

Two independent pieces make repeated runs cheap:

* :mod:`~repro.parallel.executor` — :func:`run_tasks`, the one fan-out
  path every driver uses (``--jobs N`` or serial): it owns the
  serial-vs-pool choice, pool self-healing, and folding worker spans
  and metrics back into the caller's telemetry. It knows nothing of
  what a task does. A long-lived caller keeps one
  :class:`~repro.parallel.executor.WorkerPool` across calls;
* :mod:`~repro.parallel.cache` — :func:`check_with_cache`, which
  ``deepmc check``, the serve daemon and the corpus task call to turn a
  module into a checked report, over a content-addressed on-disk cache
  of analysis results keyed by printed IR + rule-set version, so
  unchanged programs are never re-analyzed (``deepmc cache
  stats|clear``).

See docs/ARCHITECTURE.md for where this sits in the pipeline.
"""

from .cache import (
    CACHE_FORMAT_VERSION,
    AnalysisCache,
    CachedCheck,
    CacheStats,
    cache_key,
    check_with_cache,
    default_cache_dir,
)
from .executor import WorkerPool, run_tasks

__all__ = [
    "CACHE_FORMAT_VERSION",
    "AnalysisCache",
    "CacheStats",
    "CachedCheck",
    "WorkerPool",
    "cache_key",
    "check_with_cache",
    "default_cache_dir",
    "run_tasks",
]
