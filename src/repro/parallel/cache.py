"""Content-addressed on-disk cache for static analysis results.

The static pipeline (verify → DSA → traces → rules) is a pure function of
the module's IR and the active rule set, so its outputs are cacheable by
content address: the cache key is a SHA-256 over the module's *printed*
IR, the persistency model actually checked, the rule-set version
fingerprint, and any checker options that change the analysis (the
ablation flags). A hit rehydrates the serialized report and its trace
count; a miss runs the checker and stores them. Its users are
``deepmc check FILE --cache``, ``deepmc corpus --cache``, and every
cold ``check`` a ``deepmc serve --cache-dir`` daemon runs.

Layout: ``<root>/<key[:2]>/<key>.json`` — one JSON file per entry,
written atomically (temp file + rename) so concurrent pool workers can
share one cache directory without locking: the worst case is two workers
computing the same entry and one rename winning, which is still correct.

Corruption is a first-class condition, not an accident: every entry
carries a ``checksum`` over its canonical JSON, verified on ``get()``.
An entry that is unreadable, truncated, or bit-flipped — even one that
still parses as JSON — is treated as a miss (the analysis is recomputed
and the entry rewritten) and the damaged file is moved aside into
``<root>/quarantine/`` for post-mortem instead of being silently
overwritten. ``cache.corrupt`` / ``cache.quarantined`` metrics count the
traffic; :mod:`repro.faults` injects exactly these corruptions to prove
the miss path never changes detection results.

The default root is ``$DEEPMC_CACHE_DIR``, else ``$XDG_CACHE_HOME/deepmc``,
else ``~/.cache/deepmc``; ``--cache-dir`` overrides per invocation.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..checker.engine import StaticChecker
from ..checker.report import Report
from ..checker.rules import ruleset_version
from ..deadline import Deadline
from ..ir.module import Module
from ..ir.printer import print_module
from ..telemetry import Telemetry

#: Bump on any incompatible change to the entry payload shape.
CACHE_FORMAT_VERSION = 2

#: subdirectory (under the cache root) holding corrupt entries moved aside
QUARANTINE_DIR = "quarantine"


def payload_checksum(payload: Dict[str, Any]) -> str:
    """Checksum of one entry's canonical JSON (``checksum`` key excluded)."""
    canonical = json.dumps(
        {k: v for k, v in payload.items() if k != "checksum"},
        sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(canonical.encode()).hexdigest()


def default_cache_dir() -> Path:
    """Resolve the cache root from the environment."""
    env = os.environ.get("DEEPMC_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "deepmc"


def cache_key(module: Module, model: str,
              checker_opts: Optional[Dict[str, Any]] = None,
              ruleset: Optional[str] = None) -> str:
    """Content address of one analysis: printed IR + model + rules + opts."""
    h = hashlib.sha256()
    h.update(print_module(module).encode())
    h.update(b"\x00model=" + model.encode())
    h.update(b"\x00ruleset=" + (ruleset or ruleset_version()).encode())
    if checker_opts:
        canonical = json.dumps(checker_opts, sort_keys=True, default=repr)
        h.update(b"\x00opts=" + canonical.encode())
    h.update(f"\x00format={CACHE_FORMAT_VERSION}".encode())
    return h.hexdigest()


@dataclass
class CacheStats:
    """Aggregate view of one cache directory (``deepmc cache stats``)."""

    root: str
    entries: int
    total_bytes: int
    quarantined: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {"root": self.root, "entries": self.entries,
                "total_bytes": self.total_bytes,
                "quarantined": self.quarantined}


class AnalysisCache:
    """One content-addressed cache directory.

    ``telemetry`` (optional) receives ``cache.corrupt`` /
    ``cache.quarantined`` / ``cache.stale`` counters and a
    ``cache_quarantine`` event per damaged entry.
    """

    def __init__(self, root: Union[str, Path, None] = None,
                 telemetry: Optional[Telemetry] = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.telemetry = telemetry

    # -- addressing ---------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _quarantine_dir(self) -> Path:
        return self.root / QUARANTINE_DIR

    # -- raw entry access ---------------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Load one verified entry; anything less is a miss.

        * unreadable / truncated / checksum-mismatched files are
          *corrupt*: quarantined (moved to ``<root>/quarantine/``) and
          reported, then treated as a miss so the entry is recomputed;
        * a parseable entry from an older ``format`` is merely *stale*:
          a plain miss, overwritten by the recomputed entry.
        """
        path = self._path(key)
        try:
            if not path.exists():
                return None
        except OSError:  # a cache root we may not list holds nothing
            return None
        try:
            payload = json.loads(path.read_text())
            if not isinstance(payload, dict):
                raise ValueError("entry is not a JSON object")
        except (OSError, ValueError, UnicodeDecodeError):
            self._quarantine(path, key, "unparseable")
            return None
        if payload.get("format") != CACHE_FORMAT_VERSION:
            if self.telemetry is not None:
                self.telemetry.metrics.counter("cache.stale").inc()
            return None
        stored = payload.get("checksum")
        if not stored or payload_checksum(payload) != stored:
            self._quarantine(path, key, "checksum mismatch")
            return None
        return payload

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Atomically write one checksummed entry (temp file + rename)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(payload)
        payload["format"] = CACHE_FORMAT_VERSION
        # Round-trip through JSON before checksumming so the digest is
        # computed over exactly what get() will parse back (tuples become
        # lists, keys become strings).
        payload = json.loads(json.dumps(payload))
        payload["checksum"] = payload_checksum(payload)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _quarantine(self, path: Path, key: str, reason: str) -> None:
        """Move one damaged entry aside; never raises."""
        dest = self._quarantine_dir() / path.name
        try:
            dest.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, dest)
            moved = True
        except OSError:
            moved = False
        if self.telemetry is not None:
            self.telemetry.metrics.counter("cache.corrupt").inc()
            if moved:
                self.telemetry.metrics.counter("cache.quarantined").inc()
            self.telemetry.event("cache_quarantine", key=key, reason=reason,
                                 quarantined=moved)

    # -- maintenance --------------------------------------------------------
    def _entry_files(self):
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir() or shard.name == QUARANTINE_DIR:
                continue
            for path in sorted(shard.glob("*.json")):
                yield path

    def quarantined_files(self):
        qdir = self._quarantine_dir()
        if not qdir.is_dir():
            return []
        return sorted(qdir.glob("*.json"))

    def stats(self) -> CacheStats:
        entries = 0
        total = 0
        for path in self._entry_files():
            entries += 1
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return CacheStats(str(self.root), entries, total,
                          quarantined=len(self.quarantined_files()))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in list(self._entry_files()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


@dataclass
class CachedCheck:
    """Outcome of :func:`check_with_cache` — a report plus provenance."""

    report: Report
    timings: Dict[str, float]
    traces_checked: int
    hit: bool
    key: str


def check_with_cache(
    module: Module,
    cache: Optional[AnalysisCache],
    model: Optional[str] = None,
    telemetry: Optional[Telemetry] = None,
    deadline: Optional[Deadline] = None,
    **ablation: Any,
) -> CachedCheck:
    """Check ``module`` with the static checker, through ``cache``.

    ``deepmc check FILE``, :func:`repro.serve.methods.run_check` (so
    ``deepmc check --program`` and the daemon) and the corpus check task
    call this. With ``cache=None`` it is exactly
    ``StaticChecker(...).run()`` plus the provenance wrapper. With a
    cache, a hit skips verify/DSA/traces/rules entirely and returns the
    stored report, whatever the ``deadline``; a miss runs the checker
    under ``deadline`` and stores the report. A check that runs out of
    budget raises :class:`~repro.errors.DeadlineExceeded` and stores
    nothing, so no budget-shaped report is ever cached. The cache only
    saves work: a miss whose entry cannot be written (a read-only or
    full cache directory) still returns its report, counted as
    ``cache.write_errors``. Hit/miss counters land in the telemetry
    metrics registry as ``cache.hits``/``cache.misses``.
    """
    checker = StaticChecker(module, model=model, telemetry=telemetry,
                            deadline=deadline, **ablation)
    key = ""
    if cache is not None:
        if cache.telemetry is None:
            cache.telemetry = telemetry  # corruption metrics ride along
        key = cache_key(module, checker.model.name, ablation or None)
        entry = cache.get(key)
        if entry is not None:
            if telemetry is not None:
                telemetry.metrics.counter("cache.hits").inc()
                telemetry.event("cache_hit", module=module.name, key=key)
            return CachedCheck(
                report=Report.from_dict(entry["report"]),
                timings=dict(entry.get("timings", {})),
                traces_checked=int(entry.get("traces_checked", 0)),
                hit=True,
                key=key,
            )

    report = checker.run()
    if cache is not None:
        if telemetry is not None:
            telemetry.metrics.counter("cache.misses").inc()
        try:
            cache.put(key, {
                "created_at": time.time(),
                "module": module.name,
                "model": checker.model.name,
                "ruleset": ruleset_version(),
                "report": report.to_dict(),
                "timings": checker.timings.as_dict(),
                "traces_checked": checker.traces_checked,
            })
        except OSError as exc:
            if cache.telemetry is not None:
                cache.telemetry.metrics.counter("cache.write_errors").inc()
                cache.telemetry.event("cache_write_failed", key=key,
                                      error=str(exc))
    return CachedCheck(
        report=report,
        timings=checker.timings.as_dict(),
        traces_checked=checker.traces_checked,
        hit=False,
        key=key,
    )
