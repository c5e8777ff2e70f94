"""Detection experiment: run DeepMC over the whole corpus (§5.1, §5.3, §5.4).

This is the measurement behind Tables 1, 2, 3 and 8: the static checker is
*actually run* on every corpus program and its warnings are matched against
the registry's ground truth (the reproduction's stand-in for the paper's
manual validation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..checker.report import Report, Warning_
from ..corpus import REGISTRY
from ..telemetry import NULL_TELEMETRY, Telemetry
from ..corpus.registry import (
    ALL_CLASSES,
    FRAMEWORK_DISPLAY,
    FRAMEWORK_MODEL,
    BugSpec,
    CorpusProgram,
)


@dataclass
class ProgramOutcome:
    """Checker output vs ground truth for one corpus program."""

    program: CorpusProgram
    warnings: List[Warning_]
    #: warnings matched to a ground-truth site (real or FP)
    matched: List[Tuple[Warning_, BugSpec]]
    unmatched_warnings: List[Warning_]
    missed_bugs: List[BugSpec]

    @property
    def validated(self) -> List[BugSpec]:
        return [b for _w, b in self.matched if b.real]

    @property
    def false_positives(self) -> List[BugSpec]:
        return [b for _w, b in self.matched if not b.real]


@dataclass
class ProgramError:
    """A corpus program whose check did not complete (worker crash,
    analysis exception) — recorded instead of losing the whole run."""

    program: str
    error: str


@dataclass
class DetectionResult:
    """Aggregated outcome across the corpus."""

    outcomes: List[ProgramOutcome] = field(default_factory=list)
    #: programs whose check failed outright (one entry per program)
    errors: List[ProgramError] = field(default_factory=list)
    #: analysis-cache traffic of this run (0/0 when no cache attached)
    cache_hits: int = 0
    cache_misses: int = 0

    # -- aggregate counters -------------------------------------------------
    @property
    def total_warnings(self) -> int:
        return sum(len(o.warnings) for o in self.outcomes)

    @property
    def total_validated(self) -> int:
        return sum(len(o.validated) for o in self.outcomes)

    @property
    def total_false_positives(self) -> int:
        return sum(len(o.false_positives) for o in self.outcomes)

    @property
    def false_positive_rate(self) -> float:
        if not self.total_warnings:
            return 0.0
        return self.total_false_positives / self.total_warnings

    def validated_bugs(self, studied: Optional[bool] = None) -> List[BugSpec]:
        out = []
        for o in self.outcomes:
            for b in o.validated:
                if studied is None or b.studied == studied:
                    out.append(b)
        return sorted(out, key=lambda b: (b.framework, b.file, b.line))

    def missed(self) -> List[BugSpec]:
        return [b for o in self.outcomes for b in o.missed_bugs]

    def unmatched(self) -> List[Warning_]:
        return [w for o in self.outcomes for w in o.unmatched_warnings]

    def matrix(self) -> Dict[str, Dict[str, Dict[str, int]]]:
        """Measured Table 1: class -> framework -> validated/warnings."""
        out: Dict[str, Dict[str, Dict[str, int]]] = {
            cls: {fw: {"validated": 0, "warnings": 0} for fw in FRAMEWORK_MODEL}
            for cls in ALL_CLASSES
        }
        for o in self.outcomes:
            fw = o.program.framework
            for _w, b in o.matched:
                out[b.bug_class][fw]["warnings"] += 1
                if b.real:
                    out[b.bug_class][fw]["validated"] += 1
        return out


def run_detection(framework: Optional[str] = None,
                  telemetry: Optional[Telemetry] = None,
                  jobs: int = 1,
                  cache: Union["AnalysisCache", str, Path, None] = None,
                  **checker_opts) -> DetectionResult:
    """Run the static checker on every (selected) corpus program.

    ``checker_opts`` are forwarded to :class:`StaticChecker` (and its
    trace collector) — e.g. ``field_sensitive=False`` for the ablation.
    ``telemetry`` (optional) gets one ``corpus.program`` span per program
    plus ``corpus.*`` aggregate counters.

    The per-program checks run through
    :func:`~repro.parallel.executor.run_tasks` (``jobs > 1`` on a worker
    pool); results come back in registry order, so the outcome list — and
    everything rendered from it — is identical for every ``jobs`` value.
    A failing check contributes a :class:`ProgramError` entry instead of
    aborting the run.

    ``cache`` (an :class:`~repro.parallel.cache.AnalysisCache` or a
    directory path) makes the run incremental: programs whose printed IR
    and rule-set version match a cache entry skip analysis entirely.
    Every program's module is built exactly once per run — the build
    feeds both the cache key and, on a miss, the checker.
    """
    from ..parallel.cache import AnalysisCache
    from ..parallel.executor import check_programs

    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    cache_obj: Optional[AnalysisCache]
    if cache is None or isinstance(cache, AnalysisCache):
        cache_obj = cache
    else:
        cache_obj = AnalysisCache(cache)
    programs = REGISTRY.programs(framework)
    result = DetectionResult()
    with tel.span("corpus.detection", framework=framework or "all",
                  jobs=jobs) as top:
        payloads = check_programs(
            [p.name for p in programs], jobs=jobs,
            cache_dir=cache_obj.root if cache_obj is not None else None,
            checker_opts=checker_opts, telemetry=telemetry)
        for program, payload in zip(programs, payloads):
            if not payload["ok"]:
                result.errors.append(ProgramError(program.name,
                                                  payload["error"]))
                continue
            hit = payload["result"]["cache_hit"]
            if hit is True:
                result.cache_hits += 1
            elif hit is False:
                result.cache_misses += 1
            result.outcomes.append(_match_ground_truth(
                program, Report.from_dict(payload["result"]["report"])))
        top.set("programs", len(result.outcomes))
        top.set("warnings", result.total_warnings)
        if result.errors:
            top.set("errors", len(result.errors))
        if cache_obj is not None:
            top.set("cache_hits", result.cache_hits)
            top.set("cache_misses", result.cache_misses)
    if tel.enabled:
        tel.metrics.counter("corpus.programs").inc(len(result.outcomes))
        tel.metrics.counter("corpus.warnings").inc(result.total_warnings)
        tel.metrics.counter("corpus.validated").inc(result.total_validated)
        tel.metrics.counter("corpus.false_positives").inc(
            result.total_false_positives)
        if result.errors:
            tel.metrics.counter("corpus.errors").inc(len(result.errors))
        tel.event("corpus_detection", framework=framework or "all",
                  programs=len(result.outcomes),
                  warnings=result.total_warnings,
                  validated=result.total_validated,
                  false_positives=result.total_false_positives,
                  errors=len(result.errors),
                  cache_hits=result.cache_hits,
                  cache_misses=result.cache_misses)
    return result


def _match_ground_truth(program: CorpusProgram, report) -> ProgramOutcome:
    """Match one program's warnings against its registry ground truth."""
    warnings = report.warnings()
    by_key = {(b.rule_id, b.file, b.line): b for b in program.bugs}
    matched: List[Tuple[Warning_, BugSpec]] = []
    unmatched: List[Warning_] = []
    seen = set()
    for w in warnings:
        key = (w.rule_id, w.loc.file, w.loc.line)
        bug = by_key.get(key)
        if bug is not None:
            matched.append((w, bug))
            seen.add(key)
        else:
            unmatched.append(w)
    missed = [b for k, b in by_key.items() if k not in seen]
    return ProgramOutcome(program, warnings, matched, unmatched, missed)


def render_table1(result: DetectionResult) -> str:
    """Text rendering in the layout of the paper's Table 1."""
    frameworks = ["pmdk", "nvm_direct", "pmfs", "mnemosyne"]
    header = ["Bug Description"] + [FRAMEWORK_DISPLAY[f] for f in frameworks]
    rows: List[List[str]] = []
    matrix = result.matrix()
    totals = {f: [0, 0] for f in frameworks}
    for cls in ALL_CLASSES:
        row = [cls]
        for f in frameworks:
            cell = matrix[cls][f]
            if cell["warnings"] == 0:
                row.append("-")
            else:
                row.append(f"{cell['validated']}/{cell['warnings']}")
                totals[f][0] += cell["validated"]
                totals[f][1] += cell["warnings"]
        rows.append(row)
    rows.append(
        ["Total"] + [f"{totals[f][0]}/{totals[f][1]}" for f in frameworks]
    )
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)
