"""Chaos campaigns: prove the pipeline is fault-oblivious where it must
be, and fault-sensitive where it must be.

One campaign sweeps a range of seeds; each seed derives a
:class:`~repro.faults.plan.FaultPlan` and runs up to three phases,
checking one invariant each:

* **corpus** (executor + cache layers): check the whole corpus on a
  process pool while workers crash/hang/stall on schedule and the shared
  analysis cache is pre-corrupted. *Invariant (a): infrastructure faults
  never change detection results* — the per-program reports must be
  byte-identical to a serial, fault-free, cache-cold baseline.
* **nvm** (NVM device layer): for each fixed oracle program, enumerate
  candidate injection points (fence drains to drop or tear, store lines
  to spuriously evict) from a clean trace, then try them in seeded order
  until one yields a failing crash image. *Invariant (b): injected NVM
  faults are surfaced as failing images* — the detection stack must see
  real durability damage; a fault the program absorbs (re-flush, equal
  bytes) counts as *masked* and the search moves on.
* **vm** (interpreter layer): crash each fixed oracle program at a
  seeded instruction and re-enumerate. A truncated trace only removes
  crash points, so a clean program must stay clean — zero failing
  images. This pins down that power-failure truncation alone can never
  fabricate a bug report.

Every decision in a campaign derives from (seed, site) hashes, so a
failing seed replays exactly: ``deepmc chaos --seeds 7`` re-runs seed 7's
precise fault set.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..telemetry import Telemetry
from .injector import FaultInjector, apply_executor_fault, corrupt_cache_entries
from .plan import LAYERS, FaultPlan

#: fixed oracle programs whose clean runs enumerate with zero failing
#: images *and* for which exhaustive candidate search proves at least one
#: injected NVM fault surfaces (empirically curated — every oracle
#: program except ``mnemosyne_phlog``, whose oracle is a sanity check
#: that by design cannot observe lost durability)
DEFAULT_NVM_PROGRAMS = (
    "nvmdirect_locks",
    "pmdk_btree_map",
    "pmdk_hashmap",
    "pmdk_hashmap_atomic",
    "pmdk_obj_pmemlog",
    "pmdk_obj_pmemlog_simple",
    "pmfs_journal",
    "pmfs_symlink",
)

#: default deadline (seconds of zero progress) before the pool is
#: presumed wedged; injected hangs sleep far longer than this
DEFAULT_DEADLINE_S = 10.0

#: candidate injection points tried per program before giving up; high
#: enough to cover every candidate of every default program, so the
#: search is exhaustive and its success is seed-independent (the seed
#: only changes which surfacing candidate is found first)
DEFAULT_MAX_CANDIDATES = 64


# -- task function ----------------------------------------------------------

def _chaos_check_task(task: Dict[str, Any],
                      telemetry: Optional[Telemetry]) -> Dict[str, Any]:
    """Apply any due executor fault, then run the plain corpus check.
    Module-level (picklable)."""
    if "_attempt" in task:
        # Executor faults only make sense under a pool: without the
        # `_attempt` stamp run_tasks adds, this is a serial in-process
        # call and an injected crash would kill the whole run.
        apply_executor_fault(task)
    from ..parallel.executor import _check_program_task

    return _check_program_task(task, telemetry)


# -- result containers ------------------------------------------------------

@dataclass
class SeedResult:
    """Everything one seed's campaign produced."""

    seed: int
    #: per-phase summaries, keyed by phase name
    phases: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: invariant violations: {"phase", "detail", "program"?}
    violations: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, Any]:
        return {"seed": self.seed, "ok": self.ok,
                "phases": dict(self.phases),
                "violations": list(self.violations)}


@dataclass
class ChaosReport:
    """Result of one chaos campaign across a seed sweep."""

    seeds: List[int]
    jobs: int
    deadline_s: float
    layers: Tuple[str, ...]
    corpus_programs: List[str]
    nvm_programs: List[str]
    results: List[SeedResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def violations(self) -> List[Dict[str, Any]]:
        return [dict(v, seed=r.seed) for r in self.results
                for v in r.violations]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seeds": list(self.seeds),
            "jobs": self.jobs,
            "deadline_s": self.deadline_s,
            "layers": list(self.layers),
            "corpus_programs": list(self.corpus_programs),
            "nvm_programs": list(self.nvm_programs),
            "ok": self.ok,
            "results": [r.to_dict() for r in self.results],
            "violations": self.violations,
        }


# -- invariant (a): corpus results are fault-oblivious ----------------------

def _fingerprint(payloads: Sequence[Dict[str, Any]]) -> str:
    """Canonical digest of the *detection-relevant* slice of a corpus
    run: program name, success, and the serialized report. Timings and
    cache provenance are execution accidents and excluded."""
    slim = []
    for p in payloads:
        entry: Dict[str, Any] = {"name": p.get("name"), "ok": p.get("ok")}
        if p.get("ok"):
            entry["report"] = p["result"]["report"]
        else:
            err = (p.get("error") or "").strip().splitlines()
            entry["error"] = err[-1] if err else ""
        slim.append(entry)
    return json.dumps(slim, sort_keys=True, separators=(",", ":"))


def _corpus_tasks(names: Sequence[str], cache_dir: Optional[str],
                  plan: Optional[FaultPlan]) -> List[Dict[str, Any]]:
    tasks = []
    for name in names:
        task: Dict[str, Any] = {
            "name": name,
            "cache_dir": cache_dir,
            "checker_opts": {},
        }
        if plan is not None:
            fault = plan.executor_fault(name)
            if fault is not None:
                task["fault"] = fault
        tasks.append(task)
    return tasks


def _corpus_phase(
    plan: FaultPlan,
    names: Sequence[str],
    baseline_fp: str,
    baseline_cache: Path,
    workdir: Path,
    jobs: int,
    deadline_s: float,
    telemetry: Telemetry,
    result: SeedResult,
) -> None:
    """Run the corpus under executor + cache faults; compare fingerprints."""
    from ..parallel.cache import AnalysisCache
    from ..parallel.executor import run_tasks

    seed_cache = workdir / f"cache-seed{plan.seed}"
    shutil.copytree(baseline_cache, seed_cache)
    corrupted = corrupt_cache_entries(AnalysisCache(seed_cache), plan,
                                      telemetry=telemetry)

    tasks = _corpus_tasks(names, str(seed_cache),
                          plan if jobs > 1 else None)
    exec_faults = sum(1 for t in tasks if "fault" in t)
    payloads = run_tasks(_chaos_check_task, tasks, jobs=jobs,
                         timeout=deadline_s, telemetry=telemetry)
    fp = _fingerprint(payloads)
    match = fp == baseline_fp
    result.phases["corpus"] = {
        "programs": len(names),
        "executor_faults": exec_faults,
        "cache_corrupted": corrupted,
        "fingerprint_match": match,
    }
    if not match:
        divergent = _divergent_programs(baseline_fp, fp)
        result.violations.append({
            "phase": "corpus",
            "detail": "infrastructure faults changed detection results "
                      f"(divergent: {', '.join(divergent) or 'unknown'})",
        })


def _divergent_programs(base_fp: str, got_fp: str) -> List[str]:
    try:
        base = {e["name"]: e for e in json.loads(base_fp)}
        got = {e["name"]: e for e in json.loads(got_fp)}
    except (ValueError, TypeError, KeyError):
        return []
    names = sorted(set(base) | set(got))
    return [n for n in names if base.get(n) != got.get(n)]


# -- invariant (b): NVM faults surface as failing images --------------------

def _failing_images(trace, model: str, oracle, module,
                    max_states: int, max_lines: int) -> int:
    from ..crashsim.engine import count_failing_images
    from ..crashsim.enumerate import enumerate_crash_images

    enum = enumerate_crash_images(trace, model, max_states=max_states,
                                  max_lines=max_lines)
    return count_failing_images(enum, oracle, trace.interpreter, module)


def nvm_candidates(trace) -> List[Tuple]:
    """Enumerate targeted NVM injection points from a clean trace.

    Each candidate is ``(kind, ordinal, keep)`` with ``keep`` only set
    for ``torn``. Ordinals address injector consultations: the ``i``-th
    fence drain (drop/torn) and the ``i``-th store-covered line (evict).
    Because execution is deterministic, the clean run's consultation
    sequence is identical to the faulty run's up to the injection point —
    so ordinals computed here target exact drains/stores of the live run.
    A torn drain gets one candidate per 8-byte-aligned split inside the
    cacheline: whether a tear is observable depends on which fields the
    lost tail covers, so ``keep`` is part of the search space rather
    than a seed-derived constant.
    """
    from ..crashsim.enumerate import ReplayState
    from ..nvm.cacheline import CACHELINE

    replay = ReplayState(trace.alloc_sizes)
    drains = 0
    evicts = 0
    out: List[Tuple] = []
    for ev in trace.events:
        if ev.kind == "fence":
            for _ in replay.pending:
                out.append(("drop", drains, None))
                for keep in range(8, CACHELINE, 8):
                    out.append(("torn", drains, keep))
                drains += 1
        elif ev.kind == "store":
            for _ in ev.content:
                out.append(("evict", evicts, None))
                evicts += 1
        replay.apply(ev)
    return out


def _nvm_phase(
    plan: FaultPlan,
    programs: Sequence[str],
    max_states: int,
    max_lines: int,
    max_candidates: int,
    telemetry: Telemetry,
    result: SeedResult,
) -> None:
    """Search for a surfacing injection per program; all must surface."""
    from ..corpus import REGISTRY
    from ..crashsim.trace import record_trace

    details = []
    masked_total = 0
    for name in programs:
        program = REGISTRY.program(name)
        oracle = program.oracle
        module = program.build(fixed=True)
        model = module.persistency_model or program.model
        entry = program.entry or "main"
        trace = record_trace(module, entry=entry)
        baseline = _failing_images(trace, model, oracle, module,
                                   max_states, max_lines)
        if baseline:
            result.violations.append({
                "phase": "nvm", "program": name,
                "detail": f"fixed baseline already has {baseline} failing "
                          "image(s); cannot attribute injected faults",
            })
            details.append({"program": name, "surfaced": False,
                            "baseline_failing": baseline})
            continue
        candidates = plan.order(nvm_candidates(trace), "nvm.search", name)
        surfaced = None
        masked = 0
        for kind, at, keep in candidates[:max_candidates]:
            directive: Dict[str, Any] = {"kind": kind, "at": at}
            if keep is not None:
                directive["keep"] = keep
            injector = FaultInjector(nvm_directive=directive,
                                     telemetry=telemetry)
            ftrace = record_trace(module, entry=entry,
                                  fault_injector=injector)
            failing = _failing_images(ftrace, model, oracle, module,
                                      max_states, max_lines)
            if injector.injected_count and failing:
                surfaced = dict(directive, failing=failing)
                telemetry.metrics.counter("faults.surfaced").inc()
                break
            masked += 1
            telemetry.metrics.counter("faults.masked").inc()
        masked_total += masked
        details.append({"program": name, "surfaced": surfaced is not None,
                        "injection": surfaced, "masked": masked,
                        "candidates": len(candidates)})
        if surfaced is None:
            result.violations.append({
                "phase": "nvm", "program": name,
                "detail": f"no injected NVM fault surfaced in "
                          f"{min(len(candidates), max_candidates)} "
                          "candidate(s)",
            })
    result.phases["nvm"] = {
        "programs": len(programs),
        "surfaced": sum(1 for d in details if d["surfaced"]),
        "masked": masked_total,
        "details": details,
    }


# -- VM crash phase: truncation alone never fabricates a failure ------------

def _vm_phase(
    plan: FaultPlan,
    programs: Sequence[str],
    max_states: int,
    max_lines: int,
    telemetry: Telemetry,
    result: SeedResult,
) -> None:
    from ..corpus import REGISTRY
    from ..crashsim.trace import record_trace

    details = []
    for name in programs:
        program = REGISTRY.program(name)
        oracle = program.oracle
        module = program.build(fixed=True)
        model = module.persistency_model or program.model
        entry = program.entry or "main"
        clean = record_trace(module, entry=entry)
        step = plan.vm_crash_step(clean.result.steps, name)
        injector = FaultInjector(vm_crash_at=step, telemetry=telemetry)
        trace = record_trace(module, entry=entry, fault_injector=injector)
        failing = _failing_images(trace, model, oracle, module,
                                  max_states, max_lines)
        details.append({"program": name, "crash_step": step,
                        "total_steps": clean.result.steps,
                        "events": len(trace.events), "failing": failing})
        if failing:
            result.violations.append({
                "phase": "vm", "program": name,
                "detail": f"crash at step {step}/{clean.result.steps} "
                          f"fabricated {failing} failing image(s) on a "
                          "fixed program",
            })
    result.phases["vm"] = {
        "programs": len(programs),
        "failing": sum(d["failing"] for d in details),
        "details": details,
    }


# -- invariant (d): faulted serve sessions match one-shot CLI runs ----------

def _serve_phase(
    plan: FaultPlan,
    jobs: int,
    deadline_s: float,
    workdir: Path,
    telemetry: Telemetry,
    result: SeedResult,
) -> None:
    """Run a faulted multi-client daemon session; every verdict must be
    byte-identical to the one-shot baseline (repro.serve.chaos)."""
    from ..serve.chaos import run_serve_phase

    summary = run_serve_phase(
        plan,
        jobs=max(jobs, 2),
        deadline_s=deadline_s,
        telemetry=telemetry,
        workdir=str(workdir / f"serve-seed{plan.seed}"),
    )
    violations = summary.pop("violations")
    result.phases["serve"] = summary
    result.violations.extend(violations)


# -- campaign driver --------------------------------------------------------

def run_chaos(
    seeds: Sequence[int],
    jobs: int = 4,
    deadline_s: float = DEFAULT_DEADLINE_S,
    layers: Sequence[str] = LAYERS,
    framework: Optional[str] = None,
    corpus_programs: Optional[Sequence[str]] = None,
    nvm_programs: Optional[Sequence[str]] = None,
    max_states: int = 4096,
    max_lines: int = 14,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    telemetry: Optional[Telemetry] = None,
    workdir: Optional[str] = None,
) -> ChaosReport:
    """Run a chaos campaign over ``seeds`` and return its report.

    Phases run per seed according to ``layers``: ``executor``/``cache``
    select the corpus phase, ``nvm`` the NVM surfacing phase, ``vm`` the
    crash-truncation phase. The serial fault-free corpus baseline (and
    the warm cache the per-seed corrupted copies start from) is computed
    once per campaign, not per seed.
    """
    from ..corpus import REGISTRY
    from ..parallel.executor import run_tasks

    tel = telemetry if telemetry is not None else Telemetry(enabled=False)
    layers = tuple(layers)
    if corpus_programs is None:
        corpus_names = [p.name
                        for p in REGISTRY.programs(framework=framework)]
    else:
        corpus_names = list(corpus_programs)
        for name in corpus_names:
            REGISTRY.program(name)  # unknown names fail fast
    if nvm_programs is None:
        oracle_names = [n for n in DEFAULT_NVM_PROGRAMS
                        if framework is None
                        or REGISTRY.program(n).framework == framework]
    else:
        oracle_names = list(nvm_programs)
        for name in oracle_names:
            if REGISTRY.program(name).oracle is None:
                raise ValueError(f"program {name!r} has no oracle")

    report = ChaosReport(
        seeds=list(seeds), jobs=jobs, deadline_s=deadline_s, layers=layers,
        corpus_programs=corpus_names, nvm_programs=oracle_names,
    )
    run_corpus = bool({"executor", "cache"} & set(layers)) and corpus_names
    run_nvm = "nvm" in layers and oracle_names
    run_vm = "vm" in layers and oracle_names
    run_serve = "serve" in layers

    owned_workdir = workdir is None
    root = Path(workdir) if workdir else Path(tempfile.mkdtemp(
        prefix="deepmc-chaos-"))
    try:
        baseline_fp = ""
        baseline_cache = root / "cache-baseline"
        if run_corpus:
            with tel.span("chaos.baseline", programs=len(corpus_names)):
                baseline_cache.mkdir(parents=True, exist_ok=True)
                base_tasks = _corpus_tasks(corpus_names,
                                           str(baseline_cache), plan=None)
                baseline_fp = _fingerprint(
                    run_tasks(_chaos_check_task, base_tasks, jobs=1))
        for seed in seeds:
            plan = FaultPlan(seed, layers=layers)
            result = SeedResult(seed=seed)
            with tel.span("chaos.seed", seed=seed):
                if run_corpus:
                    with tel.span("chaos.corpus", seed=seed):
                        _corpus_phase(plan, corpus_names, baseline_fp,
                                      baseline_cache, root, jobs,
                                      deadline_s, tel, result)
                if run_nvm:
                    with tel.span("chaos.nvm", seed=seed):
                        _nvm_phase(plan, oracle_names, max_states,
                                   max_lines, max_candidates, tel, result)
                if run_vm:
                    with tel.span("chaos.vm", seed=seed):
                        _vm_phase(plan, oracle_names, max_states,
                                  max_lines, tel, result)
                if run_serve:
                    with tel.span("chaos.serve", seed=seed):
                        _serve_phase(plan, jobs, deadline_s, root, tel,
                                     result)
            report.results.append(result)
    finally:
        if owned_workdir:
            shutil.rmtree(root, ignore_errors=True)
    return report


# -- rendering --------------------------------------------------------------

def render_chaos(report: ChaosReport) -> str:
    """Human-readable campaign summary (deterministic)."""
    lines = [
        f"chaos: {len(report.seeds)} seed(s), jobs {report.jobs}, "
        f"deadline {report.deadline_s:g}s, layers "
        + ",".join(report.layers)
    ]
    for r in report.results:
        parts = []
        cp = r.phases.get("corpus")
        if cp:
            verdict = "match" if cp["fingerprint_match"] else "MISMATCH"
            parts.append(
                f"corpus {verdict} ({cp['programs']} programs, "
                f"{cp['executor_faults']} executor fault(s), "
                f"{cp['cache_corrupted']} cache entr(y/ies) corrupted)")
        np = r.phases.get("nvm")
        if np:
            parts.append(f"nvm {np['surfaced']}/{np['programs']} surfaced "
                         f"({np['masked']} masked)")
        vp = r.phases.get("vm")
        if vp:
            parts.append(f"vm {vp['failing']} failing "
                         f"across {vp['programs']} truncated run(s)")
        sp = r.phases.get("serve")
        if sp:
            parts.append(
                f"serve {sp['compared']}/{sp['requests']} verdicts "
                f"matched ({sp['clients']} clients, {sp['refused']} "
                f"refused, {sp['cache_corrupted']} cache entr(y/ies) "
                "corrupted)")
        status = "ok" if r.ok else "VIOLATION"
        lines.append(f"seed {r.seed}: {status} — " + "; ".join(parts))
        for v in r.violations:
            prog = f" [{v['program']}]" if v.get("program") else ""
            lines.append(f"  {v['phase']}{prog}: {v['detail']}")
    n_viol = len(report.violations)
    lines.append(f"chaos: {len(report.results)} seed(s) run, "
                 f"{n_viol} violation(s)")
    return "\n".join(lines)
