"""End-to-end crash simulation: record → enumerate → classify → correlate.

:func:`simulate_program` runs one corpus program through the whole loop —
execute under a :class:`~repro.crashsim.trace.TraceRecorder`, enumerate
every crash image legal under the program's persistency model, classify
each against the program's registered oracle, then run the static checker
on the very same module and correlate: an invariant annotated with a
bug's ``file:line`` that fails on some image gives that bug a "validated
by crash image #k" verdict next to its static warning.

:func:`simulate_programs` runs the per-program simulations through the
shared fan-out path (:func:`repro.parallel.executor.run_tasks`) — the
same one ``deepmc corpus --jobs N`` uses, with the same guarantee:
results come back in submission order, so parallel output is
byte-identical to serial.

Everything in :meth:`CrashSimReport.to_dict` is deterministic (counts,
indices, coordinates — never wall-clock), which is what lets the CLI
promise stable ``--format json`` output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..deadline import Deadline
from ..telemetry import NULL_TELEMETRY, Telemetry
from .enumerate import Enumeration, enumerate_crash_images
from .oracle import (
    FAILING_OUTCOMES,
    OUTCOMES,
    Oracle,
    classify_image,
)
from .trace import record_trace

#: enumeration defaults, shared by the CLI flags
DEFAULT_MAX_STATES = 4096
DEFAULT_MAX_LINES = 14


def count_failing_images(enumeration: Enumeration, oracle: Oracle,
                         recording, module) -> int:
    """Number of enumerated images ``oracle`` classifies as failing.

    The boiled-down enumerate→classify loop shared by the chaos
    invariants ("an injected NVM fault must surface as a failing image")
    and the fuzz differential oracle ("a seeded persistency bug must
    surface as a failing image"). ``recording`` is the interpreter that
    produced the trace (its allocations give images their shape).
    """
    failing = 0
    for img in enumeration.images:
        verdict = classify_image(img, oracle, recording, module)
        if verdict.outcome in FAILING_OUTCOMES:
            failing += 1
    return failing


@dataclass
class CrashSimReport:
    """Result of crash-simulating one program.

    A report whose deadline budget expired mid-run is a *well-formed
    partial result*: ``deadline_exceeded`` is set, ``truncated`` is set,
    ``classified`` says how many of the enumerated images were actually
    classified (``None`` means all of them), and every populated field —
    outcomes, failing images, validations — covers exactly that classified
    prefix. The two degradation keys appear in ``to_dict()`` only when a
    deadline actually fired, so complete reports keep the schema the
    golden files pin.
    """

    program: str
    framework: str
    model: str
    fixed: bool
    events: int
    crash_points: int
    states: int
    pruned: int
    truncated: bool
    outcomes: Dict[str, int]
    #: failing images: {image, event, outcome, failed, error?}
    failing: List[Dict[str, Any]] = field(default_factory=list)
    #: per annotated bug: {file, line, rule, invariant, warning_reported,
    #: crash_image, validated}
    validations: List[Dict[str, Any]] = field(default_factory=list)
    #: True when a cooperative deadline cut enumeration/classification
    deadline_exceeded: bool = False
    #: images classified before the budget ran out (None = all)
    classified: Optional[int] = None

    @property
    def failing_count(self) -> int:
        return len(self.failing)

    @property
    def validated_count(self) -> int:
        return sum(1 for v in self.validations if v["validated"])

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "program": self.program,
            "framework": self.framework,
            "model": self.model,
            "fixed": self.fixed,
            "events": self.events,
            "crash_points": self.crash_points,
            "states": self.states,
            "pruned": self.pruned,
            "truncated": self.truncated,
            "outcomes": dict(self.outcomes),
            "failing": list(self.failing),
            "validations": list(self.validations),
        }
        if self.deadline_exceeded:
            out["deadline_exceeded"] = True
            out["classified"] = self.classified
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CrashSimReport":
        return cls(**data)


def simulate_program(
    name: str,
    fixed: bool = False,
    max_states: int = DEFAULT_MAX_STATES,
    max_lines: int = DEFAULT_MAX_LINES,
    telemetry: Optional[Telemetry] = None,
    deadline: Optional[Deadline] = None,
) -> CrashSimReport:
    """Crash-simulate one corpus program by registry name.

    ``deadline`` (optional) is the cooperative budget threaded through
    both heavy stages: enumeration polls it at crash-point boundaries,
    classification between images. On expiry the report is a well-formed
    partial — everything classified so far, ``truncated`` and
    ``deadline_exceeded`` set — never a torn result.
    """
    from ..corpus import REGISTRY

    program = REGISTRY.program(name)
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    oracle: Oracle = getattr(program, "oracle", None) or Oracle()
    with tel.span("crashsim.program", program=name, fixed=fixed) as sp:
        module = program.build(fixed=fixed)
        model = module.persistency_model or program.model
        trace = record_trace(module, entry=program.entry or "main",
                             telemetry=tel)
        enum = enumerate_crash_images(trace, model, max_states=max_states,
                                      max_lines=max_lines, deadline=deadline)
        outcomes = {o: 0 for o in OUTCOMES}
        failing: List[Dict[str, Any]] = []
        #: first failing image per violated invariant description
        first_failure: Dict[str, int] = {}
        classified = 0
        classify_cut = False
        for img in enum.images:
            if deadline is not None and deadline.expired():
                classify_cut = True
                break
            verdict = classify_image(img, oracle, trace.interpreter, module)
            classified += 1
            outcomes[verdict.outcome] += 1
            if verdict.outcome in FAILING_OUTCOMES:
                entry: Dict[str, Any] = {
                    "image": verdict.image,
                    "event": verdict.event_index,
                    "outcome": verdict.outcome,
                    "failed": list(verdict.failed),
                }
                if verdict.error:
                    entry["error"] = verdict.error
                failing.append(entry)
                for desc in verdict.failed:
                    first_failure.setdefault(desc, verdict.image)
        validations = _correlate(program, module, oracle, first_failure)
        deadline_exceeded = enum.deadline_exceeded or classify_cut
        sp.set("model", model)
        sp.set("states", enum.states)
        sp.set("failing", len(failing))
        if deadline_exceeded:
            sp.set("deadline_exceeded", True)
    tel.metrics.counter("crashsim.states").inc(enum.states)
    tel.metrics.counter("crashsim.pruned").inc(enum.pruned)
    tel.metrics.counter("crashsim.failures").inc(len(failing))
    if deadline_exceeded:
        tel.metrics.counter("crashsim.deadline_exceeded").inc()
    return CrashSimReport(
        program=name,
        framework=program.framework,
        model=model,
        fixed=fixed,
        events=len(trace.events),
        crash_points=enum.crash_points,
        states=enum.states,
        pruned=enum.pruned,
        truncated=enum.truncated or deadline_exceeded,
        outcomes=outcomes,
        failing=failing,
        validations=validations,
        deadline_exceeded=deadline_exceeded,
        classified=classified if deadline_exceeded else None,
    )


def _correlate(program, module, oracle: Oracle,
               first_failure: Dict[str, int]) -> List[Dict[str, Any]]:
    """Tie failing invariants back to static-checker warnings.

    For every ``validates`` coordinate on every invariant: did the static
    checker warn at that file:line on this very module, and did some
    crash image make the invariant fail? Both together = validated.
    """
    coords = [(inv, c) for inv in oracle.invariants for c in inv.validates]
    if not coords:
        return []
    from .. import check_module

    report = check_module(module)
    out = []
    for inv, (file, line) in coords:
        bug = next((b for b in program.bugs
                    if b.file == file and b.line == line), None)
        rule = bug.rule_id if bug is not None else None
        if rule is not None:
            warned = report.has(rule, file, line)
        else:
            warned = any(w.loc.file == file and w.loc.line == line
                         for w in report.warnings())
        image = first_failure.get(inv.description)
        out.append({
            "file": file,
            "line": line,
            "rule": rule,
            "invariant": inv.description,
            "warning_reported": warned,
            "crash_image": image,
            "validated": warned and image is not None,
        })
    return out


# -- fan-out ----------------------------------------------------------------

def _simulate_task(task: Dict[str, Any],
                   telemetry: Optional[Telemetry]) -> Dict[str, Any]:
    """Simulate one program by name (module-level, picklable)."""
    return simulate_program(task["name"], fixed=task["fixed"],
                            max_states=task["max_states"],
                            max_lines=task["max_lines"],
                            telemetry=telemetry).to_dict()


def simulate_programs(
    names: List[str],
    fixed: bool = False,
    jobs: int = 1,
    max_states: int = DEFAULT_MAX_STATES,
    max_lines: int = DEFAULT_MAX_LINES,
    telemetry: Optional[Telemetry] = None,
) -> List[Dict[str, Any]]:
    """Simulate the named programs through
    :func:`~repro.parallel.executor.run_tasks`.

    Returns one payload per program in input order: ``{"name", "ok",
    "result"}`` on success, ``{"name", "ok": False, "error"}`` on
    failure — identical for every ``jobs`` value.
    """
    from ..parallel.executor import run_tasks

    tasks = [{"name": name, "fixed": fixed, "max_states": max_states,
              "max_lines": max_lines} for name in names]
    return run_tasks(_simulate_task, tasks, jobs=jobs, telemetry=telemetry)


# -- rendering --------------------------------------------------------------

def render_report(report: CrashSimReport) -> str:
    """Human-readable per-program summary (deterministic)."""
    variant = "fixed" if report.fixed else "buggy"
    lines = [
        f"== {report.program} ({report.framework}, {report.model} "
        f"persistency, {variant}) ==",
        f"  trace: {report.events} events, {report.crash_points} crash "
        f"points",
        f"  images: {report.states} enumerated, {report.pruned} pruned"
        + (" (truncated)" if report.truncated else "")
        + (f" (deadline cut: {report.classified} classified)"
           if report.deadline_exceeded else ""),
        "  outcomes: " + "  ".join(
            f"{report.outcomes.get(o, 0)} {o}" for o in OUTCOMES),
    ]
    for f in report.failing:
        what = "; ".join(f["failed"]) or f.get("error", "")
        lines.append(f"  FAILING image #{f['image']} (after event "
                     f"{f['event']}, {f['outcome']}): {what}")
    for v in report.validations:
        where = f"{v['file']}:{v['line']}"
        rule = f" [{v['rule']}]" if v["rule"] else ""
        if v["validated"]:
            lines.append(f"  VALIDATED {where}{rule} by crash image "
                         f"#{v['crash_image']}")
        elif v["crash_image"] is not None:
            lines.append(f"  failing image #{v['crash_image']} at "
                         f"{where}{rule} (no static warning)")
        else:
            lines.append(f"  no failing image for {where}{rule}")
    return "\n".join(lines)


def render_results(payloads: List[Dict[str, Any]]) -> str:
    """Render all program payloads plus a summary line."""
    blocks = []
    total_failing = 0
    validated = 0
    annotated = 0
    for payload in payloads:
        if not payload.get("ok"):
            blocks.append(f"== {payload['name']} ==\n  ERROR: "
                          + payload["error"].strip().splitlines()[-1])
            continue
        report = CrashSimReport.from_dict(payload["result"])
        blocks.append(render_report(report))
        total_failing += report.failing_count
        validated += report.validated_count
        annotated += len(report.validations)
    blocks.append(
        f"crashsim: {len(payloads)} program(s), {total_failing} failing "
        f"image(s), {validated}/{annotated} annotated bugs validated"
    )
    return "\n".join(blocks)


def results_payload(payloads: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The stable ``--format json`` document (schema-tested)."""
    programs = []
    total_failing = 0
    validated = 0
    annotated = 0
    errors = []
    for payload in payloads:
        if not payload.get("ok"):
            errors.append({"program": payload["name"],
                           "error": payload["error"]})
            continue
        programs.append(payload["result"])
        report = CrashSimReport.from_dict(payload["result"])
        total_failing += report.failing_count
        validated += report.validated_count
        annotated += len(report.validations)
    doc: Dict[str, Any] = {
        "programs": programs,
        "summary": {
            "programs": len(payloads),
            "failing_images": total_failing,
            "validated": validated,
            "annotated": annotated,
        },
    }
    if errors:
        doc["errors"] = errors
    return doc
