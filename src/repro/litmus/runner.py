"""Cross-validating the litmus catalog three ways.

For every (test, model) case the runner compares three independent
answers to "what can this pattern leave in NVM, and what should the
checkers say":

* **declared** — the hand-reasoned :class:`~repro.litmus.catalog.
  Expected` in the catalog;
* **crashsim** — crash-image enumeration over the recorded persist trace
  of the lowered IR, projected onto the litmus's fields;
* **simulated** — the spec-level simulators (:func:`~repro.litmus.
  expect.simulate_outcomes` for outcomes, the fuzzer's
  ``expected_static_rules``/``expected_dynamic_rules`` for verdicts);

plus the real checkers' verdicts on the same lowering. Every *pairwise*
mismatch is reported as a disagreement naming the two legs and the
channel (``outcomes``, ``static``, ``dynamic``), so a semantics
regression shows up as "crashsim-vs-simulated" even when both drifted
away from a stale declaration in the same direction.

The fan-out mirrors crashsim's: a module-level picklable task, results
in submission order, ``jobs <= 1`` running in-process, worker telemetry
merged back — so ``--jobs N`` output is byte-identical to serial.
"""

from __future__ import annotations

import traceback
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..fuzz.expect import expected_dynamic_rules, expected_static_rules
from ..telemetry import Span, Telemetry
from .catalog import CATALOG, LitmusTest, cases, get_test
from .expect import simulate_outcomes
from .observe import observe_litmus
from .spec import litmus_spec

#: enumeration default, shared by the CLI flag
DEFAULT_MAX_STATES = 4096

#: comparison channels and the legs compared on each
CHANNELS = ("outcomes", "static", "dynamic")


def _sorted_outcomes(outcomes: Iterable[Tuple[int, ...]]) -> List[List[int]]:
    return [list(o) for o in sorted(outcomes)]


def _pairwise(channel: str, legs: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Disagreements between every pair of legs on one channel."""
    out: List[Dict[str, Any]] = []
    names = list(legs)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if legs[a] != legs[b]:
                out.append({
                    "channel": channel,
                    "legs": f"{a}-vs-{b}",
                    a: legs[a],
                    b: legs[b],
                })
    return out


def run_case(test: LitmusTest, model: str,
             max_states: int = DEFAULT_MAX_STATES,
             telemetry: Optional[Telemetry] = None) -> Dict[str, Any]:
    """Run one (test, model) case; returns a JSON-able result payload."""
    expected = test.expected[model]
    spec = litmus_spec(test, model)
    obs = observe_litmus(test, model, max_states=max_states,
                         telemetry=telemetry)
    sim_outcomes = simulate_outcomes(test, model)
    sim_static = frozenset(expected_static_rules(spec))
    sim_dynamic = frozenset(expected_dynamic_rules(spec))

    disagreements: List[Dict[str, Any]] = []
    disagreements += _pairwise("outcomes", {
        "declared": _sorted_outcomes(expected.outcomes),
        "crashsim": _sorted_outcomes(obs.crashsim_outcomes),
        "simulated": _sorted_outcomes(sim_outcomes),
    })
    disagreements += _pairwise("static", {
        "declared": sorted(expected.static_rules),
        "checker": sorted(obs.static_rules),
        "simulated": sorted(sim_static),
    })
    disagreements += _pairwise("dynamic", {
        "declared": sorted(expected.dynamic_rules),
        "checker": sorted(obs.dynamic_rules),
        "simulated": sorted(sim_dynamic),
    })
    return {
        "test": test.name,
        "model": model,
        "group": test.group,
        "fields": [f"obj{o}.f{f}" for o, f in test.observed_fields()],
        "outcomes": _sorted_outcomes(expected.outcomes),
        "static_rules": sorted(expected.static_rules),
        "dynamic_rules": sorted(expected.dynamic_rules),
        "states": obs.states,
        "crash_points": obs.crash_points,
        "truncated": obs.truncated,
        "disagreements": disagreements,
        "agree": not disagreements,
    }


# -- parallel fan-out -------------------------------------------------------

def _litmus_task(task: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry point: one (test, model) case by name.

    Module-level (picklable) and self-contained; ships spans/metrics
    back for the parent to merge, like the crashsim/corpus workers.
    """
    name = task["name"]
    try:
        tel = Telemetry() if task.get("telemetry") else None
        result = run_case(get_test(task["test"]), task["model"],
                          max_states=task.get("max_states",
                                              DEFAULT_MAX_STATES),
                          telemetry=tel)
        return {
            "name": name,
            "ok": True,
            "result": result,
            "span": (tel.tracer.roots[-1].to_dict()
                     if tel is not None and tel.tracer.roots else None),
            "metrics": tel.metrics.dump() if tel is not None else None,
        }
    except Exception:
        return {"name": name, "ok": False, "error": traceback.format_exc()}


def run_litmus(tests: Optional[List[LitmusTest]] = None,
               models: Optional[List[str]] = None,
               jobs: int = 1,
               max_states: int = DEFAULT_MAX_STATES,
               telemetry: Optional[Telemetry] = None) -> Dict[str, Any]:
    """Run the (filtered) catalog and aggregate a report payload."""
    selected = cases(tests if tests is not None else CATALOG, models)
    results: List[Dict[str, Any]] = []
    errors: List[Dict[str, str]] = []

    if jobs <= 1:
        for test, model in selected:
            try:
                results.append(run_case(test, model,
                                        max_states=max_states,
                                        telemetry=telemetry))
            except Exception:
                errors.append({"case": f"{test.name}:{model}",
                               "error": traceback.format_exc()})
    else:
        from ..parallel.executor import run_tasks

        tasks = [
            {
                "name": f"{test.name}:{model}",
                "test": test.name,
                "model": model,
                "max_states": max_states,
                "telemetry": telemetry is not None and telemetry.enabled,
            }
            for test, model in selected
        ]
        payloads = run_tasks(_litmus_task, tasks, jobs=jobs,
                             telemetry=telemetry)
        for payload in payloads:
            if payload.get("ok"):
                results.append(payload["result"])
            else:
                errors.append({"case": payload.get("name", "?"),
                               "error": payload.get("error", "")})
            if telemetry is not None:
                if payload.get("span"):
                    telemetry.tracer.adopt(Span.from_dict(payload["span"]))
                if payload.get("metrics"):
                    telemetry.metrics.merge(payload["metrics"])

    disagreeing = [r for r in results if not r["agree"]]
    if telemetry is not None:
        telemetry.metrics.counter("litmus.cases").inc(len(results))
        telemetry.metrics.counter("litmus.disagreements").inc(
            sum(len(r["disagreements"]) for r in results))
    return {
        "schema": "deepmc.litmus/v1",
        "cases": results,
        "errors": errors,
        "summary": {
            "cases": len(results),
            "agreeing": len(results) - len(disagreeing),
            "disagreeing": len(disagreeing),
            "errors": len(errors),
        },
    }


# -- rendering --------------------------------------------------------------

def render_litmus(payload: Dict[str, Any]) -> str:
    """Human-readable report (deterministic)."""
    lines: List[str] = []
    group = None
    for case in payload["cases"]:
        if case["group"] != group:
            group = case["group"]
            lines.append(f"== {group} ==")
        status = "ok" if case["agree"] else "DISAGREE"
        lines.append(
            f"  {case['test']:<28} {case['model']:<7} "
            f"{len(case['outcomes']):>2} outcomes  "
            f"{case['states']:>3} images  {status}")
        for d in case["disagreements"]:
            lines.append(f"      {d['channel']}: {d['legs']}")
            for leg in d:
                if leg in ("channel", "legs"):
                    continue
                lines.append(f"        {leg}: {d[leg]}")
    for err in payload["errors"]:
        lines.append(f"  ERROR {err['case']}")
        lines.append("    " + err["error"].strip().replace("\n", "\n    "))
    s = payload["summary"]
    lines.append(
        f"{s['cases']} cases: {s['agreeing']} agree, "
        f"{s['disagreeing']} disagree, {s['errors']} errors")
    return "\n".join(lines)
