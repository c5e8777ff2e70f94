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

The cases run through the shared fan-out path
(:func:`repro.parallel.executor.run_tasks`), like crashsim's programs:
results in submission order, so ``--jobs N`` output is byte-identical to
serial.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..fuzz.expect import expected_dynamic_rules, expected_static_rules
from ..telemetry import Telemetry
from .catalog import CATALOG, LitmusTest, cases
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


# -- fan-out ----------------------------------------------------------------

def _case_task(task: Dict[str, Any],
               telemetry: Optional[Telemetry]) -> Dict[str, Any]:
    """One (test, model) case (module-level, picklable)."""
    return run_case(task["test"], task["model"],
                    max_states=task["max_states"], telemetry=telemetry)


def run_litmus(tests: Optional[List[LitmusTest]] = None,
               models: Optional[List[str]] = None,
               jobs: int = 1,
               max_states: int = DEFAULT_MAX_STATES,
               telemetry: Optional[Telemetry] = None) -> Dict[str, Any]:
    """Run the (filtered) catalog and aggregate a report payload."""
    from ..parallel.executor import run_tasks

    tasks = [{"name": f"{test.name}:{model}", "test": test,
              "model": model, "max_states": max_states}
             for test, model in cases(tests if tests is not None
                                      else CATALOG, models)]
    results: List[Dict[str, Any]] = []
    errors: List[Dict[str, str]] = []
    for entry in run_tasks(_case_task, tasks, jobs=jobs,
                           telemetry=telemetry):
        if entry["ok"]:
            results.append(entry["result"])
        else:
            errors.append({"case": entry["name"], "error": entry["error"]})

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
