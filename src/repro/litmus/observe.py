"""Running the real engines on a litmus test.

:func:`observe_litmus` is the suite's third leg: it lowers the litmus
spec to IR once and runs the actual implementations on it — the static
checker, the dynamic happens-before checker (on the static checker's
DSA), and VM execution under the trace recorder followed by crash-image
enumeration — then projects the enumerated images back onto the
litmus's observed fields so all three legs speak the same outcome
language.

Projection relies on two lowering invariants: ``palloc`` events appear
in allocation order (root first, then payload object 0, 1, ...), and
every payload field starts at ``field * CACHELINE`` inside its object.
Images from crash points before all allocations exist are skipped — the
litmus observes a world where its objects exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional

from ..checker.engine import StaticChecker
from ..crashsim.engine import DEFAULT_MAX_STATES
from ..crashsim.enumerate import Enumeration, enumerate_crash_images
from ..crashsim.trace import PersistTrace, record_trace
from ..dynamic.checker import DynamicChecker
from ..faults.injector import FaultInjector
from ..fuzz.expect import Outcome
from ..nvm.cacheline import CACHELINE
from .catalog import LitmusTest
from .spec import litmus_spec


@dataclass(frozen=True)
class Observation:
    """What the real engines reported for one (test, model) case."""

    static_rules: FrozenSet[str]
    dynamic_rules: FrozenSet[str]
    crashsim_outcomes: FrozenSet[Outcome]
    states: int
    crash_points: int
    truncated: bool


def project_outcomes(enum: Enumeration, trace: PersistTrace,
                     test: LitmusTest) -> FrozenSet[Outcome]:
    """Project enumerated crash images onto the test's observed fields."""
    palloc_order: List[int] = []
    for ev in trace.events:
        if ev.kind == "palloc" and ev.alloc not in palloc_order:
            palloc_order.append(ev.alloc)
    # allocation order: root object first, then payload objects by index
    payload_allocs = palloc_order[1:]
    observed = test.observed_fields()
    outcomes = set()
    for img in enum.images:
        values: List[int] = []
        for obj, fld in observed:
            if obj >= len(payload_allocs):
                break
            buf = img.image.get(payload_allocs[obj])
            if buf is None:
                break
            off = fld * CACHELINE
            values.append(int.from_bytes(buf[off:off + 8], "little",
                                         signed=True))
        else:
            outcomes.add(tuple(values))
    return frozenset(outcomes)


def observe_litmus(test: LitmusTest, model: str,
                   max_states: int = DEFAULT_MAX_STATES,
                   telemetry=None) -> Observation:
    """Run all three real engines on ``test`` under ``model``."""
    module = litmus_spec(test, model).to_module()
    checker = StaticChecker(module, model=model, telemetry=telemetry)
    static_report = checker.run()
    static_rules = frozenset(w.rule_id for w in static_report.warnings())
    dyn_report, _runs = DynamicChecker(module, model, telemetry=telemetry,
                                       dsa=checker.collector.dsa).run()
    dynamic_rules = frozenset(w.rule_id for w in dyn_report.warnings())
    injector: Optional[FaultInjector] = None
    if test.fault is not None:
        injector = FaultInjector(nvm_directive=test.fault)
    trace = record_trace(module, entry="main",
                         telemetry=telemetry, fault_injector=injector)
    enum = enumerate_crash_images(trace, model, max_states=max_states)
    return Observation(
        static_rules=static_rules,
        dynamic_rules=dynamic_rules,
        crashsim_outcomes=project_outcomes(enum, trace, test),
        states=enum.states,
        crash_points=enum.crash_points,
        truncated=enum.truncated,
    )
