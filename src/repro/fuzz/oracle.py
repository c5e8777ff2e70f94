"""The differential oracle: run all three engines, diff against ground truth.

For one :class:`~repro.fuzz.spec.ProgramSpec` this module

1. builds the commit-flag :class:`~repro.crashsim.oracle.Oracle` from the
   spec's field expectations ("commit flag set ⇒ every written payload
   field holds its final value");
2. runs the static checker, crash-image enumeration + classification,
   and the dynamic checker (on the static checker's DSA) on one lowering
   of the spec, which none of them changes;
3. diffs each engine's observation against the corresponding expectation
   simulator from :mod:`repro.fuzz.expect`.

A **disagreement** is any difference between expected and observed,
per engine: a ``missed`` subject (expected but not reported — an engine
false negative, or an expectation-model bug) or an ``unexpected`` one
(reported but not expected — an engine false positive, or again an
expectation-model bug). Either way a human should look, which is exactly
what a differential fuzzer is for. A mutated program that no engine is
even *expected* to catch is reported as ``meta/undetected-mutation`` —
that would mean a mutation class escaped the whole battery by design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Set

from ..checker.engine import StaticChecker
from ..crashsim.engine import count_failing_images
from ..crashsim.enumerate import enumerate_crash_images
from ..crashsim.oracle import Invariant, Oracle
from ..crashsim.trace import record_trace
from ..dynamic.checker import DynamicChecker
from .expect import (
    expected_crashsim_failing,
    expected_dynamic_rules,
    expected_static_rules,
)
from .spec import ProgramSpec

#: default per-program crash-image budget; generated programs stay well
#: under it (a handful of candidate lines over a few dozen events)
DEFAULT_MAX_STATES = 2048


def build_oracle(spec: ProgramSpec) -> Oracle:
    """Commit-flag invariants for ``spec``.

    Each invariant guards every read: an image from an early crash point
    (allocation missing, flag still zero) must classify as consistent,
    and an invariant that *raises* would count as a recovery crash —
    i.e. a false failing image — so unreadable states return True.
    """
    invariants = []
    for (obj, fld), want in sorted(spec.field_expectations().items()):
        def check(state, _obj=obj, _fld=fld, _want=want):
            try:
                if state.object_by_label("palloc:root").read_field("f0") != 1:
                    return True
                actual = state.object_by_label(
                    f"palloc:obj{_obj}").read_field(f"f{_fld}")
            except Exception:
                return True
            return actual == _want
        invariants.append(Invariant(
            description=f"commit ⇒ obj{obj}.f{fld} == {want}",
            check=check,
        ))
    return Oracle(invariants=tuple(invariants))


@dataclass
class Observation:
    """What the three engines actually reported for one program."""

    static_rules: Set[str] = field(default_factory=set)
    crashsim_failing: int = 0
    crashsim_states: int = 0
    dynamic_rules: Set[str] = field(default_factory=set)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "static": sorted(self.static_rules),
            "crashsim": {"failing": self.crashsim_failing,
                         "states": self.crashsim_states},
            "dynamic": sorted(self.dynamic_rules),
        }


@dataclass
class Expectation:
    """What the spec-level simulators predict for one program."""

    static_rules: Set[str]
    crashsim_failing: bool
    dynamic_rules: Set[str]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "static": sorted(self.static_rules),
            "crashsim": "failing" if self.crashsim_failing else "clean",
            "dynamic": sorted(self.dynamic_rules),
        }

    @property
    def clean(self) -> bool:
        return (not self.static_rules and not self.crashsim_failing
                and not self.dynamic_rules)


def expect_program(spec: ProgramSpec) -> Expectation:
    return Expectation(
        static_rules=expected_static_rules(spec),
        crashsim_failing=expected_crashsim_failing(spec),
        dynamic_rules=expected_dynamic_rules(spec),
    )


def observe_program(spec: ProgramSpec,
                    max_states: int = DEFAULT_MAX_STATES) -> Observation:
    """Run all three engines on one lowering of ``spec``."""
    obs = Observation()
    module = spec.to_module()

    checker = StaticChecker(module, model=spec.model)
    static_report = checker.run()
    obs.static_rules = {w.rule_id for w in static_report.warnings()}

    trace = record_trace(module, entry="main")
    enum = enumerate_crash_images(trace, spec.model, max_states=max_states)
    obs.crashsim_states = enum.states
    obs.crashsim_failing = count_failing_images(
        enum, build_oracle(spec), trace.interpreter, module)

    dyn_report, _runs = DynamicChecker(module, spec.model,
                                       dsa=checker.collector.dsa).run()
    obs.dynamic_rules = {w.rule_id for w in dyn_report.warnings()}
    return obs


def diff_program(spec: ProgramSpec, expected: Expectation,
                 observed: Observation) -> List[Dict[str, str]]:
    """Expected-vs-observed differences, as stable JSON-able records."""
    diffs: List[Dict[str, str]] = []

    def rule_diffs(engine: str, exp: Set[str], obs: Set[str]) -> None:
        for rid in sorted(exp - obs):
            diffs.append({"engine": engine, "kind": "missed",
                          "subject": rid})
        for rid in sorted(obs - exp):
            diffs.append({"engine": engine, "kind": "unexpected",
                          "subject": rid})

    rule_diffs("static", expected.static_rules, observed.static_rules)
    if expected.crashsim_failing and observed.crashsim_failing == 0:
        diffs.append({"engine": "crashsim", "kind": "missed",
                      "subject": "failing-image"})
    if not expected.crashsim_failing and observed.crashsim_failing > 0:
        diffs.append({"engine": "crashsim", "kind": "unexpected",
                      "subject": "failing-image"})
    rule_diffs("dynamic", expected.dynamic_rules, observed.dynamic_rules)

    if spec.label != "clean" and expected.clean and not diffs:
        # the mutation changed the program, yet no engine is expected to
        # notice and none did: the whole battery has a blind spot
        diffs.append({"engine": "meta", "kind": "undetected-mutation",
                      "subject": spec.label})
    return diffs


def evaluate_program(spec: ProgramSpec,
                     max_states: int = DEFAULT_MAX_STATES):
    """(expected, observed, diffs) for one program."""
    expected = expect_program(spec)
    observed = observe_program(spec, max_states=max_states)
    return expected, observed, diff_program(spec, expected, observed)


def diff_signature(diffs: List[Dict[str, str]]) -> tuple:
    """Hashable identity of a disagreement, preserved while shrinking."""
    return tuple(sorted((d["engine"], d["kind"], d["subject"])
                        for d in diffs))
