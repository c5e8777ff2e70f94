"""Persistency-model litmus suite: executable model documentation.

A catalog of small canonical persist-ordering patterns
(:mod:`~repro.litmus.catalog`), each declaring its admissible crash
outcomes and checker verdicts per model; a cross-validating runner
(:mod:`~repro.litmus.runner`) that checks the declarations against
crashsim enumeration, the spec-level simulators, and the real checkers;
and a doc generator (:mod:`~repro.litmus.docgen`) that renders the
catalog into ``docs/MODELS.md``. Surfaced as ``deepmc litmus``.
"""

from .catalog import CATALOG, GROUPS, MODELS, Expected, LitmusTest, cases, \
    get_test, validate_catalog
from .observe import Observation, observe_litmus
from .runner import render_litmus, run_case, run_litmus
from .spec import LitmusSpec, litmus_spec

__all__ = [
    "CATALOG", "GROUPS", "MODELS", "Expected", "LitmusTest",
    "LitmusSpec", "Observation", "cases", "get_test", "litmus_spec",
    "observe_litmus", "render_litmus", "run_case", "run_litmus",
    "validate_catalog",
]
