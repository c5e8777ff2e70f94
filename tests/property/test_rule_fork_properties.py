"""Hypothesis property: a forked rule behaves like a fresh per-trace run.

The checker walks a prefix trie and copies rule state with
``TraceRule.fork()`` where traces diverge. For every rule, every merged
trace of a generated fuzz program and every split point k: walk
``events[:k]``, fork, then finish both the original and the fork on
``events[k:]``. Each must emit exactly the warnings of
``TraceRule.check`` on the whole trace.

A fork that shares a mutable container with its original (a
pending-write list, a transaction's logged ranges or warned nodes) lets
the two runs see each other's events. When both see the same suffix
that often changes nothing (a write recorded twice), so every fork is
also checked to share no list, dict, set or mutable record with its
original.

The engine also calls a rule only for the event kinds it declares in
``TraceRule.kinds``. So at every split point, every event of the trace
whose kind the rule does not declare is fed to a fork, which must warn
nothing and keep a state equal to the original's.

Each example checks the clean program and one mutant per applicable
mutation kind, so every rule the fuzzer can trigger is exercised. The
hand-built rule inputs of the differential wall run too: they reach
rule branches no generated program does (a strand that loads, for one).
"""

import dataclasses

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis.traces import EV_TRUNCATED, TraceCollector
from repro.checker.engine import analysis_roots
from repro.checker.rules import CheckContext, EventFacts, build_rules
from repro.fuzz import FUZZ_MODELS, apply_mutation, enumerate_mutations
from repro.fuzz import generate_program
from repro.models import get_model
from tests.checker.rule_inputs import RULE_INPUTS


def _specs(seed, index, model, pick):
    """The clean program and one mutant per applicable mutation kind."""
    clean = generate_program(seed, index, model=model)
    by_kind = {}
    for mutation in enumerate_mutations(clean):
        by_kind.setdefault(mutation.kind, []).append(mutation)
    return [clean] + [apply_mutation(clean, ms[pick % len(ms)])
                      for _kind, ms in sorted(by_kind.items())]


def _mutable_parts(value, out):
    """Collect every mutable container reachable from ``value`` (events
    and ranges are frozen, event facts are never written after they are
    built, and all three end the search)."""
    if isinstance(value, (list, set)):
        out.append(value)
        for item in value:
            _mutable_parts(item, out)
    elif isinstance(value, dict):
        out.append(value)
        for item in value.items():
            _mutable_parts(item, out)
    elif isinstance(value, tuple):
        for item in value:
            _mutable_parts(item, out)
    elif (dataclasses.is_dataclass(value)
          and not value.__dataclass_params__.frozen):
        out.append(value)
        for f in dataclasses.fields(value):
            _mutable_parts(getattr(value, f.name), out)
    return out


def _state_parts(rule):
    """The mutable containers a rule's state holds (warnings aside)."""
    out = []
    for name, value in vars(rule).items():
        if name != "warnings":
            _mutable_parts(value, out)
    return out


def _shared_state(original, twin):
    ours = {id(part) for part in _state_parts(original)}
    return [part for part in _state_parts(twin) if id(part) in ours]


def _state(rule):
    return {name: value for name, value in vars(rule).items()
            if name != "warnings"}


def _check_undeclared(rule, events, ctx):
    """Feed a fork of ``rule`` each event of a kind ``rule`` does not
    declare: it must warn nothing and leave the state as it was."""
    for facts in events:
        if facts.kind in rule.kinds:
            continue
        twin = rule.fork()
        twin.on_event(facts, ctx)
        assert twin.warnings == [], (type(rule).__name__, facts.kind)
        assert _state(twin) == _state(rule), (type(rule).__name__,
                                               facts.kind)


def _finish(rule, events, ctx, truncated):
    for facts in events:
        rule.on_event(facts, ctx)
    if not truncated:
        rule.on_end(ctx)
    return rule.warnings


def _check_forks(module, model_name):
    model = get_model(model_name)
    collector = TraceCollector(module)
    factories = build_rules(model)
    for root in analysis_roots(collector.dsa.callgraph):
        ctx = CheckContext(module, model, root)
        for trace in collector.traces_for(root):
            kinds = [e.kind for e in trace.events]
            truncated = EV_TRUNCATED in kinds
            events = [EventFacts(event) for event in
                      trace.events[:kinds.index(EV_TRUNCATED)
                                   if truncated else len(kinds)]]
            for factory in factories:
                fresh = factory().check(trace, ctx)
                for k in range(len(events) + 1):
                    original = factory()
                    for facts in events[:k]:
                        original.on_event(facts, ctx)
                    _check_undeclared(original, events, ctx)
                    before = list(original.warnings)
                    twin = original.fork()
                    assert twin.warnings == []
                    assert type(twin) is type(original)
                    assert not _shared_state(original, twin)
                    assert _finish(original, events[k:], ctx,
                                   truncated) == fresh
                    assert before + _finish(twin, events[k:], ctx,
                                            truncated) == fresh


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 400), index=st.integers(0, 5),
       model=st.sampled_from(FUZZ_MODELS), pick=st.integers(0, 1000))
# has a duplicate-txadd mutant: pins the perf.multi-persist-tx state
@example(seed=0, index=0, model="strict", pick=0)
def test_fork_at_every_split_matches_fresh_run(seed, index, model, pick):
    for spec in _specs(seed, index, model, pick):
        _check_forks(spec.to_module(), spec.model)


@pytest.mark.parametrize("build", list(RULE_INPUTS.values()),
                         ids=list(RULE_INPUTS))
def test_fork_on_hand_built_rule_inputs(build):
    module = build()
    _check_forks(module, module.persistency_model)
