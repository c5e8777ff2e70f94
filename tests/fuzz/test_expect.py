"""The crash-point walk's two readers agree.

``expected_crashsim_failing`` and the litmus outcome sets
(``expected_outcomes``) both read :func:`repro.fuzz.expect.crash_points`.
The verdict is a shortcut: it must say "failing" exactly when some
outcome over the commit flag and the payload fields reads the flag as 1
and a payload field as a non-final value.
"""

from repro.fuzz import ROOT, build_program
from repro.fuzz.expect import (
    crash_points,
    expected_crashsim_failing,
    expected_outcomes,
)
from repro.fuzz.spec import ProgramSpec, UnitSpec
from repro.litmus.spec import LitmusSpec


def _failing_by_outcomes(spec: ProgramSpec) -> bool:
    expects = spec.field_expectations()
    payload = sorted(expects)
    finals = tuple(expects[key] for key in payload)
    outcomes = expected_outcomes(spec, [(ROOT, 0)] + payload)
    return any(flag == 1 and tuple(rest) != finals
               for flag, *rest in outcomes)


def test_verdict_is_the_outcome_set_predicate():
    verdicts = []
    for seed in range(50):
        for index in range(8):
            spec = build_program(seed, index)
            verdict = expected_crashsim_failing(spec)
            assert verdict == _failing_by_outcomes(spec), spec.name
            verdicts.append(verdict)
    # both verdicts occur, so the comparison is not vacuous
    assert 0 < sum(verdicts) < len(verdicts)


def _litmus(model, *ops, field_counts=(2,)):
    return LitmusSpec(name="walk", model=model, field_counts=field_counts,
                      units=(UnitSpec(index=0, template="walk", ops=ops),))


def test_commit_has_a_crash_point_per_logged_object():
    # before any op, after each of the 6 ops, and one after each of the
    # two logged objects' commit flushes
    spec = _litmus("strict", ("tx_begin",), ("tx_add", 0), ("tx_add", 1),
                   ("store", 0, 0, 1), ("store", 1, 0, 2), ("tx_end",),
                   field_counts=(1, 1))
    assert sum(1 for _ in crash_points(spec)) == 1 + 6 + 2
    # the commit's flushes leave both stores pending until its fence
    assert expected_outcomes(spec, [(0, 0), (1, 0)]) == {
        (0, 0), (1, 0), (0, 2), (1, 2)}


def test_fault_event_is_a_crash_point_before_its_fence_completes():
    ops = (("store", 0, 0, 5), ("flush", 0, 0), ("store", 0, 1, 6),
           ("flush", 0, 1), ("fence",))
    spec = _litmus("strict", *ops)
    fields = [(0, 0), (0, 1)]

    def points(fault=None):
        return [tuple(pipe.admissible(key) for key in fields)
                for pipe in crash_points(spec, fault)]

    before_fence = [((0,), (0,)), ((0,), (0,)), ((0, 5), (0,)),
                    ((0, 5), (0,)), ((0, 5), (0, 6))]
    assert points() == before_fence + [((5,), (6,))]
    # the fence's second drained line is dropped: at the fault's point
    # the first line is still pending, and the dropped one never persists
    assert points({"kind": "drop", "at": 1}) == before_fence + [
        ((0, 5), (0,)), ((5,), (0,))]
    # a torn first drain persists 4 bytes of 5, all of it, and cleans
    # the line before the fence completes
    assert points({"kind": "torn", "at": 0, "keep": 4}) == before_fence + [
        ((5,), (0, 6)), ((5,), (6,))]


def test_fence_closes_the_epoch_window():
    spec = _litmus("epoch", ("store", 0, 0, 1), ("fence",),
                   ("store", 0, 1, 2), ("flush", 0, 1), ("fence",))
    # the unflushed store to f0 can persist only before the first fence
    # ends; afterwards f0 is neither pending nor in the epoch window
    points = [pipe.admissible((0, 0)) for pipe in crash_points(spec)]
    assert points == [(0,), (0, 1), (0,), (0,), (0,), (0,)]
