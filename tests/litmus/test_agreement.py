"""The semantics regression wall: three-way agreement per litmus case.

One parametrized test per (litmus, model) case, asserting that the
declared expectation, crashsim enumeration, the spec-level simulators,
and the real checkers all agree — the tier-1 guarantee behind
``deepmc litmus`` exiting 0. Parametrization keeps failures addressable:
a semantics regression names the exact pattern and model it broke.
"""

import pytest

from repro.litmus import cases, run_case

CASES = cases()


@pytest.mark.parametrize(
    "test,model", CASES,
    ids=[f"{t.name}:{m}" for t, m in CASES])
def test_three_way_agreement(test, model):
    result = run_case(test, model)
    assert result["agree"], result["disagreements"]
    # enumeration must have explored the full trace, never truncated:
    # a truncated case would vacuously "agree" on a partial outcome set
    assert not result["truncated"]
    assert result["states"] >= 2


def test_runner_aggregates_and_orders_results():
    # aggregate path over a slice (the parametrized wall covers every
    # case individually; this pins the report payload shape + ordering)
    from repro.litmus import get_test, run_litmus

    tests = [get_test("store-only"), get_test("strand-dependence")]
    payload = run_litmus(tests=tests)
    assert payload["schema"] == "deepmc.litmus/v1"
    assert payload["summary"] == {
        "cases": 4, "agreeing": 4, "disagreeing": 0, "errors": 0}
    assert [(c["test"], c["model"]) for c in payload["cases"]] == [
        ("store-only", "strict"), ("store-only", "epoch"),
        ("store-only", "strand"), ("strand-dependence", "strand")]


def test_model_filter_restricts_cases():
    from repro.litmus import get_test, run_litmus

    payload = run_litmus(tests=[get_test("store-flush-fence")],
                         models=["epoch"])
    assert [(c["test"], c["model"]) for c in payload["cases"]] == [
        ("store-flush-fence", "epoch")]


@pytest.mark.parametrize("jobs", [1, 2])
def test_runner_runs_the_test_objects_it_is_given(jobs):
    # a test outside the catalog, and an edited copy keeping a catalog
    # name, both run as given at every jobs value: nothing is looked up
    # by name
    from dataclasses import replace

    from repro.litmus import get_test, run_litmus

    base = get_test("store-only")
    renamed = replace(base, name="store-only-copy")
    edited = replace(base, group="edited")
    payload = run_litmus(tests=[renamed, edited], models=["strict"],
                         jobs=jobs)
    assert payload["errors"] == []
    assert [(c["test"], c["group"]) for c in payload["cases"]] == [
        ("store-only-copy", base.group), ("store-only", "edited")]
