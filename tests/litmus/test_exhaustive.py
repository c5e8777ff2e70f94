"""Bounded-exhaustive agreement: every small persist program, not a sample.

The litmus catalog and the fuzz campaigns pick their programs; this sweep
takes all of them up to a length bound. Per model it enumerates every op
sequence of at most ``k`` ops over store, flush, fence, ``tx_add`` and
balanced brackets: tx under every model, epoch brackets under epoch and
strand brackets under strand. A bracket never nests inside its own kind,
``tx_add`` appears only inside a tx, a store writes its op position + 1,
and every sequence stores at least once. Each sequence runs as a litmus
program through three comparisons:

* the shared spec-level walk's outcome set
  (:func:`repro.fuzz.expect.expected_outcomes`) against crashsim's
  enumerated images projected onto the stored fields, never truncated;
* the static checker against ``expected_static_rules``;
* the dynamic checker against ``expected_dynamic_rules``.

The one-object sequences up to length 4 also run with the fuzzer's commit
protocol appended through :func:`repro.fuzz.evaluate_program`, which adds
the commit-flag crash verdict. Length 4 is the first at which a program
logs a field and commits: ``tx_begin, tx_add, store, tx_end``. Every count is pinned, so the sweep cannot
narrow silently: "all N programs up to length k agree" is a claim about
the whole space.
"""

from typing import Iterator, List, Sequence, Tuple

import pytest

from repro.fuzz import ProgramSpec, UnitSpec, evaluate_program
from repro.fuzz.expect import (
    expected_dynamic_rules,
    expected_outcomes,
    expected_static_rules,
)
from repro.litmus import LitmusTest, litmus_spec, observe_litmus

#: bracket kinds each model's programs may use
BRACKETS = {"strict": ("tx",), "epoch": ("tx", "epoch"),
            "strand": ("tx", "strand")}

ONE_OBJECT = ((0, 0), (0, 1))
TWO_OBJECTS = ((0, 0), (0, 1), (1, 0), (1, 1))

#: (fields, k) -> programs per model; the pinned size of each space
SPACES = {
    (ONE_OBJECT, 4): {"strict": 770, "epoch": 872, "strand": 872},
    (TWO_OBJECTS, 3): {"strict": 676, "epoch": 688, "strand": 688},
}
COMMIT_SPACE = {"strict": 770, "epoch": 872, "strand": 872}
#: committed programs per model that undo-log a field inside a tx
COMMIT_LOGGED = {"strict": 8, "epoch": 8, "strand": 8}


def sequences(model: str, fields: Sequence[Tuple[int, int]],
              k: int) -> Iterator[Tuple[tuple, ...]]:
    """Every op sequence of at most ``k`` ops over ``fields`` (see the
    module docstring), in a fixed order."""
    objects = sorted({obj for obj, _ in fields})

    def extend(prefix: List[tuple], open_: List[str]):
        if (prefix and not open_
                and any(op[0] == "store" for op in prefix)):
            yield tuple(prefix)
        room = k - len(prefix)
        if room > len(open_):
            ops = [("store", obj, f, len(prefix) + 1) for obj, f in fields]
            ops += [("flush", obj, f) for obj, f in fields]
            ops.append(("fence",))
            if "tx" in open_:
                ops += [("tx_add", obj) for obj in objects]
            if room > len(open_) + 1:
                ops += [(f"{kind}_begin",) for kind in BRACKETS[model]
                        if kind not in open_]
            for op in ops:
                kind = op[0]
                inner = (open_ + [kind[:-len("_begin")]]
                         if kind.endswith("_begin") else open_)
                yield from extend(prefix + [op], inner)
        if open_:
            yield from extend(prefix + [(f"{open_[-1]}_end",)], open_[:-1])

    return extend([], [])


def _disagreements(model: str, ops: Tuple[tuple, ...]) -> List[str]:
    test = LitmusTest(name="sweep", group="exhaustive", title="", prose="",
                      ops=ops, models=(model,), expected={})
    spec = litmus_spec(test, model)
    obs = observe_litmus(test, model)
    out = []
    if obs.truncated:
        out.append("crashsim enumeration truncated")
    walk = expected_outcomes(spec, test.observed_fields())
    if walk != obs.crashsim_outcomes:
        out.append(f"outcomes: walk {sorted(walk)} "
                   f"crashsim {sorted(obs.crashsim_outcomes)}")
    static = expected_static_rules(spec)
    if static != obs.static_rules:
        out.append(f"static: expected {sorted(static)} "
                   f"checker {sorted(obs.static_rules)}")
    dynamic = expected_dynamic_rules(spec)
    if dynamic != obs.dynamic_rules:
        out.append(f"dynamic: expected {sorted(dynamic)} "
                   f"checker {sorted(obs.dynamic_rules)}")
    return [f"{model} {list(ops)}: {d}" for d in out]


def test_pinned_sizes_are_the_documented_totals():
    # docs/FUZZING.md and the README state these totals; the sweeps below
    # assert that each model's space still has its pinned size
    assert [sum(sizes.values()) for sizes in SPACES.values()] == [2514, 2052]
    assert sum(COMMIT_SPACE.values()) == 2514


@pytest.mark.parametrize("fields,k", list(SPACES),
                         ids=["one-object-k4", "two-objects-k3"])
@pytest.mark.parametrize("model", list(BRACKETS))
def test_every_small_program_agrees(model, fields, k):
    programs = list(sequences(model, fields, k))
    assert len(programs) == SPACES[(fields, k)][model]
    bad = [d for ops in programs for d in _disagreements(model, ops)]
    assert not bad, f"{len(bad)} disagreements, first: {bad[:5]}"


@pytest.mark.parametrize("model", list(BRACKETS))
def test_every_small_committed_program_agrees(model):
    programs = list(sequences(model, ONE_OBJECT, 4))
    assert len(programs) == COMMIT_SPACE[model]
    assert sum(any(op[0] == "tx_add" for op in ops)
               for ops in programs) == COMMIT_LOGGED[model]
    bad = []
    for i, ops in enumerate(programs):
        spec = ProgramSpec(
            name=f"sweep_{model}_{i}", model=model, field_counts=(2,),
            units=(UnitSpec(index=0, template="sweep", ops=ops),),
            label="clean")
        _expected, observed, diffs = evaluate_program(spec)
        if diffs:
            bad.append((list(ops), diffs))
    assert not bad, f"{len(bad)} disagreements, first: {bad[:5]}"
