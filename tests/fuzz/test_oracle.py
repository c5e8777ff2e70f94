"""The differential oracle: engines must match the expectation sims.

This is the fuzzer's own correctness contract, sampled small enough for
tier-1: clean programs produce zero diffs, every mutant produces zero
diffs (the engines report exactly what the simulators predict), and
every mutation is caught by at least one engine. The CI ``fuzz`` job
runs the same check over a much wider seed sweep.
"""

import pytest

from repro.fuzz import (
    FUZZ_MODELS,
    apply_mutation,
    build_oracle,
    diff_signature,
    enumerate_mutations,
    evaluate_program,
    expect_program,
    generate_program,
)


class TestCleanPrograms:
    @pytest.mark.parametrize("model", FUZZ_MODELS)
    def test_zero_diffs_and_clean_expectation(self, model):
        for seed in range(3):
            spec = generate_program(seed, 0, model=model)
            expected, observed, diffs = evaluate_program(spec)
            assert diffs == []
            assert expected.clean
            assert observed.crashsim_failing == 0
            assert observed.crashsim_states > 0


class TestMutants:
    @pytest.mark.parametrize("model", FUZZ_MODELS)
    def test_engines_match_simulators(self, model):
        spec = generate_program(0, 1, model=model)
        for m in enumerate_mutations(spec):
            mutant = apply_mutation(spec, m)
            expected, _observed, diffs = evaluate_program(mutant)
            assert diffs == [], (m, expected.to_dict())
            assert not expected.clean, m


class TestOracleConstruction:
    def test_invariant_per_written_field(self):
        spec = generate_program(2, 0)
        oracle = build_oracle(spec)
        assert len(oracle.invariants) == len(spec.field_expectations())

    def test_invariants_tolerate_unreadable_state(self):
        # an invariant must return True (not raise) on a state missing
        # the allocations entirely — classify_image counts a raising
        # invariant as a recovery crash, i.e. a false failing image
        class Hollow:
            def object_by_label(self, label):
                raise KeyError(label)

        spec = generate_program(2, 0)
        for inv in build_oracle(spec).invariants:
            assert inv.check(Hollow()) is True


class TestDiffSignatures:
    def test_signature_is_order_insensitive(self):
        a = [{"engine": "static", "kind": "missed", "subject": "x"},
             {"engine": "crashsim", "kind": "unexpected",
              "subject": "failing-image"}]
        assert diff_signature(a) == diff_signature(list(reversed(a)))

    def test_undetected_mutation_is_flagged(self):
        # a mutant whose expectation is clean (battery blind spot) must
        # surface as a meta diff, not pass silently
        from repro.fuzz.oracle import Expectation, Observation, diff_program

        spec = generate_program(0, 0).with_units(
            generate_program(0, 0).units, label="missing-flush")
        exp = Expectation(static_rules=set(), crashsim_failing=False,
                          dynamic_rules=set())
        diffs = diff_program(spec, exp, Observation())
        assert diffs == [{"engine": "meta", "kind": "undetected-mutation",
                          "subject": "missing-flush"}]


class TestExpectationShapes:
    def test_to_dict_is_sorted_and_stable(self):
        spec = generate_program(1, 0)
        exp = expect_program(spec)
        d = exp.to_dict()
        assert d["static"] == sorted(d["static"])
        assert d["crashsim"] in ("clean", "failing")


class TestOneLoweringPerProgram:
    """Both observers lower a program once and run DSA once: the three
    engines share the module, and the dynamic checker plans its hooks on
    the static checker's DSA."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from collections import Counter

        from repro.analysis import dsa
        from repro.fuzz.spec import ProgramSpec

        calls = Counter()

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(ProgramSpec, "to_module",
                            counted("to_module", ProgramSpec.to_module))
        # every run_dsa, whatever name its caller imported it under,
        # builds the local graphs through this module global once
        monkeypatch.setattr(dsa, "build_local_graphs",
                            counted("run_dsa", dsa.build_local_graphs))
        return calls

    @pytest.mark.parametrize("index", range(4))
    def test_observe_program(self, calls, index):
        from repro.fuzz import build_program, observe_program

        observe_program(build_program(0, index))
        assert calls == {"to_module": 1, "run_dsa": 1}

    @pytest.mark.parametrize("name", ["message-passing", "dropped-writeback"])
    def test_observe_litmus(self, calls, name):
        from repro.litmus import CATALOG, observe_litmus

        test = next(t for t in CATALOG if t.name == name)
        observe_litmus(test, test.models[0])
        assert calls == {"to_module": 1, "run_dsa": 1}
