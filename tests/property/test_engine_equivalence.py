"""Hypothesis properties: tree and bytecode agree on generated programs.

The corpus and litmus differential walls (tests/vm/) cover hand-picked
shapes; this suite points the fuzzer's program generator at the same
contract (docs/VM.md). Every generated — and mutated — program must
produce the same persist-event trace, the same NVM stats, the same
``vm.op.*`` counters, and the same failing-crash-image count in
production (bytecode) and on the tree reference (the ``tree_reference``
fixture). Mutations matter here: they produce exactly the ill-persisted
programs whose crash images are interesting, so the equivalence check
runs where crashsim verdicts actually flip.
"""

from hypothesis import given, settings, strategies as st

from repro.crashsim import count_failing_images, enumerate_crash_images
from repro.crashsim.trace import record_trace
from repro.fuzz import (
    FUZZ_MODELS,
    apply_mutation,
    build_oracle,
    enumerate_mutations,
    generate_program,
)
from repro.telemetry import Telemetry

_seeds = st.integers(0, 400)
_indices = st.integers(0, 5)
_models = st.sampled_from(FUZZ_MODELS)


def _spec_for(seed, index, model, mutate, pick):
    spec = generate_program(seed, index, model=model)
    if mutate:
        mutations = enumerate_mutations(spec)
        if mutations:
            spec = apply_mutation(spec, mutations[pick % len(mutations)])
    return spec


class TestTraceParity:
    @settings(max_examples=30, deadline=None)
    @given(seed=_seeds, index=_indices, model=_models,
           mutate=st.booleans(), pick=st.integers(0, 1000))
    def test_events_stats_counters_match(self, seed, index, model,
                                         mutate, pick, tree_reference):
        spec = _spec_for(seed, index, model, mutate, pick)

        def fingerprint():
            tel = Telemetry()
            trace = record_trace(spec.to_module(), entry="main",
                                 telemetry=tel)
            return {
                "events": trace.events,
                "result": (trace.result.value, trace.result.steps,
                           trace.result.output, trace.result.crashed),
                "stats": trace.result.stats.snapshot(),
                "counters": tel.metrics.dump()["counters"],
            }

        tree = tree_reference(fingerprint)
        byte = fingerprint()
        for key in tree:
            assert tree[key] == byte[key], (
                f"engines diverge on {key} for generated program "
                f"(seed={seed}, index={index}, model={model}, "
                f"mutate={mutate}, pick={pick})")


class TestCrashImageParity:
    @settings(max_examples=20, deadline=None)
    @given(seed=_seeds, index=_indices, model=_models,
           mutate=st.booleans(), pick=st.integers(0, 1000))
    def test_failing_image_counts_match(self, seed, index, model,
                                        mutate, pick, tree_reference):
        spec = _spec_for(seed, index, model, mutate, pick)

        def verdict():
            module = spec.to_module()
            trace = record_trace(module, entry="main")
            enum = enumerate_crash_images(trace, spec.model,
                                          max_states=256)
            failing = count_failing_images(enum, build_oracle(spec),
                                           trace.interpreter, module)
            return (failing, enum.states, enum.crash_points)

        assert tree_reference(verdict) == verdict()
