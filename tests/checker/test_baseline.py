"""Unit tests for the model-agnostic baseline checker."""

import json

import pytest

from repro.checker.baseline import (
    GenericChecker,
    RULE_GENERIC_UNDRAINED,
    RULE_GENERIC_UNFLUSHED,
)
from repro.ir import IRBuilder, Module, REGION_TX, types as ty


def keys(report):
    return {(w.rule_id, w.loc.line) for w in report.warnings()}


class TestGenericChecker:
    def test_never_flushed_write_found(self):
        mod = Module("g", persistency_model="strict")
        fn = mod.define_function("main", ty.VOID, [], source_file="g.c")
        b = IRBuilder(fn)
        p = b.palloc(ty.I64, line=1)
        b.store(1, p, line=2)
        b.ret(line=3)
        assert (RULE_GENERIC_UNFLUSHED, 2) in keys(GenericChecker(mod).run())

    def test_late_flush_discharges_everything(self):
        """The windowing blindness: a flush at program end hides the fact
        that the write crossed a transaction commit unflushed."""
        mod = Module("g", persistency_model="strict")
        fn = mod.define_function("main", ty.VOID, [], source_file="g.c")
        b = IRBuilder(fn)
        p = b.palloc(ty.I64, line=1)
        b.txbegin(REGION_TX, line=2)
        b.txadd(p, 8, line=3)
        q = b.palloc(ty.I64, line=4)
        b.store(5, q, line=5)  # unrelated, unlogged — crosses the commit
        b.store(1, p, line=6)
        b.txend(REGION_TX, line=7)
        b.flush(q, 8, line=9)  # late flush "fixes" it for the generic tool
        b.fence(line=10)
        b.ret(line=11)
        report = GenericChecker(mod).run()
        assert not any(w.rule_id == RULE_GENERIC_UNFLUSHED
                       for w in report.warnings())
        # DeepMC's model-scoped rule still flags the commit crossing
        from repro import check_module

        deepmc = check_module(mod)
        assert deepmc.has("strict.unflushed-write", "g.c", 5)

    def test_tx_commit_understood(self):
        mod = Module("g", persistency_model="strict")
        fn = mod.define_function("main", ty.VOID, [], source_file="g.c")
        b = IRBuilder(fn)
        p = b.palloc(ty.I64, line=1)
        b.txbegin(REGION_TX, line=2)
        b.txadd(p, 8, line=3)
        b.store(1, p, line=4)
        b.txend(REGION_TX, line=5)
        b.ret(line=6)
        assert len(GenericChecker(mod).run()) == 0

    def test_undrained_flush_found(self):
        mod = Module("g", persistency_model="strict")
        fn = mod.define_function("main", ty.VOID, [], source_file="g.c")
        b = IRBuilder(fn)
        p = b.palloc(ty.I64, line=1)
        b.store(1, p, line=2)
        b.flush(p, 8, line=3)
        b.ret(line=4)
        assert (RULE_GENERIC_UNDRAINED, 3) in keys(GenericChecker(mod).run())

    def test_blind_to_model_violations(self):
        """The missing-barrier-between-ops bug (Figure 3) is invisible:
        the later fence satisfies the generic final-drain check."""
        mod = Module("g", persistency_model="strict")
        fn = mod.define_function("main", ty.VOID, [], source_file="g.c")
        b = IRBuilder(fn)
        p = b.palloc(ty.I64, line=1)
        b.store(1, p, line=2)
        b.flush(p, 8, line=3)
        b.store(2, p, line=4)   # DeepMC: missing barrier before this
        b.flush(p, 8, line=5)
        b.fence(line=6)
        b.ret(line=7)
        generic = GenericChecker(mod).run()
        assert len(generic) == 0
        from repro import check_module

        assert check_module(mod).has("strict.missing-barrier", "g.c", 3)

    def test_blind_to_performance_bugs(self):
        mod = Module("g", persistency_model="strict")
        fn = mod.define_function("main", ty.VOID, [], source_file="g.c")
        b = IRBuilder(fn)
        p = b.palloc(ty.I64, line=1)
        b.store(1, p, line=2)
        b.flush(p, 8, line=3)
        b.flush(p, 8, line=4)   # redundant — generic doesn't care
        b.fence(line=5)
        b.ret(line=6)
        assert len(GenericChecker(mod).run()) == 0


class TestGenericReport:
    """A baseline report names, classifies, renders and serializes its
    warnings like any other report."""

    def test_renders_and_round_trips(self):
        from repro.checker.report import Report
        from repro.corpus import REGISTRY
        from repro.models import MODELS, RULES_BY_ID

        report = GenericChecker(
            REGISTRY.program("mnemosyne_phlog").build()).run()
        assert RULE_GENERIC_UNFLUSHED in {w.rule_id for w in report.warnings()}
        text = report.render()
        assert "WARNING [VIOLATION]" in text
        assert "Write never flushed or logged" in text
        assert len(report.violations()) == len(report)
        assert report.performance() == []
        again = Report.from_dict(json.loads(report.to_json()))
        assert again.to_json() == report.to_json()
        assert again.render() == text
        # the baseline's rules belong to no model, and stay out of the
        # rule set that ruleset_version() (part of every analysis-cache
        # key) fingerprints
        baseline = {RULE_GENERIC_UNFLUSHED, RULE_GENERIC_UNDRAINED}
        assert not baseline & set(RULES_BY_ID)
        for model in MODELS.values():
            assert not baseline & set(model.rule_ids)
