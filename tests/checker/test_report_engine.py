"""Tests for the warning report and the checker engine plumbing."""

import pytest

from repro import check_module
from repro.checker import Report, StaticChecker, Warning_, analysis_roots
from repro.checker.engine import CheckTimings
from repro.ir import IRBuilder, Module, SourceLoc, types as ty


def w(rule="strict.unflushed-write", file="a.c", line=1, fn="f",
      msg="m", source="static"):
    return Warning_(rule, SourceLoc(file, line), fn, msg, source)


class TestReport:
    def test_dedup_by_rule_and_loc(self):
        r = Report("m", "strict")
        r.add(w())
        r.add(w(msg="different text"))
        assert len(r) == 1

    def test_different_rules_same_loc_kept(self):
        r = Report("m", "strict")
        r.add(w(rule="strict.unflushed-write"))
        r.add(w(rule="perf.redundant-flush"))
        assert len(r) == 2

    def test_sorted_by_file_line(self):
        r = Report("m", "strict")
        r.add(w(file="b.c", line=2))
        r.add(w(file="a.c", line=9))
        r.add(w(file="a.c", line=3))
        locs = [(x.loc.file, x.loc.line) for x in r.warnings()]
        assert locs == [("a.c", 3), ("a.c", 9), ("b.c", 2)]

    def test_category_partition(self):
        r = Report("m", "strict")
        r.add(w(rule="strict.unflushed-write"))
        r.add(w(rule="perf.empty-durable-tx", line=2))
        assert len(r.violations()) == 1
        assert len(r.performance()) == 1

    def test_queries(self):
        r = Report("m", "strict")
        r.add(w(line=7))
        assert r.has("strict.unflushed-write", "a.c", 7)
        assert not r.has("strict.unflushed-write", "a.c", 8)
        assert len(r.at("a.c", 7)) == 1

    def test_render_mentions_everything(self):
        r = Report("mod", "epoch")
        r.add(w())
        text = r.render()
        assert "mod" in text and "epoch" in text and "a.c" in text
        assert "VIOLATION" in text

    def test_merge(self):
        a = Report("m", "strict")
        a.add(w(line=1))
        b = Report("m", "strict")
        b.add(w(line=2))
        a.merge(b)
        assert len(a) == 2

    def test_to_dict_round_trips_warnings(self):
        import json

        r = Report("mod", "epoch")
        r.add(w(rule="strict.unflushed-write", line=3))
        r.add(w(rule="perf.empty-durable-tx", line=9))
        d = r.to_dict()
        assert d["module"] == "mod" and d["model"] == "epoch"
        assert d["count"] == 2
        assert d["violations"] == 1 and d["performance"] == 1
        assert [x["line"] for x in d["warnings"]] == [3, 9]
        first = d["warnings"][0]
        assert first["rule"] == "strict.unflushed-write"
        assert first["file"] == "a.c" and first["fn"] == "f"
        assert first["category"] == "violation"
        # to_json parses back to the same dict
        assert json.loads(r.to_json()) == d


class TestEngine:
    def test_model_override(self, node_module):
        mod, _ = node_module
        checker = StaticChecker(mod, model="epoch")
        assert checker.model.name == "epoch"

    def test_timings_populated(self, node_module):
        mod, _ = node_module
        checker = StaticChecker(mod)
        checker.run()
        assert checker.timings.total_s > 0
        assert checker.traces_checked >= 1

    def test_second_run_reports_fresh_timings(self, node_module):
        """Regression: rerunning a checker used to leave dsa_s stale from
        the first run while the other phases were overwritten."""
        mod, _ = node_module
        checker = StaticChecker(mod)
        checker.run()
        first = checker.timings
        assert first.dsa_s > 0
        checker.run()
        second = checker.timings
        assert second is not first
        # every run builds its own DSA and collector, so the second run's
        # breakdown charges its own DSA time
        assert second.dsa_s > 0
        assert second.verify_s > 0

    def test_timings_as_dict(self, node_module):
        mod, _ = node_module
        checker = StaticChecker(mod)
        checker.run()
        d = checker.timings.as_dict()
        assert set(d) == {"verify_s", "dsa_s", "traces_s", "rules_s",
                          "total_s"}
        assert abs(d["total_s"] - (d["verify_s"] + d["dsa_s"]
                                   + d["traces_s"] + d["rules_s"])) < 1e-12

    def test_roots_exclude_annotated_functions(self):
        from repro.analysis import CallGraph
        from repro.frameworks import PMDK

        mod = Module("r", persistency_model="strict")
        PMDK(mod)  # installs annotated library functions (uncalled here)
        fn = mod.define_function("main", ty.VOID, [], source_file="r.c")
        IRBuilder(fn).ret()
        roots = analysis_roots(CallGraph(mod))
        assert roots == ["main"]

    def test_uncalled_cycle_still_analyzed(self):
        from repro.analysis import CallGraph

        mod = Module("r", persistency_model="strict")
        f = mod.define_function("f", ty.VOID, [], source_file="r.c")
        g = mod.define_function("g", ty.VOID, [], source_file="r.c")
        fb = IRBuilder(f)
        fb.call("g")
        fb.ret()
        gb = IRBuilder(g)
        gb.call("f")
        gb.ret()
        roots = analysis_roots(CallGraph(mod))
        assert roots  # some member of the cycle is picked

    def test_lib_function_checked_standalone(self):
        """A library function whose only pointer comes from an argument is
        still checked — how the paper's LIB bugs are found."""
        mod = Module("lib", persistency_model="strict")
        rec = mod.define_struct("r", [("a", ty.I64)])
        fn = mod.define_function("lib_update", ty.VOID,
                                 [("p", ty.pointer_to(rec))],
                                 source_file="lib.c")
        b = IRBuilder(fn)
        fa = b.getfield(fn.arg("p"), "a")
        b.store(1, fa, line=9)  # never flushed
        b.ret(line=10)
        report = check_module(mod)
        assert report.has("strict.unflushed-write", "lib.c", 9)

    def test_verify_failure_propagates(self):
        from repro.errors import VerifierError
        from repro.ir import instructions as ins

        mod = Module("bad", persistency_model="strict")
        fn = mod.define_function("f", ty.VOID, [], source_file="b.c")
        fn.add_block("entry")  # empty block: malformed
        with pytest.raises(VerifierError):
            StaticChecker(mod).run()
