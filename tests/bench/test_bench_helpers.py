"""Tests for the experiment harness itself (fast variants)."""

import pytest

from repro.bench import (
    interleaved_overhead,
    measure_dynamic_overhead,
    measure_fix_speedups,
    new_bug_age_average,
    render_figure12,
    render_fix_speedups,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    render_table5,
    render_table6,
    render_table7,
    render_table8,
    run_detection,
    table2_counts,
)
from repro.apps import ALL_MIXES


@pytest.fixture(scope="module")
def detection():
    return run_detection()


class TestDetectionResult:
    def test_headline_numbers(self, detection):
        assert detection.total_warnings == 50
        assert detection.total_validated == 43
        assert detection.total_false_positives == 7
        assert detection.false_positive_rate == pytest.approx(0.14)

    def test_nothing_missed_or_unmatched(self, detection):
        assert detection.missed() == []
        assert detection.unmatched() == []

    def test_studied_vs_new(self, detection):
        assert len(detection.validated_bugs(studied=True)) == 19
        assert len(detection.validated_bugs(studied=False)) == 24

    def test_matrix_matches_paper_cells(self, detection):
        m = detection.matrix()
        assert m["Unflushed write"]["pmdk"] == {"validated": 1, "warnings": 2}
        assert m["Mismatch between program semantics and model"]["pmdk"] == \
            {"validated": 6, "warnings": 7}
        assert m["Flush an unmodified object"]["pmfs"] == \
            {"validated": 4, "warnings": 5}
        assert m["Durable transaction without persistent writes"]["nvm_direct"] \
            == {"validated": 1, "warnings": 2}

    def test_new_bug_age(self, detection):
        # paper reports 5.4 years on average; our ledger computes 5.3
        assert 5.0 <= new_bug_age_average(detection) <= 5.6

    def test_framework_filter(self):
        result = run_detection(framework="mnemosyne")
        assert result.total_warnings == 4
        assert result.total_false_positives == 0


class TestRenderers:
    def test_table1_layout(self, detection):
        text = render_table1(detection)
        assert "23/26" in text and "7/9" in text
        assert "9/11" in text and "4/4" in text

    def test_table2(self, detection):
        text = render_table2(detection)
        assert "11" in text and "Total" in text
        counts = table2_counts(detection)
        assert counts["pmdk"] == (5, 6)
        assert counts["pmfs"] == (2, 3)
        assert counts["nvm_direct"] == (2, 1)

    def test_table3_lists_19_rows(self, detection):
        text = render_table3(detection)
        assert text.count("\n") >= 20  # header + rule + 19 bugs
        assert "btree_map.c" in text and "symlink.c" in text

    def test_table8_lists_24_rows_with_age(self, detection):
        text = render_table8(detection)
        assert "10.0" in text  # Mnemosyne age
        assert "nvm_locks.c" in text

    def test_rule_tables(self):
        t4 = render_table4()
        assert "Strict" in t4 and "Epoch" in t4 and "Strand" in t4
        t5 = render_table5()
        assert "Writing back unmodified data" in t5

    def test_setup_tables(self):
        assert "Memcached" in render_table6()
        assert "Python" in render_table7()


class TestOverheadHarness:
    def test_single_point_measurement(self):
        point = measure_dynamic_overhead("nstore", ALL_MIXES["nstore"][0],
                                         ops=200, pairs=9)
        assert point.baseline_tps > 0
        assert point.checked_tps > 0
        assert point.timing.pairs == 9
        # the median of the pairs, unclamped, inside its quartiles
        assert (point.timing.q1_pct <= point.overhead_pct
                <= point.timing.q3_pct < 95.0)
        text = render_figure12([point])
        assert "YCSB-A" in text
        assert (f"[{point.timing.q1_pct:.1f}, {point.timing.q3_pct:.1f}]"
                in text)

    def test_interleaved_overhead_alternates_and_takes_the_median(
            self, monkeypatch):
        import types

        from repro.bench import overhead

        now = [0.0]
        monkeypatch.setattr(overhead, "time", types.SimpleNamespace(
            perf_counter=lambda: now[0]))
        order = []
        # the variant's pairs cost -20%, 0%, 10%, ..., 70% more: the
        # median pair is +30%, and nothing is clamped at zero
        extra = iter([-0.2, 0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7])

        def base():
            order.append("base")
            now[0] += 1.0

        def variant():
            order.append("variant")
            now[0] += 1.0 + next(extra)

        timing = interleaved_overhead(base, variant, pairs=9)
        assert order == ["base", "variant"] * 9
        assert timing.pairs == 9
        assert timing.base_s == pytest.approx(1.0)
        assert timing.variant_s == pytest.approx(1.3)
        assert timing.median_pct == pytest.approx(30.0)
        assert timing.q1_pct == pytest.approx(10.0)
        assert timing.q3_pct == pytest.approx(50.0)
        with pytest.raises(ValueError):
            interleaved_overhead(base, variant, pairs=8)

    def test_fix_speedups_all_positive(self):
        speedups = measure_fix_speedups(repeat=8)
        assert speedups  # every perf-bug program measured
        for s in speedups:
            assert s.improvement_pct >= 0.0, s
        best = max(s.improvement_pct for s in speedups)
        assert 5.0 <= best <= 60.0  # the paper's "up to 43%" band
        assert "Improvement" in render_fix_speedups(speedups)


class TestFigure12CLI:
    def test_too_few_pairs_is_a_usage_error(self, capsys):
        from repro.cli import main

        assert main(["figure12", "--pairs", "8"]) == 2
        assert "--pairs must be at least 9" in capsys.readouterr().err
