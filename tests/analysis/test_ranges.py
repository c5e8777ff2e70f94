"""Tests for symbolic offsets and memory ranges (three-valued overlap)."""

from repro.analysis.ranges import MemRange, SymOffset, union_size


class TestSymOffset:
    def test_constant_arithmetic(self):
        o = SymOffset.of(8).add_const(4)
        assert o.const == 12
        assert o.is_concrete()

    def test_terms_combine(self):
        o = SymOffset.of(0).add_term(1, 8).add_term(1, 8)
        assert o.terms == ((1, 16),)

    def test_terms_cancel(self):
        o = SymOffset.of(0).add_term(1, 8).add_term(1, -8)
        assert o.is_concrete()

    def test_zero_scale_ignored(self):
        assert SymOffset.of(0).add_term(1, 0).is_concrete()

    def test_distinct_terms_print_distinct_names(self):
        o = SymOffset.of(0).add_term(16, 8).add_term(10016, 8)
        assert str(o) == "8*v16+8*v10016"

    def test_comparable_and_delta(self):
        a = SymOffset.of(4).add_term(1, 8)
        b = SymOffset.of(12).add_term(1, 8)
        c = SymOffset.of(4).add_term(2, 8)
        assert a.comparable(b)
        assert b.delta(a) == 8
        assert not a.comparable(c)
        assert a.delta(c) is None


class TestMemRangeOverlap:
    def test_concrete_disjoint(self):
        a = MemRange.concrete(0, 8)
        b = MemRange.concrete(8, 8)
        assert a.overlaps(b) is False
        assert b.overlaps(a) is False

    def test_concrete_overlap(self):
        a = MemRange.concrete(0, 16)
        b = MemRange.concrete(8, 16)
        assert a.overlaps(b) is True

    def test_symbolic_same_base(self):
        base = SymOffset.of(0).add_term(5, 16)
        a = MemRange(base, 8)
        b = MemRange(base.add_const(8), 8)
        assert a.overlaps(b) is False
        c = MemRange(base.add_const(4), 8)
        assert a.overlaps(c) is True

    def test_symbolic_different_base_unknown(self):
        a = MemRange(SymOffset.of(0).add_term(1, 8), 8)
        b = MemRange(SymOffset.of(0).add_term(2, 8), 8)
        assert a.overlaps(b) is None

    def test_unknown_size(self):
        a = MemRange.concrete(0, None)
        b = MemRange.concrete(0, 8)
        assert a.overlaps(b) is True  # same start
        c = MemRange.concrete(8, None)
        assert a.overlaps(c) is None  # a's extent unknown


class TestMemRangeCovers:
    def test_covers_true(self):
        whole = MemRange.concrete(0, 64)
        part = MemRange.concrete(8, 8)
        assert whole.covers(part) is True
        assert part.covers(whole) is False

    def test_covers_exact(self):
        a = MemRange.concrete(4, 8)
        assert a.covers(MemRange.concrete(4, 8)) is True

    def test_covers_unknown_when_symbolic_bases_differ(self):
        a = MemRange(SymOffset.of(0).add_term(1, 8), 64)
        b = MemRange.concrete(0, 8)
        assert a.covers(b) is None

    def test_covers_negative_delta(self):
        a = MemRange.concrete(8, 8)
        assert a.covers(MemRange.concrete(0, 8)) is False

    def test_same_range(self):
        assert MemRange.concrete(0, 8).same_range(MemRange.concrete(0, 8)) is True
        assert MemRange.concrete(0, 8).same_range(MemRange.concrete(0, 4)) is False
        sym = MemRange(SymOffset.of(0).add_term(1, 8), 8)
        assert sym.same_range(MemRange.concrete(0, 8)) is None


class TestUnionSize:
    def test_disjoint(self):
        assert union_size([MemRange.concrete(0, 8), MemRange.concrete(16, 8)]) == 16

    def test_overlapping_merged(self):
        assert union_size([MemRange.concrete(0, 12), MemRange.concrete(8, 8)]) == 16

    def test_adjacent_merged(self):
        assert union_size([MemRange.concrete(0, 8), MemRange.concrete(8, 8)]) == 16

    def test_symbolic_unresolvable(self):
        sym = MemRange(SymOffset.of(0).add_term(1, 8), 8)
        assert union_size([sym]) is None

    def test_empty(self):
        assert union_size([]) == 0
