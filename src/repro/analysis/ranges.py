"""Symbolic byte offsets and memory ranges.

The static checker reasons about *which bytes of which object* an
operation touches. Offsets are small symbolic expressions:
``const + Σ scale_i * idx_i`` where each ``idx_i`` is an opaque runtime
value (an IR value identity). Two offsets are directly comparable when
they share the same symbolic part — that is the "symbolic analysis for
memory disambiguation" the paper pairs with DSA (§5.4); offsets with
different symbolic parts yield three-valued *unknown* answers, which the
checker treats conservatively per rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Three-valued logic: True / False / None (unknown).
TriBool = Optional[bool]


@dataclass(frozen=True)
class SymOffset:
    """``const + Σ scale*term`` with terms identified by opaque ints."""

    terms: Tuple[Tuple[int, int], ...] = ()  # sorted (term_id, scale), scale != 0
    const: int = 0

    @staticmethod
    def of(const: int) -> "SymOffset":
        return SymOffset((), const)

    def add_const(self, delta: int) -> "SymOffset":
        return SymOffset(self.terms, self.const + delta)

    def add_term(self, term_id: int, scale: int) -> "SymOffset":
        if scale == 0:
            return self
        combined: Dict[int, int] = dict(self.terms)
        combined[term_id] = combined.get(term_id, 0) + scale
        terms = tuple(sorted((t, s) for t, s in combined.items() if s != 0))
        return SymOffset(terms, self.const)

    def is_concrete(self) -> bool:
        return not self.terms

    def comparable(self, other: "SymOffset") -> bool:
        """True when ``self - other`` is a known constant."""
        return self.terms == other.terms

    def delta(self, other: "SymOffset") -> Optional[int]:
        """``self - other`` when comparable, else None."""
        if self.comparable(other):
            return self.const - other.const
        return None

    def __str__(self) -> str:
        parts = [str(self.const)] if (self.const or not self.terms) else []
        for term_id, scale in self.terms:
            parts.append(f"{scale}*v{term_id}")
        return "+".join(parts)


@dataclass(frozen=True)
class MemRange:
    """A byte range ``[offset, offset+size)``; ``size=None`` is unknown."""

    offset: SymOffset
    size: Optional[int]

    @staticmethod
    def concrete(start: int, size: Optional[int]) -> "MemRange":
        return MemRange(SymOffset.of(start), size)

    def overlaps(self, other: "MemRange") -> TriBool:
        """Do the two ranges share at least one byte?"""
        d = other.offset.delta(self.offset)  # other.start - self.start
        if d is None:
            return None  # different symbolic bases: unknown
        # self spans [0, self.size), other spans [d, d+other.size)
        if self.size is not None and d >= self.size:
            return False
        if other.size is not None and d + other.size <= 0:
            return False
        if self.size is None or other.size is None:
            # Same base, at least one unknown extent: overlap is possible
            # but not certain unless starts coincide.
            if d == 0:
                return True
            return None
        return True  # both bounded and neither disjointness test fired

    def covers(self, other: "MemRange") -> TriBool:
        """Is ``other`` entirely inside ``self``?"""
        d = other.offset.delta(self.offset)
        if d is None:
            return None
        if d < 0:
            return False
        if self.size is None:
            return None if other.size is None or d > 0 else (d == 0 or None)
        if other.size is None:
            return None
        return d + other.size <= self.size

    def same_range(self, other: "MemRange") -> TriBool:
        d = other.offset.delta(self.offset)
        if d is None:
            return None
        if d != 0:
            return False
        if self.size is None or other.size is None:
            return None
        return self.size == other.size

    def __str__(self) -> str:
        size = "?" if self.size is None else str(self.size)
        return f"[{self.offset}, +{size})"


def subtract(a: MemRange, b: MemRange) -> Optional[list]:
    """``a - b`` as a list of remnant ranges, or None when not computable.

    Computable requires comparable offsets and concrete sizes. An empty
    list means ``b`` covers ``a`` entirely.
    """
    d = b.offset.delta(a.offset)  # b.start - a.start
    if d is None or a.size is None or b.size is None:
        return None
    cut_start = max(d, 0)
    cut_end = min(d + b.size, a.size)
    if cut_end <= cut_start:
        return [a]  # disjoint
    remnants = []
    if cut_start > 0:
        remnants.append(MemRange(a.offset, cut_start))
    if cut_end < a.size:
        remnants.append(MemRange(a.offset.add_const(cut_end), a.size - cut_end))
    return remnants


def union_size(ranges) -> Optional[int]:
    """Total bytes covered by concrete ranges; None if any is symbolic."""
    intervals = []
    for r in ranges:
        if not r.offset.is_concrete() or r.size is None:
            return None
        intervals.append((r.offset.const, r.offset.const + r.size))
    intervals.sort()
    total = 0
    cur_start: Optional[int] = None
    cur_end = 0
    for start, end in intervals:
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_start is not None:
        total += cur_end - cur_start
    return total
