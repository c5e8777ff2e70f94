"""Shadow segments over persistent memory.

The paper customizes ThreadSanitizer with *shadow segments*: per persistent
allocation, a shadow region records the access history (which strand, which
thread, at what logical time) per address. We shadow at 8-byte word
granularity — the smallest scalar our IR stores — and keep only the last
write per word plus the metadata needed for the happens-before test, which
is exactly what WAW/RAW detection between strands requires (§4.4).
"""

from __future__ import annotations

from typing import Dict

from ..ir.sourceloc import SourceLoc

WORD = 8


class WriteRecord:
    """Last write to one shadow word.

    Mutable on purpose: a write in the same epoch as the word's last one
    (same thread, clock, strand and fence epoch) only moves ``loc``, so
    the runtime rewrites it in place instead of allocating a new record.
    Every word has its own record.
    """

    __slots__ = ("thread_id", "clock", "strand_id", "in_strand",
                 "fence_epoch", "loc")

    def __init__(self, thread_id: int, clock: int, strand_id: int,
                 in_strand: bool, fence_epoch: int, loc: SourceLoc):
        self.thread_id = thread_id
        #: writer thread's scalar clock at the write
        self.clock = clock
        #: region instance (negative = implicit per-thread)
        self.strand_id = strand_id
        #: was the writer inside an explicit strand region?
        self.in_strand = in_strand
        #: writer thread's fence count at the write
        self.fence_epoch = fence_epoch
        self.loc = loc


class ShadowSegment:
    """Shadow words of one persistent allocation."""

    __slots__ = ("alloc_id", "words")

    def __init__(self, alloc_id: int):
        self.alloc_id = alloc_id
        #: word index -> last write to that word
        self.words: Dict[int, WriteRecord] = {}

    @staticmethod
    def words_for(offset: int, size: int) -> range:
        """Indices of the words ``size`` bytes at ``offset`` touch."""
        if size <= 0:
            return range(0)
        return range(offset // WORD, (offset + size - 1) // WORD + 1)

    def __len__(self) -> int:
        return len(self.words)


class ShadowSpace:
    """All shadow segments, keyed by allocation id.

    Only persistent allocations get a segment — the scalability argument
    of §5.2: cost tracks the amount of persistent memory, not total memory.
    """

    def __init__(self) -> None:
        self._segments: Dict[int, ShadowSegment] = {}

    def segment(self, alloc_id: int) -> ShadowSegment:
        seg = self._segments.get(alloc_id)
        if seg is None:
            seg = ShadowSegment(alloc_id)
            self._segments[alloc_id] = seg
        return seg

    def release(self, alloc_id: int) -> None:
        self._segments.pop(alloc_id, None)

    def total_words(self) -> int:
        return sum(len(s) for s in self._segments.values())

    def segment_count(self) -> int:
        return len(self._segments)
