"""The NVM device: the durable image of persistent allocations.

The device stores, per persistent allocation, the bytes that would survive
a power failure. Lines reach the device via fence drains and cache
evictions; a crash exposes exactly the device contents (plus whichever
pending flushes the crash tester chooses to consider completed).
"""

from __future__ import annotations

from typing import Dict

from ..errors import MemoryFault
from .cacheline import CACHELINE, LineId, line_span


class NVMDevice:
    """Byte-accurate durable image, keyed by allocation id."""

    def __init__(self) -> None:
        self._image: Dict[int, bytearray] = {}

    def register(self, alloc_id: int, size: int) -> None:
        """Create the durable backing for a fresh persistent allocation.

        Freshly allocated NVM is zero-filled, matching what a pmem
        allocator guarantees before handing memory out.
        """
        if alloc_id in self._image:
            raise MemoryFault(f"allocation {alloc_id} already registered on device")
        self._image[alloc_id] = bytearray(size)

    def release(self, alloc_id: int) -> None:
        self._image.pop(alloc_id, None)

    def write_back_line(self, line: LineId, content: bytes) -> int:
        """Persist one cacheline; returns bytes actually written."""
        alloc_id, index = line
        try:
            image = self._image[alloc_id]
        except KeyError:
            raise MemoryFault(
                f"write-back to unregistered allocation {alloc_id}"
            ) from None
        start, end = line_span(index)
        end = min(end, len(image))
        if start >= len(image):
            raise MemoryFault(
                f"write-back beyond allocation {alloc_id}: line {index}"
            )
        chunk = content[: end - start]
        image[start : start + len(chunk)] = chunk
        return len(chunk)

    def read(self, alloc_id: int, offset: int, size: int) -> bytes:
        """Read from the durable image (used by crash-state inspection)."""
        try:
            image = self._image[alloc_id]
        except KeyError:
            raise MemoryFault(f"read of unregistered allocation {alloc_id}") from None
        if offset < 0 or offset + size > len(image):
            raise MemoryFault(
                f"durable read out of range: alloc {alloc_id} "
                f"[{offset}, {offset + size}) of {len(image)}"
            )
        return bytes(image[offset : offset + size])

    def durable_snapshot(self) -> Dict[int, bytes]:
        """Copy of the whole durable image (for crash-state diffing)."""
        return {aid: bytes(img) for aid, img in self._image.items()}
