"""Simulated memory for the IR interpreter.

Memory is a set of allocations (volatile stack/heap and persistent heap),
each a byte array. Pointers are ``(allocation id, byte offset)`` pairs;
when a pointer is stored *into* memory it is encoded into 8 bytes
(``alloc_id`` in the high 24 bits, offset in the low 40), so persistent
data structures can hold pointers and survive crash-state inspection.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import MemoryFault
from ..ir import types as ty

_OFFSET_BITS = 40
_OFFSET_MASK = (1 << _OFFSET_BITS) - 1
_MAX_ALLOC_ID = (1 << 24) - 1


class Pointer:
    """A typed-width-agnostic address: allocation + byte offset.

    A value type: equal pointers hash alike (as the ``(alloc_id, offset)``
    tuple does) and a pointer is never changed after construction;
    :meth:`moved` builds a new one. Nothing assigns ``alloc_id`` or
    ``offset``, so pointers can be shared between registers, memory
    snapshots and dict keys. The contract is not enforced: with a
    guarding ``__setattr__``, ``__init__`` would have to go through
    ``object.__setattr__``, and construction (one per ``getfield`` or
    ``getelem`` step of the VM) would cost about what the frozen
    dataclass this class replaces did.
    """

    __slots__ = ("alloc_id", "offset")

    def __init__(self, alloc_id: int, offset: int) -> None:
        self.alloc_id = alloc_id
        self.offset = offset

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Pointer:
            return (self.alloc_id == other.alloc_id
                    and self.offset == other.offset)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.alloc_id, self.offset))

    def __reduce__(self):
        return Pointer, (self.alloc_id, self.offset)

    def __repr__(self) -> str:
        return f"Pointer(alloc_id={self.alloc_id!r}, offset={self.offset!r})"

    def moved(self, delta: int) -> "Pointer":
        return Pointer(self.alloc_id, self.offset + delta)

    def is_null(self) -> bool:
        return self.alloc_id == 0

    def encode(self) -> int:
        if self.alloc_id > _MAX_ALLOC_ID or self.offset > _OFFSET_MASK:
            raise MemoryFault(f"pointer {self} not encodable in 8 bytes")
        return (self.alloc_id << _OFFSET_BITS) | self.offset

    @staticmethod
    def decode(raw: int) -> "Pointer":
        return Pointer(raw >> _OFFSET_BITS, raw & _OFFSET_MASK)

    def __str__(self) -> str:
        return f"&{self.alloc_id}+{self.offset}"


NULL = Pointer(0, 0)


@dataclass
class Allocation:
    """One live (or freed) region of simulated memory."""

    alloc_id: int
    size: int
    persistent: bool
    data: bytearray
    freed: bool = False
    #: Static element type when known (from palloc/malloc/alloca).
    elem_type: Optional[ty.Type] = None
    label: str = ""


class Memory:
    """All allocations of one interpreter instance.

    Allocation ids start at 1 (0 is the null allocation) and are never
    reused, so use-after-free is always detected.

    ``allocs`` (id -> :class:`Allocation`, freed ones included) is public
    for the bytecode engine's load/store fast path, which reads
    ``allocs.get(id)`` and the record's ``data``, ``size``, ``freed`` and
    ``persistent`` in place of the typed read/write methods and
    :meth:`is_persistent`. Only :meth:`alloc` adds entries. An access the
    fast path's range test refuses goes through this class's methods, so
    every :class:`MemoryFault` message is made here.
    """

    def __init__(self) -> None:
        self.allocs: Dict[int, Allocation] = {}
        self._next_id = 1

    # -- allocation ------------------------------------------------------
    def alloc(
        self,
        size: int,
        persistent: bool = False,
        elem_type: Optional[ty.Type] = None,
        label: str = "",
    ) -> Pointer:
        if size < 0:
            raise MemoryFault(f"negative allocation size {size}")
        aid = self._next_id
        self._next_id += 1
        self.allocs[aid] = Allocation(
            aid, size, persistent, bytearray(size), elem_type=elem_type, label=label
        )
        return Pointer(aid, 0)

    def free(self, ptr: Pointer) -> Allocation:
        alloc = self._lookup(ptr.alloc_id)
        if ptr.offset != 0:
            raise MemoryFault(f"free of interior pointer {ptr}")
        if alloc.freed:
            raise MemoryFault(f"double free of allocation {ptr.alloc_id}")
        alloc.freed = True
        return alloc

    def allocation(self, alloc_id: int) -> Allocation:
        return self._lookup(alloc_id)

    def is_persistent(self, alloc_id: int) -> bool:
        alloc = self.allocs.get(alloc_id)
        return bool(alloc and alloc.persistent and not alloc.freed)

    def _lookup(self, alloc_id: int) -> Allocation:
        if alloc_id == 0:
            raise MemoryFault("null pointer dereference")
        try:
            return self.allocs[alloc_id]
        except KeyError:
            raise MemoryFault(f"dangling allocation id {alloc_id}") from None

    def _check_range(self, ptr: Pointer, size: int) -> Allocation:
        # The bytecode engine's load/store fast path repeats these tests
        # inline (vm/bytecode.py); tests/vm/test_engine_differential.py's
        # fault wall holds the two to the same verdicts.
        alloc = self._lookup(ptr.alloc_id)
        if alloc.freed:
            raise MemoryFault(f"use after free: {ptr}")
        if ptr.offset < 0 or ptr.offset + size > alloc.size:
            raise MemoryFault(
                f"out-of-bounds access: {ptr} size {size} "
                f"(allocation is {alloc.size} bytes)"
            )
        return alloc

    # -- raw byte access -----------------------------------------------------
    def read_bytes(self, ptr: Pointer, size: int) -> bytes:
        alloc = self._check_range(ptr, size)
        return bytes(alloc.data[ptr.offset : ptr.offset + size])

    def write_bytes(self, ptr: Pointer, data: bytes) -> None:
        alloc = self._check_range(ptr, len(data))
        alloc.data[ptr.offset : ptr.offset + len(data)] = data

    def read_alloc_bytes(self, alloc_id: int, start: int, end: int) -> bytes:
        """Reader used by the persist domain for line write-backs."""
        alloc = self._lookup(alloc_id)
        return bytes(alloc.data[start:end])

    # -- typed access ----------------------------------------------------------
    def read_int(self, ptr: Pointer, size: int, signed: bool = True) -> int:
        raw = self.read_bytes(ptr, size)
        return int.from_bytes(raw, "little", signed=signed)

    def write_int(self, ptr: Pointer, value: int, size: int) -> None:
        bits = size * 8
        value &= (1 << bits) - 1
        self.write_bytes(ptr, value.to_bytes(size, "little", signed=False))

    def read_f64(self, ptr: Pointer) -> float:
        return struct.unpack("<d", self.read_bytes(ptr, 8))[0]

    def write_f64(self, ptr: Pointer, value: float) -> None:
        self.write_bytes(ptr, struct.pack("<d", value))

    def read_ptr(self, ptr: Pointer) -> Pointer:
        return Pointer.decode(self.read_int(ptr, 8, signed=False))

    def write_ptr(self, ptr: Pointer, value: Pointer) -> None:
        self.write_int(ptr, value.encode(), 8)

    # -- typed value plumbing used by the interpreter --------------------------
    def read_typed(self, ptr: Pointer, type_: ty.Type):
        if isinstance(type_, ty.PointerType):
            return self.read_ptr(ptr)
        if isinstance(type_, ty.FloatType):
            return self.read_f64(ptr)
        if isinstance(type_, ty.IntType):
            return self.read_int(ptr, type_.size(), signed=type_.bits > 1)
        raise MemoryFault(f"cannot load aggregate type {type_} directly")

    def write_typed(self, ptr: Pointer, value, type_: ty.Type) -> None:
        if isinstance(type_, ty.PointerType):
            if value is None:
                value = NULL
            if not isinstance(value, Pointer):
                raise MemoryFault(f"storing non-pointer {value!r} as {type_}")
            self.write_ptr(ptr, value)
            return
        if isinstance(type_, ty.FloatType):
            self.write_f64(ptr, float(value))
            return
        if isinstance(type_, ty.IntType):
            self.write_int(ptr, int(value), type_.size())
            return
        raise MemoryFault(f"cannot store aggregate type {type_} directly")

    # -- stats / debugging -------------------------------------------------------
    def live_allocations(self) -> int:
        return sum(1 for a in self.allocs.values() if not a.freed)

    def persistent_allocations(self) -> Dict[int, Allocation]:
        return {
            aid: a
            for aid, a in self.allocs.items()
            if a.persistent and not a.freed
        }
