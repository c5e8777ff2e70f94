"""Crash injection and durable-state inspection.

This is how the reproduction *validates* that a model-violation bug is
real: run the program, crash it at the line the checker flagged, then look
at what actually survived on the simulated NVM device. A bug like the
hashmap example in Figure 1 shows up as buckets durable but ``nbuckets``
still zero in the crash image.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, List, Optional, Sequence

from ..errors import VMError
from ..ir import types as ty
from ..ir.module import Module
from .engine import make_interpreter
from .interpreter import CrashPoint, ExecResult, Interpreter
from .memory import Pointer


@dataclass
class PersistentObject:
    """One persistent allocation as seen in a crash image."""

    alloc_id: int
    label: str
    elem_type: Optional[ty.Type]
    durable: bytes

    def read_int(self, offset: int, size: int = 8, signed: bool = True) -> int:
        raw = self.durable[offset : offset + size]
        if len(raw) != size:
            raise VMError(
                f"durable read out of range: alloc {self.alloc_id} offset {offset}"
            )
        return int.from_bytes(raw, "little", signed=signed)

    def read_field(self, field: str) -> int:
        """Read a named struct field from the durable image."""
        if not isinstance(self.elem_type, ty.StructType):
            raise VMError(
                f"allocation {self.alloc_id} ({self.label}) is not a struct"
            )
        idx = self.elem_type.field_index(field)
        ftype = self.elem_type.field_type(idx)
        off = self.elem_type.field_offset(idx)
        if isinstance(ftype, ty.PointerType):
            return self.read_int(off, 8, signed=False)
        if isinstance(ftype, ty.IntType):
            return self.read_int(off, ftype.size(), signed=ftype.bits > 1)
        raise VMError(f"field {field} has unsupported type {ftype}")


class CrashState:
    """Durable image at a crash, plus enough metadata to interpret it.

    The image is never mutated. The object table is built on first use;
    the run that produced the allocations has finished by then, so the
    table cannot go stale.
    """

    def __init__(self, interpreter: Interpreter,
                 image: Optional[Dict[int, bytes]] = None):
        self._interp = interpreter
        self._image = image if image is not None else interpreter.domain.durable_snapshot()

    @cached_property
    def _table(self) -> List[PersistentObject]:
        return [
            PersistentObject(aid, alloc.label, alloc.elem_type,
                             self._image.get(aid, b""))
            for aid, alloc in sorted(
                self._interp.memory.persistent_allocations().items())
        ]

    def objects(self) -> List[PersistentObject]:
        return list(self._table)

    def object(self, alloc_id: int) -> PersistentObject:
        for obj in self._table:
            if obj.alloc_id == alloc_id:
                return obj
        raise VMError(f"no persistent allocation {alloc_id} in crash image")

    def objects_of_type(self, type_name: str) -> List[PersistentObject]:
        """All persistent objects whose element type matches ``type_name``
        (a struct name like ``"nvm_lkrec"`` or a rendered type like
        ``"[64 x i8]"``)."""
        out = []
        for o in self._table:
            if o.elem_type is None:
                continue
            name = getattr(o.elem_type, "name", None)
            if name == type_name or str(o.elem_type) == type_name:
                out.append(o)
        return out

    def object_by_label(self, label_substring: str) -> PersistentObject:
        matches = [o for o in self._table if label_substring in o.label]
        if not matches:
            raise VMError(f"no persistent allocation labelled *{label_substring}*")
        if len(matches) > 1:
            raise VMError(
                f"ambiguous label {label_substring!r}: "
                f"{[o.label for o in matches]}"
            )
        return matches[0]

    def recovered(self) -> "CrashState":
        """Apply undo-log recovery for transactions open at the crash.

        Mirrors PMDK recovery: every range logged with ``txadd`` in a
        still-open durable transaction is rolled back to its logged
        (pre-modification) snapshot.
        """
        image = {aid: bytearray(img) for aid, img in self._image.items()}
        for thread in self._interp.threads.values():
            for record in thread.tx_stack:
                for ptr, size, snapshot in record.logged:
                    if ptr.alloc_id in image:
                        image[ptr.alloc_id][ptr.offset : ptr.offset + size] = snapshot
        return CrashState(self._interp, {a: bytes(b) for a, b in image.items()})


@dataclass
class CrashRun:
    """Everything produced by one crash-injected execution."""

    result: ExecResult
    state: CrashState

    @property
    def crashed(self) -> bool:
        return self.result.crashed


def run_with_crash(
    module: Module,
    crash: CrashPoint,
    entry: str = "main",
    args: Sequence[Any] = (),
    **interp_kwargs: Any,
) -> CrashRun:
    """Execute ``entry`` until ``crash`` triggers; return the crash state.

    If the crash point is never reached the program runs to completion and
    ``run.crashed`` is False — callers should assert on it.
    """
    interp = make_interpreter(module, crash_point=crash, **interp_kwargs)
    result = interp.run(entry, args)
    return CrashRun(result=result, state=CrashState(interp))

