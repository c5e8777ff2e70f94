"""Mini-Mnemosyne: the academic lightweight persistent memory framework.

Mnemosyne follows **epoch persistency**; its durable transactions are
compiler-expanded atomic blocks backed by a word-granular redo log. The
modelled API:

* ``MNEMOSYNE_ATOMIC`` begin/end — a durable transaction forming an epoch;
* ``tm_store`` — transactional store: logs the word, then writes it;
* ``mtm_flush(p, n)`` — raw cacheline write-back;
* ``mtm_pcommit`` — persist barrier.
"""

from __future__ import annotations

from typing import Optional

from ..ir.builder import IRBuilder, IntOrValue
from ..ir.instructions import REGION_EPOCH, REGION_TX
from ..ir.module import Module
from ..ir.values import Value
from .base import FrameworkLib, obj_size


class Mnemosyne(FrameworkLib):
    """Install mini-Mnemosyne into a module and emit calls to it."""

    name = "mnemosyne"
    model = "epoch"

    def __init__(self, module: Module):
        super().__init__(module, prefix="mtm_")

    def _install_common(self) -> None:
        self.fn_flush = self._define_flush_fn("flush", with_fence=False)
        self.fn_pcommit = self._define_fence_fn("pcommit")
        self.fn_memcpy = self._define_memcpy_persist_fn("memcpy_persist")

    # -- atomic blocks ------------------------------------------------------
    def atomic_begin(self, b: IRBuilder, line=None):
        """MNEMOSYNE_ATOMIC { — a durable transaction / epoch."""
        b.txbegin(REGION_TX, line=line)
        return b.txbegin(REGION_EPOCH, line=line)

    def atomic_end(self, b: IRBuilder, line=None):
        """} — commit: barrier, close epoch, commit the log."""
        b.fence(line=line)
        b.txend(REGION_EPOCH, line=line)
        return b.txend(REGION_TX, line=line)

    # -- transactional stores -------------------------------------------------
    def tm_store(self, b: IRBuilder, ptr: Value, value: IntOrValue, line=None):
        """Log the target word, then store through it."""
        if ptr.type.pointee is None:
            raise ValueError("tm_store requires a typed pointer")
        b.txadd(ptr, ptr.type.pointee.size(), line=line)
        return b.store(value, ptr, line=line)

    def flush(self, b: IRBuilder, ptr: Value,
              size: Optional[IntOrValue] = None, line=None):
        return b.call(self.fn_flush, [ptr, self._size_value(b, ptr, size)],
                      line=line)

    def memcpy_persist(self, b: IRBuilder, dst: Value, src: Value,
                       size: IntOrValue, line=None):
        return b.call(self.fn_memcpy, [dst, src, b._value(size)], line=line)

    def pcommit(self, b: IRBuilder, line=None):
        return b.call(self.fn_pcommit, [], line=line)
