"""The program instrumenter (step 5 of Figure 8).

Inserts ``__deepmc_*`` runtime calls into the IR at compile time. Two
filters keep the instrumentation lightweight, as in the paper (§4.4):

* **DSA filter** — only accesses whose DSG node may be persistent are
  instrumented; volatile traffic costs nothing at runtime;
* **region filter** — loads are hooked only in functions with annotated
  region boundaries (a read outside any region cannot take part in a
  strand dependence), and the runtime only *tracks* accesses made inside
  annotated strand/epoch regions, so hooks outside regions are a cheap
  early-out.

The pass mutates the module in place; callers wanting an uninstrumented
baseline should build a second module instance.
"""

from __future__ import annotations

from typing import List, Optional

from ..analysis.dsa import run_dsa
from ..analysis.dsa.graph import F_UNKNOWN
from ..ir import instructions as ins
from ..ir import types as ty
from ..ir.module import Module
from ..ir.values import Constant, const_int

HOOK_WRITE = "__deepmc_write"
HOOK_READ = "__deepmc_read"
HOOK_FENCE = "__deepmc_fence"


class Instrumenter:
    """Inserts runtime hooks before persistent accesses."""

    def __init__(self, module: Module):
        self.module = module
        self.dsa = run_dsa(module)
        self.inserted = 0

    # -- persistence filter ---------------------------------------------------
    def _may_be_persistent(self, graph, ptr) -> bool:
        if isinstance(ptr, Constant):
            return False
        if not graph.has_cell(ptr):
            return False
        node = graph.cell_of(ptr).node.find()
        return node.persistent or F_UNKNOWN in node.flags

    # -- the pass ----------------------------------------------------------------
    def run(self) -> int:
        """Instrument every defined function; returns hooks inserted."""
        for fn in self.module.defined_functions():
            graph = self.dsa.graph(fn.name)
            reads_here = any(
                isinstance(i, (ins.TxBegin, ins.TxEnd)) for i in fn.instructions()
            )
            for block in fn.blocks:
                out: List[ins.Instruction] = []
                for inst in block.instructions:
                    hook = self._hook_for(graph, inst, reads_here)
                    if hook is not None:
                        hook.parent = block
                        out.append(hook)
                        self.inserted += 1
                    out.append(inst)
                block.instructions = out
        return self.inserted

    def _hook_for(self, graph, inst: ins.Instruction,
                  reads_here: bool) -> Optional[ins.Call]:
        if isinstance(inst, ins.Store):
            if self._may_be_persistent(graph, inst.ptr):
                return ins.Call(
                    ty.VOID, HOOK_WRITE,
                    [inst.ptr, const_int(inst.value.type.size())],
                    loc=inst.loc,
                )
            return None
        if isinstance(inst, (ins.Memset, ins.Memcpy)):
            if self._may_be_persistent(graph, inst.dst):
                return ins.Call(
                    ty.VOID, HOOK_WRITE, [inst.dst, inst.size], loc=inst.loc
                )
            return None
        if isinstance(inst, ins.Load) and reads_here:
            if self._may_be_persistent(graph, inst.ptr):
                return ins.Call(
                    ty.VOID, HOOK_READ,
                    [inst.ptr, const_int(inst.type.size())],
                    loc=inst.loc,
                )
            return None
        if isinstance(inst, ins.Fence):
            return ins.Call(ty.VOID, HOOK_FENCE, [], loc=inst.loc)
        return None
