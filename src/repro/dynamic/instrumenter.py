"""The program instrumenter (step 5 of Figure 8).

Plans the DeepMC runtime hooks at compile time and leaves the module as
the static checker analysed it: :func:`plan_hooks` returns a
:class:`HookPlan` naming, per instruction, the hook the VM runs just
before it (docs/VM.md). Two filters keep the instrumentation
lightweight, as in the paper (§4.4):

* **DSA filter** — only accesses whose DSG node may be persistent are
  hooked; volatile traffic costs nothing at runtime;
* **region filter** — loads are hooked only in functions with annotated
  region boundaries (a read outside any region cannot take part in a
  strand dependence), and the runtime only *tracks* accesses made inside
  annotated strand/epoch regions, so hooks outside regions are a cheap
  early-out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..analysis.dsa import DSAResult
from ..analysis.dsa.graph import F_UNKNOWN
from ..ir import instructions as ins
from ..ir.module import Module
from ..ir.values import Constant, Value, const_int


@dataclass(frozen=True)
class Hook:
    """One runtime hook: ``kind`` is "write", "read" or "fence"; an
    access hook passes the runtime its pointer and byte-size operands."""

    kind: str
    ptr: Optional[Value] = None
    size: Optional[Value] = None


@dataclass(eq=False)
class HookPlan:
    """Instruction → the hook that runs just before it. Compares and
    hashes by identity: the VM caches one compiled program per plan."""

    hooks: Dict[ins.Instruction, Hook]


def _may_be_persistent(graph, ptr) -> bool:
    if isinstance(ptr, Constant) or not graph.has_cell(ptr):
        return False
    node = graph.cell_of(ptr).node.find()
    return node.persistent or F_UNKNOWN in node.flags


def plan_hooks(module: Module, dsa: DSAResult) -> HookPlan:
    """The hooks of every defined function of ``module``, chosen by
    ``dsa`` (a :func:`~repro.analysis.dsa.run_dsa` result of it)."""
    hooks: Dict[ins.Instruction, Hook] = {}
    for fn in module.defined_functions():
        graph = dsa.graph(fn.name)
        reads_here = any(
            isinstance(i, (ins.TxBegin, ins.TxEnd)) for i in fn.instructions()
        )
        for inst in fn.instructions():
            hook = _hook_for(graph, inst, reads_here)
            if hook is not None:
                hooks[inst] = hook
    return HookPlan(hooks)


def _hook_for(graph, inst: ins.Instruction,
              reads_here: bool) -> Optional[Hook]:
    if isinstance(inst, ins.Store) and _may_be_persistent(graph, inst.ptr):
        return Hook("write", inst.ptr, const_int(inst.value.type.size()))
    if (isinstance(inst, (ins.Memset, ins.Memcpy))
            and _may_be_persistent(graph, inst.dst)):
        return Hook("write", inst.dst, inst.size)
    if (isinstance(inst, ins.Load) and reads_here
            and _may_be_persistent(graph, inst.ptr)):
        return Hook("read", inst.ptr, const_int(inst.type.size()))
    if isinstance(inst, ins.Fence):
        return Hook("fence")
    return None
