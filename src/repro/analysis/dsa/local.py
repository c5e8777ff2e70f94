"""DSA phase 1: local analysis.

Builds one DSG per function from its IR alone (§4.2 "Local Analysis"):
nodes are created at malloc-like sites (``palloc`` marks them persistent),
field addressing moves cells by constant offsets, array indexing by
symbolic terms, and pointer stores/loads create points-to edges. Calls are
recorded for the bottom-up phase.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from ...ir import instructions as ins
from ...ir import types as ty
from ...ir.annotations import EFFECT_ALLOC
from ...ir.function import Function
from ...ir.module import Module
from ...ir.values import Constant, Value
from ..ranges import SymOffset
from .graph import (
    Cell,
    DSGraph,
    F_ARG,
    F_HEAP,
    F_PHEAP,
    F_RET,
    F_STACK,
    F_UNKNOWN,
)


@dataclass
class CallSiteInfo:
    """One call/spawn to a module-defined function, pending bottom-up."""

    inst: ins.Instruction  # Call or Spawn
    callee: str
    arg_cells: List[Optional[Cell]]
    #: the call instruction itself when it produces a pointer result
    result_value: Optional[Value]


class LocalBuilder:
    """Builds the local DSG of one function."""

    def __init__(self, module: Module, fn: Function,
                 node_ids: Optional[Iterator[int]] = None):
        self.module = module
        self.fn = fn
        self.graph = DSGraph(fn.name, node_ids)
        self.calls: List[CallSiteInfo] = []

    def build(self) -> DSGraph:
        g = self.graph
        for arg in self.fn.args:
            if isinstance(arg.type, ty.PointerType):
                node = g.new_node([F_ARG], arg.type.pointee)
                cell = Cell(node)
                g.set_cell(arg, cell)
                g.arg_cells.append(cell)
            else:
                g.arg_cells.append(None)
        if self.fn.is_declaration():
            return g
        for block in self.fn.blocks:
            for inst in block.instructions:
                self._visit(inst)
        return g

    # -- helpers -----------------------------------------------------------
    def _loc_key(self, inst: ins.Instruction) -> str:
        return f"{inst.loc.file}:{inst.loc.line}"

    def _operand_cell(self, value: Value) -> Cell:
        """Cell of a pointer operand; constants/opaque get fresh nodes."""
        if self.graph.has_cell(value):
            return self.graph.cell_of(value)
        node = self.graph.new_node([F_UNKNOWN])
        cell = Cell(node)
        if not isinstance(value, Constant):
            self.graph.set_cell(value, cell)
        return cell

    def _is_ptr(self, value: Optional[Value]) -> bool:
        return value is not None and isinstance(value.type, ty.PointerType)

    # -- the per-instruction transfer function -----------------------------------
    def _visit(self, inst: ins.Instruction) -> None:
        g = self.graph

        if isinstance(inst, ins.Alloca):
            node = g.new_node([F_STACK], inst.alloc_type)
            node.alloc_sites.add((self.fn.name, self._loc_key(inst)))
            g.set_cell(inst, Cell(node))
            return

        if isinstance(inst, ins.Malloc):
            node = g.new_node([F_HEAP], inst.alloc_type)
            node.alloc_sites.add((self.fn.name, self._loc_key(inst)))
            g.set_cell(inst, Cell(node))
            return

        if isinstance(inst, ins.PAlloc):
            node = g.new_node([F_HEAP, F_PHEAP], inst.alloc_type)
            node.alloc_sites.add((self.fn.name, self._loc_key(inst)))
            g.set_cell(inst, Cell(node))
            return

        if isinstance(inst, ins.GetField):
            base = self._operand_cell(inst.ptr)
            offset = inst.struct.field_offset(inst.index)
            g.set_cell(inst, base.moved_const(offset))
            return

        if isinstance(inst, ins.GetElem):
            base = self._operand_cell(inst.ptr)
            elem = inst.type.pointee
            assert elem is not None
            index = inst.index
            if isinstance(index, Constant) and isinstance(index.value, int):
                g.set_cell(inst, base.moved_const(index.value * elem.size()))
            else:
                g.set_cell(inst, base.moved_term(id(index), elem.size()))
            return

        if isinstance(inst, ins.Load):
            if self._is_ptr(inst):
                ptr_cell = self._operand_cell(inst.ptr)
                g.set_cell(inst, g.edge_target(ptr_cell))
            return

        if isinstance(inst, ins.Store):
            if self._is_ptr(inst.value):
                ptr_cell = self._operand_cell(inst.ptr)
                val_cell = self._operand_cell(inst.value)
                g.link(ptr_cell.node, ptr_cell.offset.const, val_cell)
            return

        if isinstance(inst, ins.Cast):
            if self._is_ptr(inst):
                if self._is_ptr(inst.value):
                    # pointer-to-pointer cast: tracking preserved
                    g.set_cell(inst, self._operand_cell(inst.value))
                else:
                    # int-to-pointer: provenance laundered — the analysis
                    # blind spot behind some of the paper's false positives
                    node = g.new_node([F_UNKNOWN])
                    g.set_cell(inst, Cell(node))
            return

        if isinstance(inst, (ins.Call, ins.Spawn)):
            self._visit_call(inst)
            return

        if isinstance(inst, ins.Ret):
            if inst.value is not None and self._is_ptr(inst.value):
                val_cell = self._operand_cell(inst.value)
                if g.ret_cell is None:
                    node = g.new_node([F_RET])
                    g.ret_cell = Cell(node)
                g.unify(g.ret_cell.node, val_cell.node)
                g.ret_cell = g.ret_cell.resolved()
            return

        # flush/fence/txadd/memcpy/... create no pointer values; their
        # pointer operands are resolved on demand by the trace collector.

    def _visit_call(self, inst) -> None:
        g = self.graph
        callee = inst.callee
        target = self.module.get_function(callee)
        annotation = self.module.annotations.lookup(callee)

        arg_cells: List[Optional[Cell]] = []
        for a in inst.args if isinstance(inst, ins.Call) else inst.operands:
            arg_cells.append(self._operand_cell(a) if self._is_ptr(a) else None)

        produces_ptr = isinstance(inst.type, ty.PointerType)

        if target is not None and not target.is_declaration():
            if produces_ptr:
                node = g.new_node([F_UNKNOWN])
                g.set_cell(inst, Cell(node))
            self.calls.append(
                CallSiteInfo(inst, callee, arg_cells,
                             inst if produces_ptr else None)
            )
            return

        if annotation is not None and annotation.has_effect(EFFECT_ALLOC):
            pointee = inst.type.pointee if produces_ptr else None
            node = g.new_node([F_HEAP, F_PHEAP], pointee)
            node.alloc_sites.add((self.fn.name, self._loc_key(inst)))
            if produces_ptr:
                g.set_cell(inst, Cell(node))
            return

        if produces_ptr:
            # Builtin / annotated non-alloc function returning a pointer.
            node = g.new_node([F_UNKNOWN])
            g.set_cell(inst, Cell(node))
        if target is None and annotation is None:
            g.opaque_calls.add(id(inst))


def build_local_graphs(module: Module):
    """Run local analysis for every defined function.

    Returns ``(graphs, calls)``: per-function DSGs and pending call sites.
    """
    graphs: Dict[str, DSGraph] = {}
    calls: Dict[str, List[CallSiteInfo]] = {}
    node_ids = itertools.count(1)
    for fn in module.functions():
        builder = LocalBuilder(module, fn, node_ids)
        graphs[fn.name] = builder.build()
        calls[fn.name] = builder.calls
    return graphs, calls
