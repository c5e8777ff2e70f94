"""Data Structure Graph (DSG): nodes, cells, and unification.

A simplified but faithful reconstruction of Lattner's DSA as the paper
uses it (§4.2): each node abstracts one set of runtime objects (merged by
unification), is *field-sensitive* (points-to edges live at byte offsets),
and carries flags — most importantly whether the objects were **allocated
from persistent memory**. Nodes that turn out to be purely volatile are
ignored by the checker, which is how DeepMC keeps traces small.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ...errors import AnalysisError
from ...ir import types as ty
from ..ranges import MemRange, SymOffset

# Node flags.
F_HEAP = "heap"          # malloc'd (volatile)
F_PHEAP = "pheap"        # palloc'd (persistent) — the flag that matters
F_STACK = "stack"        # alloca
F_ARG = "arg"            # reaches a formal argument
F_RET = "ret"            # reaches a return value
F_UNKNOWN = "unknown"    # external/opaque origin (e.g. int-to-pointer cast)
F_COLLAPSED = "collapsed"  # field structure no longer trusted

class DSNode:
    """One points-to equivalence class."""

    def __init__(self, node_id: int, flags: Iterable[str] = (),
                 elem_type: Optional[ty.Type] = None):
        #: unique among the nodes of one DSA run (see DSGraph.node_ids)
        self.node_id = node_id
        self.flags: Set[str] = set(flags)
        self.elem_type = elem_type
        #: constant-offset points-to edges: offset -> Cell
        self.edges: Dict[int, "Cell"] = {}
        #: where this object was allocated: (function, "file:line")
        self.alloc_sites: Set[Tuple[str, str]] = set()
        #: union-find forwarding
        self._forward: Optional["DSNode"] = None

    # -- union-find -------------------------------------------------------
    def find(self) -> "DSNode":
        node = self
        while node._forward is not None:
            node = node._forward
        # path compression
        cur = self
        while cur._forward is not None and cur._forward is not node:
            nxt = cur._forward
            cur._forward = node
            cur = nxt
        return node

    # -- properties ----------------------------------------------------------
    @property
    def persistent(self) -> bool:
        return F_PHEAP in self.find().flags

    def object_size(self) -> Optional[int]:
        """Static size of one object this node abstracts, if known."""
        node = self.find()
        if node.elem_type is not None:
            return node.elem_type.size()
        return None

    def describe(self) -> str:
        node = self.find()
        t = str(node.elem_type) if node.elem_type else "?"
        sites = ", ".join(sorted(f"{f}@{l}" for f, l in node.alloc_sites)) or "-"
        return f"N{node.node_id}<{t}>{sorted(node.flags)} sites={sites}"

    def __repr__(self) -> str:
        return f"<DSNode {self.describe()}>"


@dataclass(frozen=True)
class Cell:
    """A (node, symbolic byte offset) pair — the abstract address of a
    pointer value."""

    node: DSNode
    offset: SymOffset = SymOffset.of(0)

    def resolved(self) -> "Cell":
        n = self.node.find()
        return self if n is self.node else Cell(n, self.offset)

    def moved_const(self, delta: int) -> "Cell":
        return Cell(self.node, self.offset.add_const(delta))

    def moved_term(self, term_id: int, scale: int) -> "Cell":
        return Cell(self.node, self.offset.add_term(term_id, scale))

    def range(self, size: Optional[int]) -> MemRange:
        return MemRange(self.offset, size)

    def __str__(self) -> str:
        return f"(N{self.node.find().node_id}, {self.offset})"


class DSGraph:
    """Per-function data structure graph."""

    def __init__(self, fn_name: str,
                 node_ids: Optional[Iterator[int]] = None):
        self.fn_name = fn_name
        #: numbers this graph's new nodes. One DSA run shares one counter
        #: among all its graphs, so ids are unique within the run and do
        #: not depend on what the process analysed before.
        self.node_ids = node_ids if node_ids is not None else itertools.count(1)
        #: id(ir Value) -> Cell for every pointer-valued IR value
        self.value_cells: Dict[int, Cell] = {}
        #: all nodes ever created in/cloned into this graph
        self.nodes: List[DSNode] = []
        #: formal argument cells by index (pointer args only; None otherwise)
        self.arg_cells: List[Optional[Cell]] = []
        #: return-value cell if the function returns a pointer
        self.ret_cell: Optional[Cell] = None
        #: per-call-site clone maps: id(call inst) -> {callee node_id -> Cell}
        #: (filled by the bottom-up phase; used for trace translation)
        self.call_clone_maps: Dict[int, Dict[int, DSNode]] = {}
        #: call sites in this function whose callee could not be resolved
        self.opaque_calls: Set[int] = set()

    # -- node/cell management ----------------------------------------------
    def new_node(self, flags: Iterable[str] = (),
                 elem_type: Optional[ty.Type] = None) -> DSNode:
        node = DSNode(next(self.node_ids), flags, elem_type)
        self.nodes.append(node)
        return node

    def cell_of(self, value) -> Cell:
        try:
            return self.value_cells[id(value)].resolved()
        except KeyError:
            raise AnalysisError(
                f"no DSG cell for value %{getattr(value, 'name', '?')} "
                f"in @{self.fn_name}"
            ) from None

    def has_cell(self, value) -> bool:
        return id(value) in self.value_cells

    def set_cell(self, value, cell: Cell) -> None:
        self.value_cells[id(value)] = cell

    # -- unification -----------------------------------------------------------
    def unify(self, a: DSNode, b: DSNode) -> DSNode:
        """Merge two nodes (classic DSA unification)."""
        a = a.find()
        b = b.find()
        if a is b:
            return a
        # Keep the node with richer type info as representative.
        if a.elem_type is None and b.elem_type is not None:
            a, b = b, a
        b._forward = a
        a.flags |= b.flags
        a.alloc_sites |= b.alloc_sites
        if a.elem_type is None:
            a.elem_type = b.elem_type
        elif b.elem_type is not None and a.elem_type != b.elem_type:
            # Conflicting layouts: field structure is unreliable.
            a.flags.add(F_COLLAPSED)
        # Merge edges; recursive unification of overlapping edges.
        for off, cell in list(b.edges.items()):
            self.link(a, off, cell)
        b.edges.clear()
        return a

    def link(self, node: DSNode, offset: int, target: Cell) -> None:
        """Ensure ``node.edges[offset]`` points at (unifies with) target."""
        node = node.find()
        target = target.resolved()
        existing = node.edges.get(offset)
        if existing is None:
            node.edges[offset] = target
            return
        existing = existing.resolved()
        merged = self.unify(existing.node, target.node)
        # If the two cells disagree on offset, conservatively collapse to
        # the smaller constant part.
        off = existing.offset
        if not existing.offset.comparable(target.offset):
            off = SymOffset.of(min(existing.offset.const, target.offset.const))
            merged.flags.add(F_COLLAPSED)
        node.edges[offset] = Cell(merged, off)

    def edge_target(self, cell: Cell, create_flags: Iterable[str] = (F_UNKNOWN,)
                    ) -> Cell:
        """The cell a pointer stored at ``cell`` points to (created lazily)."""
        node = cell.node.find()
        key = cell.offset.const  # symbolic part dropped for edge keys
        existing = node.edges.get(key)
        if existing is not None:
            return existing.resolved()
        fresh = self.new_node(create_flags)
        target = Cell(fresh, SymOffset.of(0))
        node.edges[key] = target
        return target

    # -- queries used by the checker -----------------------------------------
    def persistent_nodes(self) -> List[DSNode]:
        seen: Set[int] = set()
        out: List[DSNode] = []
        for node in self.nodes:
            rep = node.find()
            if rep.node_id in seen:
                continue
            seen.add(rep.node_id)
            if rep.persistent:
                out.append(rep)
        return out

    def all_representatives(self) -> List[DSNode]:
        seen: Set[int] = set()
        out: List[DSNode] = []
        for node in self.nodes:
            rep = node.find()
            if rep.node_id not in seen:
                seen.add(rep.node_id)
                out.append(rep)
        return out

    def describe(self) -> str:
        lines = [f"DSG @{self.fn_name}:"]
        for node in self.all_representatives():
            lines.append(f"  {node.describe()}")
            for off, cell in sorted(node.edges.items()):
                lines.append(f"    +{off} -> {cell}")
        return "\n".join(lines)
