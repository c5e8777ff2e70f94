"""Functions: named, typed, made of basic blocks."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import IRError
from . import types as ty
from .basicblock import BasicBlock
from .instructions import Instruction
from .values import Argument


class Function:
    """A function definition (with blocks) or declaration (without).

    ``source_file`` records which original C file the function models —
    warning reports group by it, matching the paper's per-file bug tables.
    """

    def __init__(
        self,
        name: str,
        ret_type: ty.Type,
        params: Sequence[Tuple[str, ty.Type]] = (),
        source_file: str = "",
    ):
        self.name = name
        self.ret_type = ret_type
        self.args: List[Argument] = [
            Argument(t, n, i) for i, (n, t) in enumerate(params)
        ]
        self.blocks: List[BasicBlock] = []
        self._blocks_by_label: Dict[str, BasicBlock] = {}
        self.source_file = source_file
        self.parent = None  # set by Module.add_function

    # -- structure -------------------------------------------------------
    @property
    def type(self) -> ty.FunctionType:
        return ty.FunctionType(self.ret_type, [a.type for a in self.args])

    def is_declaration(self) -> bool:
        return not self.blocks

    def add_block(self, label: str) -> BasicBlock:
        if label in self._blocks_by_label:
            raise IRError(f"duplicate block label %{label} in @{self.name}")
        block = BasicBlock(label)
        block.parent = self
        self.blocks.append(block)
        self._blocks_by_label[label] = block
        return block

    def block(self, label: str) -> BasicBlock:
        try:
            return self._blocks_by_label[label]
        except KeyError:
            raise IRError(f"no block %{label} in @{self.name}") from None

    def has_block(self, label: str) -> bool:
        return label in self._blocks_by_label

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise IRError(f"@{self.name} is a declaration; it has no entry block")
        return self.blocks[0]

    def arg(self, name: str) -> Argument:
        for a in self.args:
            if a.name == name:
                return a
        raise IRError(f"@{self.name} has no argument %{name}")

    # -- iteration helpers -------------------------------------------------
    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            yield from block.instructions

    def __repr__(self) -> str:
        kind = "declare" if self.is_declaration() else "define"
        return f"<Function {kind} @{self.name}>"
