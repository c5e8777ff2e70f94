"""Modules: the compilation unit the checker operates on.

A module bundles named struct types, function definitions/declarations, the
persist-annotation registry, and the *intended persistency model* — the
paper's single compile-time flag (``-strict``, ``-epoch``, ``-strand``).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import IRError
from . import types as ty
from .annotations import AnnotationRegistry
from .function import Function

#: Valid values for Module.persistency_model (mirrors the compiler flags).
PERSISTENCY_FLAGS = ("strict", "epoch", "strand")


class Module:
    """A translation unit of NVM IR."""

    def __init__(self, name: str, persistency_model: str = "strict"):
        if persistency_model not in PERSISTENCY_FLAGS:
            raise IRError(
                f"unknown persistency model flag {persistency_model!r}; "
                f"expected one of {PERSISTENCY_FLAGS}"
            )
        self.name = name
        self.persistency_model = persistency_model
        self.types = ty.TypeContext()
        self.annotations = AnnotationRegistry()
        self._functions: Dict[str, Function] = {}
        #: compiled bytecode per fusion variant and hook plan, filled by
        #: repro.vm.compile; kept here so it is freed with the module
        self.bytecode: Dict[Any, Any] = {}

    # -- types -------------------------------------------------------------
    def define_struct(
        self, name: str, fields: Sequence[Tuple[str, ty.Type]]
    ) -> ty.StructType:
        return self.types.define_struct(name, fields)

    def struct(self, name: str) -> ty.StructType:
        return self.types.struct(name)

    # -- functions -----------------------------------------------------------
    def add_function(self, function: Function) -> Function:
        if function.name in self._functions:
            raise IRError(f"function @{function.name} already defined")
        function.parent = self
        self._functions[function.name] = function
        return function

    def define_function(
        self,
        name: str,
        ret_type: ty.Type,
        params: Sequence[Tuple[str, ty.Type]] = (),
        source_file: str = "",
    ) -> Function:
        return self.add_function(Function(name, ret_type, params, source_file))

    def function(self, name: str) -> Function:
        try:
            return self._functions[name]
        except KeyError:
            raise IRError(f"no function @{name} in module {self.name!r}") from None

    def get_function(self, name: str) -> Optional[Function]:
        return self._functions.get(name)

    def has_function(self, name: str) -> bool:
        return name in self._functions

    def functions(self) -> List[Function]:
        return list(self._functions.values())

    def defined_functions(self) -> List[Function]:
        return [f for f in self._functions.values() if not f.is_declaration()]

    def __iter__(self) -> Iterator[Function]:
        return iter(self._functions.values())

    def __repr__(self) -> str:
        return (
            f"<Module {self.name!r} model={self.persistency_model} "
            f"functions={len(self._functions)}>"
        )
