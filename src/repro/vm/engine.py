"""The production VM entry point.

Every production run of the VM goes through :func:`make_interpreter`,
which builds a :class:`repro.vm.bytecode.BytecodeInterpreter`, the
compiled engine. The tree walker (:class:`repro.vm.interpreter.Interpreter`)
stays as the reference the differential tests compare against; docs/VM.md
states the equivalence contract between the two.
"""

from __future__ import annotations

from typing import Any

from ..ir.module import Module
from .bytecode import BytecodeInterpreter
from .interpreter import Interpreter


def make_interpreter(module: Module, **kwargs: Any) -> Interpreter:
    """Build the interpreter for one execution."""
    return BytecodeInterpreter(module, **kwargs)
