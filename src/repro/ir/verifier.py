"""Module verifier: structural well-formedness checks.

Run after construction or parsing; the static checker assumes a verified
module. Verification corresponds to the "baseline compile" in Table 9 —
what a compiler does before DeepMC's extra analysis passes run.
"""

from __future__ import annotations

from typing import List, Set

from ..errors import VerifierError
from . import instructions as ins
from . import types as ty
from .function import Function
from .module import Module
from .values import Argument, Constant, Value


def verify_module(mod: Module) -> None:
    """Raise :class:`VerifierError` on the first structural problem found."""
    for fn in mod.functions():
        verify_function(fn, mod)


def verify_function(fn: Function, mod: Module) -> None:
    if fn.is_declaration():
        return
    _check_blocks_terminated(fn)
    _check_labels_resolve(fn)
    _check_defs_dominate_uses_linearly(fn)
    _check_returns(fn)
    _check_calls_resolve(fn, mod)
    _check_region_balance(fn)


def _check_blocks_terminated(fn: Function) -> None:
    for block in fn.blocks:
        if not block.instructions:
            raise VerifierError(f"@{fn.name}: empty block %{block.label}")
        if not block.is_terminated():
            raise VerifierError(
                f"@{fn.name}: block %{block.label} lacks a terminator"
            )
        for inst in block.instructions[:-1]:
            if inst.is_terminator():
                raise VerifierError(
                    f"@{fn.name}: terminator mid-block in %{block.label}: "
                    f"{inst.format()}"
                )


def _check_labels_resolve(fn: Function) -> None:
    for block in fn.blocks:
        for label in block.successors_labels():
            if not fn.has_block(label):
                raise VerifierError(
                    f"@{fn.name}: branch to unknown block %{label} "
                    f"from %{block.label}"
                )


def _check_defs_dominate_uses_linearly(fn: Function) -> None:
    """Cheap SSA-ish check: every used value was defined earlier in layout
    order, is an argument, or is a constant.

    Layout order is an over-approximation of dominance for the structured
    control flow the builder emits; it catches the construction mistakes
    that matter (using a value before creating it).
    """
    defined: Set[int] = set()
    args = {id(a) for a in fn.args}
    order_seen: Set[int] = set()
    for block in fn.blocks:
        for inst in block.instructions:
            for op in inst.operands:
                if op is None or isinstance(op, Constant):
                    continue
                if id(op) in args:
                    continue
                if isinstance(op, ins.Instruction):
                    if id(op) not in order_seen:
                        raise VerifierError(
                            f"@{fn.name}: {inst.format()} uses "
                            f"%{op.name} before its definition"
                        )
                    continue
                if isinstance(op, Argument):
                    raise VerifierError(
                        f"@{fn.name}: {inst.format()} uses foreign argument "
                        f"%{op.name}"
                    )
                raise VerifierError(
                    f"@{fn.name}: {inst.format()} has unsupported operand {op!r}"
                )
            if inst.has_result():
                order_seen.add(id(inst))
            _ = defined


def _check_returns(fn: Function) -> None:
    wants_value = not isinstance(fn.ret_type, ty.VoidType)
    for block in fn.blocks:
        term = block.terminator()
        if isinstance(term, ins.Ret):
            if wants_value and term.value is None:
                raise VerifierError(
                    f"@{fn.name}: ret void in function returning {fn.ret_type}"
                )
            if not wants_value and term.value is not None:
                raise VerifierError(
                    f"@{fn.name}: ret with value in void function"
                )


def _check_calls_resolve(fn: Function, mod: Module) -> None:
    """Calls must target a module function, an annotation, or a builtin."""
    from ..vm.builtins import is_builtin

    for inst in fn.instructions():
        if isinstance(inst, (ins.Call, ins.Spawn)):
            name = inst.callee
            if mod.has_function(name):
                continue
            if mod.annotations.is_annotated(name):
                continue
            if is_builtin(name):
                continue
            raise VerifierError(
                f"@{fn.name}: call to unknown function @{name}"
            )


def _check_region_balance(fn: Function) -> None:
    """txbegin/txend of each kind must be balanced on every linear block
    walk. Full path-sensitivity is the checker's job; the verifier only
    rejects a function whose *total* begins/ends of a kind differ, which
    catches the common construction bug without forbidding regions spanning
    blocks.
    """
    counts = {}
    for inst in fn.instructions():
        if isinstance(inst, ins.TxBegin):
            counts[inst.kind] = counts.get(inst.kind, 0) + 1
        elif isinstance(inst, ins.TxEnd):
            counts[inst.kind] = counts.get(inst.kind, 0) - 1
    for kind, n in counts.items():
        if n != 0:
            raise VerifierError(
                f"@{fn.name}: unbalanced {kind} regions (delta {n})"
            )
