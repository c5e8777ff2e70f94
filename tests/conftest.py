"""Shared fixtures: small canonical modules used across the test suite."""

from __future__ import annotations

import pytest

from repro.ir import IRBuilder, Module, types as ty
from repro.vm import engine
from repro.vm.bytecode import BytecodeInterpreter
from repro.vm.interpreter import Interpreter


def _refuse_bytecode(self, *args, **kwargs):
    pytest.fail("a BytecodeInterpreter was built on the tree reference: "
                "this call site bypasses make_interpreter")


@pytest.fixture(scope="session")
def tree_reference():
    """``tree_reference(fn, *args, **kwargs)`` calls ``fn`` with every VM
    run on the tree-walking reference interpreter.

    Production builds every interpreter through
    :func:`repro.vm.engine.make_interpreter`, which always compiles to
    bytecode. Inside the call, ``make_interpreter`` builds the tree
    :class:`~repro.vm.interpreter.Interpreter` instead, and constructing
    a ``BytecodeInterpreter`` fails the test, so a differential test can
    never end up comparing bytecode with itself. ``pytest.fail`` raises a
    ``BaseException``, so no ``except Exception`` in the code under test
    swallows it. Session scoped so Hypothesis tests can use it; every
    call patches and restores on its own.
    """
    def call(fn, *args, **kwargs):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "BytecodeInterpreter", Interpreter)
            mp.setattr(BytecodeInterpreter, "__init__", _refuse_bytecode)
            return fn(*args, **kwargs)

    return call


@pytest.fixture
def empty_module() -> Module:
    return Module("test", persistency_model="strict")


@pytest.fixture
def node_module():
    """A module with one struct and a main that writes/flushes a field.

    Returns ``(module, struct_type)``; main persists ``value`` correctly
    and leaves ``flag`` volatile — handy as a known-clean baseline.
    """
    mod = Module("node_mod", persistency_model="strict")
    node = mod.define_struct("node", [("value", ty.I64), ("flag", ty.I32)])
    fn = mod.define_function("main", ty.I64, [], source_file="node.c")
    b = IRBuilder(fn)
    b.at(10)
    p = b.palloc(node)
    vf = b.getfield(p, "value")
    b.store(41, vf, line=11)
    b.flush(vf, 8, line=12)
    b.fence(line=13)
    v = b.load(vf, line=14)
    r = b.add(v, 1, line=14)
    b.ret(r, line=15)
    return mod, node


def build_two_field_module(flush_both: bool = True) -> Module:
    """Module writing two fields; optionally leaves the second unflushed."""
    mod = Module("two_field", persistency_model="strict")
    rec = mod.define_struct("rec", [("a", ty.I64), ("b", ty.I64)])
    fn = mod.define_function("main", ty.VOID, [], source_file="rec.c")
    b = IRBuilder(fn)
    b.at(5)
    p = b.palloc(rec)
    fa = b.getfield(p, "a")
    b.store(1, fa, line=6)
    b.flush(fa, 8, line=7)
    b.fence(line=8)
    fb = b.getfield(p, "b")
    b.store(2, fb, line=9)
    if flush_both:
        b.flush(fb, 8, line=10)
        b.fence(line=11)
    b.ret(line=12)
    return mod
