"""IR interpreter, simulated memory, thread scheduler, and crash injection."""

from .builtins import builtin, builtin_names, is_builtin
from .bytecode import BytecodeFunction, BytecodeInterpreter, BytecodeProgram
from .compile import compile_module, invalidate_bytecode_cache
from .crash import CrashRun, CrashState, PersistentObject, run_with_crash
from .engine import make_interpreter
from .interpreter import CrashPoint, ExecResult, Interpreter
from .memory import NULL, Allocation, Memory, Pointer
from .profiler import OpProfiler, render_op_profile
from .scheduler import RoundRobinScheduler, Scheduler, SeededScheduler

__all__ = [
    "Allocation",
    "BytecodeFunction",
    "BytecodeInterpreter",
    "BytecodeProgram",
    "CrashPoint",
    "CrashRun",
    "CrashState",
    "ExecResult",
    "Interpreter",
    "compile_module",
    "invalidate_bytecode_cache",
    "make_interpreter",
    "Memory",
    "NULL",
    "OpProfiler",
    "PersistentObject",
    "Pointer",
    "RoundRobinScheduler",
    "Scheduler",
    "SeededScheduler",
    "builtin",
    "builtin_names",
    "is_builtin",
    "render_op_profile",
    "run_with_crash",
]
