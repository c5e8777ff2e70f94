"""Dynamic analysis: instrumentation, shadow memory, HB race detection."""

from .checker import DynamicChecker, DynamicRunResult
from .instrumenter import HOOK_FENCE, HOOK_READ, HOOK_WRITE, Instrumenter
from .runtime import DeepMCRuntime, RaceRecord
from .shadow import ShadowSegment, ShadowSpace, WriteRecord
from .vectorclock import VectorClock

__all__ = [
    "DeepMCRuntime",
    "DynamicChecker",
    "DynamicRunResult",
    "HOOK_FENCE",
    "HOOK_READ",
    "HOOK_WRITE",
    "Instrumenter",
    "RaceRecord",
    "ShadowSegment",
    "ShadowSpace",
    "VectorClock",
    "WriteRecord",
]
