"""Dynamic analysis: hook planning, shadow memory, HB race detection."""

from .checker import DynamicChecker, DynamicRunResult
from .instrumenter import Hook, HookPlan, plan_hooks
from .runtime import DeepMCRuntime, RaceRecord
from .shadow import ShadowSegment, ShadowSpace, WriteRecord
from .vectorclock import VectorClock

__all__ = [
    "DeepMCRuntime",
    "DynamicChecker",
    "DynamicRunResult",
    "Hook",
    "HookPlan",
    "RaceRecord",
    "ShadowSegment",
    "ShadowSpace",
    "VectorClock",
    "WriteRecord",
    "plan_hooks",
]
