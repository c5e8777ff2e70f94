"""Crash-state enumeration with recovery validation (``deepmc crashsim``).

The subsystem that closes the loop from a reported violation to a
demonstrated crash-consistency failure, in the spirit of WITCHER's
output-oracle validation over systematically enumerated crash images:

1. :mod:`~repro.crashsim.trace` — record a program's persist-event
   stream (stores/flushes/fences/transactions) with content captured at
   event time;
2. :mod:`~repro.crashsim.enumerate` — replay the trace and enumerate
   every durable image legal under the active persistency model, with
   persist-equivalence pruning, image dedup, and a state budget;
3. :mod:`~repro.crashsim.oracle` — classify each image against the
   program's recovery contract: consistent / recovered / corrupted /
   recovery-crash;
4. :mod:`~repro.crashsim.engine` — correlate failing images back to the
   static checker's warnings ("validated by crash image #k") and fan the
   per-program simulations out across the parallel executor.

See docs/CRASHSIM.md for semantics and a CLI walkthrough.
"""

from .enumerate import (
    CrashImage,
    Enumeration,
    LoggedRange,
    OpenTx,
    ReplayState,
    enumerate_crash_images,
)
from .oracle import (
    CONSISTENT,
    CORRUPTED,
    FAILING_OUTCOMES,
    OUTCOMES,
    RECOVERED,
    RECOVERY_CRASH,
    Invariant,
    Oracle,
    Verdict,
    classify_image,
    rollback_open_tx,
    run_recovery_entry,
)
from .engine import (
    DEFAULT_MAX_STATES,
    CrashSimReport,
    count_failing_images,
    render_report,
    render_results,
    results_payload,
    simulate_program,
    simulate_programs,
)
from .trace import PersistTrace, TraceEvent, TraceRecorder, record_trace

__all__ = [
    "CONSISTENT",
    "CORRUPTED",
    "CrashImage",
    "CrashSimReport",
    "DEFAULT_MAX_STATES",
    "Enumeration",
    "FAILING_OUTCOMES",
    "Invariant",
    "LoggedRange",
    "OpenTx",
    "OUTCOMES",
    "Oracle",
    "PersistTrace",
    "RECOVERED",
    "RECOVERY_CRASH",
    "ReplayState",
    "TraceEvent",
    "TraceRecorder",
    "Verdict",
    "classify_image",
    "count_failing_images",
    "enumerate_crash_images",
    "record_trace",
    "render_report",
    "render_results",
    "results_payload",
    "rollback_open_tx",
    "run_recovery_entry",
    "simulate_program",
    "simulate_programs",
]
