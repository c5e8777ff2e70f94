"""Observability reads the same for any ``--jobs`` value.

Every driver fans out through ``run_tasks``; a pool run must hand the
caller the same profile as a serial one — every span a task recorded,
not just its last root — and the same deterministic counters. Timing
values and the executor's own ``executor.*`` traffic are the only
things allowed to differ.
"""

from collections import Counter

import pytest

from repro.bench import run_detection
from repro.crashsim import simulate_programs
from repro.fuzz import run_fuzz
from repro.litmus import get_test, run_litmus
from repro.telemetry import Telemetry
from repro.telemetry.profile import flatten_spans

DRIVERS = {
    "corpus": lambda jobs, tel: run_detection(jobs=jobs, telemetry=tel),
    "crashsim": lambda jobs, tel: simulate_programs(
        ["pmdk_hashmap", "pmfs_journal"], jobs=jobs, telemetry=tel),
    "litmus": lambda jobs, tel: run_litmus(
        tests=[get_test("store-only"), get_test("store-flush-fence"),
               get_test("strand-dependence")],
        models=["strand"], jobs=jobs, telemetry=tel),
    "fuzz": lambda jobs, tel: run_fuzz(
        [0, 1], budget=3, shrink=False, jobs=jobs, telemetry=tel),
}


def observe(driver, jobs):
    tel = Telemetry()
    DRIVERS[driver](jobs, tel)
    spans = Counter(s.name for s in flatten_spans(tel.tracer.roots))
    counters = {name: value
                for name, value in tel.metrics.dump()["counters"].items()
                if isinstance(value, int)
                and not name.startswith("executor.")}
    return spans, counters


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_pool_profile_equals_serial(driver):
    serial_spans, serial_counters = observe(driver, jobs=1)
    pool_spans, pool_counters = observe(driver, jobs=2)
    assert serial_spans and serial_counters
    assert pool_spans == serial_spans
    assert pool_counters == serial_counters
