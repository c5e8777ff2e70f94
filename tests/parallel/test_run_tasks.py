"""The shared fan-out core behind corpus --jobs and crashsim --jobs.

The self-healing tests inject real failures — a worker that dies with
``os._exit`` (breaking the whole pool, like a segfault) and a worker
that sleeps past the progress deadline — and assert the executor's
recovery contract: sibling results survive, unfinished tasks are retried
on a fresh pool, and a task out of retries falls back in-process.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.parallel import executor, run_tasks
from repro.telemetry import Telemetry


def _double(task):
    return {"name": task["name"], "ok": True, "value": task["n"] * 2}


def _sometimes_raises(task):
    if task["n"] == 2:
        raise RuntimeError("worker exploded")
    return {"name": task["name"], "ok": True, "value": task["n"]}


def _crash_on_first_attempt(task):
    if task["n"] == 2 and task.get("_attempt", 0) == 1:
        os._exit(23)  # hard death: breaks the pool, no exception raised
    return {"name": task["name"], "ok": True, "value": task["n"],
            "attempt": task.get("_attempt")}


def _hang_on_first_attempt(task):
    if task["n"] == 1 and task.get("_attempt", 0) == 1:
        time.sleep(600)
    return {"name": task["name"], "ok": True, "value": task["n"]}


def _crash_first_two_attempts(task):
    if task["n"] in (1, 3) and task.get("_attempt", 0) <= 2:
        os._exit(23)
    return {"name": task["name"], "ok": True, "value": task["n"],
            "attempt": task.get("_attempt")}


def _crash_unless_in_process(task):
    if not task.get("_in_process"):
        os._exit(23)
    return {"name": task["name"], "ok": True, "value": "fallback"}


TASKS = [{"name": f"t{i}", "n": i} for i in range(5)]


class TestRunTasks:
    def test_serial_runs_in_process(self):
        results = run_tasks(_double, TASKS, jobs=1)
        assert [r["value"] for r in results] == [0, 2, 4, 6, 8]

    def test_parallel_preserves_submission_order(self):
        assert run_tasks(_double, TASKS, jobs=3) == run_tasks(
            _double, TASKS, jobs=1)

    def test_worker_exception_degrades_per_task(self):
        results = run_tasks(_sometimes_raises, TASKS, jobs=2)
        assert [r["ok"] for r in results] == [True, True, False, True, True]
        bad = results[2]
        assert bad["name"] == "t2"
        assert "worker exploded" in bad["error"]
        assert "RuntimeError" in bad["error"]


class TestSelfHealing:
    def test_broken_pool_loses_no_sibling_results(self):
        """A worker dying hard breaks the pool; every task still returns
        a real result — siblings requeued, the crasher retried clean."""
        tel = Telemetry()
        results = run_tasks(_crash_on_first_attempt, TASKS, jobs=2,
                            backoff_s=0.01, telemetry=tel)
        assert [r["ok"] for r in results] == [True] * 5
        assert [r["value"] for r in results] == [0, 1, 2, 3, 4]
        assert results[2]["attempt"] >= 2
        snap = tel.metrics.snapshot()
        assert snap["executor.retries"] >= 1
        assert snap["executor.pool_rebuilds"] >= 1

    def test_pool_broken_during_submission_requeues(self, monkeypatch):
        """A worker can die before the parent has handed over every task;
        ``submit`` then raises, and those tasks go to the next pool."""

        class BreaksOnSecondSubmit(ProcessPoolExecutor):
            submits = 0

            def submit(self, fn, /, *args, **kwargs):
                BreaksOnSecondSubmit.submits += 1
                if BreaksOnSecondSubmit.submits == 2:
                    raise BrokenProcessPool("worker died during submission")
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(executor, "ProcessPoolExecutor",
                            BreaksOnSecondSubmit)
        tel = Telemetry()
        results = run_tasks(_double, TASKS, jobs=2, backoff_s=0.0,
                            telemetry=tel)
        assert [r["value"] for r in results] == [0, 2, 4, 6, 8]
        assert tel.metrics.snapshot()["executor.pool_rebuilds"] == 1

    def test_hung_worker_hits_deadline_and_retries(self):
        tel = Telemetry()
        start = time.monotonic()
        results = run_tasks(_hang_on_first_attempt, TASKS, jobs=2,
                            timeout=0.5, backoff_s=0.01, telemetry=tel)
        assert [r["ok"] for r in results] == [True] * 5
        assert [r["value"] for r in results] == [0, 1, 2, 3, 4]
        # the hang was killed at the deadline, not waited out
        assert time.monotonic() - start < 60
        snap = tel.metrics.snapshot()
        assert snap["executor.timeouts"] >= 1
        assert snap["executor.pool_rebuilds"] >= 1

    def test_repeated_pool_breaks_still_preserve_siblings(self):
        """Two tasks each killing the pool on their first *two* attempts:
        three pool generations die back to back, yet every sibling's
        result survives and both crashers eventually succeed clean."""
        tel = Telemetry()
        results = run_tasks(_crash_first_two_attempts, TASKS, jobs=2,
                            backoff_s=0.01, telemetry=tel)
        assert [r["ok"] for r in results] == [True] * 5
        assert [r["value"] for r in results] == [0, 1, 2, 3, 4]
        assert results[1]["attempt"] >= 3
        assert results[3]["attempt"] >= 3
        assert tel.metrics.snapshot()["executor.pool_rebuilds"] >= 2

    def test_exhausted_task_falls_back_in_process(self):
        tel = Telemetry()
        results = run_tasks(_crash_unless_in_process, TASKS[:2], jobs=2,
                            max_retries=1, backoff_s=0.01, telemetry=tel)
        assert [r["ok"] for r in results] == [True, True]
        assert [r["value"] for r in results] == ["fallback", "fallback"]
        assert tel.metrics.snapshot()["executor.fallbacks"] == 2

    def test_exhausted_task_degrades_without_fallback(self):
        results = run_tasks(_crash_unless_in_process, TASKS[:2], jobs=2,
                            max_retries=1, backoff_s=0.01,
                            in_process_fallback=False)
        assert [r["ok"] for r in results] == [False, False]
        assert all("attempt" in r["error"] for r in results)

    def test_attempt_is_stamped_only_under_a_pool(self):
        serial = run_tasks(lambda t: {"ok": True,
                                      "stamped": "_attempt" in t},
                           [{"name": "t"}], jobs=1)
        assert serial[0]["stamped"] is False
