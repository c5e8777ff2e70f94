"""The one fan-out path behind every driver's ``--jobs``.

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

import pytest

from repro.parallel import executor, run_tasks
from repro.telemetry import Telemetry


@pytest.fixture
def fast_backoff(monkeypatch):
    monkeypatch.setattr(executor, "BACKOFF_S", 0.01)


def _double(task, telemetry):
    return task["n"] * 2


def _sometimes_raises(task, telemetry):
    if task["n"] == 2:
        raise RuntimeError("worker exploded")
    return task["n"]


def _crash_on_first_attempt(task, telemetry):
    if task["n"] == 2 and task.get("_attempt", 0) == 1:
        os._exit(23)  # hard death: breaks the pool, no exception raised
    return {"value": task["n"], "attempt": task.get("_attempt")}


def _hang_on_first_attempt(task, telemetry):
    if task["n"] == 1 and task.get("_attempt", 0) == 1:
        time.sleep(600)
    return task["n"]


def _crash_first_two_attempts(task, telemetry):
    if task["n"] in (1, 3) and task.get("_attempt", 0) <= 2:
        os._exit(23)
    return {"value": task["n"], "attempt": task.get("_attempt")}


def _crash_unless_in_process(task, telemetry):
    if not task.get("_in_process"):
        os._exit(23)
    return "fallback"


def _stamps(task, telemetry):
    return {"attempt": task.get("_attempt"),
            "in_process": task.get("_in_process", False)}


def _records(task, telemetry):
    with telemetry.span("outer", n=task["n"]):
        with telemetry.span("inner"):
            pass
    with telemetry.span("second"):
        pass
    telemetry.metrics.counter("work").inc(task["n"])
    return task["n"]


def _observes(task, telemetry):
    metrics = telemetry.metrics
    metrics.histogram("size").observe(task["n"])
    metrics.gauge("last").set(task["n"])
    return task["n"]


def _telemetry_kind(task, telemetry):
    if telemetry is None:
        return "none"
    return "enabled" if telemetry.enabled else "disabled"


def _records_then_falls_back(task, telemetry):
    if not task.get("_in_process"):
        os._exit(23)
    with telemetry.span("fallback", n=task["n"]):
        pass
    return task["n"]


def _unpicklable(task, telemetry):
    return lambda: task["n"]


TASKS = [{"name": f"t{i}", "n": i} for i in range(5)]

TELEMETRY = {
    "none": lambda: None,
    "disabled": lambda: Telemetry(enabled=False),
    "enabled": Telemetry,
}


class TestRunTasks:
    def test_serial_runs_in_process(self):
        results = run_tasks(_double, TASKS, jobs=1)
        assert results[0] == {"name": "t0", "ok": True, "result": 0}
        assert [r["result"] for r in results] == [0, 2, 4, 6, 8]

    def test_parallel_preserves_submission_order(self):
        assert run_tasks(_double, TASKS, jobs=3) == run_tasks(
            _double, TASKS, jobs=1)

    def test_worker_exception_degrades_per_task(self):
        results = run_tasks(_sometimes_raises, TASKS, jobs=2)
        assert [r["ok"] for r in results] == [True, True, False, True, True]
        bad = results[2]
        assert set(bad) == {"name", "ok", "error"}
        assert bad["name"] == "t2"
        assert "worker exploded" in bad["error"]
        assert "RuntimeError" in bad["error"]
        assert bad["error"].startswith("Traceback")

    def test_raising_task_same_error_entry_for_any_jobs(self):
        assert run_tasks(_sometimes_raises, TASKS, jobs=1) == run_tasks(
            _sometimes_raises, TASKS, jobs=2)

    def test_serial_uses_the_callers_live_telemetry(self):
        tel = Telemetry()
        run_tasks(_records, TASKS[:2], jobs=1, telemetry=tel)
        assert [s.name for s in tel.tracer.roots] == [
            "outer", "second", "outer", "second"]
        assert tel.metrics.snapshot()["work"] == 1

    def test_pool_adopts_every_worker_root_span_in_order(self):
        serial, pool = Telemetry(), Telemetry()
        run_tasks(_records, TASKS, jobs=1, telemetry=serial)
        run_tasks(_records, TASKS, jobs=2, telemetry=pool)

        def shape(span):
            return (span.name, dict(span.attrs),
                    [shape(c) for c in span.children])

        assert [shape(s) for s in pool.tracer.roots] == [
            shape(s) for s in serial.tracer.roots]
        assert pool.metrics.snapshot()["work"] == 10

    def test_pool_spans_nest_under_the_callers_open_span(self):
        tel = Telemetry()
        with tel.span("driver"):
            run_tasks(_records, TASKS[:2], jobs=2, telemetry=tel)
        (root,) = tel.tracer.roots
        assert [c.name for c in root.children] == [
            "outer", "second", "outer", "second"]

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("timeout", [0, -5])
    def test_non_positive_timeout_fails_loud(self, timeout, jobs):
        with pytest.raises(ValueError, match="timeout"):
            run_tasks(_double, TASKS, jobs=jobs, timeout=timeout)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_no_tasks_gives_no_entries(self, jobs):
        assert run_tasks(_double, [], jobs=jobs, telemetry=Telemetry()) == []

    @pytest.mark.parametrize("jobs", [1, 2, 8])
    def test_entries_carry_only_the_contract_keys(self, jobs):
        """Worker spans and metrics are folded in, never left on the
        entries, whatever the pool size (more workers than tasks too)."""
        results = run_tasks(_sometimes_raises, TASKS, jobs=jobs,
                            telemetry=Telemetry())
        assert [r["name"] for r in results] == [t["name"] for t in TASKS]
        for entry in results:
            payload = "result" if entry["ok"] else "error"
            assert set(entry) == {"name", "ok", payload}

    @pytest.mark.parametrize("jobs,caller,seen", [
        (1, "none", "none"),
        (1, "disabled", "disabled"),
        (1, "enabled", "enabled"),
        (2, "none", "none"),
        (2, "disabled", "none"),
        (2, "enabled", "enabled"),
    ])
    def test_task_telemetry_follows_the_callers(self, jobs, caller, seen):
        """Serial tasks get the caller's own object; a pool worker gets a
        private Telemetry only when the caller's is enabled."""
        results = run_tasks(_telemetry_kind, TASKS[:2], jobs=jobs,
                            telemetry=TELEMETRY[caller]())
        assert [r["result"] for r in results] == [seen, seen]

    def test_pool_metrics_merge_like_serial(self):
        serial, pool = Telemetry(), Telemetry()
        run_tasks(_observes, TASKS, jobs=1, telemetry=serial)
        run_tasks(_observes, TASKS, jobs=2, telemetry=pool)
        keys = ["last", "size.count", "size.total", "size.min", "size.max"]
        assert {k: pool.snapshot()[k] for k in keys} == {
            k: serial.snapshot()[k] for k in keys}
        assert serial.snapshot()["last"] == 4  # submission order wins

    def test_healthy_pool_counts_no_recovery(self):
        tel = Telemetry()
        run_tasks(_double, TASKS, jobs=2, timeout=60, telemetry=tel)
        assert not [k for k in tel.snapshot() if k.startswith("executor.")]

    def test_unpicklable_result_is_an_error_entry(self):
        (entry,) = run_tasks(_unpicklable, TASKS[:1], jobs=2)
        assert entry["ok"] is False
        assert entry["name"] == "t0"
        assert "Traceback (most recent call last)" in entry["error"]
        assert "pickle" in entry["error"]


class TestRetryPolicy:
    def test_defaults_match_the_historical_constants(self):
        assert executor.MAX_RETRIES == 2
        assert executor.BACKOFF_S == 0.05
        assert executor.BACKOFF_CAP_S == 2.0
        assert [executor.backoff_for(n) for n in range(1, 8)] == [
            0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0]

    def test_backoff_for_is_exponential_and_saturates(self, monkeypatch):
        monkeypatch.setattr(executor, "BACKOFF_S", 0.1)
        monkeypatch.setattr(executor, "BACKOFF_CAP_S", 0.4)
        assert [executor.backoff_for(n) for n in (0, 1, 2, 3, 4)] == \
            [0.0, 0.1, 0.2, 0.4, 0.4]

    def test_zero_backoff_stays_zero(self, monkeypatch):
        monkeypatch.setattr(executor, "BACKOFF_S", 0.0)
        assert executor.backoff_for(5) == 0.0


class TestSelfHealing:
    def test_broken_pool_loses_no_sibling_results(self, fast_backoff):
        """A worker dying hard breaks the pool; every task still returns
        a real result — siblings requeued, the crasher retried clean."""
        tel = Telemetry()
        results = run_tasks(_crash_on_first_attempt, TASKS, jobs=2,
                            telemetry=tel)
        assert [r["ok"] for r in results] == [True] * 5
        assert [r["result"]["value"] for r in results] == [0, 1, 2, 3, 4]
        assert results[2]["result"]["attempt"] >= 2
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
        monkeypatch.setattr(executor, "BACKOFF_S", 0.0)
        tel = Telemetry()
        results = run_tasks(_double, TASKS, jobs=2, telemetry=tel)
        assert [r["result"] for r in results] == [0, 2, 4, 6, 8]
        assert tel.metrics.snapshot()["executor.pool_rebuilds"] == 1

    def test_hung_worker_hits_deadline_and_retries(self, fast_backoff):
        tel = Telemetry()
        start = time.monotonic()
        results = run_tasks(_hang_on_first_attempt, TASKS, jobs=2,
                            timeout=0.5, telemetry=tel)
        assert [r["ok"] for r in results] == [True] * 5
        assert [r["result"] for r in results] == [0, 1, 2, 3, 4]
        # the hang was killed at the deadline, not waited out
        assert time.monotonic() - start < 60
        snap = tel.metrics.snapshot()
        assert snap["executor.timeouts"] >= 1
        assert snap["executor.pool_rebuilds"] >= 1

    def test_repeated_pool_breaks_still_preserve_siblings(self,
                                                          fast_backoff):
        """Two tasks each killing the pool on their first *two* attempts:
        three pool generations die back to back, yet every sibling's
        result survives and both crashers eventually succeed clean."""
        tel = Telemetry()
        results = run_tasks(_crash_first_two_attempts, TASKS, jobs=2,
                            telemetry=tel)
        assert [r["ok"] for r in results] == [True] * 5
        assert [r["result"]["value"] for r in results] == [0, 1, 2, 3, 4]
        assert results[1]["result"]["attempt"] >= 3
        assert results[3]["result"]["attempt"] >= 3
        assert tel.metrics.snapshot()["executor.pool_rebuilds"] >= 2

    def test_exhausted_task_falls_back_in_process(self, monkeypatch,
                                                  fast_backoff):
        monkeypatch.setattr(executor, "MAX_RETRIES", 1)
        tel = Telemetry()
        results = run_tasks(_crash_unless_in_process, TASKS[:2], jobs=2,
                            telemetry=tel)
        assert [r["ok"] for r in results] == [True, True]
        assert [r["result"] for r in results] == ["fallback", "fallback"]
        assert tel.metrics.snapshot()["executor.fallbacks"] == 2

    def test_fallback_spans_reach_the_caller(self, monkeypatch,
                                             fast_backoff):
        monkeypatch.setattr(executor, "MAX_RETRIES", 0)
        tel = Telemetry()
        results = run_tasks(_records_then_falls_back, TASKS[:2], jobs=2,
                            telemetry=tel)
        assert [r["result"] for r in results] == [0, 1]
        assert [(s.name, s.attrs["n"]) for s in tel.tracer.roots] == [
            ("fallback", 0), ("fallback", 1)]
        assert tel.metrics.snapshot()["executor.fallbacks"] == 2

    def test_attempt_is_stamped_only_under_a_pool(self):
        serial = run_tasks(_stamps, [{"name": "t"}], jobs=1)
        assert serial[0]["result"] == {"attempt": None,
                                       "in_process": False}
        pool = run_tasks(_stamps, [{"name": "t"}], jobs=2)
        assert pool[0]["result"] == {"attempt": 1, "in_process": False}
