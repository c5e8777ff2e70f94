"""The one fan-out path behind every driver's ``--jobs``.

The self-healing tests inject real failures — a worker that dies with
``os._exit`` (like a segfault), a worker killed while idle, and a worker
that sleeps past the progress deadline — and assert the executor's
recovery contract: only the lost worker is replaced, only its task is
retried, sibling results survive, and a task out of retries falls back
in-process.
"""

import multiprocessing
import os
import signal
import threading
import time

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


def _crash_once_stamped(task, telemetry):
    if task["n"] == 2 and task.get("_attempt", 0) == 1:
        os._exit(23)
    return {"value": task["n"], "attempt": task.get("_attempt"),
            "pid": os.getpid()}


def _hang_once_stamped(task, telemetry):
    if task["n"] == 1 and task.get("_attempt", 0) == 1:
        time.sleep(600)
    return {"value": task["n"], "attempt": task.get("_attempt"),
            "pid": os.getpid()}


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


def _pid(task, telemetry):
    return os.getpid()


def _pid_and_attempt(task, telemetry):
    return {"pid": os.getpid(), "attempt": task.get("_attempt")}


def _sleeps(task, telemetry):
    time.sleep(task["s"])
    return task["n"]


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
        assert {k: v for k, v in tel.snapshot().items()
                if k.startswith("executor.")} == {
                    "executor.workers_started": 2}

    def test_unpicklable_result_is_an_error_entry(self):
        (entry,) = run_tasks(_unpicklable, TASKS[:1], jobs=2)
        assert entry["ok"] is False
        assert entry["name"] == "t0"
        assert "Traceback (most recent call last)" in entry["error"]
        assert "pickle" in entry["error"]

    def test_unpicklable_result_keeps_its_worker(self):
        """The worker answers with the error entry and stays in step for
        the next task; nothing is retried or restarted."""
        tel = Telemetry()
        with executor.WorkerPool(1) as pool:
            (bad,) = run_tasks(_unpicklable, TASKS[:1], telemetry=tel,
                               pool=pool)
            (good,) = run_tasks(_double, TASKS[3:4], telemetry=tel,
                                pool=pool)
        assert bad["ok"] is False and "pickle" in bad["error"]
        assert good == {"name": "t3", "ok": True, "result": 6}
        assert {k: v for k, v in tel.snapshot().items()
                if k.startswith("executor.")} == {
                    "executor.workers_started": 1}

    def test_unpicklable_task_is_an_error_entry(self):
        tasks = [{"name": "t0", "n": 0},
                 {"name": "bad", "n": 1, "fn": lambda: 1},
                 {"name": "t2", "n": 2}]
        results = run_tasks(_double, tasks, jobs=2)
        assert [r["ok"] for r in results] == [True, False, True]
        assert [results[0]["result"], results[2]["result"]] == [0, 4]
        assert results[1]["name"] == "bad"
        assert "pickle" in results[1]["error"]


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
        assert snap["executor.worker_restarts"] >= 1

    def test_crash_retries_only_its_own_task(self, fast_backoff):
        """A worker dying hard costs only the task it was running an
        attempt: every sibling runs once, and exactly one worker is
        replaced."""
        tel = Telemetry()
        results = run_tasks(_crash_once_stamped, TASKS, jobs=2,
                            telemetry=tel)
        assert [r["result"]["value"] for r in results] == [0, 1, 2, 3, 4]
        assert [r["result"]["attempt"] for r in results] == [1, 1, 2, 1, 1]
        snap = tel.metrics.snapshot()
        assert snap["executor.worker_restarts"] == 1
        assert snap["executor.workers_started"] == 3
        assert snap["executor.retries"] == 1
        assert "executor.timeouts" not in snap
        assert "executor.fallbacks" not in snap

    def test_hung_worker_is_killed_while_siblings_finish(self,
                                                          fast_backoff):
        """The hung task holds only its own worker: the other worker
        runs every sibling once, then the deadline kills and replaces
        the hung one, and only its task is retried. (The deadline leaves
        a loaded host time to fork the workers.)"""
        tel = Telemetry()
        start = time.monotonic()
        results = run_tasks(_hang_once_stamped, TASKS, jobs=2,
                            timeout=2.0, telemetry=tel)
        assert time.monotonic() - start < 30
        assert [r["result"]["value"] for r in results] == [0, 1, 2, 3, 4]
        assert [r["result"]["attempt"] for r in results] == [1, 2, 1, 1, 1]
        # every sibling ran on the one worker the deadline left alone
        assert len({results[i]["result"]["pid"] for i in (0, 2, 3, 4)}) == 1
        snap = tel.metrics.snapshot()
        assert snap["executor.timeouts"] == 1
        assert snap["executor.worker_restarts"] == 1
        assert snap["executor.workers_started"] == 3

    def test_worker_dead_while_idle_is_replaced_before_its_next_task(
            self, fast_backoff):
        """A worker killed between calls is found dead before it is
        handed a task: the task runs on its replacement at its first
        attempt, and the live sibling is kept."""
        tel = Telemetry()
        with executor.WorkerPool(2) as pool:
            first = run_tasks(_pid_and_attempt, TASKS[:2], telemetry=tel,
                              pool=pool)
            victim, survivor = (r["result"]["pid"] for r in first)
            assert victim != survivor
            os.kill(victim, signal.SIGKILL)
            waited = time.monotonic()
            while victim in {p.pid for p in
                             multiprocessing.active_children()}:
                assert time.monotonic() - waited < 30
                time.sleep(0.01)
            second = run_tasks(_pid_and_attempt, TASKS[:2], telemetry=tel,
                               pool=pool)
        assert [r["result"]["attempt"] for r in second] == [1, 1]
        pids = [r["result"]["pid"] for r in second]
        assert victim not in pids
        assert survivor in pids
        snap = tel.metrics.snapshot()
        assert snap["executor.worker_restarts"] == 1
        assert snap["executor.workers_started"] == 3
        assert "executor.retries" not in snap

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
        assert snap["executor.worker_restarts"] >= 1

    def test_repeated_pool_breaks_still_preserve_siblings(self,
                                                          fast_backoff):
        """Two tasks each killing their worker on their first *two*
        attempts: four workers die, yet every sibling's result survives
        and both crashers eventually succeed clean."""
        tel = Telemetry()
        results = run_tasks(_crash_first_two_attempts, TASKS, jobs=2,
                            telemetry=tel)
        assert [r["ok"] for r in results] == [True] * 5
        assert [r["result"]["value"] for r in results] == [0, 1, 2, 3, 4]
        assert results[1]["result"]["attempt"] >= 3
        assert results[3]["result"]["attempt"] >= 3
        assert tel.metrics.snapshot()["executor.worker_restarts"] >= 2

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


class TestCallersPool:
    """A WorkerPool the caller owns outlives each call; a lost worker is
    replaced in its slot, and closing the pool ends its workers."""

    def test_a_callers_pool_outlives_each_call(self):
        tel = Telemetry()
        with executor.WorkerPool(2) as pool:
            first = run_tasks(_pid, TASKS, telemetry=tel, pool=pool)
            second = run_tasks(_pid, TASKS, telemetry=tel, pool=pool)
            workers = {p.pid for p in multiprocessing.active_children()}
        pids = {r["result"] for r in first + second}
        assert os.getpid() not in pids
        assert pids <= workers
        assert tel.metrics.snapshot()["executor.workers_started"] == 2
        assert not pids & {p.pid for p in multiprocessing.active_children()}

    def test_a_broken_callers_pool_is_rebuilt_in_place(self, fast_backoff):
        tel = Telemetry()
        with executor.WorkerPool(2) as pool:
            crashed = run_tasks(_crash_on_first_attempt, TASKS,
                                telemetry=tel, pool=pool)
            after = run_tasks(_double, TASKS, telemetry=tel, pool=pool)
        assert [r["result"]["value"] for r in crashed] == [0, 1, 2, 3, 4]
        assert [r["result"] for r in after] == [0, 2, 4, 6, 8]
        snap = tel.metrics.snapshot()
        assert snap["executor.workers_started"] == 3
        assert snap["executor.worker_restarts"] == 1

    def test_a_worker_ends_on_sigterm_whatever_its_parent_handles(
            self, fast_backoff):
        """A worker does not keep the SIGTERM handler of the process it
        forked from, so SIGTERM (what the interpreter's exit sends a
        daemonic worker) ends it; its slot then forks a replacement."""
        caught = []
        previous = signal.signal(signal.SIGTERM,
                                 lambda signum, _frame: caught.append(signum))
        tel = Telemetry()
        try:
            with executor.WorkerPool(1) as pool:
                (first,) = run_tasks(_pid, TASKS[:1], telemetry=tel,
                                     pool=pool)
                os.kill(first["result"], signal.SIGTERM)
                waited = time.monotonic()
                while first["result"] in {p.pid for p in
                                          multiprocessing.active_children()}:
                    assert time.monotonic() - waited < 30
                    time.sleep(0.01)
                (second,) = run_tasks(_pid, TASKS[:1], telemetry=tel,
                                      pool=pool)
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert caught == []
        assert second["result"] != first["result"]
        assert tel.metrics.snapshot()["executor.worker_restarts"] == 1

    def test_a_worker_ignores_sigint_whatever_its_parent_handles(self):
        """A worker does not run the SIGINT handler of the process it
        forked from, and a SIGINT (a Ctrl-C to the process group) does
        not end it: its owner does. The same worker answers the next
        call."""
        caught = multiprocessing.Value("i", 0)

        def count(_signum, _frame):
            with caught.get_lock():
                caught.value += 1

        previous = signal.signal(signal.SIGINT, count)
        tel = Telemetry()
        try:
            with executor.WorkerPool(1) as pool:
                (first,) = run_tasks(_pid, TASKS[:1], telemetry=tel,
                                     pool=pool)
                os.kill(first["result"], signal.SIGINT)
                # a pending signal is handled before the worker reads
                # its next message, so this call would see its effect
                (second,) = run_tasks(_pid, TASKS[:1], telemetry=tel,
                                      pool=pool)
        finally:
            signal.signal(signal.SIGINT, previous)
        assert caught.value == 0
        assert second["result"] == first["result"]
        snap = tel.metrics.snapshot()
        assert snap["executor.workers_started"] == 1
        assert "executor.worker_restarts" not in snap

    def test_closing_mid_call_abandons_only_unfinished_tasks(
            self, fast_backoff):
        tel = Telemetry()
        pool = executor.WorkerPool(2)
        tasks = [{"name": "quick", "n": 0, "s": 0},
                 {"name": "stuck", "n": 1, "s": 600}]
        closer = threading.Timer(1.0, pool.close, kwargs={"kill": True})
        closer.start()
        results = run_tasks(_sleeps, tasks, telemetry=tel, pool=pool)
        closer.join()
        assert results == [
            {"name": "quick", "ok": True, "result": 0},
            {"name": "stuck", "ok": False, "error": "worker pool closed"}]
        assert tel.metrics.snapshot()["executor.workers_started"] == 2
