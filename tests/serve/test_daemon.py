"""End-to-end daemon tests over a real unix socket: byte-identical
verdicts under concurrency, warm serving, backpressure, deadline
degradation, session isolation, worker recovery, the workers' lifetime,
concurrent dispatch, connection bookkeeping, and drain shutdown."""

import json
import multiprocessing
import os
import sys
import threading
import time

import pytest

from repro.corpus import REGISTRY
from repro.errors import ServeError
from repro.ir import print_module
from repro.parallel import AnalysisCache
from repro.serve import DeepMCServer, ServeConfig, connect
from repro.serve import methods as serve_methods
from repro.serve.client import RetryPolicy
from repro.telemetry import Telemetry


def canonical(doc):
    return json.dumps(doc, sort_keys=True)


def one_shot(method, params):
    normalized = serve_methods.normalize(method, dict(params))
    return serve_methods.run_method(method, normalized)


@pytest.fixture
def serve(tmp_path):
    """Start a daemon on a tmp unix socket; yields a factory so tests
    pick their own config. Everything is shut down on teardown."""
    state = {}

    def start(**overrides):
        overrides.setdefault("socket_path", str(tmp_path / "serve.sock"))
        config = ServeConfig(**overrides)
        server = DeepMCServer(config, telemetry=Telemetry())
        server.start()
        state["server"] = server
        state["socket"] = config.socket_path
        return server

    def client(**kw):
        kw.setdefault("retry", RetryPolicy(attempts=1))
        c = connect(socket_path=state["socket"], retry=kw.pop("retry"))
        state.setdefault("clients", []).append(c)
        return c

    yield start, client
    for c in state.get("clients", ()):
        c.close()
    if "server" in state:
        state["server"].shutdown(drain=False, timeout=5.0)


def test_non_positive_pool_timeout_refused_at_start(serve):
    start, _client = serve
    with pytest.raises(ValueError, match="pool_timeout_s"):
        start(jobs=2, pool_timeout_s=0)


class TestVerdicts:
    def test_concurrent_clients_match_one_shot_byte_for_byte(self, serve):
        start, client = serve
        start(jobs=1)
        workload = [
            ("check", {"program": "pmdk_hashmap"}),
            ("check", {"program": "pmfs_journal"}),
            ("crashsim", {"programs": ["pmdk_hashmap"],
                          "max_states": 128}),
        ]
        baselines = [canonical(one_shot(m, p)) for m, p in workload]
        failures = []

        def drive(offset):
            c = client(retry=RetryPolicy(attempts=4,
                                         base_backoff_s=0.01))
            for step in range(len(workload)):
                i = (offset + step) % len(workload)
                method, params = workload[i]
                doc = c.result(method, params, timeout_s=120)
                if canonical(doc) != baselines[i]:
                    failures.append((offset, method))

        threads = [threading.Thread(target=drive, args=(o,))
                   for o in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        assert not any(t.is_alive() for t in threads)
        assert failures == []

    def test_warm_hit_serves_from_store(self, serve):
        start, client = serve
        start(jobs=1)
        c = client()
        cold = c.call("check", {"program": "pmdk_hashmap"})
        assert cold["meta"]["served"] == "inline"
        warm = c.call("check", {"program": "pmdk_hashmap"})
        assert warm["meta"]["served"] == "warm"
        assert canonical(warm["result"]) == canonical(cold["result"])

    def test_warm_programs_are_ready_at_startup(self, serve):
        start, client = serve
        start(jobs=1, warm_programs=("pmdk_hashmap",))
        c = client()
        doc = c.call("check", {"program": "pmdk_hashmap"})
        assert doc["meta"]["served"] == "warm"

    def test_normalization_shares_one_store_key(self, serve):
        start, client = serve
        start(jobs=1)
        c = client()
        c.call("check", {"program": "pmdk_hashmap"})
        # explicit null model normalizes to the same key → warm
        doc = c.call("check", {"program": "pmdk_hashmap", "model": None})
        assert doc["meta"]["served"] == "warm"

    def test_file_check_follows_the_file_content(self, serve, tmp_path):
        """A file overwritten between two checks is checked again: the
        store keys a file check by the bytes it checked, not by its path
        alone. The same bytes again are warm."""
        start, client = serve
        start(jobs=1)
        c = client()
        program = REGISTRY.program("pmdk_hashmap")
        path = tmp_path / "hashmap.nvmir"
        params = {"file": str(path)}
        counts = []
        for fixed in (False, True):
            path.write_text(print_module(program.build(fixed=fixed)),
                            encoding="utf-8")
            response = c.call("check", params)
            assert response["meta"]["served"] == "inline"
            assert response["result"] == one_shot("check", params)
            counts.append(response["result"]["report"]["count"])
        assert counts == [4, 2]
        assert c.call("check", params)["meta"]["served"] == "warm"

    def test_missing_file_check_fails_in_the_run(self, serve, tmp_path):
        start, client = serve
        start(jobs=1)
        with pytest.raises(ServeError) as exc_info:
            client().call("check", {"file": str(tmp_path / "gone.nvmir")})
        assert exc_info.value.code == "internal"
        assert "FileNotFoundError" in str(exc_info.value)


class TestErrors:
    def test_unknown_method(self, serve):
        start, client = serve
        start(jobs=1)
        with pytest.raises(ServeError) as exc_info:
            client().call("explode")
        assert exc_info.value.code == "method_not_found"

    def test_bad_params(self, serve):
        start, client = serve
        start(jobs=1)
        with pytest.raises(ServeError) as exc_info:
            client().call("check", {"program": "x", "file": "y"})
        assert exc_info.value.code == "bad_request"

    def test_unknown_program_is_bad_request_not_internal(self, serve):
        start, client = serve
        start(jobs=1)
        with pytest.raises(ServeError) as exc_info:
            client().call("check", {"program": "no_such_program"})
        assert exc_info.value.code == "bad_request"

    def test_bad_timeout_rejected(self, serve):
        start, client = serve
        start(jobs=1)
        with pytest.raises(ServeError) as exc_info:
            client().call("check", {"program": "pmdk_hashmap",
                                    "timeout_s": -1})
        assert exc_info.value.code == "bad_request"


class _Gate:
    """Blocks run_method until released; lets tests hold a dispatcher
    busy deterministically. The events and the entry count are
    process-shared and made before the daemon forks its workers (on
    their dispatchers' first cold requests), so the gate holds a request
    the same way whether it runs inline (jobs=1) or in a worker
    (jobs>1)."""

    def __init__(self, real):
        self.real = real
        self.release = multiprocessing.Event()
        self.entered = multiprocessing.Event()
        #: requests that have entered run_method, in any process
        self.entries = multiprocessing.Value("i", 0)

    def __call__(self, method, params, deadline=None, cache_dir=None):
        with self.entries.get_lock():
            self.entries.value += 1
        self.entered.set()
        assert self.release.wait(timeout=60)
        return self.real(method, params, deadline=deadline,
                         cache_dir=cache_dir)


def _wait_in_flight(watcher, count):
    """Poll ``health`` until ``count`` cold requests are admitted
    (queued or executing, whichever dispatcher holds them)."""
    waited = time.monotonic()
    while True:
        health = watcher.result("health")
        if health["queued"] + health["executing"] >= count:
            return
        assert time.monotonic() - waited < 60
        time.sleep(0.01)


class TestBackpressure:
    def test_overloaded_is_structured_with_retry_hint(
            self, serve, monkeypatch):
        start, client = serve
        gate = _Gate(serve_methods.run_method)
        monkeypatch.setattr(serve_methods, "run_method", gate)
        start(jobs=1, max_inflight=2)
        background = []

        def fire(program):
            c = client(retry=RetryPolicy(attempts=1))
            t = threading.Thread(
                target=lambda: c.call("check", {"program": program},
                                      timeout_s=60))
            t.start()
            background.append(t)

        fire("pmdk_hashmap")          # executing (dispatcher blocked)
        assert gate.entered.wait(timeout=10)
        fire("pmfs_journal")          # queued
        time.sleep(0.2)               # let it reach the admission queue
        with pytest.raises(ServeError) as exc_info:
            client().call("check", {"program": "pmdk_btree_map"})
        err = exc_info.value
        assert err.code == "overloaded"
        assert err.retryable
        assert err.retry_after_ms >= 50
        gate.release.set()
        for t in background:
            t.join(timeout=120)

    def test_light_methods_bypass_admission(self, serve, monkeypatch):
        start, client = serve
        gate = _Gate(serve_methods.run_method)
        monkeypatch.setattr(serve_methods, "run_method", gate)
        start(jobs=1, max_inflight=1)
        c = client()
        blocked = client(retry=RetryPolicy(attempts=1))
        t = threading.Thread(
            target=lambda: blocked.call(
                "check", {"program": "pmdk_hashmap"}, timeout_s=60))
        t.start()
        assert gate.entered.wait(timeout=10)
        # admission is saturated, but ping/health still answer inline
        assert c.ping()
        health = c.result("health")
        assert health["status"] == "ok"
        assert health["executing"] == 1
        gate.release.set()
        t.join(timeout=120)


class TestDeadlines:
    def test_crashsim_degrades_to_truncated_partial(self, serve):
        start, client = serve
        start(jobs=1)
        doc = client().result("crashsim",
                              {"programs": ["pmdk_hashmap"]},
                              timeout_s=0.000001)
        entry = doc["programs"][0]
        assert entry["truncated"] is True
        assert entry["deadline_exceeded"] is True
        assert "summary" in doc  # well-formed, never torn

    def test_deadline_partial_is_never_promoted(self, serve):
        start, client = serve
        server = start(jobs=1)
        client().result("crashsim", {"programs": ["pmdk_hashmap"]},
                        timeout_s=0.000001)
        assert server.store.stats()["entries"] == 0

    def test_check_deadline_is_a_structured_error(self, serve):
        start, client = serve
        start(jobs=1)
        with pytest.raises(ServeError) as exc_info:
            client().call("check", {"program": "pmdk_hashmap"},
                          timeout_s=0.000001)
        err = exc_info.value
        assert err.code == "deadline_exceeded"
        assert not err.retryable


class TestSessions:
    def test_suppressions_are_per_session(self, serve):
        start, client = serve
        start(jobs=1)
        a, b = client(), client()
        base = a.result("check", {"program": "pmdk_hashmap"})
        warning = base["report"]["warnings"][0]
        a.call("suppress", {"rule": warning["rule"],
                            "file": warning["file"],
                            "line": warning["line"]})
        filtered = a.result("check", {"program": "pmdk_hashmap"})
        assert len(filtered["report"]["warnings"]) == \
            len(base["report"]["warnings"]) - 1
        assert filtered["suppressed"] == 1
        # the sibling session still sees the unfiltered shared artifact
        assert canonical(b.result("check", {"program": "pmdk_hashmap"})) \
            == canonical(base)


class TestAnalysisCache:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_cold_check_leaves_one_cache_entry(
            self, serve, tmp_path, monkeypatch, jobs):
        """Under the default request deadline every distinct cold check
        reads and writes the daemon's analysis cache. The gate holds the
        first check until the other two are admitted, so at jobs=2 two
        checks compute at once; warm repeats add nothing."""
        start, client = serve
        gate = _Gate(serve_methods.run_method)
        monkeypatch.setattr(serve_methods, "run_method", gate)
        cache_dir = tmp_path / "cache"
        server = start(jobs=jobs, cache_dir=str(cache_dir))
        assert server.config.request_timeout_s == 30.0
        programs = ["pmfs_super", "pmdk_hashmap", "pmfs_journal"]
        threads = [threading.Thread(target=lambda p=p: client().result(
            "check", {"program": p})) for p in programs]
        threads[0].start()
        assert gate.entered.wait(timeout=60)
        for t in threads[1:]:
            t.start()
        watcher = client()
        _wait_in_flight(watcher, len(programs))
        gate.release.set()
        for t in threads:
            t.join(timeout=300)
        assert not any(t.is_alive() for t in threads)
        for program in programs:
            watcher.result("check", {"program": program})
        assert AnalysisCache(cache_dir).stats().entries == len(programs)

    def test_unwritable_cache_dir_still_answers_cold_checks(
            self, serve, tmp_path):
        """The cache only saves work: with a regular file where the
        cache directory should be, a cold check still answers the
        one-shot document and leaves the file as it was."""
        start, client = serve
        blocked = tmp_path / "cache"
        blocked.write_text("")
        start(jobs=1, cache_dir=str(blocked))
        params = {"program": "pmfs_super"}
        doc = client().result("check", params)
        assert canonical(doc) == canonical(one_shot("check", params))
        assert blocked.read_text() == ""


class _CrashOncePlan:
    """Deterministic fault plan stub: the first pool attempt of every
    matching request dies hard (os._exit in the worker)."""

    def __init__(self, needle):
        self.needle = needle

    def executor_fault(self, key):
        if self.needle in key:
            return {"kind": "crash", "attempts": 1}
        return None


class TestPoolRecovery:
    def test_worker_crash_preserves_siblings_and_retries(
            self, serve, monkeypatch):
        start, client = serve
        workload = [("check", {"program": "pmdk_hashmap"}),
                    ("check", {"program": "pmfs_journal"}),
                    ("check", {"program": "pmdk_btree_map"})]
        baselines = [canonical(one_shot(m, p)) for m, p in workload]
        # Hold a dispatcher on a gated request (running in its worker)
        # until all three are admitted, so the crash happens while
        # sibling requests are in flight on the other dispatcher or in
        # the queue.
        gate = _Gate(serve_methods.run_method)
        monkeypatch.setattr(serve_methods, "run_method", gate)
        server = start(jobs=2, pool_timeout_s=30.0,
                       fault_plan=_CrashOncePlan("pmdk_hashmap"))
        holder = threading.Thread(target=lambda: client().call(
            "check", {"program": "pmfs_super"}, timeout_s=60))
        holder.start()
        assert gate.entered.wait(timeout=60)
        results = [None] * len(workload)

        def drive(i):
            method, params = workload[i]
            results[i] = canonical(
                client(retry=RetryPolicy(attempts=2,
                                         base_backoff_s=0.01))
                .result(method, params, timeout_s=300))

        threads = [threading.Thread(target=drive, args=(i,))
                   for i in range(len(workload))]
        for t in threads:
            t.start()
        watcher = client()
        _wait_in_flight(watcher, len(workload) + 1)
        gate.release.set()
        for t in threads + [holder]:
            t.join(timeout=300)
        assert not any(t.is_alive() for t in threads + [holder])
        assert results == baselines
        snap = server.telemetry.metrics.snapshot()
        # only the crashed request's worker was replaced
        assert snap.get("executor.worker_restarts", 0) == 1
        assert snap.get("executor.workers_started", 0) == 3


class TestPoolTelemetry:
    def test_pool_batch_adopts_no_worker_spans(self, serve, monkeypatch):
        """The daemon's task function ignores its telemetry: requests
        run in the workers answer like one-shot and leave no span
        behind."""
        start, client = serve
        workload = [("check", {"program": "pmdk_hashmap"}),
                    ("check", {"program": "pmfs_journal"})]
        baselines = [canonical(one_shot(m, p)) for m, p in workload]
        gate = _Gate(serve_methods.run_method)
        monkeypatch.setattr(serve_methods, "run_method", gate)
        server = start(jobs=2, pool_timeout_s=30.0)
        holder = threading.Thread(target=lambda: client().call(
            "check", {"program": "pmfs_super"}, timeout_s=60))
        holder.start()
        assert gate.entered.wait(timeout=60)
        docs = [None] * len(workload)

        def drive(i):
            docs[i] = client().call(*workload[i], timeout_s=300)

        threads = [threading.Thread(target=drive, args=(i,))
                   for i in range(len(workload))]
        for t in threads:
            t.start()
        watcher = client()
        _wait_in_flight(watcher, len(workload) + 1)
        gate.release.set()
        for t in threads + [holder]:
            t.join(timeout=300)
        assert not any(t.is_alive() for t in threads + [holder])
        assert [canonical(d["result"]) for d in docs] == baselines
        assert [d["meta"]["served"] for d in docs] == ["pool", "pool"]
        assert server.telemetry.tracer.roots == []


class _RecordsPid:
    """Wraps run_method and records, in process-shared memory, the pid
    of the process that ran it."""

    def __init__(self, real):
        self.real = real
        self.pid = multiprocessing.Value("i", 0)

    def __call__(self, method, params, deadline=None, cache_dir=None):
        self.pid.value = os.getpid()
        return self.real(method, params, deadline=deadline,
                         cache_dir=cache_dir)


def _worker_counts(c):
    counters = c.result("stats")["counters"]
    return (counters.get("executor.workers_started", 0),
            counters.get("executor.worker_restarts", 0))


class TestPoolLifetime:
    """Under jobs > 1 each dispatcher keeps one worker for the daemon's
    life: forked on the first cold request that dispatcher takes,
    replaced only when it dies or stalls, and gone after shutdown."""

    def test_sequential_cold_checks_share_one_pool(self, serve):
        start, client = serve
        start(jobs=2)
        c = client()
        assert _worker_counts(c) == (0, 0)  # start-up forks nothing
        for program in REGISTRY.programs()[:10]:
            doc = c.call("check", {"program": program.name})
            assert doc["meta"]["served"] == "pool"
        started, restarts = _worker_counts(c)
        # whichever dispatcher is free takes the next request
        assert 1 <= started <= 2
        assert restarts == 0

    def test_worker_crash_rebuilds_the_pool_once(self, serve):
        start, client = serve
        programs = ["pmfs_super", "pmdk_hashmap", "pmfs_journal",
                    "pmdk_btree_map"]
        baselines = {p: canonical(one_shot("check", {"program": p}))
                     for p in programs}
        start(jobs=2, pool_timeout_s=30.0,
              fault_plan=_CrashOncePlan("pmdk_hashmap"))
        c = client()
        got = {programs[0]: canonical(
            c.result("check", {"program": programs[0]}))}
        assert _worker_counts(c) == (1, 0)
        # the first attempt kills its worker: one restart, on top of
        # the worker of whichever dispatcher took the request
        got[programs[1]] = canonical(
            c.result("check", {"program": programs[1]}))
        started, restarts = _worker_counts(c)
        assert 2 <= started <= 3
        assert restarts == 1
        for program in programs[2:]:
            got[program] = canonical(c.result("check", {"program": program}))
        assert _worker_counts(c)[0] <= 3
        assert _worker_counts(c)[1] == 1
        assert got == baselines

    def test_single_cold_request_is_computed_in_a_worker(
            self, serve, monkeypatch):
        start, client = serve
        params = {"program": "pmfs_super"}
        baseline = canonical(one_shot("check", params))
        recorder = _RecordsPid(serve_methods.run_method)
        monkeypatch.setattr(serve_methods, "run_method", recorder)
        start(jobs=2)
        doc = client().call("check", params)
        assert doc["meta"]["served"] == "pool"
        assert canonical(doc["result"]) == baseline
        assert recorder.pid.value not in (0, os.getpid())

    def test_shutdown_leaves_no_worker_behind(self, serve):
        start, client = serve
        before = {p.pid for p in multiprocessing.active_children()}
        server = start(jobs=2)
        client().result("check", {"program": "pmfs_super"})
        workers = {p.pid for p in multiprocessing.active_children()} - before
        # one request forked only its own dispatcher's worker
        assert len(workers) == 1
        assert server.shutdown(drain=True, timeout=60) is True
        assert not workers & {p.pid for p in
                              multiprocessing.active_children()}


class TestDispatchers:
    def test_two_cold_requests_compute_at_once(self, serve, monkeypatch):
        """Under jobs=2 a second cold request does not wait for the
        first: both are inside run_method, in two workers, before
        either is released."""
        start, client = serve
        workload = [("check", {"program": "pmdk_hashmap"}),
                    ("check", {"program": "pmfs_journal"})]
        baselines = [canonical(one_shot(m, p)) for m, p in workload]
        gate = _Gate(serve_methods.run_method)
        monkeypatch.setattr(serve_methods, "run_method", gate)
        start(jobs=2)
        docs = [None] * len(workload)

        def drive(i):
            docs[i] = client().result(*workload[i], timeout_s=120)

        threads = [threading.Thread(target=drive, args=(i,))
                   for i in range(len(workload))]
        for t in threads:
            t.start()
        waited = time.monotonic()
        while gate.entries.value < 2 and time.monotonic() - waited < 60:
            time.sleep(0.01)
        assert gate.entries.value == 2
        gate.release.set()
        for t in threads:
            t.join(timeout=300)
        assert not any(t.is_alive() for t in threads)
        assert [canonical(d) for d in docs] == baselines

    def test_more_dispatchers_than_cores_lose_no_request(self, serve):
        """Stress: three dispatchers and four clients, with a short
        thread switch interval. Every answer matches one-shot, every
        admitted request is dispatched exactly once, and the daemon ends
        idle with no worker replaced."""
        start, client = serve
        programs = [p.name for p in REGISTRY.programs()[:6]]
        baselines = {p: canonical(one_shot("check", {"program": p}))
                     for p in programs}
        server = start(jobs=3, max_inflight=16)
        clients = [client() for _ in range(4)]
        failures = []

        def drive(k):
            for step in range(len(programs)):
                program = programs[(k + step) % len(programs)]
                doc = clients[k].result("check", {"program": program},
                                        timeout_s=120)
                if canonical(doc) != baselines[program]:
                    failures.append((k, program))

        threads = [threading.Thread(target=drive, args=(k,))
                   for k in range(len(clients))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        counters = clients[0].result("stats")["counters"]
        assert counters["serve.cold_misses"] + counters["serve.warm_hits"] \
            == len(clients) * len(programs)
        assert counters["serve.queue_wait_ms.count"] == \
            counters["serve.cold_misses"]
        assert 1 <= counters["executor.workers_started"] <= 3
        assert counters.get("executor.worker_restarts", 0) == 0
        health = clients[0].result("health")
        assert (health["queued"], health["executing"]) == (0, 0)
        assert server.store.stats()["entries"] == len(programs)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_queue_wait_is_observed_once_per_cold_request(self, serve,
                                                          jobs):
        start, client = serve
        start(jobs=jobs)
        c = client()
        programs = ["pmfs_super", "pmdk_hashmap", "pmfs_journal"]
        for program in programs:
            assert c.call("check", {"program": program})["meta"][
                "served"] != "warm"
        for program in programs[:2]:
            assert c.call("check", {"program": program})["meta"][
                "served"] == "warm"
        counters = c.result("stats")["counters"]
        assert counters["serve.cold_misses"] == len(programs)
        assert counters["serve.warm_hits"] == 2
        assert counters["serve.queue_wait_ms.count"] == len(programs)
        assert 0 <= counters["serve.queue_wait_ms.min"] \
            <= counters["serve.queue_wait_ms.p50"] \
            <= counters["serve.queue_wait_ms.max"]


class TestConnections:
    def test_finished_connection_threads_are_not_kept(self, serve):
        """300 connect/ping/close cycles leave the daemon holding only
        its acceptor and dispatcher threads, not one per connection."""
        start, _client = serve
        server = start(jobs=1)
        for _ in range(300):
            c = connect(socket_path=server.config.socket_path,
                        retry=RetryPolicy(attempts=1))
            assert c.ping()
            c.close()
        deadline = time.monotonic() + 30
        while server._conns and time.monotonic() < deadline:
            time.sleep(0.01)
        # a connection thread leaves _conns just before it returns
        for t in threading.enumerate():
            if t.name == "serve-conn":
                t.join(max(deadline - time.monotonic(), 0))
        assert server._conns == []
        assert len(server._threads) == 2
        assert not [t for t in threading.enumerate()
                    if t.name == "serve-conn"]

    def test_shutdown_joins_open_connection_threads(self, serve):
        start, client = serve
        server = start(jobs=1)
        clients = [client() for _ in range(3)]
        assert all(c.ping() for c in clients)
        threads = [conn.thread for conn in server._conns]
        assert len(threads) == 3
        assert server.shutdown(drain=True, timeout=30) is True
        assert not any(t.is_alive() for t in threads)


class TestDrain:
    def test_drain_completes_inflight_and_refuses_new(
            self, serve, monkeypatch):
        start, client = serve
        gate = _Gate(serve_methods.run_method)
        monkeypatch.setattr(serve_methods, "run_method", gate)
        server = start(jobs=1)
        inflight_result = {}

        def drive():
            c = client(retry=RetryPolicy(attempts=1))
            inflight_result["doc"] = c.result(
                "check", {"program": "pmdk_hashmap"}, timeout_s=120)

        t = threading.Thread(target=drive)
        t.start()
        assert gate.entered.wait(timeout=10)

        drained = {}
        shut = threading.Thread(
            target=lambda: drained.setdefault(
                "ok", server.shutdown(drain=True, timeout=60)))
        shut.start()
        time.sleep(0.2)  # the daemon is now draining
        with pytest.raises(ServeError) as exc_info:
            client().call("check", {"program": "pmfs_journal"})
        assert exc_info.value.code == "shutting_down"
        assert exc_info.value.retryable

        gate.release.set()
        t.join(timeout=120)
        shut.join(timeout=120)
        assert drained["ok"] is True
        # the admitted request's response was flushed before close
        assert inflight_result["doc"]["report"] is not None

    def test_busy_dispatchers_share_one_join_budget(
            self, serve, monkeypatch):
        """A drain that runs out of time with three dispatchers busy
        waits one join budget (5 s) for all of them, not one each,
        before it kills their workers."""
        start, client = serve
        gate = _Gate(serve_methods.run_method)
        monkeypatch.setattr(serve_methods, "run_method", gate)
        # a progress deadline past the test, so no dispatcher frees
        # itself by killing its stuck worker
        server = start(jobs=3, pool_timeout_s=120)
        programs = [p.name for p in REGISTRY.programs()[:3]]
        clients = [client() for _ in programs]

        def drive(c, program):
            with pytest.raises(Exception):
                c.call("check", {"program": program}, timeout_s=60)

        threads = [threading.Thread(target=drive, args=pair)
                   for pair in zip(clients, programs)]
        for t in threads:
            t.start()
        waited = time.monotonic()
        while gate.entries.value < 3 and time.monotonic() - waited < 60:
            time.sleep(0.01)
        assert gate.entries.value == 3
        began = time.monotonic()
        assert server.shutdown(drain=True, timeout=0.2) is False
        elapsed = time.monotonic() - began
        # no release: the workers waiting on the gate were killed, and
        # an Event whose waiters were killed never finishes a set()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert elapsed < 10

    def test_drain_timeout_reports_failure(self, serve, monkeypatch):
        start, client = serve
        gate = _Gate(serve_methods.run_method)
        monkeypatch.setattr(serve_methods, "run_method", gate)
        server = start(jobs=1)
        c = client(retry=RetryPolicy(attempts=1))
        t = threading.Thread(
            target=lambda: pytest.raises(
                Exception,
                lambda: c.call("check", {"program": "pmdk_hashmap"},
                               timeout_s=60)))
        t.start()
        assert gate.entered.wait(timeout=10)
        assert server.shutdown(drain=True, timeout=0.2) is False
        gate.release.set()
        t.join(timeout=120)
