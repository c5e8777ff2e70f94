"""End-to-end daemon tests over a real unix socket: byte-identical
verdicts under concurrency, warm serving, backpressure, deadline
degradation, session isolation, pool recovery, and drain shutdown."""

import json
import threading
import time

import pytest

from repro.errors import ServeError
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
    """Blocks run_method until released; lets tests hold the dispatcher
    busy deterministically (jobs=1 runs requests inline on it)."""

    def __init__(self, real):
        self.real = real
        self.release = threading.Event()
        self.entered = threading.Event()

    def __call__(self, method, params, deadline=None, cache_dir=None):
        self.entered.set()
        assert self.release.wait(timeout=60)
        return self.real(method, params, deadline=deadline,
                         cache_dir=cache_dir)


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
        # A batch of one request runs inline, where no executor fault
        # fires. Hold the dispatcher on a gated request until all three
        # are queued, so they reach the pool as one batch.
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
        waited = time.monotonic()
        while watcher.result("health")["queued"] < len(workload):
            assert time.monotonic() - waited < 60
            time.sleep(0.01)
        gate.release.set()
        for t in threads + [holder]:
            t.join(timeout=300)
        assert not any(t.is_alive() for t in threads + [holder])
        assert results == baselines
        snap = server.telemetry.metrics.snapshot()
        assert snap.get("executor.pool_rebuilds", 0) >= 1


class TestPoolTelemetry:
    def test_pool_batch_adopts_no_worker_spans(self, serve, monkeypatch):
        """The daemon's task function ignores its telemetry: a batch run
        on the pool answers like one-shot and leaves no span behind."""
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
        waited = time.monotonic()
        while watcher.result("health")["queued"] < len(workload):
            assert time.monotonic() - waited < 60
            time.sleep(0.01)
        gate.release.set()
        for t in threads + [holder]:
            t.join(timeout=300)
        assert not any(t.is_alive() for t in threads + [holder])
        assert [canonical(d["result"]) for d in docs] == baselines
        assert [d["meta"]["served"] for d in docs] == ["pool", "pool"]
        assert server.telemetry.tracer.roots == []


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
