"""The chaos ``serve`` layer: a faulted multi-client daemon session must
return verdicts byte-identical to one-shot CLI runs (invariant d)."""

import json

import pytest

from repro.faults.plan import ALL_LAYERS, FaultPlan, LAYERS
from repro.parallel import AnalysisCache
from repro.parallel.cache import CACHE_FORMAT_VERSION
from repro.serve.chaos import (
    DEFAULT_SERVE_PROGRAMS,
    baseline_docs,
    build_schedule,
    run_serve_phase,
)


class TestSchedule:
    def test_schedules_are_seed_deterministic(self):
        plan = FaultPlan(seed=3, layers=ALL_LAYERS)
        a = build_schedule(plan, DEFAULT_SERVE_PROGRAMS, 4, 6)
        b = build_schedule(plan, DEFAULT_SERVE_PROGRAMS, 4, 6)
        assert a == b

    def test_clients_get_distinct_mixed_orders(self):
        plan = FaultPlan(seed=3, layers=ALL_LAYERS)
        schedules = build_schedule(plan, DEFAULT_SERVE_PROGRAMS, 4, 6)
        assert len(schedules) == 4
        assert all(len(s) == 6 for s in schedules)
        assert len({tuple(str(r) for r in s) for s in schedules}) > 1
        methods = {m for s in schedules for m, _p in s}
        assert "check" in methods

    def test_baseline_deduplicates_shared_requests(self):
        plan = FaultPlan(seed=0, layers=ALL_LAYERS)
        schedules = build_schedule(plan, DEFAULT_SERVE_PROGRAMS[:2], 3, 3)
        docs = baseline_docs(schedules)
        unique = {str(r) for s in schedules for r in s}
        assert len(docs) <= len(unique)


class TestLayerGating:
    def test_serve_is_opt_in_not_in_the_default_sweep(self):
        assert "serve" not in LAYERS
        assert "serve" in ALL_LAYERS
        assert ALL_LAYERS[: len(LAYERS)] == LAYERS


@pytest.mark.slow
class TestServePhase:
    def test_faulted_session_matches_one_shot_baseline(self):
        plan = FaultPlan(seed=1, layers=ALL_LAYERS)
        summary = run_serve_phase(plan,
                                  programs=DEFAULT_SERVE_PROGRAMS[:3],
                                  clients=2, requests_per_client=3,
                                  jobs=2, deadline_s=30.0)
        assert summary["violations"] == []
        assert summary["compared"] + summary["refused"] == \
            summary["requests"]
        assert summary["compared"] > 0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_daemon_quarantines_every_corrupted_entry(self, seed, tmp_path):
        """Every cache entry the phase corrupted is one a cold daemon
        check reads. A truncated or bit-flipped entry is corrupt, so it
        ends up in the quarantine; a stale one (an older format) is a
        plain miss, which the check overwrites with a fresh entry.
        Executor faults are off: their hangs only cost pool deadlines
        here."""
        plan = FaultPlan(seed=seed, layers=("cache", "serve"))
        summary = run_serve_phase(plan, workdir=str(tmp_path))
        assert summary["violations"] == []
        assert summary["cache_corrupted"] > 0
        cache = AnalysisCache(tmp_path / "cache")
        quarantined = cache.quarantined_files()
        assert all(plan.cache_fault(path.name) in ("truncate", "bitflip")
                   for path in quarantined)
        stale = [path for path in cache._entry_files()
                 if plan.cache_fault(path.name) == "stale"]
        assert all(json.loads(path.read_text())["format"]
                   == CACHE_FORMAT_VERSION for path in stale)
        assert len(quarantined) + len(stale) == summary["cache_corrupted"]
