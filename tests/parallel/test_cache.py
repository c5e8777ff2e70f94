"""Analysis-cache correctness: content addressing, invalidation, admin."""

import json
import os

import pytest

from repro.checker.rules import ruleset_version
from repro.deadline import Deadline
from repro.errors import DeadlineExceeded
from repro.ir import print_module
from repro.parallel import (
    AnalysisCache,
    cache_key,
    check_with_cache,
    default_cache_dir,
)
from tests.conftest import build_two_field_module


NEEDS_MODE_BITS = pytest.mark.skipif(os.geteuid() == 0,
                                     reason="root ignores mode bits")


@pytest.fixture
def cache(tmp_path):
    return AnalysisCache(tmp_path / "cache")


class TestCacheKey:
    def test_stable_for_identical_ir(self):
        m1 = build_two_field_module()
        m2 = build_two_field_module()
        assert print_module(m1) == print_module(m2)
        assert cache_key(m1, "strict") == cache_key(m2, "strict")

    def test_changes_with_edited_ir(self):
        buggy = build_two_field_module(flush_both=False)
        fixed = build_two_field_module(flush_both=True)
        assert cache_key(buggy, "strict") != cache_key(fixed, "strict")

    def test_changes_with_model(self):
        m = build_two_field_module()
        assert cache_key(m, "strict") != cache_key(m, "epoch")

    def test_changes_with_ruleset_version(self):
        m = build_two_field_module()
        assert cache_key(m, "strict", ruleset="1.aaaa") != \
            cache_key(m, "strict", ruleset="2.bbbb")

    def test_changes_with_checker_opts(self):
        m = build_two_field_module()
        assert cache_key(m, "strict", {"field_sensitive": False}) != \
            cache_key(m, "strict")

    def test_ruleset_version_is_deterministic(self):
        assert ruleset_version() == ruleset_version()
        assert "." in ruleset_version()


class TestCheckWithCache:
    def test_miss_then_hit_same_report(self, cache):
        m1 = build_two_field_module()
        first = check_with_cache(m1, cache)
        assert not first.hit
        second = check_with_cache(build_two_field_module(), cache)
        assert second.hit
        assert second.report.to_dict() == first.report.to_dict()
        assert second.traces_checked == first.traces_checked

    def test_edited_ir_misses(self, cache):
        check_with_cache(build_two_field_module(flush_both=False), cache)
        fixed = check_with_cache(
            build_two_field_module(flush_both=True), cache)
        assert not fixed.hit
        assert len(fixed.report) == 0

    def test_bumped_ruleset_misses(self, cache, monkeypatch):
        check_with_cache(build_two_field_module(), cache)
        monkeypatch.setattr("repro.checker.rules.RULESET_REVISION", 999)
        again = check_with_cache(build_two_field_module(), cache)
        assert not again.hit

    def test_no_cache_still_checks(self):
        checked = check_with_cache(build_two_field_module(), None)
        assert not checked.hit
        assert checked.key == ""
        assert checked.traces_checked >= 1

    def test_miss_under_expired_deadline_raises_and_stores_nothing(
            self, cache):
        with pytest.raises(DeadlineExceeded):
            check_with_cache(build_two_field_module(), cache,
                             deadline=Deadline(0.0))
        assert cache.stats().entries == 0

    def test_hit_under_expired_deadline_returns_stored_report(self, cache):
        first = check_with_cache(build_two_field_module(), cache)
        again = check_with_cache(build_two_field_module(), cache,
                                 deadline=Deadline(0.0))
        assert again.hit
        assert again.report.to_dict() == first.report.to_dict()

    @pytest.mark.parametrize("mode", [
        None,
        pytest.param(0o500, marks=NEEDS_MODE_BITS),
        pytest.param(0o000, marks=NEEDS_MODE_BITS),
    ], ids=["file-in-the-way", "read-only", "unlistable"])
    def test_unusable_cache_still_returns_the_report(self, tmp_path, mode):
        """The cache only saves work: where no entry can be read or
        written, a miss still returns its report, counted as a write
        error. A regular file where the cache directory should be stops
        every write, even root's."""
        from repro.telemetry import Telemetry

        root = tmp_path / "cache"
        if mode is None:
            root.write_text("")
        else:
            root.mkdir()
            root.chmod(mode)
        tel = Telemetry()
        try:
            checked = check_with_cache(build_two_field_module(),
                                       AnalysisCache(root), telemetry=tel)
        finally:
            if mode is not None:
                root.chmod(0o700)
        plain = check_with_cache(build_two_field_module(), None)
        assert not checked.hit
        assert checked.report.to_dict() == plain.report.to_dict()
        assert tel.metrics.snapshot()["cache.write_errors"] == 1
        assert AnalysisCache(root).stats().entries == 0

    def test_hit_and_miss_counters(self, cache):
        from repro.telemetry import Telemetry

        tel = Telemetry()
        check_with_cache(build_two_field_module(), cache, telemetry=tel)
        check_with_cache(build_two_field_module(), cache, telemetry=tel)
        snap = tel.metrics.snapshot()
        assert snap["cache.misses"] == 1
        assert snap["cache.hits"] == 1

    def test_corrupt_entry_is_a_miss(self, cache):
        first = check_with_cache(build_two_field_module(), cache)
        path = cache._path(first.key)
        path.write_text("{not json")
        again = check_with_cache(build_two_field_module(), cache)
        assert not again.hit
        # ...and the entry was rewritten
        assert json.loads(path.read_text())["module"]

    def test_foreign_format_is_a_miss(self, cache):
        first = check_with_cache(build_two_field_module(), cache)
        path = cache._path(first.key)
        payload = json.loads(path.read_text())
        payload["format"] = 999
        path.write_text(json.dumps(payload))
        assert not check_with_cache(build_two_field_module(), cache).hit


class TestChecksumIntegrity:
    def _entry(self, cache):
        checked = check_with_cache(build_two_field_module(), cache)
        return checked.key, cache._path(checked.key)

    def test_entries_carry_a_valid_checksum(self, cache):
        from repro.parallel.cache import payload_checksum

        key, path = self._entry(cache)
        payload = json.loads(path.read_text())
        assert payload["checksum"] == payload_checksum(payload)
        assert cache.get(key) is not None

    def test_bitflipped_entry_is_quarantined(self, cache):
        from repro.telemetry import Telemetry

        tel = Telemetry()
        cache.telemetry = tel
        key, path = self._entry(cache)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x04
        path.write_bytes(bytes(raw))
        assert cache.get(key) is None
        assert not path.exists()
        assert len(cache.quarantined_files()) == 1
        snap = tel.metrics.snapshot()
        assert snap["cache.corrupt"] == 1
        assert snap["cache.quarantined"] == 1
        # the recomputed entry goes back to the primary location
        again = check_with_cache(build_two_field_module(), cache)
        assert not again.hit
        assert path.exists()

    def test_truncated_entry_is_quarantined(self, cache):
        key, path = self._entry(cache)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        assert cache.get(key) is None
        assert len(cache.quarantined_files()) == 1

    def test_missing_checksum_is_corrupt(self, cache):
        key, path = self._entry(cache)
        payload = json.loads(path.read_text())
        del payload["checksum"]
        path.write_text(json.dumps(payload))
        assert cache.get(key) is None
        assert len(cache.quarantined_files()) == 1

    def test_stale_format_misses_without_quarantine(self, cache):
        from repro.parallel.cache import (
            CACHE_FORMAT_VERSION,
            payload_checksum,
        )
        from repro.telemetry import Telemetry

        tel = Telemetry()
        cache.telemetry = tel
        key, path = self._entry(cache)
        payload = json.loads(path.read_text())
        payload["format"] = CACHE_FORMAT_VERSION - 1
        del payload["checksum"]
        payload["checksum"] = payload_checksum(payload)
        path.write_text(json.dumps(payload))
        assert cache.get(key) is None
        assert path.exists()  # stale ≠ corrupt: left for overwrite
        assert cache.quarantined_files() == []
        assert tel.metrics.snapshot()["cache.stale"] == 1

    def test_stats_count_quarantined_entries(self, cache):
        key, path = self._entry(cache)
        path.write_bytes(b"\x00garbage")
        assert cache.get(key) is None
        stats = cache.stats()
        assert stats.entries == 0
        assert stats.quarantined == 1
        assert stats.as_dict()["quarantined"] == 1

    def test_quarantine_does_not_shadow_entries(self, cache):
        """Files in quarantine/ are invisible to stats() and clear()."""
        key, path = self._entry(cache)
        path.write_text("{broken")
        cache.get(key)
        assert cache.stats().entries == 0
        assert cache.clear() == 0
        assert len(cache.quarantined_files()) == 1


class TestCacheAdmin:
    def test_stats_and_clear(self, cache):
        assert cache.stats().entries == 0
        check_with_cache(build_two_field_module(flush_both=False), cache)
        check_with_cache(build_two_field_module(flush_both=True), cache)
        stats = cache.stats()
        assert stats.entries == 2
        assert stats.total_bytes > 0
        assert cache.clear() == 2
        assert cache.stats().entries == 0
        # post-clear runs recompute (miss) and repopulate
        assert not check_with_cache(build_two_field_module(), cache).hit
        assert cache.stats().entries == 1

    def test_default_dir_respects_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("DEEPMC_CACHE_DIR", str(tmp_path / "envcache"))
        assert default_cache_dir() == tmp_path / "envcache"
        monkeypatch.delenv("DEEPMC_CACHE_DIR")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "deepmc"
