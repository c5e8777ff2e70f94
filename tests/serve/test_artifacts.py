"""The warm artifact store: immutability, single-flight, complete-only
promotion."""

import threading

from repro.serve.artifacts import ArtifactStore, is_complete


class TestIsComplete:
    def test_plain_doc_is_complete(self):
        assert is_complete({"report": {"warnings": []}})

    def test_top_level_deadline_cut_blocks(self):
        assert not is_complete({"truncated": True,
                                "deadline_exceeded": True})

    def test_nested_program_entry_blocks(self):
        assert not is_complete({
            "programs": [{"states": 3, "deadline_exceeded": True}],
            "summary": {},
        })

    def test_max_states_truncation_is_cacheable(self):
        # truncated-by-budget is a pure function of the params; only a
        # *deadline* cut is time-dependent and must never be promoted
        assert is_complete({"truncated": True, "states": 256})


class TestArtifactStore:
    def test_get_returns_a_defensive_copy(self):
        store = ArtifactStore()
        store.put("k", {"report": {"warnings": [{"rule": "r1"}]}})
        doc = store.get("k")
        doc["report"]["warnings"].clear()
        assert store.get("k")["report"]["warnings"] == [{"rule": "r1"}]

    def test_put_refuses_deadline_partials(self):
        store = ArtifactStore()
        assert not store.put("k", {"deadline_exceeded": True})
        assert store.get("k") is None

    def test_entry_cap_stops_promotion_without_evicting(self):
        store = ArtifactStore(max_entries=2)
        assert store.put("a", {"v": 1})
        assert store.put("b", {"v": 2})
        assert not store.put("c", {"v": 3})
        assert store.get("a") == {"v": 1}  # nothing evicted
        assert store.put("a", {"v": 9})  # overwriting existing still fine

    def test_stats(self):
        store = ArtifactStore()
        store.put("k", {"v": 1})
        store.get("k")
        store.get("missing")
        assert store.stats() == {"entries": 1, "hits": 1, "misses": 1}

    def test_single_flight_computes_once(self):
        store = ArtifactStore()
        calls = []
        started = threading.Barrier(4)

        def compute():
            calls.append(1)
            return {"v": 42}

        results = []

        def racer():
            started.wait(timeout=10)
            results.append(store.get_or_compute("k", compute))

        threads = [threading.Thread(target=racer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert len(calls) == 1
        assert all(doc == {"v": 42} for doc, _warm in results)
        assert sum(1 for _doc, warm in results if not warm) == 1

    def test_failed_compute_releases_waiters(self):
        store = ArtifactStore()

        def boom():
            raise RuntimeError("compute died")

        try:
            store.get_or_compute("k", boom)
        except RuntimeError:
            pass
        # the key is not wedged: the next caller becomes the new flight
        doc, warm = store.get_or_compute("k", lambda: {"v": 1})
        assert (doc, warm) == ({"v": 1}, False)

    def test_partial_compute_is_returned_but_not_stored(self):
        store = ArtifactStore()
        partial = {"truncated": True, "deadline_exceeded": True}
        doc, warm = store.get_or_compute("k", lambda: partial)
        assert doc == partial and not warm
        assert store.get("k") is None
