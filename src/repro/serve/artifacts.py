"""The daemon's warm artifact store.

A long-lived daemon amortizes analysis cost across requests: the first
``check pmdk_hashmap`` pays for verify/DSA/traces/rules, every later one
is a dictionary lookup. The store is the *shared, immutable* half of the
daemon's state — per-session mutation (warning suppressions) lives in
:class:`~repro.serve.session.SessionState` and is applied to a *copy* of
the stored document on the way out, never written back.

Two properties matter for correctness under concurrency and faults:

* **immutability** — ``get`` returns a deep copy, so no caller (not the
  suppression filter, not a buggy handler) can corrupt the shared entry;
* **complete-only promotion** — a result produced under a deadline cut
  (``truncated`` / ``deadline_exceeded``) is returned to its requester
  but *never* stored: a warm hit must always be the full answer, or the
  daemon would keep serving a partial forever after one slow request.
"""

from __future__ import annotations

import copy
import threading
from typing import Any, Dict, Optional

#: documents the store holds before it stops promoting (read at use time)
MAX_ENTRIES = 1024


def is_complete(doc: Dict[str, Any]) -> bool:
    """True when ``doc`` is safe to promote: no *deadline* partial
    anywhere in the top-level result or its per-program entries.

    Only ``deadline_exceeded`` blocks promotion. Plain ``truncated``
    (the ``max_states`` budget) is a pure function of the request params
    — the same request always truncates the same way — so those
    documents are as cacheable as complete ones.
    """

    def cut(d: Any) -> bool:
        return isinstance(d, dict) and bool(d.get("deadline_exceeded"))

    if cut(doc):
        return False
    for value in doc.values():
        if cut(value):
            return False
        if isinstance(value, list) and any(cut(v) for v in value):
            return False
    return True


class ArtifactStore:
    """Thread-safe memo of deterministic result documents."""

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: Dict[str, Dict[str, Any]] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            doc = self._entries.get(key)
            if doc is None:
                self.misses += 1
                return None
            self.hits += 1
            return copy.deepcopy(doc)

    def put(self, key: str, doc: Dict[str, Any]) -> bool:
        """Promote one document; refuses partials and respects the entry
        cap (the store never evicts — a serve corpus is finite — it just
        stops promoting, which only costs recomputation)."""
        if not is_complete(doc):
            return False
        with self._lock:
            if key not in self._entries and \
                    len(self._entries) >= MAX_ENTRIES:
                return False
            self._entries[key] = copy.deepcopy(doc)
            return True

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"entries": len(self._entries), "hits": self.hits,
                    "misses": self.misses}
