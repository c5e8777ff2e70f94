"""Static checking rules (Tables 4 and 5)."""

import hashlib
from typing import Callable, Dict, List

from ...models import ALL_RULES, PersistencyModel
from .base import CheckContext, EventFacts, TraceRule
from .performance import (
    EmptyDurableTxRule,
    FlushUnmodifiedRule,
    MultiPersistInTxRule,
    RedundantFlushRule,
)
from .violation import (
    EpochBarrierRule,
    MultiWritePerBarrierRule,
    SemanticMismatchRule,
    StrandOverlapRule,
    StrictMissingBarrierRule,
    UnflushedWriteRule,
)


#: Bump when rule *behaviour* changes in a way the spec table can't see
#: (the fingerprint below already tracks spec additions/edits). Part of
#: every analysis-cache key, so stale cached reports die on upgrade.
RULESET_REVISION = 2


def ruleset_version() -> str:
    """Content fingerprint of the active rule set.

    Hashes every rule spec (id, title, formal text, category, models)
    together with :data:`RULESET_REVISION`. Any edit to Table 4/5 specs —
    or an explicit revision bump for implementation-only changes —
    changes the fingerprint and invalidates cached analysis results.
    """
    h = hashlib.sha256()
    h.update(f"rev={RULESET_REVISION}".encode())
    for spec in ALL_RULES:
        h.update(
            f"|{spec.rule_id}|{spec.title}|{spec.formal}|{spec.category}"
            f"|{','.join(spec.models)}|{int(spec.dynamic)}".encode()
        )
    return f"{RULESET_REVISION}.{h.hexdigest()[:16]}"


def build_rules(model: PersistencyModel) -> List[Callable[[], TraceRule]]:
    """Rule factories for one model (one fresh instance per analysis
    root; the engine forks them where the root's traces diverge)."""
    ids = set(model.rule_ids)
    factories: List[Callable[[], TraceRule]] = []
    if "strict.unflushed-write" in ids:
        factories.append(lambda: UnflushedWriteRule("strict.unflushed-write"))
    if "epoch.unflushed-write" in ids:
        factories.append(lambda: UnflushedWriteRule("epoch.unflushed-write"))
    if "strict.multi-write-barrier" in ids:
        factories.append(lambda: MultiWritePerBarrierRule(model.name))
    if "strict.missing-barrier" in ids:
        factories.append(StrictMissingBarrierRule)
    if "epoch.missing-barrier" in ids or "epoch.nested-missing-barrier" in ids:
        between = "epoch.missing-barrier" in ids
        nested = "epoch.nested-missing-barrier" in ids
        factories.append(lambda b=between, n=nested: EpochBarrierRule(b, n))
    if "epoch.semantic-mismatch" in ids:
        factories.append(lambda: SemanticMismatchRule(model.name))
    if "strand.dependence" in ids:
        factories.append(StrandOverlapRule)
    if "perf.flush-unmodified" in ids:
        factories.append(FlushUnmodifiedRule)
    if "perf.redundant-flush" in ids:
        factories.append(RedundantFlushRule)
    if "perf.multi-persist-tx" in ids:
        factories.append(MultiPersistInTxRule)
    if "perf.empty-durable-tx" in ids:
        factories.append(EmptyDurableTxRule)
    return factories


__all__ = [
    "CheckContext",
    "RULESET_REVISION",
    "ruleset_version",
    "EmptyDurableTxRule",
    "EpochBarrierRule",
    "EventFacts",
    "FlushUnmodifiedRule",
    "MultiPersistInTxRule",
    "MultiWritePerBarrierRule",
    "RedundantFlushRule",
    "SemanticMismatchRule",
    "StrandOverlapRule",
    "StrictMissingBarrierRule",
    "TraceRule",
    "UnflushedWriteRule",
    "build_rules",
]
