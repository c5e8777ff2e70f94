"""Memory persistency model specifications.

Declarative encodings of the three models from Pelley et al. that DeepMC
checks against (§2.2), including the formal checking rules of Table 4
(model violations) and Table 5 (performance bugs). The checker engine
selects rule implementations by the rule ids listed here; the Table 4/5
benches print the ``formal`` sentences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import CheckerError

CATEGORY_VIOLATION = "violation"
CATEGORY_PERFORMANCE = "performance"


@dataclass(frozen=True)
class RuleSpec:
    """One checking rule: identity, classification, and its formal text."""

    rule_id: str
    title: str
    formal: str
    category: str
    #: which model flags this rule runs under ("*" = all)
    models: Tuple[str, ...] = ("*",)
    #: checked dynamically rather than statically
    dynamic: bool = False


# --- Table 4: persistency model violation rules -----------------------------

R_STRICT_UNFLUSHED = RuleSpec(
    "strict.unflushed-write",
    "Unflushed/unlogged write",
    "An operation W writing to addr A1 should be followed by a flush F at "
    "addr A2, where A1 = A2.",
    CATEGORY_VIOLATION,
    ("strict",),
)

R_STRICT_MULTI_WRITE = RuleSpec(
    "strict.multi-write-barrier",
    "Multiple writes made durable at once",
    "A persist barrier P should be preceded by only one write W.",
    CATEGORY_VIOLATION,
    ("strict", "epoch"),  # under epoch, applies to writes outside any epoch
)

R_STRICT_MISSING_BARRIER = RuleSpec(
    "strict.missing-barrier",
    "Missing persist barriers",
    "Every cacheline flush F must be followed by a persist barrier P before "
    "the next persistent operation or transaction begins.",
    CATEGORY_VIOLATION,
    ("strict",),
)

R_EPOCH_MISSING_BARRIER = RuleSpec(
    "epoch.missing-barrier",
    "Missing persist barriers between epochs",
    "For any consecutive disjoint epochs E1 and E2, there should be a "
    "persist barrier P at the end of E1.",
    CATEGORY_VIOLATION,
    ("epoch",),
)

R_EPOCH_NESTED_BARRIER = RuleSpec(
    "epoch.nested-missing-barrier",
    "Missing persist barriers in nested transactions",
    "For any epoch E1 inside of epoch E2, there should be a persist "
    "barrier P at the end of E1.",
    CATEGORY_VIOLATION,
    ("epoch",),
)

R_EPOCH_UNFLUSHED = RuleSpec(
    "epoch.unflushed-write",
    "Unflushed/unlogged write",
    "A W writing to addr A1 should be followed by a flush F at addr A2, "
    "where A1 ∩ A2 = A1.",
    CATEGORY_VIOLATION,
    ("epoch",),
)

R_EPOCH_MISMATCH = RuleSpec(
    "epoch.semantic-mismatch",
    "Mismatch between program semantics and model",
    "For any consecutive epochs E1 and E2 writing to addresses A1 and A2 "
    "respectively, where A1 ∈ O1 and A2 ∈ O2, then O1 ≠ O2.",
    CATEGORY_VIOLATION,
    ("strict", "epoch"),  # strict: fence-delimited persist groups are epochs
)

R_STRAND_DEPENDENCE = RuleSpec(
    "strand.dependence",
    "Having data dependencies between strands",
    "For any concurrent strands S1 and S2, operating on addrs A1 and A2 "
    "respectively, A1 ∩ A2 = ∅.",
    CATEGORY_VIOLATION,
    ("strand",),
    dynamic=True,
)

# --- Table 5: performance bug rules (model-independent) ---------------------

R_PERF_FLUSH_UNMODIFIED = RuleSpec(
    "perf.flush-unmodified",
    "Writing back unmodified data",
    "For operation F flushing addr A1, there should be a preceding "
    "operation W writing to addr A2 and A1 = A2.",
    CATEGORY_PERFORMANCE,
)

R_PERF_REDUNDANT_FLUSH = RuleSpec(
    "perf.redundant-flush",
    "Redundant write-backs of modified data",
    "For any two operations F1 and F2 in a transaction flushing addresses "
    "A1 and A2 respectively, A1 ∩ A2 = ∅.",
    CATEGORY_PERFORMANCE,
)

R_PERF_MULTI_PERSIST_TX = RuleSpec(
    "perf.multi-persist-tx",
    "Persist the same object multiple times in a transaction",
    "Within one durable transaction, each persistent object should be "
    "logged/persisted at most once.",
    CATEGORY_PERFORMANCE,
)

R_PERF_EMPTY_TX = RuleSpec(
    "perf.empty-durable-tx",
    "Durable transaction without persistent writes",
    "Every durable transaction should contain at least one persistent "
    "write to NVM.",
    CATEGORY_PERFORMANCE,
)

ALL_RULES: List[RuleSpec] = [
    R_STRICT_UNFLUSHED,
    R_STRICT_MULTI_WRITE,
    R_STRICT_MISSING_BARRIER,
    R_EPOCH_MISSING_BARRIER,
    R_EPOCH_NESTED_BARRIER,
    R_EPOCH_UNFLUSHED,
    R_EPOCH_MISMATCH,
    R_STRAND_DEPENDENCE,
    R_PERF_FLUSH_UNMODIFIED,
    R_PERF_REDUNDANT_FLUSH,
    R_PERF_MULTI_PERSIST_TX,
    R_PERF_EMPTY_TX,
]

RULES_BY_ID: Dict[str, RuleSpec] = {r.rule_id: r for r in ALL_RULES}

# --- the generic baseline's rules (repro.checker.baseline) ------------------
# No model runs them and the rule-set fingerprint leaves them out; they are
# here so that a baseline report can name and classify its warnings.

R_GENERIC_UNFLUSHED = RuleSpec(
    "generic.unflushed-write",
    "Write never flushed or logged",
    "A persistent write W should be covered by some flush or log later in "
    "the execution.",
    CATEGORY_VIOLATION,
    (),
)

R_GENERIC_UNDRAINED = RuleSpec(
    "generic.undrained-flush",
    "Flush never drained",
    "A flush F should be followed by some fence later in the execution.",
    CATEGORY_VIOLATION,
    (),
)

#: every rule a report can hold: the models' and the baseline's
SPECS_BY_ID: Dict[str, RuleSpec] = {
    **RULES_BY_ID,
    **{r.rule_id: r for r in (R_GENERIC_UNFLUSHED, R_GENERIC_UNDRAINED)},
}


@dataclass(frozen=True)
class PersistencyModel:
    """One memory persistency model and the rules it activates."""

    name: str
    description: str
    rule_ids: Tuple[str, ...]

    def rules(self) -> List[RuleSpec]:
        return [RULES_BY_ID[r] for r in self.rule_ids]

    def violation_rules(self) -> List[RuleSpec]:
        return [r for r in self.rules() if r.category == CATEGORY_VIOLATION]

    def performance_rules(self) -> List[RuleSpec]:
        return [r for r in self.rules() if r.category == CATEGORY_PERFORMANCE]


_PERF_IDS = (
    R_PERF_FLUSH_UNMODIFIED.rule_id,
    R_PERF_REDUNDANT_FLUSH.rule_id,
    R_PERF_MULTI_PERSIST_TX.rule_id,
    R_PERF_EMPTY_TX.rule_id,
)

STRICT = PersistencyModel(
    "strict",
    "All persistent stores become durable in program order; every persist "
    "is individually flushed and fenced (PMDK, NVM-Direct).",
    (
        R_STRICT_UNFLUSHED.rule_id,
        R_STRICT_MULTI_WRITE.rule_id,
        R_STRICT_MISSING_BARRIER.rule_id,
        R_EPOCH_MISMATCH.rule_id,
    )
    + _PERF_IDS,
)

EPOCH = PersistencyModel(
    "epoch",
    "Persists are ordered at epoch granularity: everything before an epoch "
    "boundary persists before anything after it (PMFS, Mnemosyne).",
    (
        R_EPOCH_UNFLUSHED.rule_id,
        R_EPOCH_MISSING_BARRIER.rule_id,
        R_EPOCH_NESTED_BARRIER.rule_id,
        R_EPOCH_MISMATCH.rule_id,
        R_STRICT_MULTI_WRITE.rule_id,
    )
    + _PERF_IDS,
)

STRAND = PersistencyModel(
    "strand",
    "Strands persist concurrently when independent; data dependencies "
    "between strands must be ordered explicitly.",
    (
        R_EPOCH_UNFLUSHED.rule_id,
        R_EPOCH_MISSING_BARRIER.rule_id,
        R_STRAND_DEPENDENCE.rule_id,
    )
    + _PERF_IDS,
)

MODELS: Dict[str, PersistencyModel] = {
    "strict": STRICT,
    "epoch": EPOCH,
    "strand": STRAND,
}


def get_model(name: str) -> PersistencyModel:
    """Resolve a compile-flag model name (-strict/-epoch/-strand)."""
    try:
        return MODELS[name.lstrip("-")]
    except KeyError:
        raise CheckerError(
            f"unknown persistency model {name!r}; expected one of "
            f"{sorted(MODELS)}"
        ) from None
