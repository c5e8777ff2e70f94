"""Hand-built modules for rule branches that no shipped input family
reaches.

Each one is the smallest program whose report changes when one rule
stops seeing one event kind it declares. The differential wall
(``test_trie_differential.py``) and the fork property
(``tests/property/test_rule_fork_properties.py``) run them all.
"""

from repro.ir import IRBuilder, Module, REGION_EPOCH, REGION_STRAND
from repro.ir import types as ty


def _main(name, model, source):
    mod = Module(name, persistency_model=model)
    fn = mod.define_function("main", ty.VOID, [], source_file=source)
    return mod, IRBuilder(fn)


def _record(mod):
    return mod.define_struct("r", [("a", ty.I64), ("b", ty.I64)])


def strand_raw_module():
    """Strand 1 stores to and flushes ``p`` (line 3), strand 2 loads ``p``
    (line 6), and no fence sits between them: ``strand.dependence``
    (RAW) at line 6. Needs the strand rule to see loads."""
    mod, b = _main("st_raw", "strand", "st.c")
    p = b.palloc(ty.I64, line=1)
    b.txbegin(REGION_STRAND, line=2)
    b.store(1, p, line=3)
    b.flush(p, 8, line=3)
    b.txend(REGION_STRAND, line=4)
    b.txbegin(REGION_STRAND, line=5)
    b.load(p, line=6)
    b.txend(REGION_STRAND, line=7)
    b.fence(line=8)
    b.ret(line=9)
    return mod


def epoch_write_only_module():
    """The first epoch's only persist op is a write (flushed in the next
    epoch), and the next epoch begins with no fence between:
    ``epoch.missing-barrier`` at line 4. Needs the epoch barrier rule to
    see writes."""
    mod, b = _main("ep_write", "epoch", "ew.c")
    p = b.palloc(ty.I64, line=1)
    b.txbegin(REGION_EPOCH, line=2)
    b.store(1, p, line=3)
    b.txend(REGION_EPOCH, line=4)
    b.txbegin(REGION_EPOCH, line=5)
    b.store(2, p, line=6)
    b.flush(p, 8, line=7)
    b.txend(REGION_EPOCH, line=8)
    b.fence(line=9)
    b.ret(line=10)
    return mod


def epoch_flush_only_module():
    """The first epoch's only persist op flushes a write made before it,
    and the next epoch begins with no fence between:
    ``epoch.missing-barrier`` at line 4. Needs the epoch barrier rule to
    see flushes."""
    mod, b = _main("ep_flush", "epoch", "ef.c")
    p = b.palloc(ty.I64, line=1)
    b.store(1, p, line=2)
    b.txbegin(REGION_EPOCH, line=3)
    b.flush(p, 8, line=3)
    b.txend(REGION_EPOCH, line=4)
    b.txbegin(REGION_EPOCH, line=5)
    b.store(2, p, line=6)
    b.flush(p, 8, line=7)
    b.txend(REGION_EPOCH, line=8)
    b.fence(line=9)
    b.ret(line=10)
    return mod


def epoch_inner_fence_module():
    """One epoch writes both fields of ``p`` with a fence between them.
    The epoch is one persist group, so there is no semantic mismatch;
    a rule that missed the epoch's begin would split the group at the
    fence and flag line 6."""
    mod, b = _main("ep_fence", "epoch", "ei.c")
    p = b.palloc(_record(mod), line=1)
    fa, fb = b.getfield(p, "a"), b.getfield(p, "b")
    b.txbegin(REGION_EPOCH, line=2)
    b.store(1, fa, line=3)
    b.flush(fa, 8, line=4)
    b.fence(line=5)
    b.store(2, fb, line=6)
    b.flush(fb, 8, line=7)
    b.txend(REGION_EPOCH, line=8)
    b.fence(line=9)
    b.ret(line=10)
    return mod


def fence_groups_module():
    """Under the epoch model, outside any epoch, two fence-delimited
    groups write disjoint fields of ``p``: ``epoch.semantic-mismatch``
    at line 5. Needs the semantic-mismatch rule to see fences."""
    mod, b = _main("fence_groups", "epoch", "fg.c")
    p = b.palloc(_record(mod), line=1)
    fa, fb = b.getfield(p, "a"), b.getfield(p, "b")
    b.store(1, fa, line=2)
    b.flush(fa, 8, line=3)
    b.fence(line=4)
    b.store(2, fb, line=5)
    b.flush(fb, 8, line=6)
    b.fence(line=7)
    b.ret(line=8)
    return mod


def realloc_flush_module():
    """``p`` and ``q`` are stored to the same field of ``root``, so DSA
    folds their allocation sites into one node. ``q`` is flushed (line
    10) right after its allocation, with no write to it:
    ``perf.flush-unmodified`` at line 10. Needs the flush-unmodified
    rule to see allocations, which end what it knew of ``p``."""
    mod, b = _main("realloc", "strict", "ra.c")
    rec = _record(mod)
    root_t = mod.define_struct("root", [("next", ty.pointer_to(rec))])
    root = b.palloc(root_t, line=1)
    nxt = b.getfield(root, "next")
    p = b.palloc(rec, line=2)
    pa = b.getfield(p, "a")
    b.store(1, pa, line=3)
    b.flush(pa, 8, line=4)
    b.fence(line=5)
    b.store(p, nxt, line=6)
    b.flush(nxt, 8, line=7)
    b.fence(line=8)
    q = b.palloc(rec, line=9)
    b.flush(b.getfield(q, "a"), 8, line=10)
    b.fence(line=11)
    b.store(q, nxt, line=12)
    b.flush(nxt, 8, line=13)
    b.fence(line=14)
    b.ret(line=15)
    return mod


#: name -> module builder
RULE_INPUTS = {
    "strand-raw": strand_raw_module,
    "epoch-write-only": epoch_write_only_module,
    "epoch-flush-only": epoch_flush_only_module,
    "epoch-inner-fence": epoch_inner_fence_module,
    "fence-groups": fence_groups_module,
    "realloc-flush": realloc_flush_module,
}
