"""Differential wall: the fused trie walk against the trace-by-trace walk.

The engine runs every rule once per distinct trace prefix and forks rule
state where traces diverge. The reference below is the plain reading of
the paper: for every root, every merged trace, every rule, a fresh rule
object walks the whole trace (``TraceRule.check``), and the report keeps
the first warning per (rule, file, line). Both must give byte-identical
reports and the same trace count on every input family the tool ships:
the corpus (buggy and fixed), the app x mix modules, the litmus catalog
and two fuzz campaigns. The corpus runs a second time with traces cut
at 40 events, so many traces end in a truncation marker mid-way.

The engine also shares each event's facts between rules and calls a
rule only for the event kinds it declares, while the reference feeds
every event to every rule, with facts computed afresh. A last family,
the hand-built modules of ``rule_inputs.py``, reaches rule branches the
shipped families miss, so that a rule which stops seeing a kind it
declares fails here.
"""

from collections import Counter

import pytest

from repro.analysis.traces import EV_TRUNCATED, TraceCollector
from repro.apps import ALL_MIXES, APP_BUILDERS
from repro.checker import Report, StaticChecker
from repro.checker.engine import analysis_roots
from repro.checker.rules import CheckContext, build_rules
from repro.corpus import REGISTRY
from repro.fuzz import build_program
from repro.ir import IRBuilder, Module, types as ty
from repro.litmus.catalog import cases
from repro.litmus.spec import litmus_spec
from repro.models import get_model
from tests.checker.rule_inputs import RULE_INPUTS

FUZZ_CAMPAIGNS = (0, 97)
FUZZ_PROGRAMS = 100
#: trace-bound overrides of the truncation-heavy corpus pass
CUT = {"MAX_EVENTS": 40}


def reference_check(module, model=None):
    """Every rule over every merged trace, in (root, trace, rule) order."""
    model = get_model(model or module.persistency_model)
    collector = TraceCollector(module)
    report = Report(module.name, model.name)
    factories = build_rules(model)
    checked = 0
    for root in analysis_roots(collector.dsa.callgraph):
        ctx = CheckContext(module, model, root)
        for trace in collector.traces_for(root):
            checked += 1
            for factory in factories:
                report.extend(factory().check(trace, ctx))
    return report, checked


def _inputs():
    """(id, module builder, model, trace-bound overrides) for every input
    family."""
    for family, bounds in (("corpus", {}), ("corpus-cut", CUT)):
        for program in REGISTRY.programs():
            for fixed in (False, True):
                variant = "fixed" if fixed else "buggy"
                yield (f"{family}:{program.name}:{variant}",
                       lambda p=program, f=fixed: p.build(fixed=f), None,
                       bounds)
    for app, builder in APP_BUILDERS.items():
        for mix in ALL_MIXES[app]:
            yield (f"app:{app}:{mix.name}",
                   lambda b=builder, m=mix: b(m), None, {})
    for test, model in cases():
        yield (f"litmus:{test.name}:{model}",
               lambda t=test, m=model: litmus_spec(t, m).to_module(), model,
               {})
    for seed in FUZZ_CAMPAIGNS:
        for index in range(FUZZ_PROGRAMS):
            spec = build_program(seed, index)
            yield (f"fuzz:{seed}:{index}", spec.to_module, spec.model, {})
    for name, build in RULE_INPUTS.items():
        yield (f"rules:{name}", build, None, {})


INPUTS = list(_inputs())


@pytest.mark.parametrize("build,model,bounds",
                         [entry[1:] for entry in INPUTS],
                         ids=[entry[0] for entry in INPUTS])
def test_trie_walk_matches_trace_by_trace(build, model, bounds, monkeypatch):
    for name, value in bounds.items():
        monkeypatch.setattr(f"repro.analysis.traces.{name}", value)
    checker = StaticChecker(build(), model=model)
    got = checker.run()
    want, checked = reference_check(build(), model)
    assert got.to_json() == want.to_json()
    assert got.render() == want.render()
    assert checker.traces_checked == checked


def _diverging_fence_module():
    """Two paths meet at one fence (line 9): the first trace makes three
    writes durable there, the second two. Both warn at the same
    (rule, file, line) with different messages."""
    mod = Module("rank", persistency_model="strict")
    rec = mod.define_struct("r", [("a", ty.I64), ("b", ty.I64),
                                  ("c", ty.I64)])
    fn = mod.define_function("main", ty.VOID, [("n", ty.I64)],
                             source_file="k.c")
    b = IRBuilder(fn)
    three, two, done = (b.new_block(n) for n in ("three", "two", "done"))
    p = b.palloc(rec, line=1)
    b.br(b.icmp("ne", fn.arg("n"), 0), three, two)
    for block, fields in ((three, "abc"), (two, "ab")):
        b.position_at(block)
        for f in fields:
            b.store(1, b.getfield(p, f), line=2)
        b.jmp(done)
    b.position_at(done)
    b.flush_obj(p, line=8)
    b.fence(line=9)
    b.ret()
    return mod


def _early_end_module():
    """The flush at line 3 is never fenced. The first trace writes again
    after it, the second ends right after it, so both flag it, for
    different reasons, and the second trace's ``on_end`` runs where the
    first trace goes on."""
    mod = Module("rank_end", persistency_model="strict")
    rec = mod.define_struct("r", [("a", ty.I64), ("b", ty.I64)])
    fn = mod.define_function("main", ty.VOID, [("n", ty.I64)],
                             source_file="e.c")
    b = IRBuilder(fn)
    more, done = b.new_block("more"), b.new_block("done")
    p = b.palloc(rec, line=1)
    fa = b.getfield(p, "a")
    b.store(1, fa, line=2)
    b.flush(fa, 8, line=3)
    b.br(b.icmp("ne", fn.arg("n"), 0), more, done)
    b.position_at(more)
    fb = b.getfield(p, "b")
    b.store(2, fb, line=5)
    b.flush(fb, 8, line=6)
    b.fence(line=7)
    b.jmp(done)
    b.position_at(done)
    b.ret()
    return mod


@pytest.mark.parametrize("build,rule,text", [
    (_diverging_fence_module, "strict.multi-write-barrier",
     "makes 3 distinct writes"),
    (_early_end_module, "strict.missing-barrier",
     "before the next persistent write"),
], ids=["branch", "early-end"])
def test_first_trace_wins_a_shared_key(build, rule, text):
    """The walk reaches the second trace's warning first; the report must
    still keep the first trace's, as the trace-by-trace walk does."""
    got = StaticChecker(build()).run()
    want, _ = reference_check(build())
    assert got.to_json() == want.to_json()
    (warning,) = [w for w in got.warnings() if w.rule_id == rule]
    assert text in warning.message


def test_every_family_is_covered():
    families = Counter(entry[0].split(":")[0] for entry in INPUTS)
    assert families == {"corpus": 36, "corpus-cut": 36, "app": 15,
                        "litmus": len(cases()),
                        "fuzz": len(FUZZ_CAMPAIGNS) * FUZZ_PROGRAMS,
                        "rules": len(RULE_INPUTS)}


def test_counters_count_distinct_prefixes():
    """events_visited is the number of distinct prefixes the rules saw
    (traces stop at their truncation marker); a fork is made for every
    branch beyond the first and wherever one trace ends while others
    continue."""
    checker = StaticChecker(REGISTRY.program("pmfs_journal").build())
    checker.run()
    collector = checker.collector
    prefixes, ends, walked = set(), set(), 0
    for root in analysis_roots(collector.dsa.callgraph):
        for trace in collector.traces_for(root):
            prefix = (root,)
            for event in trace.events:
                if event.kind == EV_TRUNCATED:
                    break
                prefix += (id(event),)
                prefixes.add(prefix)
                walked += 1
            else:
                ends.add(prefix)
    children = Counter(prefix[:-1] for prefix in prefixes)
    forks = (sum(n - 1 for n in children.values())
             + sum(1 for prefix in ends if prefix in children))
    assert checker.events_visited == len(prefixes) < walked
    assert checker.forks == forks > 0


def test_static_check_work_counters():
    """Exact rule-layer work on the 51 modules of the static_check
    benchmark (corpus buggy + fixed, app x mix). ``rule_calls`` counts
    the ``on_event`` calls: a rule runs only on the kinds it declares."""
    totals = Counter()
    for name, build, model, _bounds in INPUTS:
        if name.startswith(("corpus:", "app:")):
            checker = StaticChecker(build(), model=model)
            checker.run()
            totals.update(traces=checker.traces_checked,
                          events_visited=checker.events_visited,
                          forks=checker.forks,
                          rule_calls=checker.rule_calls)
    # all 8 rules at every node would be 10,989 x 8 = 87,912 calls
    assert totals == {"traces": 1438, "events_visited": 10989,
                      "forks": 1145, "rule_calls": 47562}
