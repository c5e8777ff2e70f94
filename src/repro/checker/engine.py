"""The static checker engine (step 4 of Figure 8).

Pipeline: DSA → trace collection → rule application, as in the paper:
traces are collected per function, merged bottom-up at call sites, and
the model's checking rules see every merged trace of every *root*
function (an entry point nobody else calls), so each rule sees the
"entire trace of the NVM program".

The merged traces of a root share long prefixes, so the rules do not
walk them one by one: the collector folds the root's traces, tuples of
shared event runs, into a prefix trie, and the engine walks it once,
running the rules on each distinct prefix and forking rule state where
traces diverge. Each distinct event's facts (node key, range,
persistence) are computed once, and at each prefix only the rules that
declare its event kind run. Warnings are deduplicated by (rule, file,
line), keeping the one a trace-by-trace walk would have reported first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..analysis.callgraph import CallGraph
from ..analysis.dsa import run_dsa
from ..analysis.traces import PrefixNode, TraceCollector
from ..deadline import Deadline
from ..errors import DeadlineExceeded
from ..ir.module import Module
from ..ir.verifier import verify_module
from ..models import PersistencyModel, get_model
from ..telemetry import Telemetry, Tracer
from .report import Report, Warning_
from .rules import CheckContext, EventFacts, TraceRule, build_rules


def analysis_roots(cg: CallGraph) -> List[str]:
    """Entry points to check: uncalled functions, plus a representative of
    any call-graph cycle unreachable from them.

    Functions carrying a persist annotation are excluded: they are
    framework internals whose persistence behaviour the user *declared*
    (e.g. ``pmemobj_flush`` is fence-less by design); DeepMC trusts the
    annotation interface rather than second-guessing the bodies.
    """
    annotations = cg.module.annotations
    roots = [n for n in cg.roots() if not annotations.is_annotated(n)]
    reachable: Set[str] = set()
    work = list(roots)
    while work:
        fn = work.pop()
        if fn in reachable:
            continue
        reachable.add(fn)
        work.extend(cg.callees.get(fn, ()))
    for name in sorted(cg.callees):
        if name not in reachable:
            if not annotations.is_annotated(name):
                roots.append(name)
            work = [name]
            while work:
                f = work.pop()
                if f in reachable:
                    continue
                reachable.add(f)
                work.extend(cg.callees.get(f, ()))
    return roots


#: (trace index, rule index, position in trace, emission index): where a
#: trace-by-trace walk of one root would have reported a warning
_Rank = Tuple[int, int, int, int]


def _harvest(rule: TraceRule, rank: Tuple[int, int, int],
             found: Dict[tuple, Tuple[_Rank, Warning_]]) -> None:
    """Move ``rule``'s new warnings into ``found``, keeping per report key
    the one with the lowest rank."""
    for seq, warning in enumerate(rule.warnings):
        key = warning.key()
        kept = found.get(key)
        if kept is None or rank + (seq,) < kept[0]:
            found[key] = (rank + (seq,), warning)
    rule.warnings = []


def _walk_trie(trie: PrefixNode, rules: List[TraceRule], ctx: CheckContext
               ) -> Tuple[List[Warning_], int, int, int]:
    """Run ``rules`` once over every prefix in ``trie``, whose payloads
    are :class:`EventFacts`.

    At each prefix only the rules whose ``kinds`` hold its event's kind
    run, in rule order. Rule state is forked at each branch. Where a
    trace ends, only the rules that override ``on_end`` are called, and
    where other traces continue from there they are forked first. A
    rule's warning at a prefix is the warning it gives in every trace
    through that prefix, so it is ranked by the first such trace and the
    rule's index in ``rules``. Returns the first warning per report key,
    the events visited, the forks (one per site where rule state is
    copied) and the ``on_event`` calls.
    """
    by_kind: Dict[str, List[int]] = {}
    for r, rule in enumerate(rules):
        for kind in rule.kinds:
            by_kind.setdefault(kind, []).append(r)
    enders = [r for r, rule in enumerate(rules)
              if type(rule).on_end is not TraceRule.on_end]
    found: Dict[tuple, Tuple[_Rank, Warning_]] = {}
    visited = forks = calls = 0
    # (node whose event is still to run, rule states before it, depth)
    stack = [(trie, rules, 0)]
    while stack:
        node, states, depth = stack.pop()
        # down the node's last child inline, its other children pushed
        while True:
            facts = node.payload
            if facts is not None:
                called = by_kind.get(facts.kind, ())
                calls += len(called)
                for r in called:
                    rule = states[r]
                    rule.on_event(facts, ctx)
                    if rule.warnings:
                        _harvest(rule, (node.first, r, depth - 1), found)
            children = node.children
            if node.end is not None:
                if children:
                    forks += 1
                for r in enders:
                    rule = states[r].fork() if children else states[r]
                    rule.on_end(ctx)
                    if rule.warnings:
                        _harvest(rule, (node.end, r, depth), found)
            if not children:
                break
            visited += len(children)
            depth += 1
            if len(children) == 1:
                (node,) = children.values()
                continue
            *others, node = children.values()
            for child in others:
                forks += 1
                stack.append((child, [rule.fork() for rule in states], depth))
    return ([warning for _rank, warning in found.values()], visited, forks,
            calls)


@dataclass
class CheckTimings:
    """Wall-clock breakdown of one checker run (feeds Table 9).

    Populated from the checker's span tree: one field per pipeline phase.
    """

    verify_s: float = 0.0
    dsa_s: float = 0.0
    traces_s: float = 0.0
    rules_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.verify_s + self.dsa_s + self.traces_s + self.rules_s

    def as_dict(self) -> Dict[str, float]:
        return {
            "verify_s": self.verify_s,
            "dsa_s": self.dsa_s,
            "traces_s": self.traces_s,
            "rules_s": self.rules_s,
            "total_s": self.total_s,
        }


class StaticChecker:
    """Applies the selected model's rules to a module's merged traces.

    Every run verifies the module and builds its own DSA and
    :class:`TraceCollector`. ``ablation`` takes the collector's two
    switches, ``field_sensitive`` and ``interprocedural``.
    """

    def __init__(
        self,
        module: Module,
        model: Optional[str] = None,
        telemetry: Optional[Telemetry] = None,
        deadline: Optional[Deadline] = None,
        **ablation,
    ):
        self.module = module
        self.model: PersistencyModel = get_model(model or module.persistency_model)
        self._collector: Optional[TraceCollector] = None
        self._ablation = ablation
        self.telemetry = telemetry
        # Cooperative budget: polled at phase boundaries and between
        # per-root rule sweeps. A static report has no meaningful partial
        # (a missing rule pass looks like a clean program), so expiry
        # raises DeadlineExceeded instead of degrading.
        self._deadline = deadline
        # The checker always times its handful of phases with its own
        # tracer when no telemetry is attached: span count is O(phases),
        # so the cost is noise, and CheckTimings stays populated.
        self._tracer: Tracer = telemetry.tracer if telemetry is not None else Tracer()
        self.timings = CheckTimings()
        self.traces_checked = 0
        #: distinct trace prefixes whose event the rules processed
        self.events_visited = 0
        #: sites where traces diverge: every branch past a node's first,
        #: and every trace end that other traces continue past
        self.forks = 0
        #: ``on_event`` calls the walk made
        self.rule_calls = 0
        #: root span of the most recent run (None before the first run
        #: or when the attached tracer is disabled)
        self.last_span = None

    @property
    def collector(self) -> Optional[TraceCollector]:
        """The trace collector of the most recent run (carries the DSA
        result); None before the first run."""
        return self._collector

    def _check_deadline(self, stage: str) -> None:
        if self._deadline is not None and self._deadline.expired():
            raise DeadlineExceeded(f"check.{stage}")

    def run(self) -> Report:
        tracer = self._tracer
        timings = CheckTimings()
        self.traces_checked = self.events_visited = self.forks = 0
        self.rule_calls = 0

        with tracer.span("check", module=self.module.name,
                         model=self.model.name) as root_span:
            self._check_deadline("verify")
            with tracer.span("verify") as sp:
                verify_module(self.module)
            timings.verify_s = sp.duration_s

            self._check_deadline("dsa")
            with tracer.span("dsa") as sp:
                dsa = run_dsa(
                    self.module,
                    interprocedural=self._ablation.get(
                        "interprocedural", True),
                    tracer=tracer,
                    metrics=(self.telemetry.metrics
                             if self.telemetry is not None else None),
                )
            timings.dsa_s = sp.duration_s
            self._collector = TraceCollector(
                self.module, dsa, tracer=tracer, **self._ablation
            )

            if self._collector.interprocedural:
                roots = analysis_roots(self._collector.dsa.callgraph)
            else:
                # Ablation: every function is checked in isolation.
                annotations = self.module.annotations
                roots = [
                    fn.name for fn in self.module.defined_functions()
                    if not annotations.is_annotated(fn.name)
                ]
            self._check_deadline("traces")
            with tracer.span("traces", roots=len(roots)) as sp:
                tries: Dict[str, Tuple[PrefixNode, int]] = {}
                for root in roots:
                    self._check_deadline("traces")
                    tries[root] = self._collector.prefix_trie(root,
                                                              EventFacts)
            timings.traces_s = sp.duration_s

            report = Report(self.module.name, self.model.name)
            with tracer.span("rules") as sp:
                factories = build_rules(self.model)
                for root, (trie, count) in tries.items():
                    self._check_deadline("rules")
                    ctx = CheckContext(self.module, self.model, root)
                    warnings, visited, forks, calls = _walk_trie(
                        trie, [factory() for factory in factories], ctx)
                    # an earlier root's warning wins a shared key
                    report.extend(warnings)
                    self.traces_checked += count
                    self.events_visited += visited
                    self.forks += forks
                    self.rule_calls += calls
                sp.set("traces_checked", self.traces_checked)
                sp.set("events_visited", self.events_visited)
                sp.set("forks", self.forks)
                sp.set("rule_calls", self.rule_calls)
                sp.set("warnings", len(report))
            timings.rules_s = sp.duration_s
            root_span.set("warnings", len(report))
            root_span.set("traces_checked", self.traces_checked)

        self.timings = timings
        self.last_span = root_span if tracer.enabled else None
        if self.telemetry is not None:
            self._publish(report)
        return report

    def _publish(self, report: Report) -> None:
        """Push this run's results into the attached metrics registry."""
        tel = self.telemetry
        assert tel is not None
        tel.metrics.counter("checker.runs").inc()
        tel.metrics.counter("checker.traces_checked").inc(self.traces_checked)
        tel.metrics.counter("checker.events_visited").inc(self.events_visited)
        tel.metrics.counter("checker.forks").inc(self.forks)
        tel.metrics.counter("checker.rule_calls").inc(self.rule_calls)
        tel.metrics.counter("checker.warnings").inc(len(report))
        tel.metrics.publish("checker.timings", self.timings.as_dict())
        tel.event(
            "check_report",
            module=self.module.name,
            model=self.model.name,
            warnings=len(report),
            traces_checked=self.traces_checked,
            total_s=round(self.timings.total_s, 6),
        )
