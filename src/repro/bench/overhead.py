"""Overhead experiments: Table 9, Figure 12, and the §5.1 fix speedups.

* **Table 9** — "compilation" time of the real applications with and
  without DeepMC. Baseline = building + verifying the IR module (what a
  compiler does anyway); +DeepMC adds the full static pipeline (DSA, trace
  collection, rule checking).
* **Figure 12** — runtime throughput of the applications with and without
  the dynamic checker attached: the checked run executes the planned hooks
  as real calls into the shadow-memory runtime.
* **§5.1** — cycle-accurate speedup from fixing the corpus's performance
  bugs, measured on the simulated NVM cost model.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..apps import ALL_MIXES, APP_BUILDERS, Mix
from ..checker.engine import StaticChecker
from ..corpus import REGISTRY
from ..corpus.registry import CorpusProgram, PERFORMANCE_CLASSES
from ..dynamic.checker import DynamicChecker
from ..ir.verifier import verify_module
from ..vm.engine import make_interpreter


# ---------------------------------------------------------------------------
# Table 9 — compile time with/without DeepMC
# ---------------------------------------------------------------------------

@dataclass
class CompileTiming:
    app: str
    baseline_s: float
    with_deepmc_s: float

    @property
    def delta_s(self) -> float:
        return self.with_deepmc_s - self.baseline_s


def measure_compile_times(repeats: int = 3) -> List[CompileTiming]:
    """Best-of-N build(+verify) vs build(+verify)+static-analysis times,
    summed over every workload variant of each application (a real build
    compiles all of an app's translation units)."""
    out: List[CompileTiming] = []
    for app, builder in APP_BUILDERS.items():
        mixes = ALL_MIXES[app]
        base = dm = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            for m in mixes:
                module = builder(m)
                verify_module(module)
            t1 = time.perf_counter()
            for m in mixes:
                module = builder(m)
                StaticChecker(module).run()
            t2 = time.perf_counter()
            base = min(base, t1 - t0)
            dm = min(dm, t2 - t1)
        out.append(CompileTiming(app, base, dm))
    return out


def render_table9(timings: List[CompileTiming]) -> str:
    header = ["Benchmark", "Baseline (s)", "Compilation with DeepMC (s)", "Delta (s)"]
    rows = [
        [t.app, f"{t.baseline_s:.3f}", f"{t.with_deepmc_s:.3f}", f"{t.delta_s:.3f}"]
        for t in timings
    ]
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)),
             "  ".join("-" * w for w in widths)]
    lines += ["  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in rows]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figure 12 — dynamic-analysis throughput overhead
# ---------------------------------------------------------------------------

#: fewest interleaved pairs an overhead is measured from
MIN_PAIRS = 9


@dataclass(frozen=True)
class PairedOverhead:
    """A variant's overhead over its base, from runs in strict alternation."""

    #: median seconds of one base run, and of one variant run
    base_s: float
    variant_s: float
    #: median and quartiles of the per-pair overheads, in percent
    median_pct: float
    q1_pct: float
    q3_pct: float
    pairs: int


def interleaved_overhead(base: Callable[[], None],
                         variant: Callable[[], None],
                         pairs: int = MIN_PAIRS) -> PairedOverhead:
    """Run ``base`` then ``variant``, ``pairs`` times in strict
    alternation, and take each pair's overhead ``variant / base - 1``.

    The two runs of a pair share the host's state of the moment, so their
    ratio cancels most of its drift, which a best-of-N of each side does
    not. The interquartile range says how much noise is left. Nothing is
    clamped: a median below zero reads as no measurable cost.
    """
    if pairs < MIN_PAIRS:
        raise ValueError(f"an overhead needs at least {MIN_PAIRS} pairs, "
                         f"got {pairs}")
    base_s: List[float] = []
    variant_s: List[float] = []
    for _ in range(pairs):
        t0 = time.perf_counter()
        base()
        t1 = time.perf_counter()
        variant()
        variant_s.append(time.perf_counter() - t1)
        base_s.append(t1 - t0)
    pcts = [(v / b - 1.0) * 100.0 for b, v in zip(base_s, variant_s)]
    q1, median, q3 = statistics.quantiles(pcts, n=4, method="inclusive")
    return PairedOverhead(statistics.median(base_s),
                          statistics.median(variant_s),
                          median, q1, q3, pairs)


@dataclass
class OverheadPoint:
    app: str
    mix: Mix
    ops: int
    timing: PairedOverhead
    hook_events: int

    @property
    def baseline_tps(self) -> float:
        return self.ops / self.timing.base_s

    @property
    def checked_tps(self) -> float:
        return self.ops / self.timing.variant_s

    @property
    def overhead_pct(self) -> float:
        return self.timing.median_pct


def measure_dynamic_overhead(
    app: str,
    mix: Mix,
    ops: int = 2000,
    pairs: int = MIN_PAIRS,
) -> OverheadPoint:
    """Throughput with vs without the dynamic checker for one workload."""
    from ..vm.scheduler import SeededScheduler

    # one module: the base run executes its plain program, the checked
    # run the same module's hooked program
    module = APP_BUILDERS[app](mix)

    def run_base() -> None:
        # Same scheduler class as the checked run so the comparison
        # isolates the instrumentation + runtime cost.
        make_interpreter(module,
                         scheduler=SeededScheduler(seed=1)).run("main", [ops])

    checker = DynamicChecker(module)
    events = 0

    def run_checked() -> None:
        nonlocal events
        _report, runs = checker.run("main", [ops], seeds=(1,))
        events = runs[-1].runtime.events_handled

    return OverheadPoint(
        app=app,
        mix=mix,
        ops=ops,
        timing=interleaved_overhead(run_base, run_checked, pairs),
        hook_events=events,
    )


def measure_figure12(ops: int = 2000, pairs: int = MIN_PAIRS,
                     apps: Optional[List[str]] = None) -> List[OverheadPoint]:
    points: List[OverheadPoint] = []
    for app in apps or list(APP_BUILDERS):
        for mix in ALL_MIXES[app]:
            points.append(measure_dynamic_overhead(app, mix, ops, pairs))
    return points


def render_figure12(points: List[OverheadPoint]) -> str:
    """One row per workload: median throughputs, the median overhead,
    its interquartile range over the interleaved pairs, and the exact
    hook-event count."""
    header = ["App", "Workload", "Baseline tx/s", "DeepMC tx/s",
              "Overhead %", "IQR %", "Hook events"]
    rows = [
        [p.app, p.mix.name, f"{p.baseline_tps:,.0f}", f"{p.checked_tps:,.0f}",
         f"{p.overhead_pct:.1f}",
         f"[{p.timing.q1_pct:.1f}, {p.timing.q3_pct:.1f}]",
         str(p.hook_events)]
        for p in points
    ]
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)),
             "  ".join("-" * w for w in widths)]
    lines += ["  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in rows]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# §5.1 — application speedup from fixing the performance bugs
# ---------------------------------------------------------------------------

@dataclass
class FixSpeedup:
    program: str
    buggy_cycles: int
    fixed_cycles: int

    @property
    def improvement_pct(self) -> float:
        if self.buggy_cycles <= 0:
            return 0.0
        return (self.buggy_cycles - self.fixed_cycles) / self.buggy_cycles * 100.0


def measure_fix_speedups(repeat: int = 64) -> List[FixSpeedup]:
    """Simulated-cycle comparison of buggy vs fixed corpus programs that
    contain performance bugs."""
    out: List[FixSpeedup] = []
    for program in REGISTRY.programs():
        if not any(b.real and b.bug_class in PERFORMANCE_CLASSES
                   for b in program.bugs):
            continue
        cycles: Dict[object, int] = {}
        for fixed in (False, "perf"):
            module = program.build(fixed=fixed, repeat=repeat)
            result = make_interpreter(module).run(program.entry)
            cycles[fixed] = result.stats.cycles
        out.append(FixSpeedup(program.name, cycles[False], cycles["perf"]))
    return sorted(out, key=lambda s: -s.improvement_pct)


def render_fix_speedups(speedups: List[FixSpeedup]) -> str:
    header = ["Program", "Buggy cycles", "Fixed cycles", "Improvement %"]
    rows = [
        [s.program, f"{s.buggy_cycles:,}", f"{s.fixed_cycles:,}",
         f"{s.improvement_pct:.1f}"]
        for s in speedups
    ]
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)),
             "  ".join("-" * w for w in widths)]
    lines += ["  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in rows]
    return "\n".join(lines)
