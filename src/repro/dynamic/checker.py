"""Dynamic checker driver: instrument → execute → report.

Runs the program (optionally under several scheduler seeds to vary the
thread interleaving) with the DeepMC runtime attached and collects the
WAW/RAW strand-dependence warnings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from ..checker.report import Report
from ..ir.module import Module
from ..models import get_model
from ..telemetry import NULL_TELEMETRY, Telemetry
from ..vm.compile import invalidate_bytecode_cache
from ..vm.engine import make_interpreter
from ..vm.interpreter import ExecResult
from ..vm.scheduler import SeededScheduler
from .instrumenter import Instrumenter
from .runtime import DeepMCRuntime


@dataclass
class DynamicRunResult:
    """Execution result plus the runtime's observations for one seed."""

    seed: int
    exec_result: ExecResult
    runtime: DeepMCRuntime


class DynamicChecker:
    """Instruments a module once and executes it under the runtime."""

    def __init__(self, module: Module, model: Optional[str] = None,
                 telemetry: Optional[Telemetry] = None):
        self.module = module
        self.model = get_model(model or module.persistency_model)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        with self.telemetry.span("dynamic.instrument",
                                 module=module.name) as sp:
            self.instrumenter = Instrumenter(module)
            self.hooks_inserted = self.instrumenter.run()
            # instrumentation rewrote the IR in place: any bytecode
            # compiled from the pre-instrumentation module is stale
            invalidate_bytecode_cache(module)
            sp.set("hooks", self.hooks_inserted)
        self.runs: List[DynamicRunResult] = []

    def run(
        self,
        entry: str = "main",
        args: Sequence[Any] = (),
        seeds: Sequence[int] = (1,),
        switch_prob: float = 0.1,
        **interp_kwargs: Any,
    ) -> Tuple[Report, List[DynamicRunResult]]:
        """Execute under each seed; returns (merged report, run results)."""
        tel = self.telemetry
        report = Report(self.module.name, self.model.name)
        for seed in seeds:
            with tel.span("dynamic.run", seed=seed) as sp:
                runtime = DeepMCRuntime()
                interp = make_interpreter(
                    self.module,
                    scheduler=SeededScheduler(seed=seed,
                                              switch_prob=switch_prob),
                    telemetry=self.telemetry if tel.enabled else None,
                    **interp_kwargs,
                )
                interp.deepmc_runtime = runtime
                result = interp.run(entry, args)
                self.runs.append(DynamicRunResult(seed, result, runtime))
                report.merge(
                    runtime.to_report(self.module.name, self.model.name))
                sp.set("races", len(runtime.races))
                sp.set("events_handled", runtime.events_handled)
            if tel.enabled:
                tel.metrics.counter("dynamic.runs").inc()
                tel.metrics.counter("dynamic.races").inc(len(runtime.races))
                tel.metrics.counter("dynamic.events_handled").inc(
                    runtime.events_handled)
        if tel.enabled:
            tel.metrics.gauge("dynamic.warnings").set(len(report))
        return report, self.runs
