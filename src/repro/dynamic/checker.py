"""Dynamic checker driver: plan hooks → execute → report.

Runs the program (optionally under several scheduler seeds to vary the
thread interleaving) with the DeepMC runtime attached and collects the
WAW/RAW strand-dependence warnings. The module is never changed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from ..analysis.dsa import DSAResult, run_dsa
from ..checker.report import Report
from ..ir.module import Module
from ..models import get_model
from ..telemetry import NULL_TELEMETRY, Telemetry
from ..vm.engine import make_interpreter
from ..vm.interpreter import ExecResult
from ..vm.scheduler import SeededScheduler
from .instrumenter import plan_hooks
from .runtime import DeepMCRuntime


@dataclass
class DynamicRunResult:
    """Execution result plus the runtime's observations for one seed."""

    seed: int
    exec_result: ExecResult
    runtime: DeepMCRuntime


class DynamicChecker:
    """Plans a module's hooks once, on ``dsa`` (the caller's DSA result
    of it, a static checker's for one) or on its own, and runs it under
    the runtime."""

    def __init__(self, module: Module, model: Optional[str] = None,
                 telemetry: Optional[Telemetry] = None,
                 dsa: Optional[DSAResult] = None):
        self.module = module
        self.model = get_model(model or module.persistency_model)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        with self.telemetry.span("dynamic.instrument",
                                 module=module.name) as sp:
            self.plan = plan_hooks(module,
                                   dsa if dsa is not None else run_dsa(module))
            sp.set("hooks", len(self.plan.hooks))

    def run(
        self,
        entry: str = "main",
        args: Sequence[Any] = (),
        seeds: Sequence[int] = (1,),
        switch_prob: float = 0.1,
        **interp_kwargs: Any,
    ) -> Tuple[Report, List[DynamicRunResult]]:
        """Run under each seed; returns (merged report, this call's runs)."""
        tel = self.telemetry
        report = Report(self.module.name, self.model.name)
        runs: List[DynamicRunResult] = []
        for seed in seeds:
            with tel.span("dynamic.run", seed=seed) as sp:
                runtime = DeepMCRuntime()
                interp = make_interpreter(
                    self.module,
                    hooks=self.plan,
                    scheduler=SeededScheduler(seed=seed,
                                              switch_prob=switch_prob),
                    telemetry=self.telemetry if tel.enabled else None,
                    **interp_kwargs,
                )
                interp.deepmc_runtime = runtime
                result = interp.run(entry, args)
                runs.append(DynamicRunResult(seed, result, runtime))
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
        return report, runs
