"""``deepmc bench``: the pinned performance suite and its trajectory files.

Every speed claim in this repo flows through here. The harness runs a
pinned set of scenarios — static checking over the corpus, crashsim
enumeration, a fuzz mini-campaign, interpreter-only and dynamically
checked runs of the application workloads, and the VM op profiler's own
overhead — with
warmup + repeat + trimmed-mean timing, and emits one schema-versioned,
sorted-keys ``BENCH_<scenario>.json`` per scenario. Those files are the
performance trajectory: the committed copies at the repo root are the
baseline the CI perf ratchet (:mod:`repro.bench.compare`) diffs against,
so a later bytecode-VM or DPOR PR has to *show* its speedup the same way
a correctness PR has to show green tests.

Each trajectory file records, besides wall-clock:

* **stage rollups** — per-span-name total seconds from the scenario's
  last repeat, so a regression can be localized (did ``check.dsa`` or
  ``vm.run`` get slower?);
* **op counters** — every telemetry counter, including the VM op
  profiler's ``vm.op.*`` stream; counters are deterministic for a given
  workload, so a *count* change means the workload changed, separating
  "doing more work" from "doing the same work slower";
* **an environment fingerprint** — machine class, Python, timestamp —
  so a number is never divorced from the machine that produced it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..errors import ReproError
from ..telemetry import Telemetry, environment_fingerprint, flatten_spans

#: bumped whenever the BENCH_*.json layout changes shape
BENCH_SCHEMA = "deepmc.bench/v1"

#: default measurement protocol
DEFAULT_WARMUP = 1
DEFAULT_REPEATS = 3

#: default per-iteration ops for the VM workload scenarios — small enough
#: that the whole suite stays in CI-friendly territory, large enough that
#: the interpreter dominates setup
DEFAULT_VM_OPS = 400


@dataclass
class BenchConfig:
    """Knobs shared by every scenario (all pinned into the payload)."""

    warmup: int = DEFAULT_WARMUP
    repeats: int = DEFAULT_REPEATS
    ops: int = DEFAULT_VM_OPS
    max_states: int = 512
    fuzz_seeds: Sequence[int] = (0,)
    fuzz_budget: int = 4

    def as_dict(self) -> Dict[str, Any]:
        return {
            "warmup": self.warmup,
            "repeats": self.repeats,
            "ops": self.ops,
            "max_states": self.max_states,
            "fuzz_seeds": list(self.fuzz_seeds),
            "fuzz_budget": self.fuzz_budget,
        }


@dataclass
class Scenario:
    """One pinned workload: ``run(telemetry, config)`` is the timed unit."""

    name: str
    description: str
    run: Callable[[Telemetry, BenchConfig], Optional[Dict[str, Any]]]


# ---------------------------------------------------------------------------
# the pinned suite
# ---------------------------------------------------------------------------

def _scenario_check_corpus(tel: Telemetry,
                           config: BenchConfig) -> Dict[str, Any]:
    """Static pipeline over the whole registry (serial, cache off)."""
    from .detection import run_detection

    result = run_detection(telemetry=tel)
    return {"programs": len(result.outcomes),
            "warnings": result.total_warnings}


def _scenario_crashsim_enum(tel: Telemetry,
                            config: BenchConfig) -> Dict[str, Any]:
    """Record → enumerate → classify for two representative programs."""
    from ..crashsim import simulate_programs

    payloads = simulate_programs(["pmdk_hashmap", "pmfs_journal"],
                                 max_states=config.max_states,
                                 telemetry=tel)
    bad = [p for p in payloads if not p.get("ok")]
    if bad:
        raise ReproError(f"crashsim scenario failed: {bad[0].get('error')}")
    return {
        "states": sum(p["result"]["states"] for p in payloads),
        "failing": sum(len(p["result"]["failing"]) for p in payloads),
    }


def _scenario_fuzz_smoke(tel: Telemetry,
                         config: BenchConfig) -> Dict[str, Any]:
    """One-seed differential mini-campaign (generation + three engines)."""
    from ..fuzz import run_fuzz

    report = run_fuzz(seeds=list(config.fuzz_seeds),
                      budget=config.fuzz_budget, shrink=False,
                      telemetry=tel)
    if report["errors"]:
        raise ReproError(
            f"fuzz scenario failed: {report['errors'][0]['error']}")
    return {"programs": report["programs"],
            "disagreements": len(report["disagreements"])}


#: app modules are built once per process and reused across warmup and
#: repeats — the scenario times the *interpreter*, not the IR builders
_APP_MODULES: List = []


def _app_modules() -> List:
    if not _APP_MODULES:
        from ..apps import ALL_MIXES, APP_BUILDERS

        _APP_MODULES.extend((app, builder(ALL_MIXES[app][0]))
                            for app, builder in APP_BUILDERS.items())
    return _APP_MODULES


def _scenario_vm_apps(tel: Telemetry, config: BenchConfig) -> Dict[str, Any]:
    """Interpreter-only run of each application's first workload mix."""
    from ..vm.engine import make_interpreter
    from ..vm.scheduler import SeededScheduler

    steps = 0
    for _app, module in _app_modules():
        result = make_interpreter(module, telemetry=tel,
                                  scheduler=SeededScheduler(seed=1)
                                  ).run("main", [config.ops])
        steps += result.steps
    return {"steps": steps}


def _scenario_dynamic_apps(tel: Telemetry,
                           config: BenchConfig) -> Dict[str, Any]:
    """Each application's first workload mix under the dynamic checker.

    Instrumentation rewrites a module in place, so every run builds and
    instruments fresh modules (about 5 ms of the run). Besides the
    checker's own ``dynamic.events_handled`` and ``dynamic.races``, the
    run's ``vm.steps`` and every ``NVMStats`` field (as ``nvm.*``) are
    counters, so the ratchet pins the hook work and the persist work
    exactly.
    """
    from ..apps import ALL_MIXES, APP_BUILDERS
    from ..dynamic.checker import DynamicChecker

    metrics = tel.metrics
    races = 0
    for app, builder in APP_BUILDERS.items():
        checker = DynamicChecker(builder(ALL_MIXES[app][0]), telemetry=tel)
        _report, runs = checker.run("main", [config.ops], seeds=(1,))
        result = runs[-1].exec_result
        races += len(runs[-1].runtime.races)
        metrics.counter("vm.steps").inc(result.steps)
        for key, value in result.stats.snapshot().items():
            metrics.counter(f"nvm.{key}").inc(value)
    return {"races": races}


#: interleaved profiler-off/on pairs per ``op_profiler_overhead`` run;
#: one run of the workload takes 10 to 20 ms
PROFILER_PAIRS = 15


def _scenario_profiler_overhead(tel: Telemetry,
                                config: BenchConfig) -> Dict[str, Any]:
    """Measured self-overhead of the VM op profiler (Figure-12-style).

    Runs the same workload with the profiler force-off and force-on, in
    strict alternation, under the *same* (enabled) telemetry, so the only
    delta is the profiler's counting + sampled timing. The scenario's own
    wall-clock covers every run; the interesting numbers are the median
    ``overhead_pct`` and its interquartile range in the workload payload.
    The ``vm.op.*`` counters are the profiled runs' exact op counts.
    """
    from ..vm.engine import make_interpreter
    from ..vm.scheduler import SeededScheduler
    from .overhead import interleaved_overhead

    _app, module = _app_modules()[0]

    def run(op_profile: bool) -> None:
        make_interpreter(module, telemetry=tel, op_profile=op_profile,
                         scheduler=SeededScheduler(seed=1)
                         ).run("main", [config.ops])

    timing = interleaved_overhead(lambda: run(False), lambda: run(True),
                                  PROFILER_PAIRS)
    return {
        "baseline_s": round(timing.base_s, 6),
        "profiled_s": round(timing.variant_s, 6),
        "overhead_pct": round(timing.median_pct, 2),
        "overhead_q1_pct": round(timing.q1_pct, 2),
        "overhead_q3_pct": round(timing.q3_pct, 2),
        "pairs": timing.pairs,
    }


#: the serve_warm daemon is started once per process and reused across
#: warmup and repeats (the idiom of ``_APP_MODULES``): the scenario
#: times the *warm serving path* — protocol framing, artifact-store
#: lookup, session filtering, socket round-trips — not daemon startup
#: or the underlying (already-cached) analysis
_SERVE_STATE: List = []

#: warm working set + requests per timed run
_SERVE_WARM_PROGRAMS = ("pmdk_hashmap", "pmdk_btree_map", "pmfs_journal")
_SERVE_WARM_REQUESTS = 32


def _serve_state():
    if not _SERVE_STATE:
        import atexit
        import tempfile
        from pathlib import Path

        from ..serve import DeepMCServer, ServeConfig, connect

        root = Path(tempfile.mkdtemp(prefix="deepmc-bench-serve-"))
        server = DeepMCServer(ServeConfig(
            socket_path=str(root / "serve.sock"),
            jobs=1,
            warm_programs=_SERVE_WARM_PROGRAMS,
        ))
        server.start()
        client = connect(socket_path=str(root / "serve.sock"))
        atexit.register(lambda: (client.close(),
                                 server.shutdown(drain=True, timeout=5.0)))
        _SERVE_STATE.append((server, client))
    return _SERVE_STATE[0]


def _scenario_serve_warm(tel: Telemetry,
                         config: BenchConfig) -> Dict[str, Any]:
    """Warm-path request latency of the serve daemon: a round-robin of
    ``check`` requests over a pre-warmed three-program working set, all
    answered from the artifact store on connection threads."""
    _server, client = _serve_state()
    warm_hits = 0
    for i in range(_SERVE_WARM_REQUESTS):
        program = _SERVE_WARM_PROGRAMS[i % len(_SERVE_WARM_PROGRAMS)]
        response = client.call("check", {"program": program})
        if response["meta"].get("served") == "warm":
            warm_hits += 1
    if warm_hits != _SERVE_WARM_REQUESTS:
        # a cold miss would silently time a recompute instead of the
        # RPC + artifact-hit path this scenario pins
        raise ReproError(
            f"serve_warm scenario expected every request warm, got "
            f"{warm_hits}/{_SERVE_WARM_REQUESTS}")
    return {"requests": _SERVE_WARM_REQUESTS,
            "warm_hits": warm_hits,
            "programs": len(_SERVE_WARM_PROGRAMS)}


def _scenario_litmus(tel: Telemetry, config: BenchConfig) -> Dict[str, Any]:
    """Full litmus catalog, serial: three engines per (test, model) case."""
    from ..litmus import run_litmus

    payload = run_litmus(telemetry=tel)
    if payload["summary"]["errors"]:
        raise ReproError(
            f"litmus scenario failed: {payload['errors'][0]['error']}")
    return {"cases": payload["summary"]["cases"],
            "disagreeing": payload["summary"]["disagreeing"]}


SCENARIOS: Dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario("check_corpus",
                 "static check of every corpus program (serial, no cache)",
                 _scenario_check_corpus),
        Scenario("crashsim_enum",
                 "crash-image enumeration + recovery classification "
                 "(pmdk_hashmap, pmfs_journal)",
                 _scenario_crashsim_enum),
        Scenario("fuzz_smoke",
                 "differential fuzz mini-campaign (1 seed, no shrink)",
                 _scenario_fuzz_smoke),
        Scenario("vm_apps",
                 "interpreter-only run of the application workloads",
                 _scenario_vm_apps),
        Scenario("dynamic_apps",
                 "the dynamic checker on each application's first "
                 "workload mix",
                 _scenario_dynamic_apps),
        Scenario("op_profiler_overhead",
                 "VM op profiler self-overhead, profiler off vs on",
                 _scenario_profiler_overhead),
        Scenario("litmus",
                 "litmus catalog three-way cross-validation (all models)",
                 _scenario_litmus),
        Scenario("serve_warm",
                 "serve daemon warm-path latency: 32 check requests "
                 "against a pre-warmed artifact store",
                 _scenario_serve_warm),
    )
}


# ---------------------------------------------------------------------------
# measurement protocol
# ---------------------------------------------------------------------------

def trimmed_mean(samples: Sequence[float]) -> float:
    """Mean with the single fastest and slowest repeat dropped (when
    there are at least three), the usual guard against one noisy CI
    neighbour."""
    if not samples:
        return 0.0
    if len(samples) < 3:
        return sum(samples) / len(samples)
    ordered = sorted(samples)[1:-1]
    return sum(ordered) / len(ordered)


def rollup_stages(roots) -> Dict[str, Dict[str, Any]]:
    """Total seconds and call counts per span name across a forest."""
    out: Dict[str, Dict[str, Any]] = {}
    for span in flatten_spans(roots):
        entry = out.setdefault(span.name, {"calls": 0, "total_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += span.duration_s
    for entry in out.values():
        entry["total_s"] = round(entry["total_s"], 6)
    return dict(sorted(out.items()))


def run_scenario(scenario: Scenario,
                 config: Optional[BenchConfig] = None) -> Dict[str, Any]:
    """Run one scenario under the warmup+repeat protocol; returns the
    (JSON-ready, schema-versioned) trajectory payload."""
    config = config or BenchConfig()
    for _ in range(max(config.warmup, 0)):
        scenario.run(Telemetry(), config)
    samples: List[float] = []
    workload: Dict[str, Any] = {}
    tel = Telemetry()
    for _ in range(max(config.repeats, 1)):
        tel = Telemetry()
        t0 = perf_counter()
        workload = scenario.run(tel, config) or {}
        samples.append(perf_counter() - t0)
    counters = tel.metrics.dump()["counters"]
    return {
        "schema": BENCH_SCHEMA,
        "scenario": scenario.name,
        "description": scenario.description,
        "config": config.as_dict(),
        "env": environment_fingerprint(),
        "timing": {
            "samples_s": [round(s, 6) for s in samples],
            "mean_s": round(sum(samples) / len(samples), 6),
            "trimmed_mean_s": round(trimmed_mean(samples), 6),
            "min_s": round(min(samples), 6),
            "max_s": round(max(samples), 6),
        },
        "stages": rollup_stages(tel.tracer.roots),
        "counters": dict(sorted(counters.items())),
        "workload": dict(sorted(workload.items())),
    }


def run_suite(names: Optional[Sequence[str]] = None,
              config: Optional[BenchConfig] = None,
              progress: Optional[Callable[[str], None]] = None
              ) -> List[Dict[str, Any]]:
    """Run the named scenarios (default: the whole pinned suite)."""
    selected = list(names) if names else list(SCENARIOS)
    unknown = [n for n in selected if n not in SCENARIOS]
    if unknown:
        raise ReproError(
            f"unknown bench scenario(s): {', '.join(unknown)} "
            f"(choose from {', '.join(SCENARIOS)})")
    payloads = []
    for name in selected:
        if progress is not None:
            progress(name)
        payloads.append(run_scenario(SCENARIOS[name], config))
    return payloads


# ---------------------------------------------------------------------------
# trajectory files
# ---------------------------------------------------------------------------

def bench_filename(scenario: str) -> str:
    return f"BENCH_{scenario}.json"


def write_bench(payload: Dict[str, Any], out_dir: str = ".") -> Path:
    """Write one sorted-keys trajectory file; returns its path."""
    path = Path(out_dir) / bench_filename(payload["scenario"])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def load_bench(path: str) -> Dict[str, Dict[str, Any]]:
    """Load trajectory payloads from a file or a directory of
    ``BENCH_*.json`` files; returns ``{scenario: payload}``."""
    p = Path(path)
    if p.is_dir():
        files = sorted(p.glob("BENCH_*.json"))
        if not files:
            raise ReproError(f"no BENCH_*.json files in {p}")
    else:
        if not p.exists():
            raise ReproError(f"no such bench file: {p}")
        files = [p]
    out: Dict[str, Dict[str, Any]] = {}
    for f in files:
        payload = json.loads(f.read_text(encoding="utf-8"))
        scenario = payload.get("scenario")
        if not scenario or not str(payload.get("schema", "")
                                   ).startswith("deepmc.bench/"):
            raise ReproError(f"{f} is not a deepmc bench trajectory file")
        out[scenario] = payload
    return out


def render_results(payloads: List[Dict[str, Any]]) -> str:
    """Human-readable suite summary table."""
    header = ["scenario", "trimmed mean", "min", "max", "stages", "notes"]
    rows = []
    for p in payloads:
        t = p["timing"]
        note = "  ".join(f"{k}={v}" for k, v in p["workload"].items())
        rows.append([p["scenario"], f"{t['trimmed_mean_s'] * 1e3:.1f}ms",
                     f"{t['min_s'] * 1e3:.1f}ms", f"{t['max_s'] * 1e3:.1f}ms",
                     str(len(p["stages"])), note])
    widths = [max(len(r[i]) for r in [header] + rows)
              for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)),
             "  ".join("-" * w for w in widths)]
    lines += ["  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in rows]
    env = payloads[0]["env"] if payloads else {}
    if env:
        from ..telemetry import render_fingerprint

        lines.append("")
        lines.append(f"env: {render_fingerprint(env)}")
    return "\n".join(lines)
