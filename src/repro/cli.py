"""``deepmc`` command-line interface.

Mirrors the paper's usage model: the user points DeepMC at a program and a
single persistency-model flag; the tool reports warnings with file:line.

Subcommands::

    deepmc check FILE.nvmir [--model strict|epoch|strand] [--dynamic]
                 [--format text|json] [--profile] [--trace-out EVENTS.jsonl]
                 [--cache | --cache-dir DIR]
    deepmc profile FILE.nvmir [--run] [--format text|json]
    deepmc run FILE.nvmir [--entry main] [--arg N ...] [--dump-bytecode]
    deepmc corpus [--framework pmdk|pmfs|nvm_direct|mnemosyne]
                  [--jobs N] [--cache | --cache-dir DIR]
    deepmc bench [SCENARIO ...] [--repeat N] [--warmup N] [--out-dir DIR]
                 [--compare BASELINE] [--current CURRENT] [--tolerance F]
    deepmc crashsim [PROGRAM ...] [--fixed] [--max-states N] [--jobs N]
                    [--format text|json]
    deepmc chaos [--seeds 0..9] [--jobs N] [--deadline S]
                 [--layers nvm,vm,executor,cache] [--format text|json]
    deepmc cache {stats,clear} [--cache-dir DIR]
    deepmc serve [--socket PATH | --port N] [--jobs N] [--max-inflight N]
                 [--request-timeout S] [--warm PROGRAM]
    deepmc client METHOD [PARAMS-JSON] [--socket PATH | --port N]
                 [--timeout S] [--retries N]
    deepmc table {1,2,3,4,5,6,7,8,9} | figure12 | speedup
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from typing import List, Optional

from .checker.engine import StaticChecker
from .dynamic.checker import DynamicChecker
from .errors import ReproError
from .ir.parser import parse_module
from .telemetry import JsonlSink, LogfmtSink, Telemetry, render_profile_tree
from .vm.engine import make_interpreter


def _load_module(path: str, data: Optional[bytes] = None):
    """Parse the NVM-C or textual-IR file at ``path``; ``data``, when
    given, stands for the file's bytes and is decoded as the file is."""
    if data is None:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
    else:
        source = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    if path.endswith(".c"):
        from .frontend import compile_c

        return compile_c(source, path.rsplit("/", 1)[-1])
    return parse_module(source)


def _telemetry_for(args: argparse.Namespace) -> Optional[Telemetry]:
    """Build a Telemetry instance when any observability flag asks for
    one; None keeps every layer on its zero-overhead disabled path."""
    trace_out = getattr(args, "trace_out", None)
    wanted = (
        trace_out
        or getattr(args, "profile", False)
        or getattr(args, "logfmt", False)
        or getattr(args, "format", "text") == "json"
    )
    if not wanted:
        return None
    sinks = []
    if trace_out:
        sinks.append(JsonlSink(trace_out))
    if getattr(args, "logfmt", False):
        sinks.append(LogfmtSink(sys.stderr))
    return Telemetry(sinks=sinks)


def _cache_for(args: argparse.Namespace):
    """Resolve the --cache/--cache-dir flags to an AnalysisCache (or
    None when caching was not requested)."""
    cache_dir = getattr(args, "cache_dir", None)
    if not cache_dir and not getattr(args, "cache", False):
        return None
    from .parallel import AnalysisCache

    return AnalysisCache(cache_dir) if cache_dir else AnalysisCache()


def _check_program(args: argparse.Namespace) -> int:
    """``deepmc check --program NAME``: check one corpus program and
    print the *serve-equivalent* check document. The --format json
    output is byte-identical to the daemon's ``check`` result for the
    same params — the serve CI job and chaos phase diff the two."""
    from .checker.report import Report
    from .serve import methods as serve_methods

    if args.file is not None:
        print("deepmc: error: pass FILE.nvmir or --program NAME, "
              "not both", file=sys.stderr)
        return 2
    try:
        params = serve_methods.normalize(
            "check", {"program": args.program, "model": args.model})
    except ValueError as exc:
        print(f"deepmc: error: {exc}", file=sys.stderr)
        return 2
    doc = serve_methods.run_check(params)
    if args.format == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(Report.from_dict(doc["report"]).render())
    return 1 if doc["report"]["warnings"] else 0


def cmd_check(args: argparse.Namespace) -> int:
    from .parallel import check_with_cache

    if getattr(args, "program", None) is not None:
        return _check_program(args)
    if args.file is None:
        print("deepmc: error: check needs FILE.nvmir or --program NAME",
              file=sys.stderr)
        return 2
    tel = _telemetry_for(args)
    cache = _cache_for(args)
    module = _load_module(args.file)
    checked = check_with_cache(module, cache, model=args.model, telemetry=tel)
    report = checked.report
    if cache is not None:
        print(f"deepmc: analysis cache "
              f"{'hit' if checked.hit else 'miss'} ({cache.root})",
              file=sys.stderr)
    if args.dynamic:
        dyn = DynamicChecker(module, model=args.model, telemetry=tel)
        dyn_report, _runs = dyn.run(entry=args.entry)
        report.merge(dyn_report)
    suppressed = []
    if args.suppressions:
        from .checker.suppressions import SuppressionDB

        db = SuppressionDB.load(args.suppressions)
        report, suppressed = db.filter(report)

    if args.format == "json":
        payload = {
            "report": report.to_dict(),
            "timings": checked.timings,
            "traces_checked": checked.traces_checked,
            "suppressed": len(suppressed),
        }
        if cache is not None:
            payload["cache"] = {"hit": checked.hit, "key": checked.key}
        if tel is not None:
            payload["metrics"] = tel.metrics.snapshot()
        # sort_keys: every machine-readable surface (fuzz/chaos/crashsim/
        # bench) emits byte-stable JSON; check/profile are no exception
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(report.render())
        if suppressed:
            print(f"\n({len(suppressed)} warning(s) suppressed by "
                  f"{args.suppressions})")
        if args.suggest_fixes and len(report):
            from .checker.fixes import suggest_fixes

            print("\nSuggested fixes:")
            for suggestion in suggest_fixes(report):
                print(f"  {suggestion.render()}")
    if args.profile and tel is not None:
        # stderr so --format json stdout stays machine-parseable
        print(tel.profile(), file=sys.stderr)
    if tel is not None:
        tel.close()
    return 1 if len(report) else 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Profile the full static pipeline (and optionally one VM run) on a
    program and print the nested phase tree with per-phase shares."""
    sinks = [JsonlSink(args.trace_out)] if args.trace_out else []
    tel = Telemetry(sinks=sinks)
    interp = None
    with tel.span("profile", file=args.file) as top:
        with tel.span("load"):
            module = _load_module(args.file)
        checker = StaticChecker(module, model=args.model, telemetry=tel)
        report = checker.run()
        if args.run:
            interp = make_interpreter(module, telemetry=tel)
            interp.run(args.entry, [int(a) for a in args.arg])
        top.set("warnings", len(report))
    profiler = interp.op_profiler if interp is not None else None
    if args.format == "json":
        payload = {
            "profile": top.to_dict(),
            "timings": checker.timings.as_dict(),
            "metrics": tel.metrics.snapshot(),
        }
        if profiler is not None:
            payload["ops"] = profiler.as_dict()
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_profile_tree(tel.tracer.roots))
        print()
        print(f"warnings: {len(report)}  "
              f"traces checked: {checker.traces_checked}")
        if profiler is not None and profiler.counts:
            from .vm.profiler import render_op_profile

            print()
            print(render_op_profile(profiler))
    tel.close()
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    tel = _telemetry_for(args)
    module = _load_module(args.file)
    if args.dump_bytecode:
        from .vm.compile import compile_module

        print(compile_module(module).disassemble())
        return 0
    interp = make_interpreter(module, telemetry=tel,
                              trace_instructions=args.trace_instructions)
    result = interp.run(args.entry, [int(a) for a in args.arg])
    for line in result.output:
        print(line)
    print(f"returned: {result.value}")
    print(f"steps: {result.steps}")
    for key, value in result.stats.snapshot().items():
        print(f"  {key}: {value}")
    if tel is not None:
        if args.profile:
            # stderr, like check --profile: stdout stays the program's
            print(tel.profile(), file=sys.stderr)
            if interp.op_profiler is not None and interp.op_profiler.counts:
                from .vm.profiler import render_op_profile

                print(render_op_profile(interp.op_profiler),
                      file=sys.stderr)
        tel.close()
    return 0


def cmd_corpus(args: argparse.Namespace) -> int:
    from .bench.detection import render_table1, run_detection

    tel = _telemetry_for(args)
    cache = _cache_for(args)
    result = run_detection(framework=args.framework, telemetry=tel,
                           jobs=args.jobs, cache=cache)
    print(render_table1(result))
    print()
    print(
        f"warnings: {result.total_warnings}  "
        f"validated: {result.total_validated}  "
        f"false positives: {result.total_false_positives} "
        f"({result.false_positive_rate:.0%})"
    )
    if cache is not None:
        # stderr: cold vs warm runs must stay byte-identical on stdout
        print(f"deepmc: cache {result.cache_hits} hit(s), "
              f"{result.cache_misses} miss(es) ({cache.root})",
              file=sys.stderr)
    if getattr(args, "profile", False) and tel is not None:
        print(tel.profile(), file=sys.stderr)
    if tel is not None:
        tel.close()
    status = 0
    if result.errors:
        print(f"FAILED to check {len(result.errors)} program(s):",
              file=sys.stderr)
        for err in result.errors:
            first_line = err.error.strip().splitlines()[-1]
            print(f"  {err.program}: {first_line}", file=sys.stderr)
        status = 1
    missed = result.missed()
    if missed:
        print(f"MISSED {len(missed)} ground-truth bugs:")
        for b in missed:
            print(f"  {b.bug_id}")
        status = 1
    return status


def cmd_bench(args: argparse.Namespace) -> int:
    """Run the pinned perf suite and/or ratchet against a baseline.

    Exit codes: 0 ok, 1 regression beyond tolerance (or a baseline
    scenario missing from the current run, or a work counter that
    differs at equal config), 2 usage error.
    """
    from .bench import (
        BenchConfig,
        SCENARIOS,
        compare_bench,
        load_bench,
        render_compare,
        render_results,
        run_suite,
        write_bench,
    )

    if args.list:
        for name, scenario in SCENARIOS.items():
            print(f"{name:24} {scenario.description}")
        return 0
    if args.current and not args.compare:
        print("deepmc: error: --current requires --compare", file=sys.stderr)
        return 2

    if args.current:
        # file-vs-file ratchet: no scenarios run (CI re-diffs, tests)
        current = load_bench(args.current)
        results = None
    else:
        config = BenchConfig(warmup=args.warmup, repeats=args.repeat,
                             ops=args.ops)
        results = run_suite(
            args.scenarios or None, config,
            progress=lambda name: print(f"deepmc: bench {name} ...",
                                        file=sys.stderr))
        current = {p["scenario"]: p for p in results}
        if not args.no_write:
            for payload in results:
                path = write_bench(payload, args.out_dir)
                print(f"deepmc: wrote {path}", file=sys.stderr)
        if args.format == "json":
            print(json.dumps(current, indent=2, sort_keys=True))
        else:
            print(render_results(results))

    if args.compare:
        baseline = load_bench(args.compare)
        comp = compare_bench(baseline, current, tolerance=args.tolerance)
        if results is not None:
            print()
        print(render_compare(comp))
        if not comp.ok:
            return 1
    return 0


def cmd_crashsim(args: argparse.Namespace) -> int:
    from .corpus import REGISTRY
    from .crashsim import render_results, results_payload, simulate_programs

    if args.programs:
        names = list(args.programs)
        for name in names:
            REGISTRY.program(name)  # unknown names fail fast (CorpusError)
    else:
        names = [p.name for p in REGISTRY.programs(framework=args.framework)
                 if p.oracle is not None]
    tel = _telemetry_for(args)
    payloads = simulate_programs(
        names,
        fixed=args.fixed,
        jobs=args.jobs,
        max_states=args.max_states,
        telemetry=tel,
    )
    # stdout carries only deterministic content (counts, image indices,
    # coordinates) so --jobs N output is byte-identical to serial;
    # profile/metrics go to stderr like the corpus command's cache line
    if args.format == "json":
        print(json.dumps(results_payload(payloads), indent=2,
                         sort_keys=True))
    else:
        print(render_results(payloads))
    if getattr(args, "profile", False) and tel is not None:
        print(tel.profile(), file=sys.stderr)
    if tel is not None:
        tel.close()
    if any(not p.get("ok") for p in payloads):
        for p in payloads:
            if not p.get("ok"):
                last = p["error"].strip().splitlines()[-1]
                print(f"deepmc: crashsim failed for {p['name']}: {last}",
                      file=sys.stderr)
        return 2
    failing = sum(len(p["result"]["failing"]) for p in payloads)
    return 1 if failing else 0


def cmd_litmus(args: argparse.Namespace) -> int:
    from .litmus import (
        CATALOG,
        get_test,
        render_litmus,
        run_litmus,
        validate_catalog,
    )

    if args.list:
        for test in CATALOG:
            print(f"{test.name:<30} {test.group:<9} "
                  + ",".join(test.models))
        return 0
    if args.emit_docs is not None:
        from .litmus.docgen import render_models_md

        path = args.emit_docs or "docs/MODELS.md"
        text = render_models_md()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"deepmc: wrote {path} ({len(text)} bytes)", file=sys.stderr)
        return 0
    problems = validate_catalog()
    if problems:
        for problem in problems:
            print(f"deepmc: litmus catalog: {problem}", file=sys.stderr)
        return 2
    tests = None
    if args.tests:
        try:
            tests = [get_test(name) for name in args.tests]
        except KeyError as exc:
            print(f"deepmc: error: {exc.args[0]}", file=sys.stderr)
            return 2
    models = [args.model] if args.model else None
    tel = _telemetry_for(args)
    payload = run_litmus(tests=tests, models=models, jobs=args.jobs,
                         max_states=args.max_states, telemetry=tel)
    # stdout carries only deterministic content (declared expectations,
    # image counts, disagreement diffs) so --jobs N is byte-identical
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_litmus(payload))
    if getattr(args, "profile", False) and tel is not None:
        print(tel.profile(), file=sys.stderr)
    if tel is not None:
        tel.close()
    if payload["summary"]["errors"]:
        return 2
    return 1 if payload["summary"]["disagreeing"] else 0


def parse_seed_spec(spec: str) -> List[int]:
    """Parse a seed sweep spec: ``0..9`` (inclusive range), ``0,3,7``
    (list), ``5`` (single), or any comma-mix of the three."""
    seeds: List[int] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo, hi = part.split("..", 1)
            lo_i, hi_i = int(lo), int(hi)
            if hi_i < lo_i:
                raise ValueError(f"empty seed range {part!r}")
            seeds.extend(range(lo_i, hi_i + 1))
        else:
            seeds.append(int(part))
    if not seeds:
        raise ValueError(f"no seeds in spec {spec!r}")
    return seeds


def cmd_chaos(args: argparse.Namespace) -> int:
    from .faults import (
        ALL_LAYERS,
        DEFAULT_DEADLINE_S,
        render_chaos,
        run_chaos,
    )

    try:
        seeds = parse_seed_spec(args.seeds)
    except ValueError as exc:
        print(f"deepmc: error: {exc}", file=sys.stderr)
        return 2
    layers = tuple(l.strip() for l in args.layers.split(",") if l.strip())
    unknown = [l for l in layers if l not in ALL_LAYERS]
    if unknown:
        print(f"deepmc: error: unknown layer(s): {', '.join(unknown)} "
              f"(choose from {', '.join(ALL_LAYERS)})", file=sys.stderr)
        return 2
    tel = _telemetry_for(args) or Telemetry()
    report = run_chaos(
        seeds=seeds,
        jobs=args.jobs,
        deadline_s=(args.deadline if args.deadline is not None
                    else DEFAULT_DEADLINE_S),
        layers=layers,
        framework=args.framework,
        telemetry=tel,
    )
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_chaos(report))
    # Fault/recovery traffic counts are timing-dependent (how many tasks
    # a dying pool takes down varies with scheduling), so they go to
    # stderr — stdout stays deterministic per seed set.
    chaos_metrics = {
        k: v for k, v in sorted(tel.metrics.snapshot().items())
        if k.startswith(("faults.", "executor.", "cache.", "serve."))
    }
    if chaos_metrics:
        print("chaos metrics: " + "  ".join(
            f"{k}={v}" for k, v in chaos_metrics.items()), file=sys.stderr)
    if getattr(args, "profile", False):
        print(tel.profile(), file=sys.stderr)
    tel.close()
    return 0 if report.ok else 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    from .fuzz import FUZZ_MODELS, render_fuzz, run_fuzz

    try:
        seeds = parse_seed_spec(args.seeds)
    except ValueError as exc:
        print(f"deepmc: error: {exc}", file=sys.stderr)
        return 2
    if args.model is not None and args.model not in FUZZ_MODELS:
        print(f"deepmc: error: unknown model {args.model!r} "
              f"(choose from {', '.join(FUZZ_MODELS)})", file=sys.stderr)
        return 2
    tel = _telemetry_for(args)
    report = run_fuzz(
        seeds=seeds,
        budget=args.budget,
        jobs=args.jobs,
        model=args.model,
        max_states=args.max_states,
        shrink=not args.no_shrink,
        artifacts_dir=args.artifacts,
        telemetry=tel,
    )
    # the report excludes jobs/timing, so --jobs N stdout is
    # byte-identical to serial (same guarantee as crashsim/chaos)
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_fuzz(report))
    if getattr(args, "profile", False) and tel is not None:
        print(tel.profile(), file=sys.stderr)
    if tel is not None:
        tel.close()
    if report["errors"]:
        for err in report["errors"]:
            last = err["error"].strip().splitlines()[-1]
            print(f"deepmc: fuzz failed for {err['name']}: {last}",
                  file=sys.stderr)
        return 2
    return 1 if report["disagreements"] else 0


def cmd_cache(args: argparse.Namespace) -> int:
    from .parallel import AnalysisCache

    cache = AnalysisCache(args.cache_dir) if args.cache_dir else AnalysisCache()
    if args.action == "stats":
        stats = cache.stats()
        if args.format == "json":
            print(json.dumps(stats.as_dict(), indent=2, sort_keys=True))
        else:
            print(f"cache directory: {stats.root}")
            print(f"entries:         {stats.entries}")
            print(f"total size:      {stats.total_bytes} bytes")
            print(f"quarantined:     {stats.quarantined}")
    else:  # clear
        removed = cache.clear()
        print(f"removed {removed} cache entr"
              f"{'y' if removed == 1 else 'ies'} from {cache.root}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived analysis daemon until SIGTERM/SIGINT, then
    drain: every admitted request completes and its response is flushed
    before the sockets close."""
    import signal
    import threading

    from .serve import DeepMCServer, ServeConfig

    config = ServeConfig(
        socket_path=args.socket,
        port=args.port,
        jobs=args.jobs,
        max_inflight=args.max_inflight,
        request_timeout_s=args.request_timeout,
        pool_timeout_s=args.pool_timeout,
        cache_dir=args.cache_dir,
        warm_programs=tuple(args.warm or ()),
    )
    tel = _telemetry_for(args) or Telemetry()
    server = DeepMCServer(config, telemetry=tel)
    stop = threading.Event()

    def _on_signal(signum: int, _frame: object) -> None:
        print(f"deepmc: serve: caught signal {signum}; draining",
              file=sys.stderr)
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    kind, target = server.start()
    print(f"deepmc: serving on {kind}:{target} "
          f"(jobs={config.jobs}, max_inflight={config.max_inflight})",
          file=sys.stderr)
    while not stop.is_set():
        stop.wait(0.2)
    drained = server.shutdown(drain=True, timeout=args.drain_timeout)
    print("deepmc: serve: "
          + ("drained cleanly" if drained
             else "drain timed out with requests in flight"),
          file=sys.stderr)
    tel.close()
    return 0 if drained else 1


def cmd_client(args: argparse.Namespace) -> int:
    """One-shot client for the serve daemon. Prints the response's
    ``result`` document (byte-identical to the one-shot command's
    --format json output for heavy methods)."""
    from .serve import RetryPolicy, connect

    try:
        params = json.loads(args.params) if args.params else {}
    except ValueError as exc:
        print(f"deepmc: error: bad --params JSON: {exc}", file=sys.stderr)
        return 2
    if not isinstance(params, dict):
        print("deepmc: error: --params must be a JSON object",
              file=sys.stderr)
        return 2
    client = connect(socket_path=args.socket, port=args.port,
                     retry=RetryPolicy(attempts=args.retries))
    try:
        if args.wait_ready and not client.wait_ready(
                timeout_s=args.wait_ready):
            print("deepmc: error: daemon not ready", file=sys.stderr)
            return 2
        result = client.result(args.method, params,
                               timeout_s=args.timeout)
    finally:
        client.close()
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def cmd_learn_suppressions(args: argparse.Namespace) -> int:
    from .checker.suppressions import learn_from_corpus

    db = learn_from_corpus()
    db.save(args.output)
    print(f"wrote {len(db)} suppression(s) to {args.output}")
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    from . import bench

    which = args.which
    if which in ("1", "2", "3", "8"):
        result = bench.run_detection()
    if which == "1":
        print(bench.render_table1(result))
    elif which == "2":
        print(bench.render_table2(result))
    elif which == "3":
        print(bench.render_table3(result))
    elif which == "4":
        print(bench.render_table4())
    elif which == "5":
        print(bench.render_table5())
    elif which == "6":
        print(bench.render_table6())
    elif which == "7":
        print(bench.render_table7())
    elif which == "8":
        print(bench.render_table8(result))
    elif which == "9":
        print(bench.render_table9(bench.measure_compile_times()))
    return 0


def cmd_figure12(args: argparse.Namespace) -> int:
    from .bench import measure_figure12, render_figure12
    from .bench.overhead import MIN_PAIRS

    if args.pairs < MIN_PAIRS:
        print(f"deepmc: error: --pairs must be at least {MIN_PAIRS}",
              file=sys.stderr)
        return 2
    print(render_figure12(measure_figure12(ops=args.ops, pairs=args.pairs)))
    return 0


def cmd_speedup(args: argparse.Namespace) -> int:
    from .bench import measure_fix_speedups, render_fix_speedups

    print(render_fix_speedups(measure_fix_speedups(repeat=args.repeat)))
    return 0


def _add_cache_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cache", action="store_true",
                   help="reuse analysis results from the default cache "
                        "directory ($DEEPMC_CACHE_DIR or ~/.cache/deepmc)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="reuse analysis results from (and store them in) "
                        "this cache directory")


def _add_observability_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--profile", action="store_true",
                   help="print the span profile tree to stderr")
    p.add_argument("--trace-out", default=None, metavar="EVENTS.jsonl",
                   help="write structured telemetry events as JSON lines")
    p.add_argument("--logfmt", action="store_true",
                   help="stream telemetry events to stderr as logfmt")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deepmc",
        description="DeepMC: persistency-model-aware bug detection for NVM "
                    "programs (PPoPP'22 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="statically check an IR module")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--program", default=None, metavar="NAME",
                   help="check a corpus program instead of a file and "
                        "print the serve-equivalent check document "
                        "(--format json is byte-identical to the "
                        "daemon's result)")
    p.add_argument("--model", choices=["strict", "epoch", "strand"],
                   default=None,
                   help="persistency model flag (default: module header)")
    p.add_argument("--dynamic", action="store_true",
                   help="also execute under the dynamic checker")
    p.add_argument("--entry", default="main")
    p.add_argument("--suppressions", default=None, metavar="DB.json",
                   help="filter warnings through a suppression database")
    p.add_argument("--suggest-fixes", action="store_true",
                   help="print a repair suggestion for each warning")
    _add_cache_flags(p)
    _add_observability_flags(p)
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="report format (json is machine-readable)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "profile",
        help="profile the static pipeline on a program: nested phase "
             "tree with per-phase wall time and %% of total",
    )
    p.add_argument("file")
    p.add_argument("--model", choices=["strict", "epoch", "strand"],
                   default=None)
    p.add_argument("--run", action="store_true",
                   help="also execute the program on the VM and include "
                        "the run in the profile")
    p.add_argument("--entry", default="main")
    p.add_argument("--arg", action="append", default=[],
                   help="integer argument for --run")
    p.add_argument("--trace-out", default=None, metavar="EVENTS.jsonl",
                   help="also write the JSONL event log")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("run", help="execute an IR module on the simulator")
    p.add_argument("file")
    p.add_argument("--entry", default="main")
    p.add_argument("--arg", action="append", default=[],
                   help="integer argument for the entry function")
    _add_observability_flags(p)
    p.add_argument("--trace-instructions", action="store_true",
                   help="emit one event per executed instruction to the "
                        "trace sinks (large!)")
    p.add_argument("--dump-bytecode", action="store_true",
                   help="print the compiled register bytecode instead of "
                        "running the program")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("corpus", help="run detection over the bug corpus")
    p.add_argument("--framework",
                   choices=["pmdk", "pmfs", "nvm_direct", "mnemosyne"],
                   default=None)
    p.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                   help="check programs on N worker processes "
                        "(default: 1, serial)")
    _add_cache_flags(p)
    _add_observability_flags(p)
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser(
        "bench",
        help="run the pinned performance suite, emit BENCH_*.json "
             "trajectory files, and optionally ratchet against a "
             "committed baseline",
    )
    p.add_argument("scenarios", nargs="*", metavar="SCENARIO",
                   help="scenario names (default: the whole suite; "
                        "see --list)")
    p.add_argument("--list", action="store_true",
                   help="list the pinned scenarios and exit")
    p.add_argument("--repeat", type=int, default=3, metavar="N",
                   help="timed repeats per scenario (default: 3; the "
                        "trimmed mean drops the fastest and slowest)")
    p.add_argument("--warmup", type=int, default=1, metavar="N",
                   help="untimed warmup runs per scenario (default: 1)")
    p.add_argument("--ops", type=int, default=400, metavar="N",
                   help="per-iteration ops for the VM app scenarios "
                        "(default: 400)")
    p.add_argument("--out-dir", default=".", metavar="DIR",
                   help="where BENCH_<scenario>.json files land "
                        "(default: current directory — the repo root "
                        "holds the committed baseline)")
    p.add_argument("--no-write", action="store_true",
                   help="measure and report without touching any "
                        "BENCH_*.json file")
    p.add_argument("--compare", default=None, metavar="BASELINE",
                   help="diff against a baseline BENCH_*.json file or a "
                        "directory of them; exit 1 on regression beyond "
                        "the tolerance band or on a counter that differs "
                        "at equal config")
    p.add_argument("--current", default=None, metavar="CURRENT",
                   help="with --compare: diff these already-written "
                        "trajectory files instead of running the suite")
    p.add_argument("--tolerance", type=float, default=0.5, metavar="F",
                   help="regression tolerance as a fraction (default: "
                        "0.5 = fail beyond +50%%)")
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="suite report format (the trajectory files are "
                        "always JSON)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "crashsim",
        help="enumerate crash images for corpus programs and validate "
             "their recovery oracles",
    )
    p.add_argument("programs", nargs="*", metavar="PROGRAM",
                   help="corpus program names (default: every program "
                        "with a registered oracle)")
    p.add_argument("--framework",
                   choices=["pmdk", "pmfs", "nvm_direct", "mnemosyne"],
                   default=None,
                   help="restrict the default program set to one framework")
    p.add_argument("--fixed", action="store_true",
                   help="simulate the patched variants (expected: zero "
                        "failing images)")
    p.add_argument("--max-states", type=int, default=4096, metavar="N",
                   help="global budget of crash images per program "
                        "(default: 4096)")
    p.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                   help="simulate programs on N worker processes "
                        "(default: 1, serial)")
    _add_observability_flags(p)
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="report format (json is machine-readable and "
                        "schema-stable)")
    p.set_defaults(func=cmd_crashsim)

    p = sub.add_parser(
        "litmus",
        help="cross-validate the persistency-model litmus catalog: "
             "declared outcome sets and verdicts vs crashsim enumeration, "
             "spec simulation, and the real checkers",
    )
    p.add_argument("tests", nargs="*", metavar="TEST",
                   help="litmus test names (default: the whole catalog)")
    p.add_argument("--model", choices=["strict", "epoch", "strand"],
                   default=None,
                   help="restrict to one persistency model (default: "
                        "every model each test declares)")
    p.add_argument("--list", action="store_true",
                   help="list catalog tests and exit")
    p.add_argument("--emit-docs", nargs="?", const="", default=None,
                   metavar="PATH",
                   help="regenerate the model reference into PATH "
                        "(default: docs/MODELS.md) and exit")
    p.add_argument("--max-states", type=int, default=4096, metavar="N",
                   help="crash-image budget per case (default: 4096)")
    p.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                   help="run cases on N worker processes (default: 1, "
                        "serial; output is byte-identical either way)")
    _add_observability_flags(p)
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="report format (json is machine-readable and "
                        "schema-stable)")
    p.set_defaults(func=cmd_litmus)

    p = sub.add_parser(
        "chaos",
        help="run a deterministic fault-injection campaign: infra faults "
             "must not change detection results; NVM faults must surface "
             "as failing crash images",
    )
    p.add_argument("--seeds", default="0..9", metavar="SPEC",
                   help="seed sweep: '0..9', '0,3,7', or '5' "
                        "(default: 0..9)")
    p.add_argument("--jobs", "-j", type=int, default=4, metavar="N",
                   help="worker processes for the corpus phase "
                        "(default: 4; 1 disables executor faults — no "
                        "pool to isolate them)")
    p.add_argument("--deadline", type=float, default=None, metavar="S",
                   help="progress deadline before a pool is presumed "
                        "wedged (default: 10)")
    p.add_argument("--layers", default=",".join(
                       ("nvm", "vm", "executor", "cache")),
                   metavar="L1,L2,...",
                   help="fault layers to exercise (default: the four "
                        "pipeline layers; add 'serve' to chaos-test "
                        "the daemon too)")
    p.add_argument("--framework",
                   choices=["pmdk", "pmfs", "nvm_direct", "mnemosyne"],
                   default=None,
                   help="restrict the program sets to one framework")
    _add_observability_flags(p)
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="campaign report format")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "fuzz",
        help="differential fuzzing: generated IR programs with known "
             "verdicts cross-validate the static checker, crashsim, and "
             "dynamic checker against each other",
    )
    p.add_argument("--seeds", default="0..9", metavar="SPEC",
                   help="seed sweep: '0..9', '0,3,7', or '5' "
                        "(default: 0..9)")
    p.add_argument("--budget", type=int, default=8, metavar="N",
                   help="programs generated per seed (default: 8)")
    p.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                   help="fan seeds out over N worker processes "
                        "(default: 1, serial; output is byte-identical "
                        "either way)")
    p.add_argument("--model", choices=["strict", "epoch", "strand"],
                   default=None,
                   help="pin the persistency model (default: the seed "
                        "picks per program)")
    p.add_argument("--max-states", type=int, default=2048, metavar="N",
                   help="crash-image budget per program (default: 2048)")
    p.add_argument("--artifacts", default=None, metavar="DIR",
                   help="write shrunk .nvmir repros + disagreement "
                        "records here (only on disagreement)")
    p.add_argument("--no-shrink", action="store_true",
                   help="report disagreements unshrunk (faster triage "
                        "of wide breakage)")
    _add_observability_flags(p)
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="report format (json is machine-readable and "
                        "schema-stable)")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "cache",
        help="inspect or clear the content-addressed analysis cache",
    )
    p.add_argument("action", choices=["stats", "clear"])
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="cache directory (default: $DEEPMC_CACHE_DIR or "
                        "~/.cache/deepmc)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser(
        "serve",
        help="run the resilient long-lived analysis daemon: warm "
             "artifact store, bounded admission with backpressure, "
             "per-request deadlines, drain-based graceful shutdown",
    )
    p.add_argument("--socket", default=None, metavar="PATH",
                   help="bind a unix-domain socket at PATH (exactly one "
                        "of --socket/--port)")
    p.add_argument("--port", type=int, default=None, metavar="N",
                   help="bind 127.0.0.1:N (0 = kernel-assigned)")
    p.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                   help="worker processes for heavy requests (default: "
                        "1 = in-process)")
    p.add_argument("--max-inflight", type=int, default=8, metavar="N",
                   help="admission bound: max cold requests queued + "
                        "executing before 'overloaded' (default: 8)")
    p.add_argument("--request-timeout", type=float, default=30.0,
                   metavar="S",
                   help="default per-request deadline budget in seconds "
                        "(requests may override via params.timeout_s; "
                        "default: 30)")
    p.add_argument("--pool-timeout", type=float, default=10.0,
                   metavar="S",
                   help="worker-pool progress deadline before a hung "
                        "worker is presumed wedged (default: 10)")
    p.add_argument("--drain-timeout", type=float, default=60.0,
                   metavar="S",
                   help="max seconds to wait for in-flight requests on "
                        "shutdown (default: 60)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="analysis cache directory for worker-side "
                        "check requests")
    p.add_argument("--warm", action="append", default=[],
                   metavar="PROGRAM",
                   help="pre-check this corpus program before going "
                        "ready (repeatable)")
    _add_observability_flags(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "client",
        help="invoke one method on a running serve daemon and print "
             "the result document",
    )
    p.add_argument("method", metavar="METHOD",
                   help="method name (see 'deepmc client methods')")
    p.add_argument("params", nargs="?", default=None, metavar="JSON",
                   help="method params as a JSON object")
    p.add_argument("--socket", default=None, metavar="PATH",
                   help="daemon unix socket (exactly one of "
                        "--socket/--port)")
    p.add_argument("--port", type=int, default=None, metavar="N",
                   help="daemon TCP port on 127.0.0.1")
    p.add_argument("--timeout", type=float, default=None, metavar="S",
                   help="per-request deadline budget (params.timeout_s)")
    p.add_argument("--retries", type=int, default=4, metavar="N",
                   help="total attempts for idempotent methods "
                        "(default: 4)")
    p.add_argument("--wait-ready", type=float, default=None, metavar="S",
                   help="poll 'ready' for up to S seconds before the "
                        "request (daemon startup races in scripts)")
    p.set_defaults(func=cmd_client)

    p = sub.add_parser(
        "learn-suppressions",
        help="write the corpus's validated false positives to a "
             "suppression database (§5.4 future work)",
    )
    p.add_argument("output", metavar="DB.json")
    p.set_defaults(func=cmd_learn_suppressions)

    p = sub.add_parser("table", help="reproduce one of the paper's tables")
    p.add_argument("which", choices=[str(i) for i in range(1, 10)])
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("figure12", help="reproduce the Figure 12 overheads")
    p.add_argument("--ops", type=int, default=2000)
    p.add_argument("--pairs", type=int, default=9,
                   help="interleaved plain/checked run pairs per row "
                        "(at least 9)")
    p.set_defaults(func=cmd_figure12)

    p = sub.add_parser("speedup", help="§5.1 performance-bug fix speedups")
    p.add_argument("--repeat", type=int, default=64)
    p.set_defaults(func=cmd_speedup)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"deepmc: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"deepmc: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
