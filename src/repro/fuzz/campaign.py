"""The ``deepmc fuzz`` campaign driver.

A campaign sweeps ``(seed, index)`` pairs. Each pair deterministically
yields one program:

1. :func:`~repro.fuzz.generator.generate_program` builds the clean spec
   from ``site_hash("fuzz", seed, index)``;
2. an independent stream ``site_hash("fuzz.mut", seed, index)`` decides
   (at :data:`MUTATION_RATE`) whether to apply one mutation from the
   spec's deterministic mutation enumeration — so roughly a quarter of
   programs exercise the engines' clean path and the rest their
   detection paths;
3. :func:`~repro.fuzz.oracle.evaluate_program` runs all three engines
   and diffs against the expectation simulators;
4. on disagreement, :func:`~repro.fuzz.shrink.shrink_program` minimizes
   while the exact diff signature reproduces, and the campaign writes a
   ``.nvmir`` repro plus a ``deepmc.fuzz.disagreement/v1`` JSON record
   into the artifacts directory.

Seeds run through the shared fan-out path
(:func:`repro.parallel.executor.run_tasks`); results come back in
submission order and the report payload excludes anything
worker-count-dependent, so ``--jobs N`` output is byte-identical to
serial.
"""

from __future__ import annotations

import json
import os
import random
from typing import Any, Dict, List, Optional

from ..faults.plan import site_hash
from ..ir import print_module
from ..telemetry import NULL_TELEMETRY, Telemetry
from .generator import generate_program
from .mutate import apply_mutation, enumerate_mutations
from .oracle import DEFAULT_MAX_STATES, diff_signature, evaluate_program
from .shrink import DEFAULT_MAX_EVALS, shrink_program
from .spec import ProgramSpec

#: schema tags pinned by tests/cli/golden — bump on breaking change
DISAGREEMENT_SCHEMA = "deepmc.fuzz.disagreement/v1"
REPORT_SCHEMA = "deepmc.fuzz.report/v1"

#: probability that a generated program receives one mutation
MUTATION_RATE = 0.75

#: default programs per seed
DEFAULT_BUDGET = 8


def build_program(seed: int, index: int,
                  model: Optional[str] = None) -> ProgramSpec:
    """The campaign's deterministic program for ``(seed, index)``.

    Clean generation and the mutate-or-not decision draw from separate
    hash-derived streams, so the same clean parent is recoverable (and
    golden-pinnable) independently of the mutation choice.
    """
    spec = generate_program(seed, index, model=model)
    mrng = random.Random(site_hash("fuzz.mut", seed, index))
    mutations = enumerate_mutations(spec)
    if mutations and mrng.random() < MUTATION_RATE:
        return apply_mutation(spec, mutations[mrng.randrange(len(mutations))])
    return spec


def fuzz_program(seed: int, index: int,
                 model: Optional[str] = None,
                 max_states: int = DEFAULT_MAX_STATES,
                 shrink: bool = True,
                 max_shrink_evals: int = DEFAULT_MAX_EVALS,
                 telemetry: Optional[Telemetry] = None) -> Dict[str, Any]:
    """Evaluate one campaign program; returns its JSON-able record."""
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    spec = build_program(seed, index, model=model)
    with tel.span("fuzz.program", seed=seed, index=index,
                  label=spec.label, model=spec.model) as sp:
        expected, observed, diffs = evaluate_program(
            spec, max_states=max_states)
        sp.set("disagreements", len(diffs))
        record: Dict[str, Any] = {
            "seed": seed,
            "index": index,
            "name": spec.name,
            "model": spec.model,
            "label": spec.label,
            "mutation": spec.mutation,
            "expected": expected.to_dict(),
            "observed": observed.to_dict(),
            "diffs": diffs,
        }
        if diffs:
            final = spec
            if shrink:
                result = shrink_program(spec, diff_signature(diffs),
                                        max_states=max_states,
                                        max_evals=max_shrink_evals)
                final = result.spec
                record["shrink"] = result.to_dict()
                tel.metrics.counter("fuzz.shrink.steps").inc(result.steps)
            else:
                record["shrink"] = None
            record["schema"] = DISAGREEMENT_SCHEMA
            record["ir"] = print_module(final.to_module())
            record["spec"] = final.to_dict()
    tel.metrics.counter("fuzz.programs").inc()
    if diffs:
        tel.metrics.counter("fuzz.disagreements").inc()
    return record


def _seed_task(task: Dict[str, Any],
               telemetry: Optional[Telemetry]) -> List[Dict[str, Any]]:
    """One whole seed's programs (module-level, picklable)."""
    return [fuzz_program(task["seed"], index, model=task["model"],
                         max_states=task["max_states"],
                         shrink=task["shrink"],
                         max_shrink_evals=task["max_shrink_evals"],
                         telemetry=telemetry)
            for index in range(task["budget"])]


def run_fuzz(seeds: List[int],
             budget: int = DEFAULT_BUDGET,
             jobs: int = 1,
             model: Optional[str] = None,
             max_states: int = DEFAULT_MAX_STATES,
             shrink: bool = True,
             max_shrink_evals: int = DEFAULT_MAX_EVALS,
             artifacts_dir: Optional[str] = None,
             telemetry: Optional[Telemetry] = None) -> Dict[str, Any]:
    """Run the campaign; returns the ``deepmc.fuzz.report/v1`` payload.

    ``jobs`` only changes wall-clock: tasks come back in submission
    order and the payload carries no timing or worker attribution.
    """
    from ..parallel.executor import run_tasks

    tasks = [{"name": f"seed{seed}", "seed": seed, "budget": budget,
              "model": model, "max_states": max_states, "shrink": shrink,
              "max_shrink_evals": max_shrink_evals} for seed in seeds]
    payloads = run_tasks(_seed_task, tasks, jobs=jobs, telemetry=telemetry)

    programs: List[Dict[str, Any]] = []
    errors: List[Dict[str, Any]] = []
    for payload in payloads:
        if payload["ok"]:
            programs.extend(payload["result"])
        else:
            errors.append({"name": payload["name"],
                           "error": payload["error"]})

    disagreements = [r for r in programs if r["diffs"]]
    if artifacts_dir and disagreements:
        write_artifacts(disagreements, artifacts_dir)

    labels: Dict[str, int] = {}
    for record in programs:
        labels[record["label"]] = labels.get(record["label"], 0) + 1
    return {
        "schema": REPORT_SCHEMA,
        "seeds": list(seeds),
        "budget": budget,
        "model": model,
        "programs": len(programs),
        "labels": dict(sorted(labels.items())),
        "disagreements": disagreements,
        "errors": errors,
    }


def write_artifacts(disagreements: List[Dict[str, Any]],
                    artifacts_dir: str) -> List[str]:
    """Write one ``.nvmir`` + ``.json`` pair per disagreement record."""
    os.makedirs(artifacts_dir, exist_ok=True)
    written: List[str] = []
    for record in disagreements:
        stem = f"seed{record['seed']:04d}-prog{record['index']:03d}"
        ir_path = os.path.join(artifacts_dir, f"{stem}.nvmir")
        json_path = os.path.join(artifacts_dir, f"{stem}.json")
        with open(ir_path, "w") as fh:
            fh.write(record.get("ir", ""))
        with open(json_path, "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.extend([ir_path, json_path])
    return written


def render_fuzz(report: Dict[str, Any]) -> str:
    """Human-readable campaign summary."""
    lines = [
        f"fuzz: {report['programs']} programs over "
        f"{len(report['seeds'])} seeds (budget {report['budget']}"
        + (f", model {report['model']}" if report['model'] else "")
        + ")",
    ]
    label_bits = [f"{k}={v}" for k, v in report["labels"].items()]
    if label_bits:
        lines.append("  labels: " + " ".join(label_bits))
    for record in report["disagreements"]:
        subjects = ", ".join(
            f"{d['engine']}:{d['kind']}:{d['subject']}"
            for d in record["diffs"])
        lines.append(
            f"  DISAGREE seed {record['seed']} prog {record['index']} "
            f"[{record['label']}] {subjects}")
        if record.get("shrink"):
            sh = record["shrink"]
            lines.append(
                f"    shrunk {sh['ops_before']} -> {sh['ops_after']} ops "
                f"in {sh['steps']} steps")
    for err in report["errors"]:
        first = err["error"].strip().splitlines()[-1]
        lines.append(f"  ERROR {err['name']}: {first}")
    n = len(report["disagreements"])
    lines.append("result: "
                 + ("no disagreements" if n == 0
                    else f"{n} disagreement(s)"))
    return "\n".join(lines)
