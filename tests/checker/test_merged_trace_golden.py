"""Golden of the merged traces of every corpus root.

Trace collection memoises block events, call-site translations and
merged callee traces so that equal events are one object. Those memos
must not change a single trace: this golden pins, for every analysis
root of the 18 corpus programs (buggy and fixed), the number of merged
traces, their total length and a SHA-256 of their rendering.

DSNode ids and symbolic offset terms come from process-wide counters,
so the rendering renumbers both by first appearance within the root.

Regenerate after an intentional collector change with:

    PYTHONPATH=src python tests/checker/test_merged_trace_golden.py

and review the diff like any other code change.
"""

import hashlib
import json
import os
import re

import pytest

from repro.analysis.traces import TraceCollector
from repro.checker.engine import analysis_roots
from repro.corpus import REGISTRY

GOLDEN = os.path.join(os.path.dirname(__file__), "goldens",
                      "merged_traces.json")

_NODE = re.compile(r"\(N(\d+), ")
_TERM = re.compile(r"\*v(\d+)")


def _renumber(pattern, text, fmt):
    ids = {}

    def sub(match):
        return fmt.format(ids.setdefault(match.group(1), len(ids)))

    return pattern.sub(sub, text)


def render_root(traces):
    """Every merged trace of one root, ids renumbered by first use."""
    text = "\n--\n".join(trace.render() for trace in traces)
    text = _renumber(_NODE, text, "(N{}, ")
    return _renumber(_TERM, text, "*v{}")


def module_summary(module):
    collector = TraceCollector(module)
    out = {}
    for root in analysis_roots(collector.dsa.callgraph):
        traces = collector.traces_for(root)
        out[root] = {
            "traces": len(traces),
            "events": sum(len(t) for t in traces),
            "sha256": hashlib.sha256(
                render_root(traces).encode()).hexdigest(),
        }
    return out


def _variants():
    for program in REGISTRY.programs():
        for fixed in (False, True):
            yield program, fixed


def _label(program, fixed):
    return f"{program.name}:{'fixed' if fixed else 'buggy'}"


def generate():
    return {_label(p, fixed): module_summary(p.build(fixed=fixed))
            for p, fixed in _variants()}


def _load():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("program,fixed", list(_variants()),
                         ids=[_label(p, f) for p, f in _variants()])
def test_merged_traces_match_golden(program, fixed):
    expected = _load()[_label(program, fixed)]
    assert module_summary(program.build(fixed=fixed)) == expected, (
        "merged traces drifted from the golden — if the collector change "
        "is intentional, regenerate it (see this file's docstring)")


def test_golden_covers_every_corpus_variant():
    assert sorted(_load()) == sorted(_label(p, f) for p, f in _variants())


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(generate(), fh, indent=1, sort_keys=True)
        fh.write("\n")
