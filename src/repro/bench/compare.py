"""The perf ratchet: diff two bench trajectories and fail on regression.

``deepmc bench --compare BASELINE`` lands here. The comparison is
per-scenario and per-stage: scenario wall-clock (trimmed mean) is the
headline metric, stage rollups localize a slowdown, and the work
counters are ratcheted exactly. Counters are deterministic for a given
scenario ``config``, so a counter that differs between two payloads of
equal config fails as ``drift``: either the change altered the
algorithm on purpose, and regenerates the baseline, or it does extra
(or less) work by accident. A counter absent from a payload counts as
0. Payloads whose ``config`` differs (``--ops``, ``--repeat``, ...) do
different work by construction; the table notes the mismatch and their
counters are not compared. A baseline scenario that is *missing* from
the current run fails the ratchet — it usually means the bench crashed
partway, and ratcheting only the surviving scenarios would pass a
broken run. Scenarios that are *new* (in current, not baseline) are
informational.

A metric regresses when ``current > baseline * (1 + tolerance)`` **and**
the absolute delta clears a small floor (``min_delta_s``) — without the
floor, a 2 ms phase jumping to 5 ms on a noisy runner would fail builds
while changing nothing anyone can feel. The tolerance band is
configurable precisely because the committed baseline and the CI runner
are different machine classes; the fingerprint ids in both payloads are
compared so a cross-machine diff is labelled as such in the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Union

#: regress when current exceeds baseline by more than this fraction
DEFAULT_TOLERANCE = 0.5
#: ignore regressions whose absolute delta is under this many seconds
DEFAULT_MIN_DELTA_S = 0.05

#: Delta.status values that mean "the ratchet fails the build".
#: "missing" fails too: a baseline scenario absent from the current run
#: usually means the bench crashed partway — ratcheting only the
#: surviving scenarios would report ok on a broken run.
FAILING_STATUSES = frozenset({"regression", "missing", "drift"})


@dataclass
class Delta:
    """One compared metric of one scenario."""

    scenario: str
    metric: str          # "wall", "stage:<name>" or "counter:<name>"
    #: seconds, or a count for a counter
    baseline: Union[float, int]
    current: Union[float, int]
    status: str          # ok | regression | improved | new | missing | drift

    @property
    def delta_pct(self) -> float:
        if self.baseline <= 0:
            return 0.0
        return (self.current / self.baseline - 1.0) * 100.0


@dataclass
class Comparison:
    """Full diff of two trajectories."""

    tolerance: float
    deltas: List[Delta] = field(default_factory=list)
    #: scenarios whose ``config`` differs, so counters were not compared
    config_mismatch: List[str] = field(default_factory=list)
    #: fingerprint ids differ → timings are cross-machine
    cross_machine: bool = False

    @property
    def failures(self) -> List[Delta]:
        return [d for d in self.deltas if d.status in FAILING_STATUSES]

    @property
    def regressions(self) -> List[Delta]:
        return [d for d in self.deltas if d.status == "regression"]

    @property
    def drifted(self) -> List[Delta]:
        return [d for d in self.deltas if d.status == "drift"]

    @property
    def ok(self) -> bool:
        return not self.failures


def _classify(base: float, cur: float, tolerance: float,
              min_delta_s: float) -> str:
    if cur > base * (1.0 + tolerance) and cur - base > min_delta_s:
        return "regression"
    if base > cur * (1.0 + tolerance) and base - cur > min_delta_s:
        return "improved"
    return "ok"


def compare_bench(baseline: Dict[str, Dict[str, Any]],
                  current: Dict[str, Dict[str, Any]],
                  tolerance: float = DEFAULT_TOLERANCE,
                  min_delta_s: float = DEFAULT_MIN_DELTA_S) -> Comparison:
    """Diff two ``{scenario: payload}`` trajectories."""
    comp = Comparison(tolerance=tolerance)
    for scenario in sorted(set(baseline) | set(current)):
        if scenario not in current:
            base_wall = baseline[scenario]["timing"]["trimmed_mean_s"]
            comp.deltas.append(Delta(scenario, "wall", base_wall, 0.0,
                                     "missing"))
            continue
        if scenario not in baseline:
            cur_wall = current[scenario]["timing"]["trimmed_mean_s"]
            comp.deltas.append(Delta(scenario, "wall", 0.0, cur_wall, "new"))
            continue
        b, c = baseline[scenario], current[scenario]
        if b.get("env", {}).get("id") != c.get("env", {}).get("id"):
            comp.cross_machine = True
        base_wall = b["timing"]["trimmed_mean_s"]
        cur_wall = c["timing"]["trimmed_mean_s"]
        comp.deltas.append(Delta(
            scenario, "wall", base_wall, cur_wall,
            _classify(base_wall, cur_wall, tolerance, min_delta_s)))
        b_stages = b.get("stages", {})
        c_stages = c.get("stages", {})
        for stage in sorted(set(b_stages) & set(c_stages)):
            bs = b_stages[stage]["total_s"]
            cs = c_stages[stage]["total_s"]
            # only stages big enough to matter can fail the ratchet
            if max(bs, cs) < min_delta_s:
                continue
            comp.deltas.append(Delta(
                scenario, f"stage:{stage}", bs, cs,
                _classify(bs, cs, tolerance, min_delta_s)))
        if b.get("config") != c.get("config"):
            comp.config_mismatch.append(scenario)
            continue
        b_counters = b.get("counters", {})
        c_counters = c.get("counters", {})
        for name in sorted(set(b_counters) | set(c_counters)):
            bv = b_counters.get(name, 0)
            cv = c_counters.get(name, 0)
            if bv != cv:
                comp.deltas.append(Delta(scenario, f"counter:{name}",
                                         bv, cv, "drift"))
    return comp


def _value(d: Delta, v: Union[float, int]) -> str:
    return str(v) if d.metric.startswith("counter:") else f"{v * 1e3:.1f}ms"


def render_compare(comp: Comparison) -> str:
    """The regression table the CI job prints into its summary."""
    header = ["scenario", "metric", "baseline", "current", "delta", "status"]
    rows = []
    for d in comp.deltas:
        rows.append([
            d.scenario, d.metric,
            _value(d, d.baseline), _value(d, d.current),
            f"{d.delta_pct:+.1f}%"
            if d.status not in ("new", "missing") and d.baseline > 0
            else "-",
            d.status.upper() if d.status in FAILING_STATUSES else d.status,
        ])
    widths = [max(len(r[i]) for r in [header] + rows)
              for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)),
             "  ".join("-" * w for w in widths)]
    lines += ["  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in rows]
    lines.append("")
    if comp.cross_machine:
        lines.append("note: baseline and current fingerprints differ — "
                     "timings are cross-machine")
    for scenario in comp.config_mismatch:
        lines.append(f"note: {scenario} config differs from the baseline "
                     f"— counters not compared")
    tol_pct = comp.tolerance * 100.0
    n_regressed = len(comp.regressions)
    n_missing = sum(1 for d in comp.failures if d.status == "missing")
    n_drifted = len(comp.drifted)
    if comp.failures:
        parts = []
        if n_regressed:
            parts.append(f"{n_regressed} metric(s) regressed beyond "
                         f"+{tol_pct:.0f}% tolerance")
        if n_missing:
            parts.append(f"{n_missing} baseline scenario(s) missing "
                         f"from the current run")
        if n_drifted:
            parts.append(f"{n_drifted} counter(s) differ at equal config")
        lines.append("FAIL: " + "; ".join(parts))
    else:
        lines.append(f"ok: no regressions beyond +{tol_pct:.0f}% tolerance")
    return "\n".join(lines)
