"""Figure 12: runtime overhead of the dynamic checker on the applications.

Paper shape: throughput drops by 1.7–14.2% (Memcached), 2.5–16.1% (Redis),
3.12–15.7% (NStore), and the overhead tracks the workload's persistent
write/read mix — read-dominated workloads pay the least because DeepMC
only tracks persistent accesses in annotated regions.

Absolute percentages differ on a Python interpreter substrate; the
assertions pin the *shape*: per-app overhead bounded, zero-hook workloads
near-free, and hook-event counts scaling with the write fraction.
"""

import pytest

from repro.apps import ALL_MIXES
from repro.bench import measure_figure12, render_figure12

OPS = 2500
PAIRS = 9


def test_fig12_dynamic_overhead(benchmark, save_result):
    points = benchmark.pedantic(
        measure_figure12,
        kwargs={"ops": OPS, "pairs": PAIRS},
        iterations=1, rounds=1,
    )
    assert len(points) == 15  # 5 workloads x 3 apps

    by_app = {}
    for p in points:
        by_app.setdefault(p.app, []).append(p)

    for app, app_points in by_app.items():
        # hook traffic tracks the write fraction of the mix
        frac = {p.mix.name: p.mix.write_fraction for p in app_points}
        events = {p.mix.name: p.hook_events for p in app_points}
        heaviest = max(frac, key=frac.get)
        lightest = min(frac, key=frac.get)
        assert events[heaviest] > events[lightest]
        # pure-read workloads execute (almost) no hooks at all
        for p in app_points:
            if p.mix.write_fraction == 0.0 and p.mix.weight("scan") == 0:
                assert p.hook_events == 0
        # overhead stays within a sane band (measurement noise included)
        for p in app_points:
            assert p.overhead_pct < 60.0, p

    # across all measurements, hook-heavy runs cost more than hook-free
    # ones on average (the Figure 12 trend)
    with_hooks = [p.overhead_pct for p in points if p.hook_events > 1000]
    without = [p.overhead_pct for p in points if p.hook_events == 0]
    assert with_hooks and without
    assert (sum(with_hooks) / len(with_hooks)
            > sum(without) / len(without) - 2.0)

    save_result("figure12", render_figure12(points))
