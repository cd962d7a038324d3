"""Benchmark: the content-addressed result store on a fig8-style campaign.

Runs the same campaign twice through :func:`repro.service.run_campaign`
against one store.  The cold pass executes every cell; the warm pass must
be 100% cache hits and at least 10x faster — that is the acceptance bar
for the service subsystem (a re-plotted figure should cost file reads,
not simulations).
"""

import time

from repro.obs.metrics import MetricsRegistry
from repro.service import run_campaign
from repro.service.spec import SimSpec
from repro.service.store import ResultStore

from benchmarks.conftest import run_once, save_report

#: Required warm/cold advantage (the acceptance criterion is >= 10x).
MIN_SPEEDUP = 10.0


def _fig8_cells():
    """A trimmed fig8 grid: schemes x fault counts at a low-load rate."""
    return [
        SimSpec(
            width=8,
            height=8,
            scheme=scheme,
            link_faults=faults,
            rate=0.02,
            warmup=150,
            measure=400,
            seed=3,
        ).to_dict()
        for scheme in ("static-bubble", "escape-vc")
        for faults in (0, 4, 8)
    ]


def test_service_campaign_cold_vs_warm(benchmark, tmp_path):
    store = ResultStore(root=tmp_path / "store", registry=MetricsRegistry())
    specs = _fig8_cells()

    start = time.perf_counter()
    cold = run_campaign(specs, store=store, workers=2, name="fig8-cold")
    cold_seconds = time.perf_counter() - start
    assert cold.failed == 0
    assert cold.executed == len(specs)

    start = time.perf_counter()
    warm = run_once(
        benchmark,
        lambda: run_campaign(specs, store=store, workers=2, name="fig8-warm"),
    )
    warm_seconds = time.perf_counter() - start

    # 100% cache hits, bit-identical payloads, nothing re-executed.
    assert warm.all_hits
    assert warm.executed == 0
    assert warm.results == cold.results

    speedup = cold_seconds / max(warm_seconds, 1e-9)
    save_report(
        "service",
        "service campaign (fig8 grid, {} cells)\n"
        "cold: {:.2f}s  warm: {:.4f}s  speedup: {:.0f}x".format(
            len(specs), cold_seconds, warm_seconds, speedup
        ),
    )
    assert speedup >= MIN_SPEEDUP, (
        f"warm campaign only {speedup:.1f}x faster than cold "
        f"({cold_seconds:.2f}s -> {warm_seconds:.4f}s)"
    )
