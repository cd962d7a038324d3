"""Benchmark: the content-addressed result store on a fig8-style campaign.

Runs the same campaign twice through :func:`repro.service.run_campaign`
against one store.  The cold pass executes every cell; the warm pass must
execute none — 100% cache hits with identical results, the acceptance bar
for the service subsystem (a re-plotted figure should cost file reads,
not simulations).  Counted, not timed: one re-executed cell fails it.
"""

from repro.obs.metrics import MetricsRegistry
from repro.service import run_campaign
from repro.service.spec import SimSpec
from repro.service.store import ResultStore

from benchmarks.conftest import run_once


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

    cold = run_campaign(specs, store=store, workers=2, name="fig8-cold")
    assert cold.failed == 0
    assert cold.executed == len(specs)

    warm = run_once(
        benchmark,
        lambda: run_campaign(specs, store=store, workers=2, name="fig8-warm"),
    )

    # 100% cache hits, bit-identical payloads, nothing re-executed.
    assert warm.all_hits
    assert warm.executed == 0
    assert warm.results == cold.results
