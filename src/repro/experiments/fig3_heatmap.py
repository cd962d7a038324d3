"""Fig. 3: injection rates at which irregular topologies deadlock.

Heat-map of the *cumulative* percentage of sampled topologies that have
deadlocked at or below a given uniform-random injection rate, as a
function of the number of faulty links.  The paper's key observation:
most topologies only start to deadlock around 0.1-0.3 flits/node/cycle,
an order of magnitude above real-workload injection rates — the case for
recovery over avoidance.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.common import cell_spec, fault_specs, sweep_cells
from repro.service.spec import SimSpec
from repro.sim.engine import deadlocks_within
from repro.utils.reporting import Reporter


@dataclass
class Fig3Params:
    width: int = 8
    height: int = 8
    link_fault_counts: List[int] = field(default_factory=list)
    rates: List[float] = field(default_factory=list)
    samples: int = 10
    seed: int = 42
    cycles: int = 1500
    vcs_per_vnet: int = 2
    #: Worker processes for the sweep (None -> REPRO_WORKERS / cpu-1).
    workers: Optional[int] = None

    @classmethod
    def quick(cls) -> "Fig3Params":
        return cls(
            link_fault_counts=[2, 8, 16, 32],
            rates=[0.05, 0.1, 0.2, 0.3, 0.5],
            samples=8,
            cycles=1200,
        )

    @classmethod
    def full(cls) -> "Fig3Params":
        return cls(
            link_fault_counts=[1, 2, 4, 8, 12, 16, 24, 32, 48, 64],
            rates=[0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.75, 1.0],
            samples=50,
            cycles=5000,
        )


@dataclass
class Fig3Result:
    params: Fig3Params
    #: (fault count, rate) -> cumulative % of topologies deadlocked at <= rate.
    heatmap: Dict[Tuple[int, float], float]
    #: fault count -> minimum deadlocking rate per sampled topology
    min_rates: Dict[int, List[Optional[float]]]


def _min_deadlock_rate(
    spec: Dict[str, Any], rates: Sequence[float], cycles: int
) -> Optional[float]:
    """Lowest swept rate at which this topology deadlocks (None = never)."""
    for rate in sorted(rates):
        network = SimSpec.from_dict({**spec, "rate": rate}).build_network()
        if deadlocks_within(network, cycles):
            return rate
    return None


def run(params: Fig3Params) -> Fig3Result:
    # One cell per sampled topology: its full rate sweep (internally
    # early-exiting at the first deadlocking rate).
    min_rates = sweep_cells(
        _min_deadlock_rate,
        (
            (
                count,
                (cell_spec(replace(spec, scheme="minimal-unprotected",
                                   vcs_per_vnet=params.vcs_per_vnet,
                                   seed=params.seed)),
                 params.rates, params.cycles),
            )
            for count in params.link_fault_counts
            for spec in fault_specs(params, "link", count)
        ),
        params.workers,
    )
    heatmap: Dict[Tuple[int, float], float] = {}
    for count, per_topo in min_rates.items():
        for rate in params.rates:
            deadlocked = sum(1 for r in per_topo if r is not None and r <= rate)
            heatmap[(count, rate)] = 100.0 * deadlocked / len(per_topo)
    return Fig3Result(params, heatmap, min_rates)


def report(result: Fig3Result) -> str:
    rep = Reporter(
        "Fig. 3 — cumulative % of topologies deadlocked at injection rate"
    )
    rates = sorted(result.params.rates)
    headers = ["faulty links"] + [f"<= {r}" for r in rates]
    rows = []
    for count in result.params.link_fault_counts:
        rows.append(
            [count] + [result.heatmap[(count, r)] for r in rates]
        )
    rep.table(headers, rows, ndigits=0)
    return rep.text()
