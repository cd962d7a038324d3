"""Fig. 3: injection rates at which irregular topologies deadlock.

Heat-map of the *cumulative* percentage of sampled topologies that have
deadlocked at or below a given uniform-random injection rate, as a
function of the number of faulty links.  The paper's key observation:
most topologies only start to deadlock around 0.1-0.3 flits/node/cycle,
an order of magnitude above real-workload injection rates — the case for
recovery over avoidance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.experiments.common import sweep_cells, topologies_for
from repro.protocols import MinimalUnprotected
from repro.sim.config import SimConfig
from repro.sim.engine import deadlocks_within
from repro.sim.network import Network
from repro.traffic.synthetic import UniformRandomTraffic
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


def _min_deadlock_rate(topo, params: Fig3Params) -> Optional[float]:
    """Lowest swept rate at which this topology deadlocks (None = never)."""
    config = SimConfig(
        width=params.width, height=params.height, vcs_per_vnet=params.vcs_per_vnet
    )
    for rate in sorted(params.rates):
        traffic = UniformRandomTraffic(topo, rate=rate, seed=params.seed)
        network = Network(topo, config, MinimalUnprotected(), traffic, seed=params.seed)
        if deadlocks_within(network, params.cycles):
            return rate
    return None


def run(params: Fig3Params) -> Fig3Result:
    # One cell per sampled topology: its full rate sweep (internally
    # early-exiting at the first deadlocking rate).
    min_rates = sweep_cells(
        _min_deadlock_rate,
        (
            (count, (topo, params))
            for count in params.link_fault_counts
            for topo in topologies_for(
                params.width, params.height, "link", count, params.samples, params.seed
            )
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
