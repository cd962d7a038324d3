"""Fig. 10: average network energy as routers are power-gated.

Energy breakdown (router/link x dynamic/leakage) for the three schemes
at 2, 7, 15 and 30 faulty/power-gated routers, normalized to the
spanning-tree total at each fault count.  Expected shape (paper): Static
Bubble ~10% below spanning tree (shorter routes -> less dynamic energy)
and ~20% below escape VC (no extra buffers leaking at every router);
leakage grows as a fraction at high fault counts as dynamic energy dips.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.energy.model import EnergyModel
from repro.experiments.common import (
    SCHEME_ORDER,
    normalize_to,
    run_synthetic,
    sweep_cells,
    topologies_for,
)
from repro.sim.config import SimConfig
from repro.topology.mesh import Topology
from repro.utils.reporting import Reporter


@dataclass
class Fig10Params:
    width: int = 8
    height: int = 8
    router_fault_counts: List[int] = field(default_factory=lambda: [2, 7, 15, 30])
    rate: float = 0.05
    samples: int = 2
    seed: int = 42
    warmup: int = 300
    measure: int = 1000
    #: Worker processes for the sweep (None -> REPRO_WORKERS / cpu-1).
    workers: Optional[int] = None

    @classmethod
    def quick(cls) -> "Fig10Params":
        return cls()

    @classmethod
    def full(cls) -> "Fig10Params":
        return cls(samples=15, warmup=1000, measure=4000)


@dataclass
class Fig10Result:
    params: Fig10Params
    #: (fault count, scheme) -> mean energy breakdown components.
    energy: Dict[Tuple[int, str], Dict[str, float]]

    def normalized_total(self, count: int, scheme: str) -> float:
        return normalize_to(
            self.energy[(count, "spanning-tree")]["total"],
            self.energy[(count, scheme)]["total"],
        )


def _energy_breakdown(
    topo: Topology,
    scheme: str,
    rate: float,
    config: SimConfig,
    warmup: int,
    measure: int,
    seed: int,
) -> Dict[str, float]:
    """Simulate one point and return its energy breakdown (picklable)."""
    _, network = run_synthetic(
        topo, scheme, "uniform_random", rate, config, warmup, measure, seed
    )
    return EnergyModel().network_energy(network).as_dict()


def run(params: Fig10Params) -> Fig10Result:
    config = SimConfig(width=params.width, height=params.height)
    cells = []
    for count in params.router_fault_counts:
        topos = topologies_for(
            params.width, params.height, "router", count, params.samples, params.seed
        )
        cells += [
            ((count, scheme), (topo, scheme, params.rate, config, params.warmup,
                               params.measure, params.seed + i))
            for scheme in SCHEME_ORDER
            for i, topo in enumerate(topos)
        ]
    groups = sweep_cells(_energy_breakdown, cells, params.workers)
    energy: Dict[Tuple[int, str], Dict[str, float]] = {}
    for key, breakdowns in groups.items():
        acc = energy[key] = {}
        for breakdown in breakdowns:
            for component, value in breakdown.items():
                acc[component] = acc.get(component, 0.0) + value / len(breakdowns)
    return Fig10Result(params, energy)


#: The breakdown columns of each report row, in the paper's order.
_PARTS = ("router_dynamic", "router_leakage", "link_dynamic", "link_leakage", "total")


def report(result: Fig10Result) -> str:
    rep = Reporter("Fig. 10 — network energy breakdown (normalized to Sp-Tree total)")
    for count in result.params.router_fault_counts:
        base = result.energy[(count, "spanning-tree")]["total"]
        rows = []
        for scheme in SCHEME_ORDER:
            e = result.energy[(count, scheme)]
            rows.append([scheme] + [normalize_to(base, e[part]) for part in _PARTS])
        rep.table(
            ["scheme", "rtr dyn", "rtr leak", "link dyn", "link leak", "total"],
            rows,
            title=f"{count} faulty/power-gated routers",
        )
    return rep.text()
