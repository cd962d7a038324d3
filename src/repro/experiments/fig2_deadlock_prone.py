"""Fig. 2: percentage of deadlock-prone irregular topologies.

The paper sweeps the number of faulty/absent/off links and routers in an
8x8 mesh and reports the percentage of sampled topologies that are
deadlock-prone.  Two methods are provided:

* ``graph`` (default): a topology is deadlock-prone iff its graph has a
  cycle (paper footnote 1: with unrestricted minimal routing every
  topological cycle can be exercised into a buffer-dependency cycle at a
  sufficient injection rate).  This is exact and fast.
* ``sim``: inject uniform-random traffic at the configured rate with no
  protection scheme and watch for a true wait-for cycle — the paper's
  literal methodology (scaled down from its 1M-cycle runs).

Expected shape (paper): ~100% deadlock-prone at low fault counts, falling
once the mesh fragments (beyond ~65 links / ~30 routers the components
become trees).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.experiments.common import fault_samples, sweep_cells
from repro.protocols import MinimalUnprotected
from repro.sim.config import SimConfig
from repro.sim.engine import deadlocks_within
from repro.sim.network import Network
from repro.topology import graph as tgraph
from repro.traffic.synthetic import UniformRandomTraffic
from repro.utils.reporting import Reporter


@dataclass
class Fig2Params:
    width: int = 8
    height: int = 8
    link_fault_counts: List[int] = field(default_factory=list)
    router_fault_counts: List[int] = field(default_factory=list)
    samples: int = 20
    seed: int = 42
    method: str = "graph"  # "graph" | "sim"
    sim_cycles: int = 2000
    sim_rate: float = 1.0
    vcs_per_vnet: int = 2
    #: Worker processes for the sweep (None -> REPRO_WORKERS / cpu-1).
    workers: Optional[int] = None

    @classmethod
    def quick(cls) -> "Fig2Params":
        return cls(
            link_fault_counts=[1, 4, 8, 16, 32, 48, 64, 80, 96],
            router_fault_counts=[1, 4, 8, 16, 24, 32, 40, 50, 60],
            samples=20,
        )

    @classmethod
    def full(cls) -> "Fig2Params":
        return cls(
            link_fault_counts=list(range(1, 97)),
            router_fault_counts=list(range(1, 61)),
            samples=100,
        )


@dataclass
class Fig2Result:
    params: Fig2Params
    #: fault count -> % of sampled topologies that are deadlock-prone.
    link_series: Dict[int, float]
    router_series: Dict[int, float]


def _is_deadlock_prone_sim(topo, params: Fig2Params) -> bool:
    config = SimConfig(
        width=params.width,
        height=params.height,
        vcs_per_vnet=params.vcs_per_vnet,
    )
    traffic = UniformRandomTraffic(topo, rate=params.sim_rate, seed=params.seed)
    network = Network(topo, config, MinimalUnprotected(), traffic, seed=params.seed)
    return deadlocks_within(network, params.sim_cycles)


def run(params: Fig2Params) -> Fig2Result:
    # One deadlock-proneness check per sampled topology.  The graph
    # method is cheap enough to run inline; the sim method fans out.
    samples = list(fault_samples(params))
    if params.method == "graph":
        prone = {
            (kind, count): [tgraph.has_cycle(topo) for topo in topos]
            for kind, count, topos in samples
        }
    else:
        prone = sweep_cells(
            _is_deadlock_prone_sim,
            (
                ((kind, count), (topo, params))
                for kind, count, topos in samples
                for topo in topos
            ),
            params.workers,
        )
    series: Dict[str, Dict[int, float]] = {"link": {}, "router": {}}
    for (kind, count), flags in prone.items():
        series[kind][count] = 100.0 * sum(flags) / len(flags)
    return Fig2Result(params, series["link"], series["router"])


def report(result: Fig2Result) -> str:
    rep = Reporter("Fig. 2 — deadlock-prone irregular topologies (%)")
    rep.table(
        ["faulty links", "% deadlock-prone"],
        sorted(result.link_series.items()),
        ndigits=1,
    )
    rep.table(
        ["faulty routers", "% deadlock-prone"],
        sorted(result.router_series.items()),
        ndigits=1,
    )
    return rep.text()
