"""Fig. 12: Rodinia-like application throughput vs. faults.

Each workload trace (DESIGN.md §5 substitution) is replayed on the same
irregular topologies under all three schemes; application throughput is
total flits delivered over drain time, normalized to the spanning tree.
Expected shape (paper): at low fault counts the recovery schemes beat the
tree by up to 2-4x; ``hadoop`` (collective-heavy, saturates every design)
shows ~1.0x everywhere; all schemes converge at ~20+ router faults where
little path diversity survives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.experiments.common import (
    SCHEME_ORDER,
    fault_axes,
    fault_samples,
    normalize_to,
    safe_mean,
    sweep_cells,
)
from repro.protocols import make_scheme
from repro.sim.config import SimConfig
from repro.sim.engine import run_to_drain
from repro.sim.network import Network
from repro.topology.faults import default_memory_controllers
from repro.traffic.workloads import rodinia_trace
from repro.utils.reporting import Reporter


@dataclass
class Fig12Params:
    width: int = 8
    height: int = 8
    workloads: List[str] = field(
        default_factory=lambda: ["hadoop", "bplus", "kmeans", "srad", "bfs"]
    )
    link_fault_counts: List[int] = field(default_factory=lambda: [4, 16])
    router_fault_counts: List[int] = field(default_factory=lambda: [2, 10, 20])
    samples: int = 2
    seed: int = 42
    trace_duration: int = 1200
    max_cycles: int = 40000
    #: Worker processes for the sweep (None -> REPRO_WORKERS / cpu-1).
    workers: Optional[int] = None

    @classmethod
    def quick(cls) -> "Fig12Params":
        return cls(
            workloads=["hadoop", "bplus", "srad"],
            link_fault_counts=[4],
            router_fault_counts=[2, 10],
            samples=2,
            trace_duration=800,
        )

    @classmethod
    def full(cls) -> "Fig12Params":
        return cls(
            link_fault_counts=[2, 6, 10, 16, 24, 32, 40],
            router_fault_counts=[2, 5, 10, 15, 20],
            samples=10,
            trace_duration=4000,
            max_cycles=200000,
        )


@dataclass
class Fig12Result:
    params: Fig12Params
    #: (workload, fault kind, count, scheme) -> mean app throughput
    #: (flits per cycle of runtime).
    throughput: Dict[Tuple[str, str, int, str], float]

    def normalized(self, workload: str, kind: str, count: int, scheme: str) -> float:
        return normalize_to(
            self.throughput[(workload, kind, count, "spanning-tree")],
            self.throughput[(workload, kind, count, scheme)],
        )


def _app_throughput(topo, workload, scheme_name, params, config, seed) -> float:
    # MCs relocate off any faulted corner of *this* sample's topology.
    mcs = default_memory_controllers(params.width, params.height, topo)
    trace = rodinia_trace(
        workload, topo, mcs, duration=params.trace_duration, seed=seed
    )
    total_flits = trace.total_flits()
    network = Network(topo, config, make_scheme(scheme_name), trace, seed=seed)
    runtime = run_to_drain(network, params.max_cycles)
    if runtime is None:
        runtime = params.max_cycles  # censored: count what was delivered
        total_flits = network.stats.flits_ejected
    return total_flits / runtime if runtime else 0.0


def run(params: Fig12Params) -> Fig12Result:
    config = SimConfig(width=params.width, height=params.height)
    mcs = default_memory_controllers(params.width, params.height)
    groups = sweep_cells(
        _app_throughput,
        (
            (
                (workload, kind, count, scheme),
                (topo, workload, scheme, params, config, params.seed + i),
            )
            for kind, count, topos in fault_samples(params, require_mcs=mcs)
            for workload in params.workloads
            for scheme in SCHEME_ORDER
            for i, topo in enumerate(topos)
        ),
        params.workers,
    )
    throughput = {key: safe_mean(values) for key, values in groups.items()}
    return Fig12Result(params, throughput)


def report(result: Fig12Result) -> str:
    rep = Reporter("Fig. 12 — Rodinia-like app throughput normalized to Sp-Tree")
    params = result.params
    for kind, counts in fault_axes(params):
        rows = []
        for workload in params.workloads:
            for count in counts:
                rows.append(
                    [
                        workload,
                        count,
                        result.normalized(workload, kind, count, "escape-vc"),
                        result.normalized(workload, kind, count, "static-bubble"),
                    ]
                )
        rep.table(
            ["workload", f"{kind} faults", "escape-vc", "static-bubble"],
            rows,
            title=f"vs {kind} faults",
        )
    return rep.text()
