"""Fig. 13: PARSEC-like full-run performance and network EDP at 4 faults.

Each low-injection PARSEC-like trace (fixed communication work) is run to
drain under all three schemes on the same 4-link-fault topologies.
Reported per workload: application runtime and network EDP (energy x
runtime), both normalized to the spanning tree.  Expected shape (paper):
escape VC and Static Bubble identical (no deadlocks at PARSEC loads) with
~15% lower runtime than the tree; Static Bubble ~53% lower EDP than the
tree and ~17% lower than escape VC (fewer buffers leaking).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.energy.edp import network_edp
from repro.energy.model import EnergyModel
from repro.experiments.common import (
    SCHEME_ORDER,
    cell_spec,
    fault_specs,
    normalize_to,
    safe_mean,
    sweep_cells,
)
from repro.protocols import make_scheme
from repro.service.spec import SimSpec
from repro.sim.engine import run_to_drain
from repro.sim.network import Network
from repro.topology.faults import default_memory_controllers
from repro.traffic.workloads import parsec_closed_loop
from repro.utils.reporting import Reporter


@dataclass
class Fig13Params:
    width: int = 8
    height: int = 8
    workloads: List[str] = field(
        default_factory=lambda: ["blackscholes", "bodytrack", "canneal", "fluidanimate"]
    )
    link_faults: int = 4
    samples: int = 2
    seed: int = 42
    transactions_per_core: int = 8
    max_cycles: int = 60000
    #: Worker processes for the sweep (None -> REPRO_WORKERS / cpu-1).
    workers: Optional[int] = None

    @classmethod
    def quick(cls) -> "Fig13Params":
        return cls(workloads=["blackscholes", "canneal"])

    @classmethod
    def full(cls) -> "Fig13Params":
        return cls(samples=10, transactions_per_core=40, max_cycles=400000)


@dataclass
class Fig13Result:
    params: Fig13Params
    #: (workload, scheme) -> mean runtime cycles / mean EDP.
    runtime: Dict[Tuple[str, str], float]
    edp: Dict[Tuple[str, str], float]

    def normalized_runtime(self, workload: str, scheme: str) -> float:
        return normalize_to(
            self.runtime[(workload, "spanning-tree")], self.runtime[(workload, scheme)]
        )

    def normalized_edp(self, workload: str, scheme: str) -> float:
        return normalize_to(
            self.edp[(workload, "spanning-tree")], self.edp[(workload, scheme)]
        )


def _parsec_point(
    spec: Dict[str, Any], workload: str, transactions_per_core: int, max_cycles: int
) -> Tuple[float, float]:
    """One run-to-drain: (runtime cycles, network EDP).  Picklable."""
    spec = SimSpec.from_dict(spec)
    topo = spec.build_topology()
    # MCs relocate off any faulted corner of *this* sample's topology.
    mcs = default_memory_controllers(spec.width, spec.height, topo)
    traffic = parsec_closed_loop(
        workload, topo, mcs, seed=spec.seed, transactions_per_core=transactions_per_core
    )
    network = Network(
        topo, spec.build_config(), make_scheme(spec.scheme), traffic, seed=spec.seed
    )
    cycles = run_to_drain(network, max_cycles)
    if cycles is None:
        cycles = max_cycles
    return float(cycles), network_edp(network, cycles, EnergyModel())


def run(params: Fig13Params) -> Fig13Result:
    mcs = default_memory_controllers(params.width, params.height)
    specs = fault_specs(params, "link", params.link_faults, require_mcs=mcs)
    groups = sweep_cells(
        _parsec_point,
        (
            (
                (workload, scheme),
                (cell_spec(replace(spec, scheme=scheme, seed=params.seed + i)),
                 workload, params.transactions_per_core, params.max_cycles),
            )
            for workload in params.workloads
            for scheme in SCHEME_ORDER
            for i, spec in enumerate(specs)
        ),
        params.workers,
    )
    runtime = {key: safe_mean(rt for rt, _ in points) for key, points in groups.items()}
    edp = {key: safe_mean(e for _, e in points) for key, points in groups.items()}
    return Fig13Result(params, runtime, edp)


def report(result: Fig13Result) -> str:
    rep = Reporter("Fig. 13 — PARSEC-like runtime and network EDP (4 link faults)")
    rows = []
    for workload in result.params.workloads:
        rows.append(
            [
                workload,
                result.runtime[(workload, "spanning-tree")],
                result.normalized_runtime(workload, "escape-vc"),
                result.normalized_runtime(workload, "static-bubble"),
                result.normalized_edp(workload, "escape-vc"),
                result.normalized_edp(workload, "static-bubble"),
            ]
        )
    rep.table(
        [
            "workload",
            "sp-tree runtime",
            "runtime eVC",
            "runtime SB",
            "EDP eVC",
            "EDP SB",
        ],
        rows,
    )
    return rep.text()
