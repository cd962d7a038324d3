"""Latency/throughput curves on non-mesh topologies (Figs. 8/9 analog).

The paper frames Static Bubble as a framework for *irregular* on-chip
topologies; with the core generalized to arbitrary graphs this sweep
reproduces the Fig. 8/9 methodology off the mesh: an offered-load sweep
of uniform-random traffic on each generator topology (3D mesh/torus,
ring circulant, full mesh), comparing the schemes' average latency and
accepted throughput point by point.

Every (topology, scheme) pair is certified before simulating — the
cycle-cover / acyclicity certificate is part of the result — and every
sweep point is checked for packet conservation (injected == ejected +
still-in-network), so a silently lossy scheme cannot masquerade as a
low-latency one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.common import cell_spec, fan_out
from repro.service.spec import SimSpec, run_window
from repro.sim.config import SimConfig
from repro.utils.reporting import Reporter

#: The adaptive scheme shares static-bubble's recovery; three curves
#: keep the quick mode fast while spanning the design space.
SCHEMES = ("spanning-tree", "escape-vc", "static-bubble")


@dataclass
class TopoSweepParams:
    topologies: List[str] = field(
        default_factory=lambda: [
            "mesh3d:3x3x3",
            "torus3d:3x3x3",
            "circulant:11,2,5",
            "fullmesh:6",
        ]
    )
    rates: List[float] = field(default_factory=lambda: [0.02, 0.05, 0.1, 0.2])
    schemes: Tuple[str, ...] = SCHEMES
    seed: int = 42
    warmup: int = 300
    measure: int = 1000
    #: Worker processes for the sweep (None -> REPRO_WORKERS / cpu-1).
    workers: Optional[int] = None

    @classmethod
    def quick(cls) -> "TopoSweepParams":
        return cls()

    @classmethod
    def full(cls) -> "TopoSweepParams":
        return cls(
            topologies=[
                "mesh3d:4x4x4",
                "torus3d:4x4x4",
                "circulant:16,1,5",
                "fullmesh:8",
            ],
            rates=[0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4],
            warmup=1000,
            measure=4000,
        )


@dataclass
class TopoSweepResult:
    params: TopoSweepParams
    #: (topology, scheme) -> certificate-OK flag.
    certified: Dict[Tuple[str, str], bool]
    #: (topology, scheme, rate) -> mean latency (cycles).
    latency: Dict[Tuple[str, str, float], float]
    #: (topology, scheme, rate) -> accepted throughput (flits/node/cycle).
    throughput: Dict[Tuple[str, str, float], float]
    #: Sweep points whose packet accounting did not balance.
    conservation_violations: List[Tuple[str, str, float]]

    @property
    def ok(self) -> bool:
        return all(self.certified.values()) and not self.conservation_violations

    def saturation(self, topology: str, scheme: str) -> float:
        """Peak accepted throughput over the swept rates (Fig. 9's metric)."""
        return max(
            self.throughput[(topology, scheme, rate)]
            for rate in self.params.rates
        )


def _sweep_point(spec: Dict[str, Any]) -> Tuple[float, float, int]:
    """(latency, throughput, unaccounted packets); picklable for workers."""
    result, network = run_window(SimSpec.from_dict(spec))
    stats = network.stats
    unaccounted = (
        stats.packets_injected
        - stats.packets_ejected
        - network.total_occupancy()
        - network.queued_packets()
    )
    return result.avg_latency, result.throughput_flits_node_cycle, unaccounted


def run(params: TopoSweepParams) -> TopoSweepResult:
    from repro.protocols import make_scheme
    from repro.topology.generators import parse_topology

    config = SimConfig()
    certified: Dict[Tuple[str, str], bool] = {}
    for topology in params.topologies:
        topo = parse_topology(topology)
        for scheme in params.schemes:
            certified[(topology, scheme)] = make_scheme(scheme).verify(topo, config).ok

    # One cell per key: the spec of that topology, scheme and rate.
    keys = [
        (topology, scheme, rate)
        for topology in params.topologies
        for scheme in params.schemes
        for rate in params.rates
    ]
    outcomes = fan_out(
        _sweep_point,
        [
            (cell_spec(SimSpec(topology=topology, scheme=scheme, rate=rate,
                               warmup=params.warmup, measure=params.measure,
                               seed=params.seed)),)
            for topology, scheme, rate in keys
        ],
        workers=params.workers,
    )
    latency: Dict[Tuple[str, str, float], float] = {}
    throughput: Dict[Tuple[str, str, float], float] = {}
    violations: List[Tuple[str, str, float]] = []
    for key, (lat, thr, unaccounted) in zip(keys, outcomes):
        latency[key] = lat
        throughput[key] = thr
        if unaccounted:
            violations.append(key)
    return TopoSweepResult(params, certified, latency, throughput, violations)


def report(result: TopoSweepResult) -> str:
    params = result.params
    reporter = Reporter(
        "Latency/throughput on non-mesh topologies (Figs. 8/9 analog)"
    )
    for spec in params.topologies:
        rows = []
        for scheme in params.schemes:
            row = [scheme, "OK" if result.certified[(spec, scheme)] else "FAIL"]
            for rate in params.rates:
                row.append(f"{result.latency[(spec, scheme, rate)]:.1f}")
            row.append(f"{result.saturation(spec, scheme):.4f}")
            rows.append(row)
        reporter.table(
            ["scheme", "cert"]
            + [f"lat@{rate}" for rate in params.rates]
            + ["sat thr"],
            rows,
            title=f"{spec} — latency (cycles) by offered load, saturation",
        )
    if result.conservation_violations:
        reporter.line(
            f"PACKET CONSERVATION VIOLATED at: {result.conservation_violations}"
        )
    else:
        reporter.line(
            "packet conservation clean at every sweep point "
            "(injected == ejected + in-network)"
        )
    return reporter.text()
