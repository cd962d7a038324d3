"""Fig. 11: deadlock-detection threshold (t_DD) sweep.

The only configurable parameter of Static Bubble.  At high load on
deadlock-prone topologies (20 router faults in the paper), sweep t_DD and
report (a) the number of probes sent, (b) link utilization per message
class, and (c) average packet latency.  Expected shape (paper): probes
fall roughly exponentially with t_DD (~4000 at t_DD ~ 1-5 down to ~200 at
high t_DD over 10K cycles); probe link utilization 5% -> 1.5%; the other
special messages stay below ~1% at every threshold; flits keep >93% of
used link bandwidth; latency is mildly better at low t_DD (faster
detection).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.common import cell_spec, fault_specs, safe_mean, sweep_cells
from repro.service.spec import SimSpec
from repro.sim.engine import run_cycles
from repro.utils.reporting import Reporter


@dataclass
class Fig11Params:
    width: int = 8
    height: int = 8
    router_faults: int = 20
    rate: float = 0.30
    t_dd_values: List[int] = field(default_factory=lambda: [5, 10, 20, 34, 60, 100])
    #: Schemes swept per t_DD.  Both run the Static Bubble protocol; the
    #: ``adaptive`` curve shows how congestion-aware selection changes the
    #: probe/recovery traffic the threshold governs.
    schemes: List[str] = field(
        default_factory=lambda: ["static-bubble", "adaptive"]
    )
    samples: int = 2
    seed: int = 42
    cycles: int = 3000
    #: Worker processes for the sweep (None -> REPRO_WORKERS / cpu-1).
    workers: Optional[int] = None

    @classmethod
    def quick(cls) -> "Fig11Params":
        return cls(t_dd_values=[5, 20, 34, 100], samples=2, cycles=2000)

    @classmethod
    def full(cls) -> "Fig11Params":
        return cls(
            t_dd_values=[1, 5, 10, 20, 34, 60, 100, 150, 200],
            samples=10,
            cycles=10000,
        )


@dataclass
class Fig11Result:
    params: Fig11Params
    #: (scheme, t_DD) -> mean probes sent over the run.
    probes: Dict[Tuple[str, int], float]
    #: (scheme, t_DD) -> mean probes per cycle.
    probes_per_cycle: Dict[Tuple[str, int], float]
    #: (scheme, t_DD, class) -> mean share of used link-cycles.
    link_share: Dict[Tuple[str, int, str], float]
    #: (scheme, t_DD) -> mean latency of delivered packets.
    latency: Dict[Tuple[str, int], float]


def _tdd_point(
    spec: Dict[str, Any], cycles: int
) -> Tuple[float, Dict[str, float], Optional[float]]:
    """One (topology, scheme, t_DD) run: (probes, link share, latency)."""
    network = SimSpec.from_dict(spec).build_network()
    run_cycles(network, cycles)
    stats = network.stats
    lat = stats.avg_latency if stats.packets_ejected else None
    return (
        float(stats.probes_sent),
        dict(stats.link_utilization_by_class()),
        lat,
    )


def run(params: Fig11Params) -> Fig11Result:
    specs = fault_specs(params, "router", params.router_faults)
    groups = sweep_cells(
        _tdd_point,
        (
            (
                (scheme, t_dd),
                (cell_spec(replace(spec, scheme=scheme, sb_t_dd=t_dd,
                                   rate=params.rate, seed=params.seed + i)),
                 params.cycles),
            )
            for scheme in params.schemes
            for t_dd in params.t_dd_values
            for i, spec in enumerate(specs)
        ),
        params.workers,
    )
    probes = {
        key: safe_mean(n_probes for n_probes, _, _ in points)
        for key, points in groups.items()
    }
    # Every run reports the same message classes.
    link_share = {
        (scheme, t_dd, cls): safe_mean(shares[cls] for _, shares, _ in points)
        for (scheme, t_dd), points in groups.items()
        for cls in points[0][1]
    }
    lats = {
        key: [lat for _, _, lat in points if lat is not None]
        for key, points in groups.items()
    }
    return Fig11Result(
        params,
        probes=probes,
        probes_per_cycle={key: n / params.cycles for key, n in probes.items()},
        link_share=link_share,
        latency={key: safe_mean(values) for key, values in lats.items() if values},
    )


def report(result: Fig11Result) -> str:
    rep = Reporter("Fig. 11 — deadlock-detection threshold sweep")
    for scheme in result.params.schemes:
        rows = []
        for t_dd in result.params.t_dd_values:
            rows.append(
                [
                    t_dd,
                    result.probes[(scheme, t_dd)],
                    result.probes_per_cycle[(scheme, t_dd)],
                    100 * result.link_share[(scheme, t_dd, "flit")],
                    100 * result.link_share[(scheme, t_dd, "probe")],
                    100 * result.link_share[(scheme, t_dd, "disable")],
                    100 * result.link_share[(scheme, t_dd, "enable")],
                    100 * result.link_share[(scheme, t_dd, "check_probe")],
                    result.latency.get((scheme, t_dd), 0.0),
                ]
            )
        rep.table(
            [
                "t_DD",
                "probes",
                "probes/cyc",
                "flit %",
                "probe %",
                "disable %",
                "enable %",
                "chk %",
                "latency",
            ],
            rows,
            ndigits=2,
            title=f"scheme: {scheme}",
        )
    return rep.text()
