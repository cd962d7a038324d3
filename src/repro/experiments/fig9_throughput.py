"""Fig. 9: saturation throughput across the irregular topology space.

Saturation throughput (peak accepted flits/node/cycle over an offered-
load sweep with uniform-random traffic), normalized to the spanning-tree
baseline, as a function of link and router faults.  Expected shape
(paper): Static Bubble up to 3.5-4x over the tree (path diversity) and
1.2-1.3x over escape VC (no permanently reserved VC); all three converge
at high router-fault counts where the surviving topology has little
diversity left.
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
    saturation_throughput,
    sweep_cells,
)
from repro.sim.config import SimConfig
from repro.utils.reporting import Reporter


@dataclass
class Fig9Params:
    width: int = 8
    height: int = 8
    rates: List[float] = field(default_factory=lambda: [0.05, 0.1, 0.2, 0.3])
    link_fault_counts: List[int] = field(default_factory=list)
    router_fault_counts: List[int] = field(default_factory=list)
    samples: int = 2
    seed: int = 42
    warmup: int = 300
    measure: int = 700
    #: Worker processes for the sweep (None -> REPRO_WORKERS / cpu-1).
    workers: Optional[int] = None

    @classmethod
    def quick(cls) -> "Fig9Params":
        return cls(
            link_fault_counts=[4, 16, 40],
            router_fault_counts=[2, 10, 21],
            samples=2,
        )

    @classmethod
    def full(cls) -> "Fig9Params":
        return cls(
            rates=[0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4],
            link_fault_counts=[1, 5, 9, 17, 25, 33, 41, 49],
            router_fault_counts=[1, 6, 11, 16, 21, 26, 31, 41],
            samples=15,
            warmup=800,
            measure=2000,
        )


@dataclass
class Fig9Result:
    params: Fig9Params
    #: (fault kind, count, scheme) -> mean saturation throughput.
    throughput: Dict[Tuple[str, int, str], float]

    def normalized(self, kind: str, count: int, scheme: str) -> float:
        return normalize_to(
            self.throughput[(kind, count, "spanning-tree")],
            self.throughput[(kind, count, scheme)],
        )


def run(params: Fig9Params) -> Fig9Result:
    config = SimConfig(width=params.width, height=params.height)
    # One cell per (topology, scheme): a whole offered-load sweep.
    groups = sweep_cells(
        saturation_throughput,
        (
            (
                (kind, count, scheme),
                (topo, scheme, config, params.rates, params.warmup,
                 params.measure, params.seed + i),
            )
            for kind, count, topos in fault_samples(params)
            for scheme in SCHEME_ORDER
            for i, topo in enumerate(topos)
        ),
        params.workers,
    )
    throughput = {key: safe_mean(values) for key, values in groups.items()}
    return Fig9Result(params, throughput)


def report(result: Fig9Result) -> str:
    rep = Reporter("Fig. 9 — saturation throughput normalized to Spanning Tree")
    params = result.params
    for kind, counts in fault_axes(params):
        rows = []
        for count in counts:
            rows.append(
                [
                    count,
                    result.throughput[(kind, count, "spanning-tree")],
                    result.normalized(kind, count, "escape-vc"),
                    result.normalized(kind, count, "static-bubble"),
                    result.normalized(kind, count, "adaptive"),
                ]
            )
        rep.table(
            [
                f"{kind} faults",
                "sp-tree thr",
                "escape-vc",
                "static-bubble",
                "adaptive",
            ],
            rows,
            title=f"normalized saturation throughput vs {kind} faults",
        )
    return rep.text()
