"""Fig. 8: low-load latency across the irregular topology space.

Average network latency of escape-VC and Static Bubble, normalized to the
spanning-tree baseline, for uniform-random and bit-complement traffic at
low load, sweeping link faults and router faults.  Expected shape
(paper): both recovery schemes identical (no deadlocks at low load) and
below 1.0 — around 22% (uniform) / 15% (bit-complement) average savings —
converging back toward 1.0 once the mesh fragments and minimal paths lose
their advantage.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.common import (
    SCHEME_ORDER,
    cell_spec,
    fault_axes,
    fault_samples,
    normalize_to,
    safe_mean,
    sweep_cells,
)
from repro.service.spec import SimSpec, run_window
from repro.utils.reporting import Reporter


@dataclass
class Fig8Params:
    width: int = 8
    height: int = 8
    rate: float = 0.02
    patterns: List[str] = field(
        default_factory=lambda: ["uniform_random", "bit_complement"]
    )
    link_fault_counts: List[int] = field(default_factory=list)
    router_fault_counts: List[int] = field(default_factory=list)
    samples: int = 3
    seed: int = 42
    warmup: int = 400
    measure: int = 1000
    #: Worker processes for the sweep (None -> REPRO_WORKERS / cpu-1).
    workers: Optional[int] = None

    @classmethod
    def quick(cls) -> "Fig8Params":
        return cls(
            link_fault_counts=[4, 16, 40],
            router_fault_counts=[2, 8, 20],
            samples=3,
        )

    @classmethod
    def full(cls) -> "Fig8Params":
        return cls(
            link_fault_counts=[1, 5, 9, 17, 25, 33, 41, 49, 57],
            router_fault_counts=[1, 4, 8, 12, 16, 21, 26, 31],
            samples=20,
            warmup=1000,
            measure=4000,
        )


@dataclass
class Fig8Result:
    params: Fig8Params
    #: (pattern, fault kind, fault count, scheme) -> mean latency (cycles).
    latency: Dict[Tuple[str, str, int, str], float]

    def normalized(
        self, pattern: str, kind: str, count: int, scheme: str
    ) -> float:
        return normalize_to(
            self.latency[(pattern, kind, count, "spanning-tree")],
            self.latency[(pattern, kind, count, scheme)],
        )


def _measure_latency(spec: Dict[str, Any]) -> Tuple[float, int]:
    """One sweep point (module-level so it pickles to worker processes)."""
    result, _ = run_window(SimSpec.from_dict(spec))
    return result.avg_latency, result.packets_ejected


def run(params: Fig8Params) -> Fig8Result:
    groups = sweep_cells(
        _measure_latency,
        (
            (
                (pattern, kind, count, scheme),
                (cell_spec(replace(spec, scheme=scheme, pattern=pattern,
                                   rate=params.rate, warmup=params.warmup,
                                   measure=params.measure, seed=params.seed + i)),),
            )
            for kind, count, specs in fault_samples(params)
            for pattern in params.patterns
            for scheme in SCHEME_ORDER
            for i, spec in enumerate(specs)
        ),
        params.workers,
    )
    latency = {
        key: safe_mean(lat for lat, ejected in outcomes if ejected)
        for key, outcomes in groups.items()
    }
    return Fig8Result(params, latency)


def report(result: Fig8Result) -> str:
    rep = Reporter("Fig. 8 — low-load latency normalized to Spanning Tree")
    params = result.params
    for pattern in params.patterns:
        for kind, counts in fault_axes(params):
            rows = []
            for count in counts:
                rows.append(
                    [
                        count,
                        result.latency[(pattern, kind, count, "spanning-tree")],
                        result.normalized(pattern, kind, count, "escape-vc"),
                        result.normalized(pattern, kind, count, "static-bubble"),
                        result.normalized(pattern, kind, count, "adaptive"),
                    ]
                )
            rep.table(
                [
                    f"{kind} faults",
                    "sp-tree lat (cyc)",
                    "escape-vc",
                    "static-bubble",
                    "adaptive",
                ],
                rows,
                title=f"[{pattern}] normalized latency vs {kind} faults",
            )
    return rep.text()
