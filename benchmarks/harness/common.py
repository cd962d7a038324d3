"""Shared pieces: run context, a measured slice's outcome, traced execution."""

from __future__ import annotations

import shutil
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.protocols import make_scheme
from repro.service.spec import SimSpec, sim_result_payload
from repro.sim.deadlock import DeadlockMonitor
from repro.sim.engine import run_with_window
from repro.sim.network import Network
from repro.traffic.synthetic import make_pattern

from benchmarks.harness import OUT_DIR
from benchmarks.harness.checks import sha48, without_execution_fields
from benchmarks.harness.inputs import Sizes
from benchmarks.harness.measure import Tracer, percentile



@dataclass
class Context:
    """One run's inputs and its scratch space (inside the checkout)."""

    seed: int
    sizes: Sizes
    _dirs: List[Path] = field(default_factory=list)

    def mkdtemp(self, label: str) -> Path:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        path = Path(tempfile.mkdtemp(prefix=f"tmp-{label}-", dir=OUT_DIR))
        self._dirs.append(path)
        return path

    def cleanup(self) -> None:
        while self._dirs:
            shutil.rmtree(self._dirs.pop(), ignore_errors=True)


@dataclass
class Outcome:
    """What one timed slice of a workload did."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: Work units per host second (cycles, cells or requests).
    throughput: float = 0.0
    latency_p50_ms: float = 0.0
    #: Every operation's latency: the tail percentile is read from these.
    latencies_ms: List[float] = field(default_factory=list)
    #: Exact payloads the modelled-design counters are read from.
    model_payloads: List[Dict[str, Any]] = field(default_factory=list)
    #: Sizes actually run, for the printed report.
    info: Dict[str, Any] = field(default_factory=dict)

    def fail(self, reason: str) -> None:
        self.failures.append(reason)

    def tail_latency_ms(self, q: float) -> float:
        return percentile(self.latencies_ms, q) if self.latencies_ms else 0.0


def model_counters(payloads: List[Dict[str, Any]]) -> Dict[str, float]:
    """Modelled-design counters over ``payloads`` (simulated, exact)."""
    n = max(1, len(payloads))
    return {
        "model.avg_latency": sum(p["result"]["avg_latency"] for p in payloads) / n,
        "model.throughput_flits_node_cycle": sum(
            p["result"]["throughput_flits_node_cycle"] for p in payloads
        )
        / n,
        "model.packets_ejected": sum(p["result"]["packets_ejected"] for p in payloads),
        "model.recoveries_completed": sum(
            p["stats"]["recoveries_completed"] for p in payloads
        ),
        "model.probes_sent": sum(p["stats"]["probes_sent"] for p in payloads),
        "model.payload_sha48": sha48(without_execution_fields(p) for p in payloads),
    }


def run_spec_traced(
    spec_dict: Dict[str, Any],
    tracer: Optional[Tracer] = None,
    trace: str = "",
    parent: Optional[int] = None,
) -> Tuple[Dict[str, Any], int]:
    """``run_sim_spec`` step by step, one span per layer call.

    Returns ``(payload, unaccounted_packets)``: the payload equals
    ``run_sim_spec(spec_dict)`` (``test_harness.py`` pins that), and the
    second value is the live conservation invariant — created minus
    ejected, dropped, resident and queued — which must be zero.
    """

    def span(name: str):
        return tracer.span(name, trace, parent) if tracer is not None else nullcontext()

    with span("topology"):  # spec validation parses the topology string too
        spec = SimSpec.from_dict(dict(spec_dict))
        topo = spec.build_topology()
    with span("tables"):
        scheme = make_scheme(spec.scheme)
        config = spec.build_config()
        scheme.build_tables(topo, config)  # Network() below finds them cached
    with span("construct"):
        traffic = make_pattern(
            spec.pattern, topo, spec.rate, seed=spec.seed, vnets=spec.vnets
        )
        network = Network(
            topo, config, scheme, traffic, seed=spec.seed, engine=spec.engine
        )
    with span("run"):
        result = run_with_window(
            network,
            warmup=spec.warmup,
            measure=spec.measure,
            monitor=DeadlockMonitor() if spec.monitor else None,
        )
    with span("payload"):
        payload = sim_result_payload(spec, result, network)
    stats = network.stats
    unaccounted = (
        stats.packets_created
        - stats.packets_ejected
        - stats.packets_dropped_reconfig
        - network.total_occupancy()
        - network.queued_packets()
    )
    return payload, unaccounted
