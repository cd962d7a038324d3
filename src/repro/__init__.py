"""repro — full reproduction of "Static Bubble: A Framework for
Deadlock-free Irregular On-chip Topologies" (Ramrakhyani & Krishna,
HPCA 2017).

Quick start::

    from repro import (
        mesh, inject_link_faults, SimConfig, Network,
        StaticBubbleScheme, UniformRandomTraffic, run_with_window,
    )
    import random

    topo = inject_link_faults(mesh(8, 8), 6, random.Random(7))
    config = SimConfig()
    traffic = UniformRandomTraffic(topo, rate=0.05, seed=7)
    net = Network(topo, config, StaticBubbleScheme(), traffic, seed=7)
    result = run_with_window(net, warmup=500, measure=1500)
    print(result.avg_latency, result.throughput_flits_node_cycle)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every figure and table.
"""

from repro.core import (
    CounterFsm,
    FsmState,
    Port,
    Turn,
    bubble_count,
    has_static_bubble,
    placement,
    placement_map,
    placement_node_ids,
)
from repro.topology import (
    Topology,
    inject_link_faults,
    inject_router_faults,
    mesh,
    sample_topologies,
)
from repro.routing import (
    build_minimal_tables,
    build_updown_tables,
    minimal_routes,
    xy_route,
)
from repro.sim import (
    DeadlockMonitor,
    Network,
    SimConfig,
    deadlocks_within,
    run_to_drain,
    run_with_window,
)
from repro.protocols import (
    EscapeVcRecovery,
    MinimalUnprotected,
    SpanningTreeAvoidance,
    StaticBubbleScheme,
    make_scheme,
)
from repro.traffic import (
    BitComplementTraffic,
    TraceTraffic,
    UniformRandomTraffic,
    parsec_trace,
    rodinia_trace,
)
from repro.energy import EnergyModel, network_edp

__version__ = "1.0.0"

__all__ = [
    "CounterFsm",
    "FsmState",
    "Port",
    "Turn",
    "bubble_count",
    "has_static_bubble",
    "placement",
    "placement_map",
    "placement_node_ids",
    "Topology",
    "inject_link_faults",
    "inject_router_faults",
    "mesh",
    "sample_topologies",
    "build_minimal_tables",
    "build_updown_tables",
    "minimal_routes",
    "xy_route",
    "DeadlockMonitor",
    "Network",
    "SimConfig",
    "deadlocks_within",
    "run_to_drain",
    "run_with_window",
    "EscapeVcRecovery",
    "MinimalUnprotected",
    "SpanningTreeAvoidance",
    "StaticBubbleScheme",
    "make_scheme",
    "BitComplementTraffic",
    "TraceTraffic",
    "UniformRandomTraffic",
    "parsec_trace",
    "rodinia_trace",
    "EnergyModel",
    "network_edp",
    "__version__",
]
