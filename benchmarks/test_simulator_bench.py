"""Microbenchmarks of the simulator substrate itself.

Not a paper figure — these track the cost of the building blocks so that
regressions in the inner loops (switch allocation, table construction,
deadlock detection) are visible.  Unlike the figure benchmarks these use
multiple rounds.
"""

import random

from repro.protocols import make_scheme
from repro.routing.table import (
    build_minimal_tables,
    build_updown_tables,
    clear_table_cache,
    escape_next_hop_tables,
)
from repro.sim.config import SimConfig
from repro.sim.deadlock import find_wait_cycle
from repro.sim.network import Network
from repro.topology.faults import inject_link_faults
from repro.topology.mesh import mesh
from repro.traffic.synthetic import UniformRandomTraffic


def _make_network(rate: float, scheme_name: str = "static-bubble"):
    topo = inject_link_faults(mesh(8, 8), 8, random.Random(1))
    config = SimConfig()
    traffic = UniformRandomTraffic(topo, rate=rate, seed=1)
    net = Network(topo, config, make_scheme(scheme_name), traffic, seed=1)
    net.run(200)  # warm: populate VCs
    return net


def test_step_low_load(benchmark):
    net = _make_network(rate=0.02)
    benchmark.pedantic(lambda: net.run(100), rounds=5, iterations=1)
    assert net.stats.packets_ejected > 0


def test_step_saturated(benchmark):
    net = _make_network(rate=0.30)
    benchmark.pedantic(lambda: net.run(100), rounds=5, iterations=1)
    assert net.stats.packets_injected > 0


def test_step_idle_network(benchmark):
    # No traffic at all: the active-router set should make the per-cycle
    # cost independent of network size (nothing to sweep).
    topo = mesh(8, 8)
    net = Network(topo, SimConfig(), make_scheme("static-bubble"), None, seed=1)
    net.run(50)  # drain the (empty) active set
    benchmark.pedantic(lambda: net.run(1000), rounds=5, iterations=1)
    assert net.stats.packets_injected == 0


def test_deadlock_monitor_precheck(benchmark):
    # Steady traffic: the monitor's movement pre-check skips most graph
    # builds, so interleaved checks stay cheap.
    from repro.sim.deadlock import DeadlockMonitor

    net = _make_network(rate=0.10)
    monitor = DeadlockMonitor(interval=16)

    def run_with_monitor():
        for _ in range(200):
            net.step()
            monitor.check(net, net.cycle)

    benchmark.pedantic(run_with_monitor, rounds=3, iterations=1)


def test_build_minimal_tables_8x8(benchmark):
    # Clear the memo each round so this keeps measuring construction
    # (and stays comparable with pre-cache baselines), not cache hits.
    topo = inject_link_faults(mesh(8, 8), 8, random.Random(1))

    def build_cold():
        clear_table_cache()
        return build_minimal_tables(topo)

    tables = benchmark.pedantic(build_cold, rounds=3, iterations=1)
    assert len(tables) == 64


def test_build_minimal_tables_8x8_cached(benchmark):
    # The warm path batched campaign workers take: same topology, memo hit.
    topo = inject_link_faults(mesh(8, 8), 8, random.Random(1))
    clear_table_cache()
    build_minimal_tables(topo)  # prime
    tables = benchmark.pedantic(
        lambda: build_minimal_tables(topo), rounds=5, iterations=1
    )
    assert len(tables) == 64


def test_build_updown_tables_8x8(benchmark):
    topo = inject_link_faults(mesh(8, 8), 8, random.Random(1))

    def build_cold():
        clear_table_cache()
        return build_updown_tables(topo)

    tables = benchmark.pedantic(build_cold, rounds=3, iterations=1)
    assert len(tables) == 64


def test_build_escape_tables_8x8(benchmark):
    # Spanning trees (root choice included) + per-router tree next hops:
    # what an escape-vc cell derives on top of its minimal tables.
    topo = inject_link_faults(mesh(8, 8), 8, random.Random(1))

    def build_cold():
        clear_table_cache()
        return escape_next_hop_tables(topo)

    tables = benchmark.pedantic(build_cold, rounds=3, iterations=1)
    assert len(tables) == 64


def test_build_escape_tables_8x8_cached(benchmark):
    topo = inject_link_faults(mesh(8, 8), 8, random.Random(1))
    clear_table_cache()
    escape_next_hop_tables(topo)  # prime
    tables = benchmark.pedantic(
        lambda: escape_next_hop_tables(topo), rounds=5, iterations=1
    )
    assert len(tables) == 64


def test_deadlock_oracle_scan(benchmark):
    net = _make_network(rate=0.30)
    benchmark.pedantic(
        lambda: find_wait_cycle(net, net.cycle), rounds=5, iterations=1
    )
