"""One route format: a route is a ``bytes`` string of output ports.

Every producer of a route — the minimal DP and its single-pair oracle,
up*/down*, XY, the hand-made scenarios and the live-reconfiguration
salvage — yields ``bytes``; a routing table holds, per destination, a
tuple of them.  The format bounds a router's ports to one byte, so a
topology past ``MAX_RADIX`` is refused when it is built, and the format
pays for itself: a pinned ceiling of table bytes per (src, dst) pair.
"""

from __future__ import annotations

import gc
import random
import tracemalloc

import pytest

from repro.protocols import make_scheme
from repro.routing.paths import (
    active_adjacency,
    minimal_routes,
    minimal_routes_to,
    node_path_to_route,
)
from repro.routing.spanning_tree import (
    build_spanning_trees,
    updown_route,
    updown_routes_from,
)
from repro.routing.table import (
    build_minimal_tables,
    build_updown_tables,
    clear_table_cache,
)
from repro.routing.xy import xy_route
from repro.sim.config import SimConfig
from repro.sim.network import Network
from repro.sim.scenarios import build_2x2_ring_deadlock, build_fig6_walkthrough
from repro.topology.faults import inject_link_faults
from repro.topology.generators import full_mesh, parse_topology
from repro.topology.mesh import mesh
from repro.traffic.synthetic import UniformRandomTraffic


def _topology():
    return inject_link_faults(mesh(5, 4), 4, random.Random(7))


def _assert_routes(routes):
    routes = list(routes)
    assert routes
    for route in routes:
        assert type(route) is bytes, type(route)


def _assert_tables(tables):
    """Every entry is a tuple of ``bytes`` routes; absent pairs are empty."""
    pairs = 0
    for table in tables.values():
        for dst in table.destinations():
            options = table.routes(dst)
            assert type(options) is tuple, type(options)
            _assert_routes(options)
            pairs += 1
    assert pairs


def _resident_and_queued(net):
    for router in net.active_routers():
        for vc in router.residents():
            yield vc.packet
    for ni in net.nis.values():
        yield from ni.queue


class TestEveryProducerYieldsBytes:
    def test_minimal_dp_and_its_tables(self):
        topo = _topology()
        adjacency = active_adjacency(topo)
        for dst in adjacency:
            for routes in minimal_routes_to(adjacency, dst, topo.local_port).values():
                _assert_routes(routes)
        clear_table_cache()
        _assert_tables(build_minimal_tables(topo))

    def test_single_pair_oracle(self):
        topo = _topology()
        _assert_routes(minimal_routes(topo, 0, 19))
        _assert_routes([node_path_to_route(topo, [3])])

    def test_updown_search_and_its_tables(self):
        topo = _topology()
        adjacency = active_adjacency(topo)
        tree = build_spanning_trees(topo)[0]
        _assert_routes([updown_route(topo, tree, 0, 19), updown_route(topo, tree, 4, 4)])
        _assert_routes(updown_routes_from(adjacency, tree, 0, topo.local_port).values())
        clear_table_cache()
        _assert_tables(build_updown_tables(topo))

    def test_xy_and_its_tables(self):
        topo = mesh(4, 4)
        _assert_routes([xy_route(topo, 0, 15), xy_route(topo, 5, 5)])
        _assert_tables(make_scheme("xy").build_tables(topo, SimConfig(width=4, height=4)))

    @pytest.mark.parametrize("build", [build_2x2_ring_deadlock, build_fig6_walkthrough])
    def test_scenarios(self, build):
        net, _ = build()
        _assert_routes(packet.route for packet in _resident_and_queued(net))

    def test_injection_and_live_reconfiguration_salvage(self):
        topo = mesh(4, 4)
        traffic = UniformRandomTraffic(topo, rate=0.3, seed=3)
        net = Network(topo, SimConfig(width=4, height=4), make_scheme("static-bubble"),
                      traffic, seed=3)
        net.run(200)
        _assert_routes(packet.route for packet in _resident_and_queued(net))
        summary = net.apply_faults(links=((5, 6), (9, 10), (1, 5)))
        assert summary["rerouted"] > 0
        _assert_routes(packet.route for packet in _resident_and_queued(net))
        assert all(type(packet.route[packet.hop]) is int
                   for packet in _resident_and_queued(net))


def test_table_bytes_per_pair_are_pinned():
    """The seed-1 ``sim-sat`` topology's minimal tables: <= 128 B per
    stored (src, dst) pair under ``tracemalloc`` (~85 B on CPython 3.11)."""
    seed = random.Random("harness:1:sim-sat").randrange(1, 2**31)
    topo = inject_link_faults(parse_topology("8x8"), 8, random.Random(seed))
    clear_table_cache()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tables = build_minimal_tables(topo)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    pairs = sum(len(table.destinations()) for table in tables.values())
    assert pairs == 64 * 63
    assert held <= 128 * pairs, held / pairs


class TestPortBound:
    def test_the_largest_radix_a_byte_holds_is_accepted(self):
        assert full_mesh(256).local_port == 255

    @pytest.mark.parametrize("text", ["fullmesh:257", "fullmesh:300"])
    def test_a_router_past_256_ports_is_refused(self, text):
        with pytest.raises(ValueError, match="radix"):
            parse_topology(text)
