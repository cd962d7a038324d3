"""Tests for the XY scheme (regular-mesh reference)."""

import random

from repro.protocols.xy import XyRouting
from repro.sim.config import SimConfig
from repro.sim.engine import deadlocks_within, run_to_drain
from repro.sim.network import Network
from repro.topology.faults import inject_link_faults
from repro.topology.mesh import mesh
from repro.traffic.synthetic import UniformRandomTraffic


class TestHealthyMesh:
    def test_xy_is_deadlock_free_at_high_load(self):
        topo = mesh(6, 6)
        config = SimConfig(width=6, height=6, vcs_per_vnet=1)
        traffic = UniformRandomTraffic(topo, rate=0.8, seed=4)
        net = Network(topo, config, XyRouting(), traffic, seed=4)
        assert not deadlocks_within(net, 2500)

    def test_xy_delivers_everything(self):
        topo = mesh(4, 4)
        config = SimConfig(width=4, height=4)
        traffic = UniformRandomTraffic(topo, rate=0.05, seed=4)
        net = Network(topo, config, XyRouting(), traffic, seed=4)
        net.run(600)
        net.traffic = None
        assert run_to_drain(net, 2000) is not None
        assert net.stats.packets_ejected == net.stats.packets_injected
        assert net.stats.packets_dropped_unreachable == 0


class TestIrregularMesh:
    def test_xy_loses_reachability_under_faults(self):
        """The paper's motivation: XY is unusable on irregular topologies."""
        topo = inject_link_faults(mesh(6, 6), 8, random.Random(2))
        scheme = XyRouting()
        unreachable = scheme.unreachable_pairs(topo)
        assert unreachable > 0
        # ...while minimal routing still serves every connected pair.
        from repro.routing.table import build_minimal_tables
        from repro.topology.graph import connected_components

        tables = build_minimal_tables(topo)
        for component in connected_components(topo):
            for src in component:
                for dst in component:
                    if src != dst:
                        assert tables[src].has_route(dst)

    def test_xy_drops_unreachable_packets(self):
        topo = mesh(4, 4)
        topo.deactivate_link(0, 1)
        config = SimConfig(width=4, height=4)
        from repro.traffic.trace import TraceTraffic

        # 0 -> 3 along the bottom row is exactly the broken XY route.
        net = Network(
            topo, config, XyRouting(), TraceTraffic([(0, 0, 3, 0, 1)]), seed=1
        )
        net.run(50)
        assert net.stats.packets_dropped_unreachable == 1


class TestNonMeshTopologies:
    """XY addresses routers by (x, y): every other generator is refused
    with a ValueError, never an AttributeError from deep in the tables."""

    TOPOLOGIES = ("mesh3d:3x3x2", "torus3d:3x3x3", "circulant:11,2,5", "fullmesh:6")

    def test_network_refuses_xy_off_the_2d_mesh(self):
        import pytest

        from repro.topology.generators import parse_topology

        for spec in self.TOPOLOGIES:
            with pytest.raises(ValueError, match="2D mesh"):
                Network(parse_topology(spec), SimConfig(), XyRouting())

    def test_spec_validate_refuses_xy_off_the_2d_mesh(self):
        import pytest

        from repro.service.spec import SimSpec

        for spec in self.TOPOLOGIES:
            with pytest.raises(ValueError, match="2D mesh"):
                SimSpec(topology=spec, scheme="xy").validate()
        SimSpec(topology="mesh:4x4", scheme="xy").validate()
