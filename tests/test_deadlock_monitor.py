"""Tests for the ground-truth wait-for-graph deadlock detector."""

import random

import pytest

from repro.protocols.none import MinimalUnprotected
from repro.service.spec import SimSpec, run_sim_spec
from repro.sim.config import SimConfig
from repro.sim.deadlock import DeadlockMonitor, find_wait_cycle
from repro.sim.engine import deadlocks_within
from repro.sim.network import Network
from repro.topology.faults import inject_link_faults
from repro.topology.mesh import mesh
from repro.traffic.synthetic import UniformRandomTraffic

from tests.conftest import build_2x2_ring_deadlock


class TestFindWaitCycle:
    def test_empty_network_has_no_cycle(self):
        topo = mesh(4, 4)
        config = SimConfig(width=4, height=4)
        net = Network(topo, config, MinimalUnprotected(), None, seed=1)
        assert find_wait_cycle(net, 0) is None

    def test_constructed_ring_is_detected(self):
        net, _ = build_2x2_ring_deadlock(scheme=MinimalUnprotected())
        cycle = find_wait_cycle(net, 0)
        assert cycle is not None
        assert sorted(cycle) == [100, 101, 102, 103]

    def test_partial_ring_is_not_a_deadlock(self):
        """Three of the four packets: the chain has a free VC to drain into."""
        from repro.core.turns import Port
        from tests.conftest import place_packet

        E, N, W, S, L = Port.EAST, Port.NORTH, Port.WEST, Port.SOUTH, Port.LOCAL
        topo = mesh(2, 2)
        config = SimConfig(width=2, height=2, vcs_per_vnet=1)
        net = Network(topo, config, MinimalUnprotected(), None, seed=1)
        place_packet(net, 1, W, 100, 0, 3, (E, N, L))
        place_packet(net, 3, S, 101, 1, 2, (N, W, L))
        place_packet(net, 2, E, 102, 3, 0, (W, S, L))
        assert find_wait_cycle(net, 0) is None

    def test_ejection_wait_is_not_deadlock(self):
        """A packet waiting on a busy ejection link is making progress."""
        topo = mesh(2, 1)
        config = SimConfig(width=2, height=1)
        from repro.traffic.trace import TraceTraffic

        trace = TraceTraffic([(0, 0, 1, 0, 5), (0, 0, 1, 0, 5), (0, 0, 1, 0, 5)])
        net = Network(topo, config, MinimalUnprotected(), trace, seed=1)
        for _ in range(8):
            net.step()
            assert find_wait_cycle(net, net.cycle) is None


class TestMonitor:
    def test_monitor_counts_once(self):
        net, _ = build_2x2_ring_deadlock(scheme=MinimalUnprotected())
        monitor = DeadlockMonitor(interval=4)
        for _ in range(40):
            net.step()
            monitor.check(net, net.cycle)
        assert net.stats.deadlocks_observed == 1
        assert monitor.first_deadlock_cycle is not None

    def test_interval_respected(self):
        net, _ = build_2x2_ring_deadlock(scheme=MinimalUnprotected())
        monitor = DeadlockMonitor(interval=1000)
        for _ in range(20):
            net.step()
            monitor.check(net, net.cycle)
        assert monitor.first_deadlock_cycle is None  # first check not due yet

    def test_result_sticky_across_skip_cycles(self):
        """Once a cycle has been observed, interval-skip checks must keep
        returning True (the old contract returned False between builds)."""
        net, _ = build_2x2_ring_deadlock(scheme=MinimalUnprotected())
        monitor = DeadlockMonitor(interval=4)
        results = []
        for _ in range(12):
            net.step()
            results.append(monitor.check(net, net.cycle))
        first_true = results.index(True)
        assert all(results[first_true:]), (
            f"verdict flapped after first detection: {results}"
        )

    def test_result_sticky_across_movement_skips(self):
        """Movement pre-check skips must repeat the last verdict too."""
        net, _ = build_2x2_ring_deadlock(scheme=MinimalUnprotected())
        monitor = DeadlockMonitor(interval=1, max_skips=3)
        net.step()
        assert monitor.check(net, net.cycle)  # first due build detects
        for _ in range(3):
            net.step()
            net.stats.crossbar_flits += 1  # traffic moving elsewhere
            assert monitor.check(net, net.cycle)  # skip cycles stay True

    def test_first_deadlock_cycle_backdated_to_blind_window(self):
        """The constructed ring exists from cycle 0; detection at the
        first due check must not stamp the (late) detection time."""
        net, _ = build_2x2_ring_deadlock(scheme=MinimalUnprotected())
        monitor = DeadlockMonitor(interval=16)
        for _ in range(20):
            net.step()
            monitor.check(net, net.cycle)
        # No clear build ever ran, so the deadlock is backdated to 0 —
        # not the >= 16 cycle at which the first build happened.
        assert monitor.first_deadlock_cycle == 0

    def test_first_deadlock_cycle_after_clear_build(self):
        """With a clear build on record, backdate to just after it."""
        from repro.core.turns import Port
        from tests.conftest import place_packet

        E, N, W, S, L = Port.EAST, Port.NORTH, Port.WEST, Port.SOUTH, Port.LOCAL
        topo = mesh(2, 2)
        config = SimConfig(width=2, height=2, vcs_per_vnet=1)
        net = Network(topo, config, MinimalUnprotected(), None, seed=1)
        monitor = DeadlockMonitor(interval=4)
        for _ in range(8):
            net.step()
            assert not monitor.check(net, net.cycle)  # empty: clear builds
        last_clear = net.cycle  # a build ran at the final due cycle <= here
        place_packet(net, 1, W, 100, 0, 3, (E, N, L))
        place_packet(net, 3, S, 101, 1, 2, (N, W, L))
        place_packet(net, 2, E, 102, 3, 0, (W, S, L))
        place_packet(net, 0, N, 103, 2, 1, (S, E, L))
        for _ in range(8):
            net.step()
            monitor.check(net, net.cycle)
        assert monitor.first_deadlock_cycle is not None
        assert 0 < monitor.first_deadlock_cycle <= last_clear + 1


class TestEndToEnd:
    def test_high_load_faulty_mesh_deadlocks(self):
        """The Fig. 2 premise: unprotected irregular meshes deadlock."""
        topo = inject_link_faults(mesh(8, 8), 10, random.Random(3))
        config = SimConfig(vcs_per_vnet=2)
        traffic = UniformRandomTraffic(topo, rate=0.6, seed=3)
        net = Network(topo, config, MinimalUnprotected(), traffic, seed=3)
        assert deadlocks_within(net, 3000)

    def test_low_load_healthy_mesh_does_not(self):
        topo = mesh(4, 4)
        config = SimConfig(width=4, height=4)
        traffic = UniformRandomTraffic(topo, rate=0.02, seed=3)
        net = Network(topo, config, MinimalUnprotected(), traffic, seed=3)
        assert not deadlocks_within(net, 1500)

    def test_spanning_tree_never_deadlocks(self):
        """Deadlock avoidance oracle-checked under heavy load + faults."""
        from repro.protocols.spanning_tree import SpanningTreeAvoidance

        topo = inject_link_faults(mesh(6, 6), 8, random.Random(11))
        config = SimConfig(width=6, height=6, vcs_per_vnet=2)
        traffic = UniformRandomTraffic(topo, rate=0.7, seed=11)
        net = Network(topo, config, SpanningTreeAvoidance(), traffic, seed=11)
        assert not deadlocks_within(net, 2500)


class TestOffMesh:
    """The oracle reads port geometry from the router and its links."""

    @pytest.mark.parametrize(
        "topology", ["mesh3d:4x4x4", "torus3d:4x4x4", "circulant:64,1,8"]
    )
    def test_saturated_unprotected_network_reports_a_wait_cycle(self, topology):
        # 6-port routers eject on port 6 and a circulant's arrival port is
        # not the mesh's OPPOSITE_PORT: hard-coded mesh ports raised
        # KeyError here, or looked at the wrong downstream buffers and
        # found no cycle.
        spec = SimSpec(
            topology=topology, scheme="minimal-unprotected", rate=0.9, monitor=True
        )
        payload = run_sim_spec(spec.to_dict())
        assert payload["result"]["deadlocked"]
        assert payload["stats"]["deadlocks_observed"] >= 1

    @pytest.mark.parametrize(
        "scheme, rate, deadlocks",
        [("minimal-unprotected", 0.9, 1), ("static-bubble", 0.3, 4)],
    )
    def test_mesh_verdicts_unchanged(self, scheme, rate, deadlocks):
        """Pinned from the mesh-only oracle on the 8-fault 8x8."""
        spec = SimSpec(scheme=scheme, rate=rate, link_faults=8, monitor=True)
        payload = run_sim_spec(spec.to_dict())
        assert payload["result"]["deadlocked"]
        assert payload["stats"]["deadlocks_observed"] == deadlocks
