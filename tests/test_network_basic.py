"""Network-level behaviour: delivery, latency, conservation, restrictions."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.turns import Port
from repro.protocols.none import MinimalUnprotected
from repro.protocols.spanning_tree import SpanningTreeAvoidance
from repro.sim.config import SimConfig
from repro.sim.engine import run_to_drain, run_with_window
from repro.sim.network import Network
from repro.sim.packet import Packet
from repro.topology.faults import inject_link_faults
from repro.topology.mesh import mesh
from repro.traffic.trace import TraceTraffic
from repro.traffic.synthetic import UniformRandomTraffic


def single_packet_net(src, dst, size=1, width=4, height=4):
    topo = mesh(width, height)
    config = SimConfig(width=width, height=height)
    trace = TraceTraffic([(0, src, dst, 0, size)])
    return Network(topo, config, MinimalUnprotected(), trace, seed=1)


class TestSinglePacketDelivery:
    def test_neighbor_delivery(self):
        net = single_packet_net(0, 1)
        cycles = run_to_drain(net, 100)
        assert cycles is not None
        assert net.stats.packets_ejected == 1
        assert net.stats.packets_injected == 1

    def test_zero_load_latency_formula(self):
        """Head latency: ~2 cycles/hop (router+link) + serialization."""
        for hops, size in [(1, 1), (3, 1), (6, 5)]:
            dst = hops  # walk east along the bottom row of an 8x8
            net = single_packet_net(0, dst, size=size, width=8, height=8)
            run_to_drain(net, 200)
            pkt_latency = net.stats.latency_sum
            # injection(1) + hops * (1 router + 1 link) + tail serialization
            expected = 1 + 2 * hops + size
            assert abs(pkt_latency - expected) <= 2

    def test_cross_chip_delivery(self):
        net = single_packet_net(0, 15, size=5)
        assert run_to_drain(net, 200) is not None

    def test_unreachable_is_dropped(self):
        topo = mesh(2, 2)
        topo.deactivate_link(0, 1)
        topo.deactivate_link(0, 2)
        config = SimConfig(width=2, height=2)
        trace = TraceTraffic([(0, 0, 3, 0, 1)])
        net = Network(topo, config, MinimalUnprotected(), trace, seed=1)
        run_to_drain(net, 50)
        assert net.stats.packets_dropped_unreachable == 1
        assert net.stats.packets_injected == 0


class TestConservation:
    @pytest.mark.parametrize("scheme_cls", [MinimalUnprotected, SpanningTreeAvoidance])
    def test_all_injected_packets_delivered_at_low_load(self, scheme_cls):
        topo = mesh(4, 4)
        config = SimConfig(width=4, height=4)
        traffic = UniformRandomTraffic(topo, rate=0.03, seed=5)
        net = Network(topo, config, scheme_cls(), traffic, seed=5)
        net.run(800)
        net.traffic = None  # stop injecting; drain
        drained = run_to_drain(net, 2000)
        assert drained is not None
        assert net.stats.packets_ejected == net.stats.packets_injected
        assert net.stats.flits_ejected == net.stats.flits_injected

    def test_occupancy_counter_consistency(self):
        topo = mesh(4, 4)
        config = SimConfig(width=4, height=4)
        traffic = UniformRandomTraffic(topo, rate=0.1, seed=5)
        net = Network(topo, config, MinimalUnprotected(), traffic, seed=5)
        for _ in range(50):
            net.run(10)
            for router in net.active_routers():
                actual = sum(
                    1 for vc in router.all_vcs() if vc.packet is not None
                )
                assert actual == router.occupancy


class TestVctInvariants:
    def test_no_vc_ever_holds_two_packets(self):
        """VCT with packet-deep VCs: reservation must never double-book."""
        topo = inject_link_faults(mesh(4, 4), 3, random.Random(2))
        config = SimConfig(width=4, height=4, vcs_per_vnet=2)
        traffic = UniformRandomTraffic(topo, rate=0.3, seed=2)
        net = Network(topo, config, MinimalUnprotected(), traffic, seed=2)
        seen_double = False
        for _ in range(300):
            net.step()
            pids = []
            for router in net.active_routers():
                for vc in router.all_vcs():
                    if vc.packet is not None:
                        pids.append(vc.packet.pid)
            seen_double |= len(pids) != len(set(pids))
        assert not seen_double, "a packet appeared in two VCs at once"

    def test_link_serialization_blocks_back_to_back(self):
        """Two 5-flit packets on one link must be >= 5 cycles apart."""
        topo = mesh(2, 1)
        config = SimConfig(width=2, height=1)
        trace = TraceTraffic([(0, 0, 1, 0, 5), (0, 0, 1, 0, 5)])
        net = Network(topo, config, MinimalUnprotected(), trace, seed=1)
        drained = run_to_drain(net, 100)
        assert drained is not None
        # 2nd packet's ejection must trail the 1st by >= 5 cycles.
        assert net.stats.packets_ejected == 2


class TestWindowMeasurement:
    def test_throughput_tracks_offered_load_below_saturation(self):
        topo = mesh(4, 4)
        config = SimConfig(width=4, height=4)
        traffic = UniformRandomTraffic(topo, rate=0.05, seed=9)
        net = Network(topo, config, MinimalUnprotected(), traffic, seed=9)
        result = run_with_window(net, 300, 900)
        assert result.throughput_flits_node_cycle == pytest.approx(0.05, rel=0.25)

    def test_latency_grows_with_load(self):
        topo = mesh(4, 4)
        config = SimConfig(width=4, height=4)
        latencies = []
        for rate in (0.02, 0.25):
            traffic = UniformRandomTraffic(topo, rate=rate, seed=9)
            net = Network(topo, config, MinimalUnprotected(), traffic, seed=9)
            result = run_with_window(net, 300, 900)
            latencies.append(result.avg_latency)
        assert latencies[1] > latencies[0]


class TestConfigValidation:
    def test_dimension_mismatch_rejected(self):
        topo = mesh(4, 4)
        config = SimConfig(width=8, height=8)
        with pytest.raises(ValueError):
            Network(topo, config, MinimalUnprotected(), None, seed=1)

    def test_bad_config_rejected(self):
        config = SimConfig(width=4, height=4, vcs_per_vnet=0)
        with pytest.raises(ValueError):
            Network(mesh(4, 4), config, MinimalUnprotected(), None, seed=1)


@given(
    seed=st.integers(min_value=0, max_value=100_000),
    rate=st.floats(min_value=0.01, max_value=0.08),
    faults=st.integers(min_value=0, max_value=6),
)
@settings(max_examples=10, deadline=None)
def test_property_no_packet_lost_or_duplicated(seed, rate, faults):
    """Property: injected = ejected + in-flight, across random settings."""
    topo = inject_link_faults(mesh(4, 4), faults, random.Random(seed))
    config = SimConfig(width=4, height=4)
    traffic = UniformRandomTraffic(topo, rate=rate, seed=seed)
    net = Network(topo, config, SpanningTreeAvoidance(), traffic, seed=seed)
    net.run(400)
    assert (
        net.stats.packets_injected
        == net.stats.packets_ejected + net.total_occupancy()
    )


class TestRouterWakeTime:
    """``Router.wake_at``: the allocator sleeps a router until one of its
    packets can be switched, and every arrival goes through ``place``."""

    @staticmethod
    def _net():
        config = SimConfig(width=4, height=4)
        return Network(mesh(4, 4), config, MinimalUnprotected(), None, seed=1)

    @staticmethod
    def _place(net, node, vc_index, pid, ready_at):
        """A one-flit packet at ``node``'s West port, bound one hop East."""
        router = net.routers[node]
        vc = router.input_vcs[Port.WEST][vc_index]
        packet = Packet(pid, node - 1, node + 1, 0, 1, (Port.EAST, Port.EAST, Port.LOCAL), 0)
        packet.injected_at = 0
        packet.hop = 1
        router.place(vc, packet, ready_at)
        return vc

    def test_sweep_raises_wake_to_the_earliest_waiting_packet(self):
        net = self._net()
        sweeps = []
        allocate_router = net._allocate_router
        net._allocate_router = lambda router, now: (
            sweeps.append((router.node, now)),
            allocate_router(router, now),
        )
        first = self._place(net, 5, 0, 1, ready_at=0)
        late = self._place(net, 5, 1, 2, ready_at=20)
        assert net.routers[5].wake_at == 0
        net.run(30)
        # Cycle 0 grants the ready packet; cycle 1 finds only the late one
        # and raises wake_at to its ready_at.  A departure downstream may
        # wake the router early (harmlessly), but it is not polled.
        swept = [now for node, now in sweeps if node == 5]
        assert swept[:2] == [0, 1] and swept[-1] == 20 and len(swept) <= 4
        assert first.packet is None and late.packet is None
        assert net.stats.packets_ejected == 2

    def test_packet_placed_on_a_sleeping_router_moves_when_ready(self):
        net = self._net()
        oracle = self._net()
        oracle.full_scan = True
        for n in (net, oracle):
            self._place(n, 5, 0, 1, ready_at=12)
            n.run(3)
        assert net.routers[5].wake_at == 12  # asleep: skipped since cycle 0
        vcs = [self._place(n, 5, 1, 2, ready_at=6) for n in (net, oracle)]
        assert net.routers[5].wake_at == 6
        for cycle in range(3, 20):
            for n in (net, oracle):
                n.step()
            assert net.stats == oracle.stats, cycle
            # Granted in the step of cycle 6, exactly when ready_at says.
            assert (vcs[0].packet is None) == (cycle >= 6)
        assert net.stats.packets_ejected == 2

    def test_full_scan_ignores_wake_time(self):
        """The oracle sweep visits every occupied router every cycle."""
        net = self._net()
        net.full_scan = True
        self._place(net, 5, 0, 1, ready_at=0)
        net.routers[5].wake_at = 1 << 40  # a lie the oracle must not believe
        net.run(10)
        assert net.stats.packets_ejected == 1
