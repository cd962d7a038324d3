"""Protocol tests for Static Bubble recovery (Section IV).

Uses the constructed 2x2 ring deadlock (the smallest instance of the
paper's Fig. 6 walk-through) plus larger constructed scenarios to check
every phase: probe traversal/forking/drop rules, disable sealing,
bubble activation and drain, check_probe retracing, enable teardown,
and the documented corner cases.
"""

import random

import pytest

from repro.core.fsm import FsmEvent, FsmState
from repro.core.messages import MsgType, make_path_message, make_probe
from repro.core.turns import Port, Turn
from repro.protocols.none import MinimalUnprotected
from repro.protocols.static_bubble import StaticBubbleScheme
from repro.sim.config import SimConfig
from repro.sim.deadlock import find_wait_cycle
from repro.sim.engine import deadlocks_within
from repro.obs import Observer
from repro.obs.events import SPECIAL_DROP
from repro.sim.network import Network
from repro.sim.packet import Packet
from repro.topology.faults import inject_link_faults, inject_router_faults
from repro.topology.mesh import mesh
from repro.traffic.synthetic import UniformRandomTraffic

from tests.conftest import build_2x2_ring_deadlock, fire, place_packet


def run_until_delivered(net, expected, limit=600):
    for _ in range(limit):
        net.step()
        if net.stats.packets_ejected >= expected:
            return net.cycle
    return None


class TestMinimalRecovery:
    def test_ring_deadlock_recovered(self):
        net, scheme = build_2x2_ring_deadlock()
        assert find_wait_cycle(net, 0) is not None
        done = run_until_delivered(net, 4)
        assert done is not None, "deadlock was not recovered"
        assert find_wait_cycle(net, net.cycle) is None

    def test_protocol_phases_all_fire(self):
        net, scheme = build_2x2_ring_deadlock()
        run_until_delivered(net, 4)
        net.run(200)  # let the check_probe time out and the enable return
        stats = net.stats
        assert stats.probes_sent >= 1
        assert stats.disables_sent >= 1
        assert stats.bubble_activations >= 1
        assert stats.check_probes_sent >= 1
        assert stats.enables_sent >= 1

    def test_fsm_returns_to_idle_after_recovery(self):
        net, scheme = build_2x2_ring_deadlock()
        run_until_delivered(net, 4)
        net.run(200)
        fsm = scheme.states[3].fsm
        assert fsm.state in (FsmState.S_OFF, FsmState.S_DD)
        assert fsm.turn_buffer == ()
        router = net.routers[3]
        assert not router.is_deadlock
        assert not router.bubble_active

    def test_restrictions_cleared_everywhere(self):
        net, _ = build_2x2_ring_deadlock()
        run_until_delivered(net, 4)
        net.run(400)
        for router in net.active_routers():
            assert not router.is_deadlock

    def test_recovery_counted(self):
        net, scheme = build_2x2_ring_deadlock()
        run_until_delivered(net, 4)
        net.run(400)
        assert net.stats.recoveries_completed >= 1

    def test_recovery_without_check_probe(self):
        """Footnote 7: the scheme still recovers without the optimization."""
        net, _ = build_2x2_ring_deadlock(
            scheme=StaticBubbleScheme(use_check_probe=False)
        )
        assert run_until_delivered(net, 4) is not None
        assert net.stats.check_probes_sent == 0

    def test_recovery_without_forking(self):
        """A single elementary cycle needs no forking."""
        net, _ = build_2x2_ring_deadlock(scheme=StaticBubbleScheme(fork_probes=False))
        assert run_until_delivered(net, 4) is not None


class TestProbeRules:
    def test_probe_dropped_at_port_with_free_vc(self):
        """A free VC at the probed input port means no deadlock there."""
        topo = mesh(2, 2)
        config = SimConfig(width=2, height=2, vcs_per_vnet=2, sb_t_dd=5)
        scheme = StaticBubbleScheme()
        net = Network(topo, config, scheme, None, seed=1)
        E, N, W, S, L = Port.EAST, Port.NORTH, Port.WEST, Port.SOUTH, Port.LOCAL
        # Only one of two VCs occupied at node 2's E port.
        place_packet(net, 2, E, 102, 3, 0, (W, S, L))
        router = net.routers[2]
        scheme.process_specials(
            net, router, [(Port.EAST, make_probe(3, Port.WEST))], now=0
        )
        assert net._special_arrivals == {}

    def test_probe_forked_to_union_of_requests(self):
        topo = mesh(3, 3)
        config = SimConfig(width=3, height=3, vcs_per_vnet=2, sb_t_dd=5)
        scheme = StaticBubbleScheme()
        net = Network(topo, config, scheme, None, seed=1)
        E, N, W, S, L = Port.EAST, Port.NORTH, Port.WEST, Port.SOUTH, Port.LOCAL
        center = 4
        # Two packets at the center's West port wanting different outputs.
        place_packet(net, center, W, 201, 3, 5, (E, E, L), vc_index=0)
        place_packet(net, center, W, 202, 3, 7, (E, N, L), vc_index=1)
        probe = make_probe(8, Port.EAST)
        scheme.process_specials(net, net.routers[center], [(W, probe)], now=0)
        arrivals = net._special_arrivals.get(2, [])
        out_nodes = sorted(node for node, _, _ in arrivals)
        assert out_nodes == [5, 7]  # forked East and North

    def test_probe_fork_excludes_ejection(self):
        topo = mesh(3, 3)
        config = SimConfig(width=3, height=3, vcs_per_vnet=1, sb_t_dd=5)
        scheme = StaticBubbleScheme()
        net = Network(topo, config, scheme, None, seed=1)
        E, N, W, S, L = Port.EAST, Port.NORTH, Port.WEST, Port.SOUTH, Port.LOCAL
        # Packet at node 4's W port wants to eject at node 4.
        pkt = place_packet(net, 4, W, 301, 3, 4, (E, L))
        pkt.hop = 1  # next port is LOCAL
        probe = make_probe(8, Port.EAST)
        scheme.process_specials(net, net.routers[4], [(W, probe)], now=0)
        assert net._special_arrivals == {}

    def test_lower_id_probe_dropped_at_sb_router(self):
        """Section IV-B: an SB node drops probes from lower-id SB nodes."""
        topo = mesh(2, 2)
        config = SimConfig(width=2, height=2, vcs_per_vnet=1, sb_t_dd=5)
        scheme = StaticBubbleScheme(placement_override={0, 3})
        net = Network(topo, config, scheme, None, seed=1)
        E, N, W, S, L = Port.EAST, Port.NORTH, Port.WEST, Port.SOUTH, Port.LOCAL
        place_packet(net, 3, S, 101, 1, 2, (N, W, L))
        # The drop rule applies while the receiving SB node is itself in
        # detection (S_DD); park its FSM there first.
        fire(net, 3, FsmEvent.FIRST_FLIT)
        probe_from_lower = make_probe(0, Port.NORTH)
        scheme.process_specials(net, net.routers[3], [(S, probe_from_lower)], now=0)
        assert net._special_arrivals == {}
        # ...but a probe from a higher-id sender would be forked onward.
        scheme2 = StaticBubbleScheme(placement_override={3})
        net2 = Network(topo, config, scheme2, None, seed=1)
        place_packet(net2, 3, S, 101, 1, 2, (N, W, L))
        probe_hi = make_probe(99, Port.NORTH)
        scheme2.process_specials(net2, net2.routers[3], [(S, probe_hi)], now=0)
        assert len(net2._special_arrivals.get(2, [])) == 1

    def test_probe_capacity_exhaustion_drops(self):
        net, scheme = build_2x2_ring_deadlock()
        probe = make_probe(99, Port.NORTH)
        for _ in range(59):
            probe = probe.with_turn_appended(Turn.LEFT, probe.travel)
        scheme.process_specials(
            net, net.routers[3], [(Port.SOUTH, probe)], now=0
        )
        assert net._special_arrivals == {}


class TestSealSemantics:
    def test_sealed_router_blocks_other_inputs(self):
        net, scheme = build_2x2_ring_deadlock()
        router = net.routers[0]
        router.set_io_restriction(Port.NORTH, Port.EAST, source=3, now=0)
        assert not router.injection_allowed(Port.LOCAL, Port.EAST)
        assert router.injection_allowed(Port.NORTH, Port.EAST)

    def test_stale_seal_garbage_collected(self):
        topo = mesh(2, 2)
        config = SimConfig(width=2, height=2, sb_seal_timeout=50)
        scheme = StaticBubbleScheme()
        net = Network(topo, config, scheme, None, seed=1)
        router = net.routers[0]  # not an SB router
        router.set_io_restriction(Port.NORTH, Port.EAST, source=3, now=0)
        net.run(120)
        assert not router.is_deadlock


class TestFalsePositives:
    def test_congestion_false_positive_is_harmless(self):
        """Heavy but deadlock-free congestion must not wedge the network."""
        topo = mesh(4, 4)
        config = SimConfig(width=4, height=4, sb_t_dd=5)  # hair-trigger t_DD
        traffic = UniformRandomTraffic(topo, rate=0.35, seed=7)
        scheme = StaticBubbleScheme()
        net = Network(topo, config, scheme, traffic, seed=7)
        net.run(1500)
        net.traffic = None
        from repro.sim.engine import run_to_drain

        assert run_to_drain(net, 4000) is not None
        assert net.stats.packets_ejected == net.stats.packets_injected


class TestStressRecovery:
    @pytest.mark.parametrize("seed", [3, 5, 11])
    def test_faulty_mesh_keeps_delivering_under_load(self, seed):
        """Liveness: SB networks keep making progress where unprotected
        networks wedge permanently."""
        topo = inject_link_faults(mesh(6, 6), 6, random.Random(seed))
        config = SimConfig(width=6, height=6, vcs_per_vnet=2)
        traffic = UniformRandomTraffic(topo, rate=0.25, seed=seed)
        net = Network(topo, config, StaticBubbleScheme(), traffic, seed=seed)
        ejected_marks = []
        for _ in range(8):
            net.run(500)
            ejected_marks.append(net.stats.packets_ejected)
        # No permanent wedge: substantial total progress, and still moving
        # near the end of the run (saturated networks may pause while a
        # recovery grinds through a deadlock web).
        assert ejected_marks[-1] > ejected_marks[0] + 100
        assert ejected_marks[-1] > ejected_marks[-3]

    def test_deadlock_actually_occurs_and_is_recovered(self):
        topo = inject_link_faults(mesh(6, 6), 6, random.Random(3))
        config = SimConfig(width=6, height=6, vcs_per_vnet=1)
        traffic = UniformRandomTraffic(topo, rate=0.4, seed=3)
        # First, prove the same setup deadlocks without protection.
        unprotected = Network(topo, config, MinimalUnprotected(), traffic, seed=3)
        assert deadlocks_within(unprotected, 2500)
        # Now with static bubbles: bubbles activate and packets flow.
        traffic2 = UniformRandomTraffic(topo, rate=0.4, seed=3)
        net = Network(topo, config, StaticBubbleScheme(), traffic2, seed=3)
        net.run(4000)
        assert net.stats.bubble_activations >= 1
        assert net.stats.packets_ejected > 100


class TestDeviations:
    """One regression per DESIGN.md §4 deviation not pinned elsewhere."""

    E, N, W, S, L = Port.EAST, Port.NORTH, Port.WEST, Port.SOUTH, Port.LOCAL

    @staticmethod
    def _net(width, height, placement):
        config = SimConfig(width=width, height=height, vcs_per_vnet=1, sb_t_dd=5)
        scheme = StaticBubbleScheme(placement_override=placement)
        return Network(mesh(width, height), config, scheme, None, seed=1), scheme

    def _recovering(self, net, node, in_port, out_port):
        """Drive ``node`` to S_DISABLE with a latched three-turn path."""
        fire(net, node, FsmEvent.FIRST_FLIT)
        probe = make_probe(node, out_port)._replace(turns=(Turn.LEFT,) * 3)
        fire(net, node, FsmEvent.PROBE_BACK, probe, in_port)
        assert net.scheme.states[node].fsm.state == FsmState.S_DISABLE

    def test_watch_rotates_after_probe_timeout(self):
        """Deviation 1: an expired detection period moves the watch on."""
        E, N, S, W, L = self.E, self.N, self.S, self.W, self.L
        net, scheme = self._net(3, 3, {4})
        place_packet(net, 4, W, 1, 3, 5, (E, E, L))
        place_packet(net, 4, N, 2, 7, 1, (S, S, L))
        scheme.on_cycle(net, 0)  # first flit: the watch lands on one
        state = scheme.states[4]
        first = state.watched_pid
        fire(net, 4, FsmEvent.TIMEOUT)
        assert {first, state.watched_pid} == {1, 2}

    def test_unclosed_chain_drops_returned_disable(self):
        """Deviation 3: the chain must still close through the sender."""
        net, scheme = build_2x2_ring_deadlock()
        obs = Observer(metrics=False)
        net.attach_obs(obs)
        # Latch N as the chain output: node 3's resident at S wants W.
        self._recovering(net, 3, self.S, self.N)
        router = net.routers[3]
        disable = make_path_message(MsgType.DISABLE, 3, (), self.W)
        scheme.process_specials(net, router, [(self.S, disable)], now=0)
        assert scheme.states[3].fsm.state == FsmState.S_DISABLE
        assert not router.bubble_active and not router.is_deadlock
        drops = [e for e in obs.events if e.kind == SPECIAL_DROP]
        assert drops[-1].data["reason"] == "revalidation_failed"

    def test_foreign_enable_processed_during_own_recovery(self):
        """Deviation 5: an SB router recovering its own chain still clears
        another sender's seal and forwards that sender's enable."""
        E, L = self.E, self.L
        net, scheme = self._net(3, 3, {4})
        router = net.routers[4]
        place_packet(net, 4, self.W, 1, 3, 5, (E, E, L))
        self._recovering(net, 4, self.W, E)
        router.set_io_restriction(self.N, self.S, source=99, now=0)
        enable = make_path_message(MsgType.ENABLE, 99, (Turn.STRAIGHT,), self.S)
        scheme.process_specials(net, router, [(self.N, enable)], now=0)
        assert not router.is_deadlock
        assert scheme.states[4].fsm.state == FsmState.S_DISABLE
        sent = [m for _, _, m in net._special_arrivals.get(2, []) if m.sender == 99]
        assert [m.mtype for m in sent] == [MsgType.ENABLE]

    def test_detection_thresholds_staggered_by_node(self):
        """Deviation 8: t_DD + (node * 7) % 13 per router."""
        net = Network(mesh(8, 8), SimConfig(), StaticBubbleScheme(), None, seed=1)
        t_dd = {node: st.fsm.t_dd for node, st in net.scheme.states.items()}
        assert all(t == 34 + (node * 7) % 13 for node, t in t_dd.items())
        assert len(set(t_dd.values())) > 1

    def test_lower_id_probe_forwarded_during_recovery(self):
        """Deviation 9: the id rule drops a lower-id probe only while the
        receiver is itself detecting."""
        N, W, L = self.N, self.W, self.L
        net, scheme = self._net(2, 2, {0, 3})
        place_packet(net, 3, self.S, 101, 1, 2, (N, W, L))
        self._recovering(net, 3, self.S, W)
        scheme.process_specials(net, net.routers[3], [(self.S, make_probe(0, N))], now=0)
        probes = [
            m
            for _, _, m in net._special_arrivals.get(2, [])
            if m.mtype == MsgType.PROBE and m.sender == 0
        ]
        assert len(probes) == 1

    def test_escape_threshold_above_sb_t_dd(self):
        """Deviation 10: the escape-VC timer sits far above SB's t_DD."""
        config = SimConfig()
        assert (config.escape_t_detect, config.sb_t_dd) == (128, 34)

    def test_stale_resident_relocates_to_any_port(self):
        """Deviation 12: an inactive bubble's resident moves to a free VC
        of any port, not only the (full) port it is tagged with."""
        N, W, L = self.N, self.W, self.L
        net, scheme = build_2x2_ring_deadlock(t_dd=10**9)
        router = net.routers[3]
        bubble = router.bubble
        bubble.port = self.S  # tagged to the ring's full input port
        resident = Packet(200, 1, 2, 0, 1, (N, W, L), 0)
        resident.hop = 1
        router.place(bubble, resident, 0)
        assert not router.bubble_active
        scheme._relocate_bubble_resident(net, router, 1)
        assert bubble.packet is None
        [vc] = [vc for vc in router.compass_vcs if vc.packet is resident]
        assert vc.port != self.S
