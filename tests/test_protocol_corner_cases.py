"""Section IV-B corner cases ("The Devil is in the Details"), one by one.

Each question the paper answers gets a direct test against the message
handlers and the FSM, using hand-constructed router states.
"""

import pytest

from repro.core.fsm import FsmEvent, FsmState
from repro.core.messages import MsgType, make_path_message, make_probe
from repro.core.turns import Port, Turn
from repro.protocols.static_bubble import StaticBubbleScheme
from repro.sim.config import SimConfig
from repro.sim.network import Network
from repro.topology.mesh import mesh

from tests.conftest import build_2x2_ring_deadlock, fire, place_packet, tick

E, N, W, S, L = Port.EAST, Port.NORTH, Port.WEST, Port.SOUTH, Port.LOCAL


def make_3x3_sb_net(placement=None, vcs=1, t_dd=5):
    topo = mesh(3, 3)
    config = SimConfig(width=3, height=3, vcs_per_vnet=vcs, sb_t_dd=t_dd)
    scheme = StaticBubbleScheme(placement_override=placement)
    net = Network(topo, config, scheme, None, seed=1)
    return net, scheme


class TestTwoProbesSameCycle:
    """'What if a node receives two probes in the same cycle?
    Send the one with the higher node-id and drop the other.'"""

    def test_higher_sender_wins_output_collision(self):
        net, scheme = make_3x3_sb_net(placement=set())
        # One packet at the center's W port wanting E: both probes fork E.
        place_packet(net, 4, W, 1, 3, 5, (E, E, L))
        lo = make_probe(2, E)   # travelling E, enters at W
        hi = make_probe(7, E)
        scheme.process_specials(net, net.routers[4], [(W, lo), (W, hi)], now=0)
        arrivals = net._special_arrivals.get(2, [])
        assert len(arrivals) == 1
        assert arrivals[0][2].sender == 7


class TestEnableDisableTie:
    """'If both an enable and disable are received for the same output
    port, then if the is_deadlock bit is set, the enable is sent and the
    disable dropped, else the opposite.'  This is the output-mux (Msg_Sel)
    rule, so it is tested against the arbitration unit directly."""

    def _arbitrate(self, sealed: bool):
        net, scheme = make_3x3_sb_net(placement=set())
        router = net.routers[4]
        if sealed:
            router.set_io_restriction(W, E, source=77, now=0)
        disable = make_path_message(MsgType.DISABLE, 30, (Turn.STRAIGHT,), E)
        enable = make_path_message(MsgType.ENABLE, 77, (Turn.RIGHT,), E)
        winner = scheme._arbitrate_output(router, [disable, enable])
        return winner.mtype

    def test_enable_wins_when_sealed(self):
        assert self._arbitrate(sealed=True) == MsgType.ENABLE

    def test_disable_wins_when_not_sealed(self):
        assert self._arbitrate(sealed=False) == MsgType.DISABLE

    def test_check_probe_beats_both(self):
        net, scheme = make_3x3_sb_net(placement=set())
        router = net.routers[4]
        disable = make_path_message(MsgType.DISABLE, 30, (Turn.STRAIGHT,), E)
        cp = make_path_message(MsgType.CHECK_PROBE, 5, (Turn.STRAIGHT,), E)
        probe = make_probe(99, E)
        winner = scheme._arbitrate_output(router, [probe, disable, cp])
        assert winner.mtype == MsgType.CHECK_PROBE


class TestEnableFromDifferentNode:
    """'What if a node receives an enable from a node that is different
    from the node that sent it the disable? ... the enable is not
    processed and is simply sent out of the port calculated from the
    turn, not dropped.'"""

    def test_mismatched_enable_forwarded_unprocessed(self):
        net, scheme = make_3x3_sb_net(placement=set())
        router = net.routers[4]
        router.set_io_restriction(W, E, source=77, now=0)
        enable = make_path_message(MsgType.ENABLE, 30, (Turn.STRAIGHT,), E)
        scheme.process_specials(net, router, [(W, enable)], now=0)
        # Seal untouched (source mismatch)...
        assert router.is_deadlock
        assert router.source_id == 77
        # ...but the enable went on its way.
        arrivals = net._special_arrivals.get(2, [])
        assert len(arrivals) == 1
        assert arrivals[0][2].mtype == MsgType.ENABLE

    def test_matching_enable_clears_seal(self):
        net, scheme = make_3x3_sb_net(placement=set())
        router = net.routers[4]
        router.set_io_restriction(W, E, source=77, now=0)
        enable = make_path_message(MsgType.ENABLE, 77, (Turn.STRAIGHT,), E)
        scheme.process_specials(net, router, [(W, enable)], now=0)
        assert not router.is_deadlock
        assert len(net._special_arrivals.get(2, [])) == 1


class TestSecondDisable:
    """Already-sealed routers cannot install a second restriction; per our
    documented deviation the disable is forwarded unsealed rather than
    dropped (the paper drops it), so the second chain still recovers."""

    def test_second_disable_forwarded_without_resealing(self):
        net, scheme = make_3x3_sb_net(placement=set())
        router = net.routers[4]
        place_packet(net, 4, W, 1, 3, 5, (E, E, L))
        router.set_io_restriction(S, N, source=77, now=0)
        disable = make_path_message(MsgType.DISABLE, 30, (Turn.STRAIGHT,), E)
        scheme.process_specials(net, router, [(W, disable)], now=0)
        # Original seal intact:
        assert router.source_id == 77
        assert router.io_in_port == S
        # Disable forwarded:
        arrivals = net._special_arrivals.get(2, [])
        assert len(arrivals) == 1

    def test_disable_dropped_when_dependence_gone(self):
        """'If any of the intermediate nodes no longer have the same
        buffer dependence, the disable is dropped.'"""
        net, scheme = make_3x3_sb_net(placement=set())
        router = net.routers[4]
        # No packet at the W port wants E -> dependence check fails.
        disable = make_path_message(MsgType.DISABLE, 30, (Turn.STRAIGHT,), E)
        scheme.process_specials(net, router, [(W, disable)], now=0)
        assert net._special_arrivals == {}
        assert not router.is_deadlock


class TestForeignDisableAtSbNode:
    """'Which state does the FSM of a static bubble node go to, if it
    receives a disable from a higher-id static bubble node? S_OFF.'"""

    def test_fsm_parks_and_seal_installs(self):
        net, scheme = make_3x3_sb_net(placement={4})
        router = net.routers[4]
        place_packet(net, 4, W, 1, 3, 5, (E, E, L))
        fire(net, 4, FsmEvent.FIRST_FLIT)
        assert scheme.states[4].fsm.state == FsmState.S_DD
        disable = make_path_message(MsgType.DISABLE, 99, (Turn.STRAIGHT,), E)
        scheme.process_specials(net, router, [(W, disable)], now=0)
        assert scheme.states[4].fsm.state == FsmState.S_OFF
        assert router.source_id == 99

    def test_fsm_resumes_on_matching_enable(self):
        net, scheme = make_3x3_sb_net(placement={4})
        router = net.routers[4]
        place_packet(net, 4, W, 1, 3, 5, (E, E, L))
        fire(net, 4, FsmEvent.FIRST_FLIT)
        disable = make_path_message(MsgType.DISABLE, 99, (Turn.STRAIGHT,), E)
        scheme.process_specials(net, router, [(W, disable)], now=0)
        enable = make_path_message(MsgType.ENABLE, 99, (Turn.STRAIGHT,), E)
        scheme.process_specials(net, router, [(W, enable)], now=2)
        assert not router.is_deadlock
        assert scheme.states[4].fsm.state == FsmState.S_DD


class TestProbeAfterDisableSent:
    """'What happens if a static bubble node sends a probe, followed by a
    disable, and then receives a copy of its probe back? ... the second
    probe will be dropped.'"""

    def test_late_probe_copy_dropped_during_recovery(self):
        net, scheme = build_2x2_ring_deadlock()
        fsm = scheme.states[3].fsm
        # Drive to S_DISABLE via a synthetic probe return.
        fire(net, 3, FsmEvent.FIRST_FLIT)
        for _ in range(20):
            tick(net, 3)
        probe = make_probe(3, N)._replace(turns=(Turn.LEFT,) * 3)
        fire(net, 3, FsmEvent.PROBE_BACK, probe, S)
        assert fsm.state == FsmState.S_DISABLE
        # A second copy of the probe arrives: must not disturb recovery.
        copy = make_probe(3, N)
        copy = copy.with_turn_appended(Turn.LEFT, W)
        scheme.process_specials(net, net.routers[3], [(S, copy)], now=0)
        assert fsm.state == FsmState.S_DISABLE
        assert fsm.turn_buffer == (Turn.LEFT,) * 3


class TestCheckProbeRules:
    def test_check_probe_dropped_when_chain_gone(self):
        """Fig. 6(c): the check_probe dies where the dependence ended."""
        net, scheme = make_3x3_sb_net(placement=set())
        router = net.routers[4]
        router.set_io_restriction(W, E, source=30, now=0)
        # No packet at W wants E anymore:
        cp = make_path_message(MsgType.CHECK_PROBE, 30, (Turn.STRAIGHT,), E)
        scheme.process_specials(net, router, [(W, cp)], now=0)
        assert net._special_arrivals == {}

    def test_check_probe_forwarded_while_chain_alive(self):
        net, scheme = make_3x3_sb_net(placement=set())
        router = net.routers[4]
        place_packet(net, 4, W, 1, 3, 5, (E, E, L))
        router.set_io_restriction(W, E, source=30, now=0)
        cp = make_path_message(MsgType.CHECK_PROBE, 30, (Turn.STRAIGHT,), E)
        scheme.process_specials(net, router, [(W, cp)], now=0)
        assert len(net._special_arrivals.get(2, [])) == 1


class TestTwoCyclesOneBubble:
    """'What if there are deadlocks in two cycles that are both sharing
    only one static bubble? The static bubble will successfully resolve
    the deadlocks one after the other.'"""

    def test_double_ring_serial_recovery(self):
        # 3x2 mesh: two unit squares sharing the middle column.  Node 4
        # = (1,1) is the only SB router and sits on both rings.
        topo = mesh(3, 2)
        config = SimConfig(width=3, height=2, vcs_per_vnet=1, sb_t_dd=5)
        scheme = StaticBubbleScheme()
        net = Network(topo, config, scheme, None, seed=1)
        assert set(scheme.states) == {4}
        # Left ring (nodes 0,1,4,3) clockwise.
        place_packet(net, 1, W, 201, 0, 4, (E, N, L))
        place_packet(net, 4, S, 202, 1, 3, (N, W, L))
        place_packet(net, 3, E, 203, 4, 0, (W, S, L))
        place_packet(net, 0, N, 204, 3, 1, (S, E, L))
        # Right ring (nodes 1,2,5,4) clockwise.
        place_packet(net, 2, W, 205, 1, 5, (E, N, L))
        place_packet(net, 5, S, 206, 2, 4, (N, W, L))
        place_packet(net, 4, E, 207, 5, 1, (W, S, L))
        place_packet(net, 1, N, 208, 4, 2, (S, E, L))
        for _ in range(800):
            net.step()
            if net.stats.packets_ejected == 8:
                break
        assert net.stats.packets_ejected == 8, "both rings must drain"
        assert net.stats.bubble_activations >= 2


class TestInfiniteProbeLoop:
    """'Can a probe loop around infinitely due to buffer dependency? No —
    after the turn capacity of the probe is exhausted, it is dropped.'"""

    def test_capacity_bound_enforced_in_flight(self):
        net, scheme = make_3x3_sb_net(placement=set())
        place_packet(net, 4, W, 1, 3, 5, (E, E, L))
        probe = make_probe(8, E)
        for _ in range(59):
            probe = probe.with_turn_appended(Turn.STRAIGHT, E)
        scheme.process_specials(net, net.routers[4], [(W, probe)], now=0)
        assert net._special_arrivals == {}
