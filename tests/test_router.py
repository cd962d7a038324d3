"""Unit tests for the router model (VCs, links, restrictions, bubble)."""

import pytest

from repro.core.turns import Port
from repro.sim.packet import Packet
from repro.sim.router import (
    OutputLink,
    Router,
    VC_BUBBLE,
    VC_ESCAPE,
    VC_NORMAL,
    VirtualChannel,
)


def make_packet(pid=1, src=0, dst=3, size=5, route=(Port.EAST, Port.LOCAL)):
    return Packet(pid, src, dst, 0, size, route, 0)


class TestVirtualChannel:
    def test_free_initially(self):
        vc = VirtualChannel(Port.EAST, 0, 0)
        assert vc.is_free(0)

    def test_occupied_not_free(self):
        router = Router(0, vnets=1, vcs_per_vnet=1)
        vc = router.input_vcs[Port.EAST][0]
        router.place(vc, make_packet(), 0)
        assert not vc.is_free(0)

    def test_drain_window_blocks_reuse(self):
        vc = VirtualChannel(Port.EAST, 0, 0)
        vc.free_at = 10
        assert not vc.is_free(9)
        assert vc.is_free(10)

    def test_switchable_after_ready(self):
        router = Router(0, vnets=1, vcs_per_vnet=1)
        vc = router.input_vcs[Port.EAST][0]
        router.place(vc, make_packet(), 5)
        assert not vc.has_switchable_packet(4)
        assert vc.has_switchable_packet(5)


class TestOutputLink:
    def test_free_until_busy(self):
        link = OutputLink(dest_node=1)
        assert link.is_free(0)
        link.busy_until = 5
        assert not link.is_free(4)
        assert link.is_free(5)

    def test_special_block_covers_one_cycle(self):
        link = OutputLink(dest_node=1)
        link.special_blocked_at = 3
        assert not link.is_free(3)
        assert link.is_free(4)


class TestRouterStructure:
    def test_vc_count(self):
        router = Router(0, vnets=2, vcs_per_vnet=3)
        for port in range(5):
            assert len(router.input_vcs[port]) == 6

    def test_escape_reservation_converts(self):
        router = Router(0, vnets=1, vcs_per_vnet=4)
        router.add_escape_vcs(reserve_existing=True)
        for port in range(5):
            kinds = [vc.kind for vc in router.input_vcs[port]]
            assert kinds.count(VC_ESCAPE) == 1
            assert kinds.count(VC_NORMAL) == 3

    def test_escape_append_adds(self):
        router = Router(0, vnets=1, vcs_per_vnet=4)
        router.add_escape_vcs(reserve_existing=False)
        for port in range(5):
            assert len(router.input_vcs[port]) == 5

    def test_escape_reservation_with_multiple_vnets(self):
        router = Router(0, vnets=2, vcs_per_vnet=2)
        router.add_escape_vcs(reserve_existing=True)
        for port in range(5):
            escapes = [vc for vc in router.input_vcs[port] if vc.kind == VC_ESCAPE]
            assert {vc.vnet for vc in escapes} == {0, 1}


class TestFreeVcSelection:
    def test_normal_packet_gets_normal_vc(self):
        router = Router(0, vnets=1, vcs_per_vnet=2)
        pkt = make_packet()
        vc = router.free_vc_for(Port.WEST, pkt, now=0)
        assert vc is not None and vc.kind == VC_NORMAL

    def test_escape_packet_needs_escape_vc(self):
        router = Router(0, vnets=1, vcs_per_vnet=2)
        pkt = make_packet()
        pkt.is_escape = True
        assert router.free_vc_for(Port.WEST, pkt, now=0) is None
        router.add_escape_vcs(reserve_existing=True)
        vc = router.free_vc_for(Port.WEST, pkt, now=0)
        assert vc is not None and vc.kind == VC_ESCAPE

    def test_vnet_isolation(self):
        router = Router(0, vnets=2, vcs_per_vnet=1)
        pkt0 = make_packet(pid=1)
        pkt1 = Packet(2, 0, 3, 1, 5, (Port.EAST, Port.LOCAL), 0)
        vc0 = router.free_vc_for(Port.WEST, pkt0, 0)
        router.place(vc0, pkt0, 0)
        assert router.free_vc_for(Port.WEST, pkt0, 0) is None
        assert router.free_vc_for(Port.WEST, pkt1, 0) is not None

    def test_bubble_used_as_fallback_when_active(self):
        router = Router(0, vnets=1, vcs_per_vnet=1)
        router.add_static_bubble()
        pkt = make_packet(pid=1)
        router.place(router.free_vc_for(Port.WEST, pkt, 0), pkt, 0)
        blocked = make_packet(pid=2)
        assert router.free_vc_for(Port.WEST, blocked, 0) is None
        router.activate_bubble(Port.WEST)
        vc = router.free_vc_for(Port.WEST, blocked, 0)
        assert vc is router.bubble

    def test_bubble_port_specific(self):
        router = Router(0, vnets=1, vcs_per_vnet=1)
        router.add_static_bubble()
        router.activate_bubble(Port.WEST)
        pkt = make_packet()
        router.place(router.free_vc_for(Port.EAST, pkt, 0), pkt, 0)
        assert router.free_vc_for(Port.EAST, make_packet(pid=3), 0) is None

    def test_escape_packet_never_uses_bubble(self):
        router = Router(0, vnets=1, vcs_per_vnet=1)
        router.add_static_bubble()
        router.activate_bubble(Port.WEST)
        pkt = make_packet()
        router.place(router.free_vc_for(Port.WEST, pkt, 0), pkt, 0)
        esc = make_packet(pid=2)
        esc.is_escape = True
        assert router.free_vc_for(Port.WEST, esc, 0) is None

    def test_activate_without_bubble_raises(self):
        router = Router(0, vnets=1, vcs_per_vnet=1)
        with pytest.raises(RuntimeError):
            router.activate_bubble(Port.WEST)


class TestIoRestriction:
    def test_allows_everything_by_default(self):
        router = Router(0, vnets=1, vcs_per_vnet=1)
        assert router.injection_allowed(Port.LOCAL, Port.EAST)

    def test_locked_output(self):
        router = Router(0, vnets=1, vcs_per_vnet=1)
        router.set_io_restriction(Port.SOUTH, Port.WEST, source=5, now=10)
        assert router.injection_allowed(Port.SOUTH, Port.WEST)
        assert not router.injection_allowed(Port.NORTH, Port.WEST)
        assert not router.injection_allowed(Port.LOCAL, Port.WEST)
        # other outputs unaffected
        assert router.injection_allowed(Port.NORTH, Port.EAST)
        assert router.io_set_at == 10

    def test_clear(self):
        router = Router(0, vnets=1, vcs_per_vnet=1)
        router.set_io_restriction(Port.SOUTH, Port.WEST, source=5, now=0)
        router.clear_io_restriction()
        assert router.injection_allowed(Port.NORTH, Port.WEST)
        assert router.source_id is None


class TestBufferDependencyCheck:
    def test_vc_wants_output(self):
        router = Router(0, vnets=1, vcs_per_vnet=2)
        pkt = make_packet(route=(Port.NORTH, Port.LOCAL))
        pkt.hop = 0
        vc = router.input_vcs[Port.SOUTH][0]
        router.place(vc, pkt, 0)
        assert router.vc_wants_output(Port.SOUTH, Port.NORTH, now=0)
        assert not router.vc_wants_output(Port.SOUTH, Port.EAST, now=0)
        assert not router.vc_wants_output(Port.WEST, Port.NORTH, now=0)

    def test_in_flight_packet_does_not_count(self):
        router = Router(0, vnets=1, vcs_per_vnet=1)
        pkt = make_packet(route=(Port.NORTH, Port.LOCAL))
        pkt.hop = 0
        vc = router.input_vcs[Port.SOUTH][0]
        router.place(vc, pkt, 100)
        assert not router.vc_wants_output(Port.SOUTH, Port.NORTH, now=0)
        assert router.vc_wants_output(Port.SOUTH, Port.NORTH, now=100)
