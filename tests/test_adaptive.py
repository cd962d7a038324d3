"""Tests for the adaptive congestion-aware minimal schemes.

Covers the selection machinery (table-derived candidate sets, the
downstream-credit score, the per-input-port round-robin tie-break), the
deadlock-freedom certificates both variants inherit from their recovery
substrate, packet conservation under chaotic mid-run faults, and the
two reconfiguration-state regressions fixed alongside the feature:
round-robin pointer reset on reconfiguration, and VC-cache freshness
after post-warmup escape/bubble provisioning.
"""

from __future__ import annotations

import random

import pytest

from repro.core.turns import Port
from repro.experiments import chaos
from repro.experiments.common import saturation_throughput
from repro.protocols import SCHEMES, make_scheme
from repro.protocols.adaptive import AdaptiveEscapeScheme, AdaptiveMinimalScheme
from repro.service.spec import SimSpec
from repro.sim.config import SimConfig
from repro.sim.deadlock import DeadlockMonitor, find_wait_cycle
from repro.sim.network import Network
from repro.sim.packet import Packet
from repro.sim.router import VC_ESCAPE, VC_NORMAL, Router
from repro.sim.scenarios import place_packet
from repro.topology.faults import inject_link_faults
from repro.topology.mesh import mesh
from repro.traffic.synthetic import UniformRandomTraffic

E, N, W, S, L = int(Port.EAST), int(Port.NORTH), int(Port.WEST), int(Port.SOUTH), int(Port.LOCAL)


def _adaptive_net(width=2, height=2, scheme="adaptive", traffic=None, seed=1):
    topo = mesh(width, height)
    config = SimConfig(width=width, height=height)
    return Network(topo, config, make_scheme(scheme), traffic, seed=seed)


def _fill_normal_vcs(router: Router, port: int, count: int, vnet: int = 0) -> int:
    """Occupy ``count`` free (normal, vnet) VCs at ``port``; returns #filled."""
    filled = 0
    for vc in router.input_vcs[port]:
        if filled == count:
            break
        if vc.kind == VC_NORMAL and vc.vnet == vnet and vc.packet is None:
            router.place(
                vc, Packet(9000 + filled, router.node, router.node, vnet, 1, (L,), 0), 0
            )
            filled += 1
    return filled


class TestRegistryAndSpec:
    def test_schemes_registered(self):
        assert "adaptive" in SCHEMES
        assert "adaptive-escape" in SCHEMES
        assert isinstance(make_scheme("adaptive"), AdaptiveMinimalScheme)
        assert isinstance(make_scheme("adaptive-escape"), AdaptiveEscapeScheme)

    def test_adaptive_accepts_sb_tuning(self):
        # The FSM thresholds follow the config's t_DD (plus the per-node
        # stagger); there is no second knob on the scheme.
        topo = mesh(4, 4)
        t_dds = {}
        for t_dd in (20, 34):
            config = SimConfig(width=4, height=4, sb_t_dd=t_dd)
            net = Network(topo, config, make_scheme("adaptive"), None, seed=1)
            t_dds[t_dd] = {
                node: state.fsm.t_dd for node, state in net.scheme.states.items()
            }
        assert t_dds[20]
        assert {n: t - 20 for n, t in t_dds[20].items()} == {
            n: t - 34 for n, t in t_dds[34].items()
        }
        assert all(0 <= t - 20 < 13 for t in t_dds[20].values())

    def test_simspec_accepts_adaptive(self):
        SimSpec(scheme="adaptive").validate()
        SimSpec(scheme="adaptive-escape").validate()


class TestCandidateSets:
    def test_candidates_are_minimal_first_hops(self):
        # 2x2 has exactly two minimal paths 0 -> 3 (E-then-N, N-then-E),
        # both within the max_minimal_routes budget, so the candidate set
        # is exactly {E, N} (north is +y: node 2 sits north of node 0).
        net = _adaptive_net(2, 2)
        lookup = net.routers[0]._adaptive_lookup
        assert lookup is not None
        assert lookup(0, 3) == (E, N)
        assert lookup(0, 1) == (E,)
        assert lookup(0, 2) == (N,)

    def test_destination_router_yields_local(self):
        net = _adaptive_net(2, 2)
        assert net.routers[3]._adaptive_lookup(3, 3) == (L,)

    def test_lookup_installed_on_every_active_router(self):
        net = _adaptive_net(4, 4, scheme="adaptive-escape")
        for router in net.active_routers():
            assert router._adaptive_lookup is not None

    def test_candidates_shrink_with_faults(self):
        topo = mesh(2, 2)
        topo.deactivate_link(0, 1)
        config = SimConfig(width=2, height=2)
        net = Network(topo, config, make_scheme("adaptive"), None, seed=1)
        # With the east link dead, only the northern detour remains.
        assert net.routers[0]._adaptive_lookup(0, 3) == (N,)


class TestCreditSteering:
    def test_steers_toward_freer_downstream_port(self):
        net = _adaptive_net(2, 2)
        router = net.routers[0]
        packet = place_packet(net, 0, W, pid=1, src=0, dst=3, route=(E, N, L))
        # Congest the east neighbour: 3 of its 4 (normal, vnet 0) VCs at
        # the facing input port are busy, so credits(E)=1 < credits(N)=4.
        assert _fill_normal_vcs(net.routers[1], W, 3) == 3

        net._allocate_router(router, now=0)

        assert router.input_vcs[W][0].packet is None  # granted and moved
        north = net.routers[2]
        assert any(vc.packet is packet for vc in north.input_vcs[S])
        assert packet.adapt_out == -1  # preference cleared on transfer

    def test_order_breaks_ties_round_robin(self):
        net = _adaptive_net(2, 2)
        router = net.routers[0]
        packet = Packet(1, 0, 3, 0, 1, (E, N, L), 0)
        # Equal credits: ascending distance from the rr pointer decides.
        assert router.adaptive_order(W, packet, net.routers, 0) == [E, N]
        router._adapt_rr[W] = 1
        assert router.adaptive_order(W, packet, net.routers, 0) == [N, E]

    def test_credits_dominate_round_robin(self):
        net = _adaptive_net(2, 2)
        router = net.routers[0]
        packet = Packet(1, 0, 3, 0, 1, (E, N, L), 0)
        _fill_normal_vcs(net.routers[1], W, 1)
        # rr points at E, but N now has strictly more credits.
        assert router._adapt_rr[W] == 0
        assert router.adaptive_order(W, packet, net.routers, 0) == [N, E]

    def test_rr_pointer_advances_only_on_grant(self):
        net = _adaptive_net(2, 2)
        router = net.routers[0]
        place_packet(net, 0, W, pid=1, src=0, dst=3, route=(E, N, L))
        net._allocate_router(router, now=0)
        # Tie broke toward E (rr=0); pointer moved one past the grant.
        assert router._adapt_rr[W] == (E + 1) % 5

    def test_escape_packets_ignore_adaptive_selection(self):
        net = _adaptive_net(2, 2, scheme="adaptive-escape")
        router = net.routers[0]
        packet = place_packet(net, 0, W, pid=1, src=0, dst=3, route=(E, N, L))
        packet.is_escape = True
        packet.hop = 0
        before = list(router._adapt_rr)
        net._allocate_router(router, now=0)
        # Escape packets ride the deterministic escape route and must not
        # disturb the adaptive round-robin state.
        assert router._adapt_rr == before


class TestCertificates:
    @pytest.mark.parametrize(
        "name, kind",
        [("adaptive", "cycle-cover"), ("adaptive-escape", "acyclic")],
    )
    def test_verify_healthy(self, name, kind):
        config = SimConfig(width=8, height=8)
        cert = make_scheme(name).verify(mesh(8, 8), config)
        assert cert.ok
        assert cert.kind == kind
        assert cert.scheme == name

    @pytest.mark.parametrize("name", ["adaptive", "adaptive-escape"])
    def test_verify_faulted(self, name):
        topo = inject_link_faults(mesh(8, 8), 6, random.Random(7))
        cert = make_scheme(name).verify(topo, SimConfig(width=8, height=8))
        assert cert.ok
        assert cert.faulty_links == 6


class TestChaosConservation:
    def test_adaptive_chaos_campaigns_conserve_packets(self):
        """Staged random faults mid-run: every packet accounted for, all
        campaigns drain, and every post-reconfig certificate holds."""
        params = chaos.ChaosParams(
            schemes=["adaptive", "adaptive-escape"],
            campaigns=2,
            events=4,
            traffic_cycles=600,
            max_cycles=6000,
            workers=2,
            verify_reconfig=True,
        )
        result = chaos.run(params)
        assert result.ok
        for campaign in result.campaigns:
            assert campaign.drained
            assert campaign.unaccounted == 0
            assert campaign.cert_failures == 0

    def test_staged_faults_drain_with_no_residual_deadlock(self):
        """High load + pre-existing faults + a staged mid-run fault burst:
        after traffic stops the network drains completely and the wait
        graph holds no cycle (zero unresolved deadlocks)."""
        topo = inject_link_faults(mesh(8, 8), 8, random.Random(3))
        traffic = UniformRandomTraffic(topo, rate=0.30, seed=5)
        net = Network(
            topo, SimConfig(), make_scheme("adaptive"), traffic, seed=5
        )
        monitor = DeadlockMonitor(interval=32)
        for _ in range(400):
            net.step()
            monitor.check(net, net.cycle)
        net.apply_faults(routers=[27], links=[(9, 10)])
        for _ in range(400):
            net.step()
            monitor.check(net, net.cycle)
        net.traffic = None
        for _ in range(6000):
            if net.is_drained():
                break
            net.step()
        assert net.is_drained()
        assert find_wait_cycle(net, net.cycle) is None
        stats = net.stats
        assert stats.packets_injected == (
            stats.packets_ejected + stats.packets_dropped_reconfig
        )


class TestRoundRobinReset:
    """Satellite regression: arbitration pointers survive reconfiguration.

    ``apply_faults``/``restore`` rebuild links and tables; a stale
    round-robin pointer from before the rebuild biases (or, for the
    adaptive pointer, mis-rotates) post-reconfig arbitration in a way
    that depends on pre-fault history — reconfiguration must reset them.
    """

    @staticmethod
    def _scramble(net):
        for router in net.active_routers():
            router._in_rr = [3] * 5
            router._out_rr = [2] * 5
            router._adapt_rr = [4] * 5

    @staticmethod
    def _assert_reset(net):
        for router in net.active_routers():
            assert router._in_rr == [0] * 5
            assert router._out_rr == [0] * 5
            assert router._adapt_rr == [0] * 5

    def test_apply_faults_resets_pointers(self):
        net = _adaptive_net(4, 4, scheme="adaptive")
        self._scramble(net)
        net.apply_faults(links=[(0, 1)])
        self._assert_reset(net)

    def test_restore_resets_pointers(self):
        net = _adaptive_net(4, 4, scheme="static-bubble")
        net.apply_faults(links=[(0, 1)])
        self._scramble(net)
        net.restore(links=[(0, 1)])
        self._assert_reset(net)


class TestVcStructureFreshness:
    """Satellite regression: caches follow post-warmup VC provisioning.

    ``add_escape_vcs``/``add_static_bubble`` change VC class membership;
    the per-class index and per-port tuples must be rebuilt, or a warm
    ``free_vc_for`` keeps handing normal packets a VC that was converted
    to an escape VC (and never sees a late-attached bubble)."""

    def test_free_vc_scan_fresh_after_escape_conversion(self):
        router = Router(0, vnets=1, vcs_per_vnet=4)
        normal = Packet(1, 0, 1, 0, 1, (E, L), 0)
        _fill_normal_vcs(router, E, 3)
        # Warm the class index: the last normal VC is the only free one.
        warm = router.free_vc_for(E, normal, now=0)
        assert warm is router.input_vcs[E][3]

        router.add_escape_vcs(reserve_existing=True)

        # That VC is now the reserved escape VC: invisible to normal
        # packets, reserved for escape packets.
        assert router.input_vcs[E][3].kind == VC_ESCAPE
        assert router.free_vc_for(E, normal, now=0) is None
        escape = Packet(2, 0, 1, 0, 1, (E, L), 0)
        escape.is_escape = True
        assert router.free_vc_for(E, escape, now=0) is router.input_vcs[E][3]

    def test_cached_port_vcs_fresh_after_bubble_attach(self):
        router = Router(0, vnets=1, vcs_per_vnet=2)
        warm = router.cached_port_vcs(S)
        assert router.bubble not in warm
        router.add_static_bubble()
        router.activate_bubble(S)
        assert router.bubble in router.cached_port_vcs(S)


class TestSaturationGain:
    def test_adaptive_raises_saturation_throughput_on_a_faulted_mesh(self):
        """8x8, two link faults: both schemes run the same recovery
        protocol, so the ratio isolates the routing function — path
        diversity plus the credit signal (seeded; ~1.34x here)."""
        topo = inject_link_faults(mesh(8, 8), 2, random.Random(1))
        saturation = {
            name: saturation_throughput(
                topo, name, SimConfig(), [0.14, 0.22, 0.30],
                warmup=200, measure=500, seed=11,
            )
            for name in ("static-bubble", "adaptive")
        }
        assert saturation["static-bubble"] > 0
        gain = saturation["adaptive"] / saturation["static-bubble"]
        assert gain >= 1.15
