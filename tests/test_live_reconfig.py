"""Live reconfiguration: in-place topology changes on a running network.

Covers the ``Network.apply_faults`` / ``Network.restore`` subsystem
(and the ``FaultSchedule`` machinery driving it):

* equivalence — reconfiguring in place routes the same traffic the same
  way as rebuilding the network from scratch on the faulted topology;
* the acceptance run — an 8x8 static-bubble network survives staged
  mid-run faults with every packet delivered or explicitly counted;
* protocol-state cleanup — seals and recovery FSMs whose chain crossed
  a dead element are cleared, in-flight specials are cancelled (not
  silently lost), gate/un-gate round-trips re-provision the bubble;
* the satellite regressions (switch-allocator pointer fairness, oracle
  re-deadlock counting, REPRO_WORKERS validation).
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro.core.fsm import FsmState
from repro.core.messages import make_probe
from repro.core.placement import placement_node_ids
from repro.core.turns import Port
from repro.obs import Observer
from repro.obs.events import PACKET_DROP, PACKET_REROUTE, RECONFIG_APPLY, SPECIAL_DROP
from repro.protocols import make_scheme
from repro.sim.config import SimConfig
from repro.sim.deadlock import DeadlockMonitor
from repro.sim.engine import run_to_drain, run_with_faults
from repro.sim.network import Network
from repro.sim.packet import Packet
from repro.sim.scenarios import build_fig6_walkthrough, place_packet
from repro.topology.faults import FaultEvent, FaultSchedule, random_fault_schedule
from repro.topology.mesh import mesh
from repro.traffic.synthetic import UniformRandomTraffic
from repro.traffic.trace import TraceTraffic

E, N, W, S, L = Port.EAST, Port.NORTH, Port.WEST, Port.SOUTH, Port.LOCAL

ALL_SCHEMES = ["spanning-tree", "escape-vc", "static-bubble"]


def _events(obs, kind):
    return [e for e in obs.events if e.kind == kind]


def _drive_to_drain(net, max_cycles):
    for _ in range(max_cycles):
        net.step()
        if net.is_drained():
            return True
    return False


# -- equivalence: in-place reconfiguration vs rebuild-from-scratch --------


def _phase_traffic(rng, nodes, count, dead_dst=None, dead_count=0, start=1):
    """A deterministic finite trace among ``nodes`` (plus optional
    packets addressed to a node about to die)."""
    events = []
    cycle = start
    for _ in range(count):
        cycle += rng.randrange(1, 3)
        src, dst = rng.sample(nodes, 2)
        events.append((cycle, src, dst, 0, 1))
    for _ in range(dead_count):
        cycle += 1
        src = rng.choice(nodes)
        events.append((cycle, src, dead_dst, 0, 1))
    return events


@pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
def test_in_place_reconfiguration_matches_rebuild(scheme_name):
    """Same faults, same post-fault traffic: the in-place network and a
    network rebuilt from scratch on the faulted topology must agree on
    delivered and dropped counts."""
    dead_router, dead_link = 14, (2, 3)
    config = SimConfig(width=6, height=6)
    rng = random.Random(99)
    alive = [n for n in range(36) if n != dead_router]
    phase1 = _phase_traffic(rng, list(range(36)), 80)
    phase2 = _phase_traffic(rng, alive, 150, dead_dst=dead_router, dead_count=8)

    # In-place: run healthy, drain, fault mid-object, replay phase 2.
    net_a = Network(
        mesh(6, 6), config, make_scheme(scheme_name),
        TraceTraffic(phase1), seed=7,
    )
    assert run_to_drain(net_a, 4000) is not None
    ejected_phase1 = net_a.stats.packets_ejected
    assert net_a.stats.packets_dropped_unreachable == 0
    net_a.apply_faults(links=(dead_link,), routers=(dead_router,))
    offset = net_a.cycle + 1
    net_a.traffic = TraceTraffic(
        [(c + offset, src, dst, vnet, size) for c, src, dst, vnet, size in phase2]
    )
    assert run_to_drain(net_a, 6000) is not None

    # Rebuild: fresh network on the already-faulted topology, phase 2 only.
    topo_b = mesh(6, 6)
    topo_b.deactivate_node(dead_router)
    topo_b.deactivate_link(*dead_link)
    net_b = Network(
        topo_b, config, make_scheme(scheme_name), TraceTraffic(phase2), seed=7
    )
    assert run_to_drain(net_b, 6000) is not None

    assert net_a.stats.packets_ejected - ejected_phase1 == net_b.stats.packets_ejected
    assert (
        net_a.stats.packets_dropped_unreachable
        == net_b.stats.packets_dropped_unreachable
        == 8
    )
    assert net_b.stats.packets_ejected == 150


# -- the acceptance run: staged mid-run faults on 8x8 static bubble -------


def test_8x8_static_bubble_survives_staged_faults():
    """The ISSUE acceptance criterion: an 8x8 static-bubble run takes
    staged link and router faults mid-flight without a rebuild; every
    packet is delivered or explicitly counted dropped, and the network
    drains."""
    topo = mesh(8, 8)
    config = SimConfig(width=8, height=8, vcs_per_vnet=2)
    traffic = UniformRandomTraffic(topo, rate=0.08, seed=11)
    net = Network(topo, config, make_scheme("static-bubble"), traffic, seed=11)
    schedule = FaultSchedule(
        [
            FaultEvent(150, "fail", links=((3, 4), (9, 17))),
            FaultEvent(300, "fail", routers=(27,)),
            FaultEvent(450, "fail", links=((40, 48),)),
            FaultEvent(550, "restore", routers=(27,)),
        ]
    )
    result = run_with_faults(net, schedule, 12000, stop_traffic_at=800)
    assert result.drained, "network did not drain after staged faults"
    assert result.reconfig_events == 4
    assert result.unaccounted == 0
    assert result.created == result.ejected + result.dropped_reconfig
    assert result.created > 500


# -- protocol-state cleanup when a sealed chain loses a link --------------


def test_sealed_chain_losing_link_resets_fsm_and_clears_seals():
    """Fig. 6 ring mid-recovery (S_SB_ACTIVE, chain sealed): cutting a
    link on the latched path must reset the owning FSM, deactivate its
    bubble, clear the path's seals, and still account for all 12 ring
    packets."""
    net, scheme = build_fig6_walkthrough()
    fsm = scheme.states[5].fsm
    for _ in range(300):
        net.step()
        if fsm.state == FsmState.S_SB_ACTIVE:
            break
    assert fsm.state == FsmState.S_SB_ACTIVE
    assert net.routers[5].bubble_active
    sealed = [r.node for r in net.active_routers() if r.is_deadlock]
    assert sealed, "disable retrace left no seals"

    summary = net.apply_faults(links=((1, 2),))
    assert summary["fsms_reset"] == 1
    assert summary["seals_cleared"] >= 1
    assert fsm.state == FsmState.S_DD  # back to detection, not in recovery
    assert not net.routers[5].bubble_active
    assert not any(r.is_deadlock for r in net.active_routers())

    assert _drive_to_drain(net, 3000)
    assert net.stats.packets_ejected + net.stats.packets_dropped_reconfig == 12


# -- salvage: unreachable in-flight packets are dropped and counted -------


def test_unreachable_in_flight_packet_is_dropped_and_counted():
    topo = mesh(3, 3)
    config = SimConfig(width=3, height=3)
    net = Network(topo, config, make_scheme("spanning-tree"), traffic=None, seed=1)
    obs = Observer(metrics=False)
    net.attach_obs(obs)
    place_packet(net, 4, W, pid=900, src=0, dst=8, route=(E, E, N, L))

    summary = net.apply_faults(routers=(8,))
    assert summary["dropped"] == 1
    assert net.stats.packets_dropped_reconfig == 1
    assert net.routers[4].occupancy == 0
    drops = _events(obs, PACKET_DROP)
    assert len(drops) == 1
    assert drops[0].data == {"reason": "reconfig_unreachable", "dst": 8}
    apply_events = _events(obs, RECONFIG_APPLY)
    assert len(apply_events) == 1
    assert apply_events[0].data["dropped"] == 1


def test_salvageable_in_flight_packet_is_rerouted():
    """A packet whose stamped route crosses a dead link but whose
    destination survives is re-stamped, not dropped."""
    topo = mesh(3, 3)
    config = SimConfig(width=3, height=3)
    net = Network(topo, config, make_scheme("spanning-tree"), traffic=None, seed=1)
    obs = Observer(metrics=False)
    net.attach_obs(obs)
    packet = place_packet(net, 4, W, pid=901, src=0, dst=8, route=(E, E, N, L))

    summary = net.apply_faults(links=((4, 5),))
    assert summary["dropped"] == 0
    assert summary["rerouted"] == 1
    assert net.stats.packets_rerouted == 1
    assert packet.hop == 0
    reroutes = _events(obs, PACKET_REROUTE)
    assert len(reroutes) == 1 and reroutes[0].data == {"pid": 901, "dst": 8}
    assert _drive_to_drain(net, 100)
    assert net.stats.packets_ejected == 1


def test_queued_packet_is_rerouted_not_lost():
    """An NI-queued packet whose route broke survives the re-stamp (it
    must stay in the queue and eventually deliver)."""
    topo = mesh(3, 3)
    config = SimConfig(width=3, height=3)
    net = Network(topo, config, make_scheme("spanning-tree"), traffic=None, seed=1)
    ni = net.nis[0]
    created = ni.create_packet(dst=2, vnet=0, size=1, now=0)
    assert created is not None
    route = created.route
    # Fail the first link of the stamped route while the packet queues.
    first_hop = topo.neighbor(0, route[0])
    net.apply_faults(links=((0, first_hop),))
    assert len(ni.queue) == 1, "rerouted queued packet fell out of the queue"
    assert net.stats.packets_rerouted == 1
    assert _drive_to_drain(net, 100)
    assert net.stats.packets_ejected == 1


# -- in-flight specials: cancelled visibly, never silently ----------------


def test_specials_crossing_dead_elements_are_cancelled():
    topo = mesh(2, 2)
    config = SimConfig(width=2, height=2)
    net = Network(topo, config, make_scheme("spanning-tree"), traffic=None, seed=1)
    obs = Observer(metrics=False)
    net.attach_obs(obs)
    arrival = net.cycle + 2
    net._special_arrivals[arrival] = [
        (3, W, make_probe(2, E)),   # addressed to a router about to die
        (0, E, make_probe(3, W)),   # crossing link (0,1), about to die
        (1, W, make_probe(2, E)),   # same link, other direction
        (2, S, make_probe(0, N)),   # untouched: must be kept
    ]
    summary = net.apply_faults(links=((0, 1),), routers=(3,))
    assert summary["specials_cancelled"] == 3
    assert net.stats.specials_dropped == 3
    reasons = sorted(e.data["reason"] for e in _events(obs, SPECIAL_DROP))
    assert reasons == ["dead_link", "dead_link", "dead_router"]
    assert [entry[0] for entry in net._special_arrivals[arrival]] == [2]


def test_special_delivery_to_dead_router_is_counted():
    """The delivery-time guard (router died between purge and arrival —
    or died without a purge at all) drops visibly, not silently."""
    topo = mesh(2, 2)
    config = SimConfig(width=2, height=2)
    net = Network(topo, config, make_scheme("spanning-tree"), traffic=None, seed=1)
    obs = Observer(metrics=False)
    net.attach_obs(obs)
    del net.routers[3]  # simulate death without the purge pass
    net._special_arrivals[5] = [(3, W, make_probe(2, E))]
    net._deliver_specials(5)
    assert net.stats.specials_dropped == 1
    drops = _events(obs, SPECIAL_DROP)
    assert len(drops) == 1
    assert drops[0].data["reason"] == "dead_router"
    assert drops[0].data["sender"] == 2


# -- gate / un-gate round trip --------------------------------------------


def test_gate_ungate_round_trip_restores_full_service():
    topo = mesh(6, 6)
    config = SimConfig(width=6, height=6)
    net = Network(topo, config, make_scheme("static-bubble"), traffic=None, seed=3)
    sb_nodes = placement_node_ids(6, 6)
    gated = sorted(sb_nodes)[0]  # gate a static-bubble router
    assert gated in net.scheme.states

    net.apply_faults(routers=(gated,))
    assert gated not in net.routers
    assert gated not in net.nis
    assert gated not in net.scheme.states
    assert net.nis[0].table.pick_route(gated, random.Random(0)) is None

    net.restore(routers=(gated,))
    assert gated in net.routers and gated in net.nis
    # Determinism contract: router/NI iteration order stays ascending.
    assert list(net.routers) == sorted(net.routers)
    assert list(net.nis) == sorted(net.nis)
    # The scheme re-provisions its augmentation on the restored node.
    assert gated in net.scheme.states
    assert net.routers[gated].bubble is not None

    # Traffic addressed to the restored node flows again.
    assert net.nis[0].create_packet(dst=gated, vnet=0, size=1, now=net.cycle)
    assert _drive_to_drain(net, 200)
    assert net.stats.packets_ejected == 1


def _gate_and_restore(node):
    """A healthy 8x8 static-bubble network, with and without a
    fail -> restore round trip of ``node`` before any traffic."""
    nets = []
    for round_trip in (True, False):
        net = Network(
            mesh(8, 8), SimConfig(sb_t_dd=6), make_scheme("static-bubble"),
            traffic=None, seed=5,
        )
        if round_trip:
            net.apply_faults(routers=(node,))
            net.restore(routers=(node,))
        nets.append(net)
    return nets


def test_restored_fsm_keeps_ascending_visit_order():
    restored, rebuilt = _gate_and_restore(15)
    assert list(restored.scheme.states) == sorted(restored.scheme.states)
    assert list(restored.scheme.states) == list(rebuilt.scheme.states)


def test_restored_run_matches_rebuild_when_fsms_time_out_together():
    """Routers 15 and 41 share a detection threshold ((node * 7) % 13 == 1),
    so with a stuck packet each from cycle 0 their FSMs launch probes in
    the same cycle — in FSM visit order, which must not remember that 15
    was once gated."""
    streams = []
    for net in _gate_and_restore(15):
        observer = Observer(trace=True, metrics=False)
        net.attach_obs(observer)
        for node in (15, 41):
            router = net.routers[node]
            packet = Packet(900 + node, node, node - 1, 0, 1, (W, W, L), 0)
            packet.hop = 1
            # Resident but never switchable: the FSM watches it time out.
            router.place(router.input_vcs[E][0], packet, 10_000)
        net.run(40)
        fsms = [net.scheme.states[node].fsm for node in (15, 41)]
        assert [fsm.probes_sent for fsm in fsms] == [fsms[0].probes_sent] * 2
        assert fsms[0].probes_sent >= 2
        streams.append([e.to_dict() for e in observer.tracer.events])
    assert streams[0] == streams[1]
    sends = [e for e in streams[0] if e["kind"] == "special.send"]
    assert [e["node"] for e in sends[:2]] == [15, 41]


# -- FaultSchedule / random_fault_schedule --------------------------------


class TestFaultSchedule:
    def test_bad_action_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(10, "explode", links=((0, 1),))

    def test_orders_by_cycle_stable_on_ties(self):
        fail = FaultEvent(50, "fail", links=((0, 1),))
        restore = FaultEvent(50, "restore", links=((0, 1),))
        late = FaultEvent(80, "fail", routers=(3,))
        early = FaultEvent(10, "fail", routers=(2,))
        schedule = FaultSchedule([fail, restore, late, early])
        assert list(schedule) == [early, fail, restore, late]
        assert len(schedule) == 4
        assert schedule.last_cycle == 80

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_random_schedule_is_always_applicable(self, seed):
        """Replaying a random schedule element by element never fails or
        restores anything in the wrong state, and never sinks the mesh
        below the active-router floor."""
        topo = mesh(6, 6)
        schedule = random_fault_schedule(topo, 15, random.Random(seed))
        assert len(schedule) <= 15
        assert len(topo.active_nodes()) == 36  # input topology untouched
        replay = topo.copy()
        prev_cycle = 0
        for event in schedule:
            assert event.cycle > prev_cycle
            prev_cycle = event.cycle
            failing = event.action == "fail"
            for u, v in event.links:
                if failing:
                    assert replay.link_is_active(u, v)
                    replay.deactivate_link(u, v)
                else:
                    replay.activate_link(u, v)
            for node in event.routers:
                if failing:
                    assert replay.node_is_active(node)
                    replay.deactivate_node(node)
                else:
                    assert not replay.node_is_active(node)
                    replay.activate_node(node)
            assert len(replay.active_nodes()) >= 18


# -- satellite regressions ------------------------------------------------


def test_losing_input_port_keeps_its_round_robin_slot():
    """Switch allocation: when two input ports contend for one output,
    only the granted port's round-robin pointer advances — the loser's
    candidate VC must stay first in line or it can starve."""
    topo = mesh(2, 2)
    config = SimConfig(width=2, height=2)
    net = Network(topo, config, make_scheme("spanning-tree"), traffic=None, seed=1)
    router = net.routers[0]
    place_packet(net, 0, W, pid=1, src=0, dst=1, route=(E, E, L))
    place_packet(net, 0, S, pid=2, src=0, dst=1, route=(E, E, L))

    net._allocate_router(router, now=0)

    # Output rr starts at input 0, so port W (2) beats port S (3).
    assert router.input_vcs[W][0].packet is None      # granted and moved
    assert router.input_vcs[S][0].packet is not None  # lost, still parked
    assert router._in_rr[W] == 1   # winner's pointer advanced past its VC
    assert router._in_rr[S] == 0   # loser's pointer did NOT advance


def test_monitor_counts_re_deadlock_after_clear(monkeypatch):
    """Oracle regression: deadlock -> recovery (clear build) -> the same
    pids re-deadlock.  The second cycle is a *new* deadlock and must be
    counted; a monitor that never prunes ``deadlocked_pids`` reports 1."""
    cycle_graph = {1: [2], 2: [1]}
    scripted = iter([cycle_graph, {}, cycle_graph])
    monkeypatch.setattr(
        "repro.sim.deadlock.build_wait_graph", lambda net, now: next(scripted)
    )
    network = SimpleNamespace(
        stats=SimpleNamespace(crossbar_flits=0, deadlocks_observed=0), obs=None
    )
    monitor = DeadlockMonitor(interval=1, max_skips=0)
    assert monitor.check(network, 1) is True
    assert network.stats.deadlocks_observed == 1
    assert monitor.check(network, 2) is False
    assert not monitor.deadlocked_pids
    assert monitor.check(network, 3) is True
    assert network.stats.deadlocks_observed == 2


def test_invalid_repro_workers_warns_once(monkeypatch, capsys):
    import repro.parallel.pool as pool

    monkeypatch.setenv("REPRO_WORKERS", "lots")
    monkeypatch.setattr(pool, "_warned_invalid_workers", False)
    assert pool.default_workers() >= 1
    assert pool.default_workers() >= 1  # second call must stay quiet
    err = capsys.readouterr().err
    assert err.count("ignoring invalid REPRO_WORKERS='lots'") == 1
