"""Event-driven switch allocation: a blocked router sleeps until a grant
became possible.

``Router.wake_at`` (and the NI's) is a lower bound on the next cycle at
which anything there could be granted; the default sweep skips a router
until then and ``full_scan=True`` sweeps everything, so the two must
agree cycle for cycle, and :func:`repro.sim.debug.overslept` must find no
sleeper that could have moved.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import random
from pathlib import Path

import pytest

import repro.obs
from repro.core.turns import Port
from repro.protocols import make_scheme
from repro.sim.config import SimConfig
from repro.sim.debug import (
    _qualified_names,
    cost_profile,
    overslept,
    resident_index_errors,
)
from repro.sim.network import Network
from repro.sim.packet import Packet
from repro.sim.router import NEVER
from repro.topology.faults import inject_link_faults
from repro.topology.generators import parse_topology
from repro.topology.mesh import mesh
from repro.traffic.synthetic import UniformRandomTraffic
from repro.verify import model


def _saturated(scheme, topology="8x8", faults=8, rate=0.30, seed=1):
    topo = inject_link_faults(parse_topology(topology), faults, random.Random(seed))
    traffic = UniformRandomTraffic(topo, rate=rate, seed=seed)
    return Network(topo, SimConfig(), make_scheme(scheme), traffic, seed=seed)


def _lockstep(nets, cycles):
    """Step (default, oracle) together: stats equal, nobody overslept, the
    resident index exact."""
    default, oracle = nets
    for _ in range(cycles):
        assert overslept(default) == [], default.cycle
        assert resident_index_errors(default) == [], default.cycle
        default.step()
        oracle.step()
        assert dataclasses.asdict(default.stats) == dataclasses.asdict(
            oracle.stats
        ), default.cycle


# -- (a) per-cycle differential against the sweep that skips nothing ---------


@pytest.mark.parametrize(
    "scheme", ["static-bubble", "escape-vc", "spanning-tree", "adaptive"]
)
@pytest.mark.parametrize(
    "topology,faults,rate", [("8x8", 8, 0.30), ("torus3d:4x4x4", 4, 0.90)]
)
def test_sleeping_sweep_matches_full_scan_through_reconfiguration(
    topology, faults, rate, scheme
):
    nets = [_saturated(scheme, topology, faults, rate) for _ in range(2)]
    nets[1].full_scan = True
    link = tuple(sorted(sorted(map(sorted, nets[0].topo.active_links()))[5]))
    _lockstep(nets, 500)
    for net in nets:
        net.apply_faults(routers=[27], links=[link])
    _lockstep(nets, 500)
    for net in nets:
        net.restore(routers=[27], links=[link])
    _lockstep(nets, 600)
    default, oracle = nets
    assert default.stats.packets_ejected > 1000
    assert default.stats.packets_dropped_reconfig > 0
    assert default.sweeps < oracle.sweeps


def test_saturated_sweeps_are_at_most_055_of_full_scan():
    """The harness's seed-1 ``sim-sat`` spec (``inputs.sim_specs``)."""
    seed = random.Random("harness:1:sim-sat").randrange(1, 2**31)
    nets = [_saturated("static-bubble", seed=seed) for _ in range(2)]
    nets[1].full_scan = True
    for net in nets:
        net.run(1000)
    assert nets[0].stats == nets[1].stats
    assert nets[0].sweeps <= 0.55 * nets[1].sweeps


#: ``(scheme, topology, link faults, rate, seed workload)``, the
#: :func:`~repro.sim.debug.cost_profile` counts and ``stats.summary()`` of
#: each pinned run, after 1,000 cycles.  ``sim-sat`` and ``sim-lowload``
#: are the harness's seed-1 specs (``inputs.sim_specs``); their sweeps,
#: transfers and summaries were recorded on the tree that still had the
#: struct-of-arrays engine (its reference sweep).  The other schemes run
#: the ``sim-sat`` spec; the torus one is the lockstep suite's, where
#: escape and normal packets share outputs.  Their sweeps, transfers and
#: summaries were recorded before the allocator asked each downstream
#: class once per sweep, which moved only the ``Router.*`` counts.  Call
#: counts do not depend on the interpreter or the host.  A deliberate
#: model or sweep change re-records them in the same PR.
PINNED = {
    "sim-sat": (("static-bubble", "8x8", 8, 0.30, "sim-sat"), {
        "Network.sweeps": 23096, "Network._transfer": 13723,
        "Router.free_vc_for": 36213, "Router.claimable_from": 17138,
    }, {
        "cycles": 1000,
        "packets_injected": 2794,
        "packets_ejected": 2154,
        "packets_dropped_unreachable": 0,
        "packets_dropped_reconfig": 0,
        "packets_rerouted": 0,
        "specials_dropped": 0,
        "avg_latency": 110.36768802228413,
        "buffer_writes": 43511,
        "buffer_reads": 41571,
        "crossbar_flits": 41571,
        "link_flit_cycles": 35101,
        "link_special_cycles": {"probe": 1986, "disable": 54, "enable": 60, "check_probe": 34},
        "probes_sent": 290,
        "bubble_activations": 7,
        "recoveries_completed": 7,
        "recoveries_aborted": 0,
        "deadlocks_observed": 0,
    }),
    "sim-lowload": (("static-bubble", "8x8", 8, 0.02, "sim-lowload"), {
        "Network.sweeps": 2794, "Network._transfer": 2712,
        "Router.free_vc_for": 2727, "Router.claimable_from": 0,
    }, {
        "cycles": 1000,
        "packets_injected": 416,
        "packets_ejected": 412,
        "packets_dropped_unreachable": 0,
        "packets_dropped_reconfig": 0,
        "packets_rerouted": 0,
        "specials_dropped": 0,
        "avg_latency": 15.339805825242719,
        "buffer_writes": 7776,
        "buffer_reads": 7764,
        "crossbar_flits": 7764,
        "link_flit_cycles": 6560,
        "link_special_cycles": {"probe": 0, "disable": 0, "enable": 0, "check_probe": 0},
        "probes_sent": 0,
        "bubble_activations": 0,
        "recoveries_completed": 0,
        "recoveries_aborted": 0,
        "deadlocks_observed": 0,
    }),
    "sim-sat-escape-vc": (("escape-vc", "8x8", 8, 0.30, "sim-sat"), {
        "Network.sweeps": 24804, "Network._transfer": 14138,
        "Router.free_vc_for": 50481, "Router.claimable_from": 31348,
    }, {
        "cycles": 1000,
        "packets_injected": 2738,
        "packets_ejected": 2188,
        "packets_dropped_unreachable": 0,
        "packets_dropped_reconfig": 0,
        "packets_rerouted": 0,
        "specials_dropped": 0,
        "avg_latency": 93.19378427787935,
        "buffer_writes": 44616,
        "buffer_reads": 42946,
        "crossbar_flits": 42946,
        "link_flit_cycles": 36354,
        "link_special_cycles": {"probe": 0, "disable": 0, "enable": 0, "check_probe": 0},
        "probes_sent": 0,
        "bubble_activations": 0,
        "recoveries_completed": 0,
        "recoveries_aborted": 0,
        "deadlocks_observed": 0,
    }),
    "sim-sat-spanning-tree": (("spanning-tree", "8x8", 8, 0.30, "sim-sat"), {
        "Network.sweeps": 21820, "Network._transfer": 12482,
        "Router.free_vc_for": 31975, "Router.claimable_from": 14055,
    }, {
        "cycles": 1000,
        "packets_injected": 2558,
        "packets_ejected": 2065,
        "packets_dropped_unreachable": 0,
        "packets_dropped_reconfig": 0,
        "packets_rerouted": 0,
        "specials_dropped": 0,
        "avg_latency": 120.26150121065375,
        "buffer_writes": 39811,
        "buffer_reads": 38374,
        "crossbar_flits": 38374,
        "link_flit_cycles": 32129,
        "link_special_cycles": {"probe": 0, "disable": 0, "enable": 0, "check_probe": 0},
        "probes_sent": 0,
        "bubble_activations": 0,
        "recoveries_completed": 0,
        "recoveries_aborted": 0,
        "deadlocks_observed": 0,
    }),
    "torus3d-escape-vc": (("escape-vc", "torus3d:4x4x4", 4, 0.90, "sim-sat"), {
        "Network.sweeps": 60381, "Network._transfer": 65483,
        "Router.free_vc_for": 128853, "Router.claimable_from": 41544,
    }, {
        "cycles": 1000,
        "packets_injected": 16475,
        "packets_ejected": 15916,
        "packets_dropped_unreachable": 0,
        "packets_dropped_reconfig": 0,
        "packets_rerouted": 0,
        "specials_dropped": 0,
        "avg_latency": 32.97901482784619,
        "buffer_writes": 200570,
        "buffer_reads": 198935,
        "crossbar_flits": 198935,
        "link_flit_cycles": 150623,
        "link_special_cycles": {"probe": 0, "disable": 0, "enable": 0, "check_probe": 0},
        "probes_sent": 0,
        "bubble_activations": 0,
        "recoveries_completed": 0,
        "recoveries_aborted": 0,
        "deadlocks_observed": 0,
    }),
}


#: Calls into ``repro.obs`` per 1,000 cycles of the seed-1 ``sim-sat`` and
#: ``sim-lowload`` runs with a metrics-only observer attached: one latency
#: sample per ejection, one ``end_cycle`` per cycle and a sample every 64
#: cycles.  No emission site is wired to an observer that does not trace,
#: so not one event is emitted.  Without an observer every pinned run
#: enters no ``repro.obs`` frame at all.
OBSERVED = {
    "sim-sat": {
        "Observer.emit": 0, "Observer.end_cycle": 1000,
        "Observer.packet_ejected": 2154, "Observer._sample": 15,
        "MetricsRegistry.histogram": 2229, "Histogram.__init__": 6,
        "Histogram.add": 2229, "MetricsRegistry.counter": 315,
        "Counter.__init__": 4, "Counter.inc": 315,
        "MetricsRegistry.gauge": 15, "Gauge.__init__": 1, "Gauge.set": 15,
    },
    "sim-lowload": {
        "Observer.emit": 0, "Observer.end_cycle": 1000,
        "Observer.packet_ejected": 412, "Observer._sample": 15,
        "MetricsRegistry.histogram": 487, "Histogram.__init__": 6,
        "Histogram.add": 487, "MetricsRegistry.counter": 315,
        "Counter.__init__": 2, "Counter.inc": 315,
        "MetricsRegistry.gauge": 15, "Gauge.__init__": 1, "Gauge.set": 15,
    },
}

#: What observing the same 1,000 cycles records: the sha256 of the metrics
#: registry (``to_dict``, canonical JSON) — the same whether the observer
#: traces or not — and the event count and sha256 of a tracing observer's
#: ``write_jsonl`` export.
RECORDED = {
    "sim-sat": (
        "c0dd5f57a4871e9da7467bc665c5f20c1a46116eddae64f4124cce7a6a82f34e",
        22352,
        "ebc510bd192dd5397fcafe2bba811fd5a076e10e1926af2103d7d4330be10619",
    ),
    "sim-lowload": (
        "116e085a3fdc6a36edc118476cf27b95cb67392f0c8b71e38d04278f7b54b24d",
        4569,
        "9edcb83d89fc54bb70229da6838a95101e2941032a8c17555c8c05094c78f740",
    ),
}


def _pinned_run(workload, observer=None):
    """``cost_profile`` of 1,000 cycles of the ``PINNED`` run, whose
    ``stats.summary()`` an observer must not change."""
    (scheme, topology, faults, rate, label), _, summary = PINNED[workload]
    seed = random.Random(f"harness:1:{label}").randrange(1, 2**31)
    net = _saturated(scheme, topology, faults, rate, seed)
    if observer is not None:
        net.attach_obs(observer)
    profile = cost_profile(net, 1000)
    assert net.stats.summary() == summary
    return profile


def _obs_calls(profile):
    """The ``repro.obs`` entries of ``profile``, per 1,000 cycles."""
    package = Path(repro.obs.__file__).parent
    names = {
        name for code, name in _qualified_names().items()
        if Path(code.co_filename).parent == package
    }
    return {name: round(profile[name] * 1000) for name in profile if name in names}


@pytest.mark.parametrize("workload", list(PINNED))
def test_sweeps_transfers_and_summary_are_pinned(workload):
    """Bit-identical, and not one sweep more: counts repeat exactly.
    Nothing observes an unobserved network, not even a no-op call."""
    profile = _pinned_run(workload)
    counts = PINNED[workload][1]
    assert {name: round(profile.get(name, 0) * 1000) for name in counts} == counts
    assert _obs_calls(profile) == {}


def _sha256_of(registry):
    blob = json.dumps(registry.to_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("workload", list(OBSERVED))
def test_a_metrics_only_observer_costs_pinned_calls(workload):
    """Observing changes no statistic, records the pinned metrics, and
    costs exactly its calls."""
    observer = repro.obs.Observer(trace=False)
    calls = _obs_calls(_pinned_run(workload, observer))
    expected = OBSERVED[workload]
    assert {name: calls.get(name, 0) for name in expected} == expected
    assert set(calls) <= set(expected)
    assert _sha256_of(observer.metrics) == RECORDED[workload][0]


@pytest.mark.parametrize("workload", list(RECORDED))
def test_a_tracing_observer_exports_the_pinned_events(workload, tmp_path):
    (scheme, topology, faults, rate, label), _, summary = PINNED[workload]
    seed = random.Random(f"harness:1:{label}").randrange(1, 2**31)
    net = _saturated(scheme, topology, faults, rate, seed)
    observer = repro.obs.Observer()
    net.attach_obs(observer)
    net.run(1000)
    assert net.stats.summary() == summary
    path = tmp_path / "events.jsonl"
    count = repro.obs.write_jsonl(observer.events, str(path))
    metrics, events, digest = RECORDED[workload]
    assert (count, hashlib.sha256(path.read_bytes()).hexdigest()) == (events, digest)
    assert _sha256_of(observer.metrics) == metrics


# -- (c) one test per wake event ----------------------------------------------


def _idle_pair(scheme="minimal-unprotected", **config):
    """(default, ``full_scan`` oracle): idle 4x4 meshes, no traffic source."""
    nets = [
        Network(mesh(4, 4), SimConfig(width=4, height=4, **config),
                make_scheme(scheme), None, seed=1)
        for _ in range(2)
    ]
    nets[1].full_scan = True
    return nets


def _mover(net, node=5, pid=1):
    """A one-flit packet at ``node``'s West port, bound one hop East."""
    router = net.routers[node]
    vc = router.input_vcs[Port.WEST][0]
    packet = Packet(pid, node - 1, node + 1, 0, 1, (Port.EAST, Port.EAST, Port.LOCAL), 0)
    packet.injected_at = 0
    packet.hop = 1
    router.place(vc, packet, 0)
    return vc


def _park(net, node=6, count=4):
    """Fill ``count`` West-port VCs of ``node`` with packets that never move."""
    router = net.routers[node]
    for i, vc in enumerate(router.input_vcs[Port.WEST][:count]):
        packet = Packet(100 + i, node - 1, node, 0, 1, (Port.EAST, Port.LOCAL), 0)
        packet.injected_at = 0
        packet.hop = 1
        router.place(vc, packet, 10_000)


def _blocked_mover(net, count=4):
    """:func:`_mover` at node 5, behind a West port of node 6 parked full."""
    _park(net, count=count)
    return _mover(net)


def test_downstream_departure_wakes_the_feeder_for_free_at():
    nets = _idle_pair()
    movers = [_blocked_mover(net) for net in nets]
    _lockstep(nets, 2)
    assert nets[0].routers[5].wake_at == NEVER  # nothing but a departure helps
    for net in nets:
        router = net.routers[6]
        router.remove(router.input_vcs[Port.WEST][2], free_at=6)
    assert nets[0].routers[5].wake_at == 6
    sweeps = nets[0].sweeps
    _lockstep(nets, 4)
    assert nets[0].sweeps == sweeps and movers[0].packet is not None  # cycles 2-5
    _lockstep(nets, 1)
    assert movers[0].packet is None  # granted in cycle 6, when the VC is free
    _lockstep(nets, 5)
    assert nets[0].stats.packets_ejected == 1


def test_bubble_activation_wakes_the_feeder():
    nets = _idle_pair()
    for net in nets:
        net.routers[6].add_static_bubble()
    movers = [_blocked_mover(net) for net in nets]
    _lockstep(nets, 2)
    assert nets[0].routers[5].wake_at == NEVER
    for net in nets:
        net.routers[6].activate_bubble(Port.WEST)
    assert nets[0].routers[5].wake_at <= nets[0].cycle
    _lockstep(nets, 1)
    assert movers[0].packet is None
    assert nets[0].routers[6].bubble.packet.pid == 1
    _lockstep(nets, 5)


def test_bubble_reattachment_wakes_its_own_router():
    """A switched-off bubble keeps its resident, which competes under the
    port the bubble is attached to; re-attaching it can lift a seal."""
    nets = _idle_pair()
    for net in nets:
        router = net.routers[5]
        router.add_static_bubble()
        router.bubble.port = Port.WEST
        packet = Packet(1, 4, 6, 0, 1, (Port.EAST, Port.EAST, Port.LOCAL), 0)
        packet.injected_at = 0
        packet.hop = 1
        router.place(router.bubble, packet, 0)
        router.invalidate_vc_cache()
        router.set_io_restriction(Port.NORTH, Port.EAST, 0)
    _lockstep(nets, 2)
    assert nets[0].routers[5].wake_at == NEVER  # West may not send East
    for net in nets:
        net.routers[5].activate_bubble(Port.NORTH)
    assert nets[0].routers[5].wake_at <= nets[0].cycle
    _lockstep(nets, 1)
    assert nets[0].routers[5].bubble.packet is None
    _lockstep(nets, 5)
    assert nets[0].stats.packets_ejected == 1


@pytest.mark.parametrize("event", ["clear", "reseal"])
def test_seal_change_wakes_the_router_and_its_ni(event):
    nets = _idle_pair()
    movers = []
    for net in nets:
        # Only the North port may send East: West and the NI are sealed out.
        net.routers[5].set_io_restriction(Port.NORTH, Port.EAST, 0)
        movers.append(_mover(net))
        assert net.nis[5].create_packet(6, 0, 1, 0) is not None
    _lockstep(nets, 2)
    router, ni = nets[0].routers[5], nets[0].nis[5]
    assert router.wake_at == NEVER and ni.wake_at == NEVER
    for net in nets:
        if event == "clear":
            net.routers[5].clear_io_restriction()
        else:
            net.routers[5].set_io_restriction(Port.WEST, Port.EAST, 0)
    assert router.wake_at <= nets[0].cycle and ni.wake_at <= nets[0].cycle
    _lockstep(nets, 1)
    assert movers[0].packet is None
    _lockstep(nets, 8)
    assert nets[0].stats.packets_ejected == (2 if event == "clear" else 1)
    assert len(ni.queue) == (0 if event == "clear" else 1)


def test_escape_diversion_wakes_the_router():
    nets = _idle_pair("escape-vc", escape_t_detect=5)
    # Three normal VCs per port (the fourth is the reserved escape VC).
    movers = [_blocked_mover(net, count=3) for net in nets]
    _lockstep(nets, 4)
    assert nets[0].routers[5].wake_at == NEVER
    _lockstep(nets, 2)  # on_cycle of cycle 5 diverts the mover
    assert movers[0].packet.is_escape
    assert nets[0].routers[5].wake_at <= nets[0].cycle
    _lockstep(nets, 1)
    assert movers[0].packet is None
    _lockstep(nets, 12)
    assert nets[0].stats.packets_ejected == 1


# -- (d) each downstream class is asked once per sweep ---------------------------


def _at(net, node, port, index, dst, out, escape=False, pid=1):
    """A one-flit packet in VC ``index`` of ``node``'s ``port``, bound
    ``out`` then ejected at ``dst``; ``escape`` diverts it."""
    router = net.routers[node]
    vc = router.input_vcs[port][index]
    packet = Packet(pid, node, dst, 0, 1, (out, out, Port.LOCAL), 0)
    packet.injected_at = 0
    packet.hop = 1
    packet.is_escape = escape
    router.place(vc, packet, 0)
    return vc


def test_full_normal_class_does_not_refuse_an_escape_packet_for_the_same_output():
    """Escape-vc: node 6's West normal VCs are full, its escape VC free.
    A normal packet asks for East first (North is port 1), then an escape
    packet (West, port 2) whose tree route is East too: the escape packet
    is granted in that same sweep."""
    nets = _idle_pair("escape-vc")
    for net in nets:
        _park(net, count=3)  # three normal VCs; the fourth is the escape VC
        assert net.routers[5]._escape_lookup(5, 6) == Port.EAST
    normal = [_at(net, 5, Port.NORTH, 0, 6, Port.EAST) for net in nets]
    escape = [_at(net, 5, Port.WEST, 0, 6, Port.EAST, escape=True, pid=2) for net in nets]
    sweeps = nets[0].sweeps
    _lockstep(nets, 1)
    assert nets[0].sweeps == sweeps + 1
    assert escape[0].packet is None
    assert normal[0].packet.pid == 1
    _lockstep(nets, 12)
    assert nets[0].stats.packets_ejected == 1


def test_wake_is_the_earliest_lapse_of_the_classes_found_full():
    """Two VCs want East and two want North; each downstream port holds
    three parked packets and one VC drained but not yet claimable.  The
    sweep rejects all four and sleeps until the earlier lapse, when the
    first North-bound VC is granted."""
    nets = _idle_pair()
    blocked = []
    for net in nets:
        for out, lapse in ((Port.EAST, 7), (Port.NORTH, 4)):
            link = net.routers[5].output_links[out]
            downstream = net.routers[link.dest_node]
            for i, vc in enumerate(downstream.input_vcs[link.dest_in_port]):
                packet = Packet(100 + 4 * out + i, 5, link.dest_node, 0, 1, (out, Port.LOCAL), 0)
                downstream.place(vc, packet, 10_000)
            downstream.remove(vc, free_at=lapse)
        blocked.append([
            _at(net, 5, port, index, net.routers[5].output_links[out].dest_node, out,
                pid=1 + 2 * port + index)
            for port in (Port.WEST, Port.SOUTH)
            for index, out in enumerate((Port.EAST, Port.NORTH))
        ])
    _lockstep(nets, 1)
    router = nets[0].routers[5]
    lapses = []
    for vc in blocked[0]:
        link = router.output_links[vc.packet.route[1]]
        lapses.append(
            nets[0].routers[link.dest_node].claimable_from(link.dest_in_port, vc.packet)
        )
    assert sorted(set(lapses)) == [4, 7]
    assert router.wake_at == min(lapses) == 4
    _lockstep(nets, 3)
    assert all(vc.packet is not None for vc in blocked[0])  # asleep, cycles 1-3
    _lockstep(nets, 1)
    assert [vc.packet is None for vc in blocked[0]] == [False, True, False, False]
    _lockstep(nets, 20)
    assert nets[0].stats.packets_ejected == 4  # each pair through its one VC


def test_reconfiguration_and_snapshot_restore_wake_everything():
    nets = _idle_pair()
    for net in nets:
        _blocked_mover(net)
    _lockstep(nets, 2)
    default = nets[0]
    for action in (
        lambda net: net.apply_faults(links=[(0, 1)]),
        lambda net: net.restore(links=[(0, 1)]),
        lambda net: model.restore(net, model.snapshot(net)),
    ):
        assert default.routers[5].wake_at == NEVER
        for net in nets:
            action(net)
        assert all(wake <= default.cycle for wake in default._wake.values())
        _lockstep(nets, 2)


# -- no reference cycles --------------------------------------------------------


def test_dropped_network_is_not_cyclic_garbage():
    """Routers share plain sets, dicts and flags with their network, never
    each other or a bound method of it: refcounts alone free a network."""
    net = _saturated("static-bubble")
    net.run(300)
    gc.collect()
    del net
    assert gc.collect() == 0
