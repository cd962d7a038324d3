"""Routers count their residents: packets per input port and a lower
bound on their ``ready_at``, written only by ``Router.place`` / ``remove``
(and the bubble re-tag), read by every per-cycle buffer walk.

The per-cycle differential suites (``test_router_sleep``,
``test_sweep_equivalence``) assert
:func:`repro.sim.debug.resident_index_errors` empty every cycle; this file
holds the two bugs the index exposed and count-based tests of what the
walks no longer touch (counts repeat exactly; nothing is timed).
"""

from __future__ import annotations

import random

from repro.core.turns import Port
from repro.sim.debug import resident_index_errors
from repro.sim.packet import Packet
from repro.sim.router import Router
from repro.sim.scenarios import build_scenario
from repro.verify import model
from tests.test_router_sleep import _idle_pair, _lockstep, _mover, _park, _saturated


def _harness_network(scheme, rate):
    """The harness's seed-1 ``sim-lowload`` topology (``inputs.sim_specs``)."""
    seed = random.Random("harness:1:sim-lowload").randrange(1, 2**31)
    return _saturated(scheme, rate=rate, seed=seed)


# -- the two bugs the index exposed ------------------------------------------


def test_reactivating_a_bubble_carries_its_stale_resident_to_the_new_port():
    net = _idle_pair()[0]
    router = net.routers[5]
    router.add_static_bubble()
    router.activate_bubble(Port.WEST)
    packet = Packet(1, 4, 6, 0, 1, (Port.EAST, Port.EAST, Port.LOCAL), 0)
    router.place(router.bubble, packet, 0)
    router.deactivate_bubble()  # torn down with the resident still wedged
    router.activate_bubble(Port.NORTH)
    assert resident_index_errors(net) == []
    assert router._port_load[Port.NORTH] == 1 and router._port_load[Port.WEST] == 0
    router.remove(router.bubble)
    assert resident_index_errors(net) == []
    assert router.occupancy == 0 and not any(router._port_load)


def test_restore_debits_a_bubble_resident_at_the_port_it_was_counted_under():
    """``ring2x2`` recovers through node 3's bubble: restoring across the
    cycles where it is attached, claimed and drained re-tags it both ways."""
    net, _scheme = build_scenario("ring2x2", t_dd=2)
    snaps = []
    claimed = []
    for i in range(40):
        snaps.append((model.snapshot(net), model.canonical_state(net)))
        if net.routers[3].bubble.packet is not None:
            claimed.append(i)
        net.step()

    assert claimed and claimed[0] > 0, "the run never put a packet in the bubble"
    # From every snapshot to every other, so the bubble is re-tagged with a
    # resident in it, emptied, and refilled.
    for first in (0, claimed[0], len(snaps) - 1):
        for snap, key in snaps:
            model.restore(net, snaps[first][0])
            model.restore(net, snap)
            assert resident_index_errors(net) == []
            assert model.canonical_state(net) == key


# -- what the walks no longer touch ----------------------------------------------


def test_escape_timer_pulls_at_most_5_percent_of_the_buffers(monkeypatch):
    """Seed-1 escape-vc cell at rate 0.06: ``on_cycle`` used to pull every
    VC of every occupied router through ``all_vcs()``, every cycle."""
    net = _harness_network("escape-vc", 0.06)
    pulled = [0]
    for name in ("residents", "all_vcs"):
        walk = getattr(Router, name)

        def counted(self, walk=walk):
            for vc in walk(self):
                pulled[0] += 1
                yield vc

        monkeypatch.setattr(Router, name, counted)
    every_buffer = in_on_cycle = 0
    on_cycle = net.scheme.on_cycle

    def metered(network, now):
        nonlocal every_buffer, in_on_cycle
        for node in network._active_nodes:
            router = network.routers[node]
            if router.occupancy:
                every_buffer += sum(map(len, router.input_vcs))
        before = pulled[0]
        on_cycle(network, now)
        in_on_cycle += pulled[0] - before

    net.scheme.on_cycle = metered
    net.run(2000)
    assert every_buffer > 300_000
    assert in_on_cycle <= 0.05 * every_buffer


def test_low_load_sweep_opens_loaded_ports_only():
    """Seed-1 ``sim-lowload`` spec: a sweep reads the VC tuple of a port
    only if someone is resident there — about a quarter of the ports of
    the routers it visits."""
    net = _harness_network("static-bubble", 0.02)
    sweeping = [False]
    opened = [0]
    empty_opened = []

    class Spy(list):
        def __init__(self, router):
            super().__init__(router._vc_cache)
            self.router = router

        def __getitem__(self, port):
            if sweeping[0]:
                opened[0] += 1
                if not self.router._port_load[port]:
                    empty_opened.append((net.cycle, self.router.node, port))
            return super().__getitem__(port)

    for router in net.active_routers():
        router._vc_cache = Spy(router)
    allocate = net._allocate

    def watched(now):
        sweeping[0] = True
        try:
            allocate(now)
        finally:
            sweeping[0] = False

    net._allocate = watched
    net.run(2000)
    assert net.stats.packets_ejected > 200
    assert empty_opened == []
    assert 0 < opened[0] <= 0.3 * net.sweeps * net._num_ports


def test_diversion_fires_on_the_cycle_the_timer_expires():
    """Held ``t_detect`` cycles behind a full downstream port, a packet is
    diverted in that very cycle — also the second one, whose router's
    ``ready_at`` bound went stale when the first left."""
    t_detect = 5
    nets = _idle_pair("escape-vc", escape_t_detect=t_detect)
    for net in nets:
        _park(net, count=3)  # node 6's West port: every normal VC held
    first = [_mover(net, pid=1) for net in nets]
    _lockstep(nets, 3)
    second = []
    for net in nets:  # arrives at cycle 3, at another port of node 5
        router = net.routers[5]
        vc = router.input_vcs[Port.SOUTH][0]
        packet = Packet(2, 1, 6, 0, 1, (Port.NORTH, Port.EAST, Port.LOCAL), 0)
        packet.injected_at = 0
        packet.hop = 1
        router.place(vc, packet, net.cycle)
        second.append(packet)
    first_packets = [vc.packet for vc in first]
    for cycle in range(3, 3 + t_detect + 1):
        assert nets[0].cycle == cycle
        expect = (cycle > t_detect) + (cycle > 3 + t_detect)
        for net, one, two in zip(nets, first_packets, second):
            assert one.is_escape == (cycle > t_detect), cycle
            assert not two.is_escape, cycle
            assert net.stats.escape_diversions == expect, cycle
        _lockstep(nets, 1)
    for net, two in zip(nets, second):
        assert two.is_escape  # diverted by ``on_cycle`` of cycle 3 + t_detect
        assert net.stats.escape_diversions == 2
