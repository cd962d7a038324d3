"""Bit-equivalence of the sleeping sweep and ``full_scan``, the oracle.

The default sweep skips a router until its ``wake_at`` and a port nobody
is resident at; ``full_scan = True`` visits every occupied router every
cycle.  The two promise *bit-identical* results: per-cycle stats
(including measurement-window counters), deadlock-monitor verdicts,
recovery counts, traced event streams and final summaries must match
exactly on every scheme, and between steps nobody may have overslept and
every resident index must be exact.

These runs are the widest lockstep of the sleeping sweep in the suite.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.obs import Observer
from repro.protocols import make_scheme
from repro.sim.config import SimConfig
from repro.sim.deadlock import DeadlockMonitor
from repro.sim.debug import overslept, resident_index_errors
from repro.sim.network import ENGINES, Network
from repro.topology.faults import inject_link_faults
from repro.topology.generators import parse_topology
from repro.traffic.synthetic import UniformRandomTraffic
from tests.test_router_sleep import _lockstep

ALL_SCHEMES = [
    "adaptive",
    "adaptive-escape",
    "escape-vc",
    "minimal-unprotected",
    "spanning-tree",
    "static-bubble",
    "xy",
]


def _make_pair(
    scheme_name, *, rate=0.25, faults=8, seed=1, fault_seed=1, topology="8x8"
):
    """Identically-seeded (default, ``full_scan``) networks on a faulted topology."""
    nets = []
    for full_scan in (False, True):
        topo = inject_link_faults(
            parse_topology(topology), faults, random.Random(fault_seed)
        )
        traffic = UniformRandomTraffic(topo, rate=rate, seed=seed)
        net = Network(topo, SimConfig(), make_scheme(scheme_name), traffic, seed=seed)
        net.full_scan = full_scan
        nets.append(net)
    return nets


def _stats_dict(net):
    return dataclasses.asdict(net.stats)


def _assert_bookkeeping(*nets):
    """Between steps: nobody overslept, every resident index is exact."""
    for net in nets:
        assert overslept(net) == [], (net.cycle, net.full_scan)
        assert resident_index_errors(net) == [], (net.cycle, net.full_scan)


@pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
def test_per_cycle_stats_identical(scheme_name):
    """Every stats field matches the oracle after every single cycle.

    This subsumes final-stats equality and covers the measurement-window
    counters (``window_*``), the recovery counters
    (``recoveries_completed`` / ``recoveries_aborted``), probe/special
    counts, and the energy-proxy counters the allocator maintains
    (buffer reads/writes, crossbar flits, link-flit cycles).
    """
    default, oracle = nets = _make_pair(scheme_name)
    _lockstep(nets, 500)
    assert default.stats.summary() == oracle.stats.summary()
    assert default.sweeps < oracle.sweeps


@pytest.mark.parametrize("scheme_name", ["static-bubble", "escape-vc", "adaptive"])
@pytest.mark.parametrize("topology", ["torus3d:4x4x4", "circulant:64,1,8"])
def test_per_cycle_stats_identical_off_mesh(topology, scheme_name):
    """The same per-cycle identity on 6- and 4-port non-mesh generators."""
    nets = _make_pair(scheme_name, rate=0.90, faults=4, topology=topology)
    _lockstep(nets, 400)
    oracle = nets[1]
    # The run must reach the recovery machinery, not just route packets.
    assert oracle.stats.probes_sent + oracle.stats.escape_diversions > 0


@pytest.mark.parametrize("scheme_name", ["static-bubble", "escape-vc"])
def test_measurement_window_identical(scheme_name):
    """``begin_window`` mid-run: windowed latency/throughput match."""
    default, oracle = _make_pair(scheme_name, rate=0.15)
    for net in (default, oracle):
        net.run(200)
        net.stats.begin_window(net.cycle)
        net.run(300)
    d, o = _stats_dict(default), _stats_dict(oracle)
    assert d == o
    assert d["window_start_cycle"] == 200
    assert default.stats.window_packets_ejected > 0


@pytest.mark.parametrize(
    "scheme_name", ["static-bubble", "minimal-unprotected", "adaptive"]
)
def test_deadlock_monitor_verdicts_identical(scheme_name):
    """The ground-truth deadlock oracle sees the same network evolution."""
    default, oracle = _make_pair(scheme_name, rate=0.30, faults=10, fault_seed=3)
    mon_default = DeadlockMonitor(interval=32)
    mon_oracle = DeadlockMonitor(interval=32)
    for cycle in range(700):
        default.step()
        oracle.step()
        vd = mon_default.check(default, default.cycle)
        vo = mon_oracle.check(oracle, oracle.cycle)
        assert vd == vo, f"deadlock verdict diverged at cycle {cycle}"
    assert mon_default.deadlocked_pids == mon_oracle.deadlocked_pids
    assert mon_default.first_deadlock_cycle == mon_oracle.first_deadlock_cycle


def test_recovery_activity_is_exercised_and_identical():
    """The equivalence run actually covers recoveries, not just idling."""
    default, oracle = _make_pair("static-bubble", rate=0.30, faults=10, fault_seed=3)
    default.run(900)
    oracle.run(900)
    assert _stats_dict(default) == _stats_dict(oracle)
    # With ten faults at saturation the protocol must have done real work;
    # a silent no-op equivalence would be vacuous.
    assert oracle.stats.probes_sent > 0
    assert oracle.stats.recoveries_completed + oracle.stats.recoveries_aborted > 0


@pytest.mark.parametrize("scheme_name", ["static-bubble", "adaptive"])
def test_live_reconfig_identical_on_fast_engine(scheme_name):
    """apply_faults / restore mid-run leave no sleeper behind (``wake_all``)."""
    default, oracle = _make_pair(scheme_name, rate=0.10, faults=4)
    for net in (default, oracle):
        net.run(150)
        summary = net.apply_faults(routers=[27], links=[(9, 10)])
        assert isinstance(summary, dict)
        net.run(150)
        net.restore(routers=[27], links=[(9, 10)])
        net.run(150)
    assert _stats_dict(default) == _stats_dict(oracle)


@pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
def test_traced_event_stream_identical(scheme_name):
    """A traced sleeping sweep emits the oracle's exact event stream:
    a skipped router would have emitted nothing."""
    streams = []
    for net in _make_pair(scheme_name, rate=0.30, faults=10, fault_seed=3):
        observer = Observer(trace=True, metrics=False, ring_capacity=1 << 20)
        net.attach_obs(observer)
        net.run(900)
        streams.append([e.to_dict() for e in observer.tracer.events])
    assert len(streams[0]) > 1000
    assert streams[1] == streams[0]


def test_full_scan_toggle_keeps_mirror_exact():
    """Every sweep writes ``wake_at``, ``full_scan`` or not: flipping the
    switch mid-run needs no ``wake_all``."""
    default, toggled = _make_pair("static-bubble", rate=0.30, faults=10, fault_seed=3)
    for cycle in range(600):
        toggled.full_scan = (cycle // 40) % 2 == 1
        _assert_bookkeeping(toggled)
        default.step()
        toggled.step()
        assert _stats_dict(toggled) == _stats_dict(default), f"diverged at cycle {cycle}"
    assert default.stats.probes_sent > 0


# -- load ramps ----------------------------------------------------------------
#
# Sleeping pays off differently empty, filling, saturated and draining, so
# these runs are driven through all four and compared cycle by cycle.

#: (topology, link faults, offered rate that saturates it)
RAMP_TOPOLOGIES = [("8x8", 8, 0.30), ("torus3d:4x4x4", 4, 0.90)]


def _set_rate(net, rate):
    """Re-aim a synthetic source mid-run (``packets_at`` reads the
    probability every cycle, so the RNG draw order is unchanged)."""
    traffic = net.traffic
    traffic.rate = rate
    traffic.packet_prob = min(1.0, rate / traffic.mean_flits) if rate else 0.0


@pytest.mark.parametrize("scheme_name", ["static-bubble", "escape-vc", "adaptive"])
@pytest.mark.parametrize("topology,faults,high", RAMP_TOPOLOGIES)
def test_rate_ramp_crosses_both_edges_identically(topology, faults, high, scheme_name):
    """Rate 0.02 -> saturating -> 0: stats every cycle, monitor verdicts
    and the traced event stream agree between the default sweep and
    ``full_scan``."""
    nets = _make_pair(scheme_name, rate=0.02, faults=faults, topology=topology)
    monitors = [DeadlockMonitor(interval=32) for _ in nets]
    observers = [
        Observer(trace=True, metrics=False, ring_capacity=1 << 21) for _ in nets
    ]
    for net, observer in zip(nets, observers):
        net.attach_obs(observer)
    in_flight = []
    for phase_rate, cycles in ((0.02, 150), (high, 300), (0.0, 700)):
        for net in nets:
            _set_rate(net, phase_rate)
        for _ in range(cycles):
            verdicts = []
            for net, monitor in zip(nets, monitors):
                _assert_bookkeeping(net)
                net.step()
                verdicts.append(monitor.check(net, net.cycle))
            cycle = nets[0].cycle
            assert verdicts[0] == verdicts[1], cycle
            assert _stats_dict(nets[0]) == _stats_dict(nets[1]), f"diverged at {cycle}"
        in_flight.append(nets[0].total_occupancy())
    # The run really went nearly empty -> full -> nearly empty.
    low, full, drained = in_flight
    assert low < 20 < 150 < full and drained < 20
    streams = [[e.to_dict() for e in obs.tracer.events] for obs in observers]
    assert len(streams[0]) > 1000
    assert streams[1] == streams[0]
    assert monitors[1].deadlocked_pids == monitors[0].deadlocked_pids


@pytest.mark.parametrize("scheme_name", ["static-bubble", "escape-vc", "adaptive"])
def test_live_reconfig_in_each_mode(scheme_name):
    """``apply_faults`` / ``restore`` issued at low load, saturated and
    draining."""
    nets = _make_pair(scheme_name, rate=0.02, faults=4)

    def both(action, *args, **kwargs):
        for net in nets:
            action(net, *args, **kwargs)

    _lockstep(nets, 100)
    both(Network.apply_faults, routers=[27], links=[(9, 10)])
    _lockstep(nets, 60)
    both(Network.restore, routers=[27])
    both(_set_rate, 0.45)
    _lockstep(nets, 100)
    both(Network.apply_faults, routers=[36], links=[(20, 21)])
    _lockstep(nets, 60)
    both(Network.restore, routers=[36], links=[(9, 10), (20, 21)])
    _lockstep(nets, 60)
    both(_set_rate, 0.0)
    _lockstep(nets, 650)  # (the full NI queues keep filling the network for a while)
    both(Network.apply_faults, links=[(50, 51)])
    _lockstep(nets, 40)
    assert nets[0].stats.packets_dropped_reconfig > 0


def test_drained_network_evicts_routers_and_stops_filtering():
    """After a burst drains, no router stays in the occupied set and no
    further sweep runs."""
    net, _ = _make_pair("static-bubble", rate=0.05)
    net.run(400)
    net.traffic = None
    for _ in range(2000):
        if net.is_drained():
            break
        net.step()
    assert net.is_drained()
    net.run(2)  # the sweep after the last departure evicts lazily
    assert not net._active_nodes and not net._queued_nodes
    sweeps = net.sweeps
    net.run(50)
    assert net.sweeps == sweeps


def test_engine_tag_and_selection():
    """``engine`` is an accepted, validated, ignored spelling."""
    topo, config = parse_topology("4x4"), SimConfig(width=4, height=4)
    for engine in ENGINES:
        net = Network(topo, config, make_scheme("xy"), engine=engine)
        assert type(net) is Network
    with pytest.raises(ValueError, match="unknown engine 'warp'"):
        Network(topo, config, make_scheme("xy"), engine="warp")
