"""Bit-equivalence of the fast (struct-of-arrays) engine vs the reference.

The fast engine (:mod:`repro.sim.fastcore`) promises *bit-identical*
results: per-cycle stats (including measurement-window counters),
deadlock-monitor verdicts, recovery counts, and final summaries must
match the reference engine exactly on every scheme — the vector filter
is an over-approximation whose scalar grant stage re-checks the same
conditions in the same order.

These tests skip when numpy is unavailable (the fast engine needs it),
unless ``REPRO_REQUIRE_FAST=1`` is set — then a missing numpy is a hard
failure, so CI environments that are *supposed* to exercise the fast
engine cannot silently pass by skipping.
"""

from __future__ import annotations

import dataclasses
import os
import random

import pytest

from repro.obs import Observer
from repro.protocols import make_scheme
from repro.sim.config import SimConfig
from repro.sim.deadlock import DeadlockMonitor
from repro.sim.debug import overslept, resident_index_errors
from repro.sim.network import Network
from repro.topology.faults import inject_link_faults
from repro.topology.generators import parse_topology
from repro.traffic.synthetic import UniformRandomTraffic

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - numpy is baked into the toolchain
    HAVE_NUMPY = False

_REQUIRE_FAST = os.environ.get("REPRO_REQUIRE_FAST", "") not in ("", "0")

ALL_SCHEMES = [
    "adaptive",
    "adaptive-escape",
    "escape-vc",
    "minimal-unprotected",
    "spanning-tree",
    "static-bubble",
    "xy",
]


@pytest.fixture(autouse=True)
def _need_numpy():
    if not HAVE_NUMPY:
        if _REQUIRE_FAST:
            pytest.fail(
                "REPRO_REQUIRE_FAST=1 but numpy is unavailable: the "
                "fast-engine equivalence suite would be skipped silently"
            )
        pytest.skip("numpy unavailable; fast engine cannot run")


def _make_pair(
    scheme_name, *, rate=0.25, faults=8, seed=1, fault_seed=1, topology="8x8"
):
    """Identically-seeded (reference, fast) networks on a faulted topology."""
    nets = []
    for engine in ("reference", "fast"):
        topo = inject_link_faults(
            parse_topology(topology), faults, random.Random(fault_seed)
        )
        traffic = UniformRandomTraffic(topo, rate=rate, seed=seed)
        nets.append(
            Network(
                topo,
                SimConfig(),
                make_scheme(scheme_name),
                traffic,
                seed=seed,
                engine=engine,
            )
        )
    return nets


def _stats_dict(net):
    return dataclasses.asdict(net.stats)


def _assert_bookkeeping(*nets):
    """Between steps: nobody overslept, every resident index is exact."""
    for net in nets:
        assert overslept(net) == [], (net.cycle, net.engine)
        assert resident_index_errors(net) == [], (net.cycle, net.engine)


@pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
def test_per_cycle_stats_identical(scheme_name):
    """Every stats field matches the reference after every single cycle.

    This subsumes final-stats equality and covers the measurement-window
    counters (``window_*``), the recovery counters
    (``recoveries_completed`` / ``recoveries_aborted``), probe/special
    counts, and the energy-proxy counters the allocator maintains
    (buffer reads/writes, crossbar flits, link-flit cycles).
    """
    ref, fast = _make_pair(scheme_name)
    assert fast.engine == "fast" and ref.engine == "reference"
    for cycle in range(500):
        _assert_bookkeeping(ref, fast)
        ref.step()
        fast.step()
        r, f = _stats_dict(ref), _stats_dict(fast)
        assert f == r, f"stats diverged at cycle {cycle} for {scheme_name}"
    assert fast.stats.summary() == ref.stats.summary()


@pytest.mark.parametrize("scheme_name", ["static-bubble", "escape-vc", "adaptive"])
@pytest.mark.parametrize("topology", ["torus3d:4x4x4", "circulant:64,1,8"])
def test_per_cycle_stats_identical_off_mesh(topology, scheme_name):
    """The same per-cycle identity on 6- and 4-port non-mesh generators."""
    ref, fast = _make_pair(scheme_name, rate=0.90, faults=4, topology=topology)
    for cycle in range(400):
        _assert_bookkeeping(ref, fast)
        ref.step()
        fast.step()
        assert _stats_dict(fast) == _stats_dict(ref), (
            f"stats diverged at cycle {cycle} for {scheme_name} on {topology}"
        )
    # The run must reach the recovery machinery, not just route packets.
    assert ref.stats.probes_sent + ref.stats.escape_diversions > 0


@pytest.mark.parametrize("scheme_name", ["static-bubble", "escape-vc"])
def test_measurement_window_identical(scheme_name):
    """``begin_window`` mid-run: windowed latency/throughput match."""
    ref, fast = _make_pair(scheme_name, rate=0.15)
    for net in (ref, fast):
        net.run(200)
        net.stats.begin_window(net.cycle)
        net.run(300)
    r, f = _stats_dict(ref), _stats_dict(fast)
    assert f == r
    assert f["window_start_cycle"] == 200
    assert fast.stats.window_packets_ejected > 0


@pytest.mark.parametrize(
    "scheme_name", ["static-bubble", "minimal-unprotected", "adaptive"]
)
def test_deadlock_monitor_verdicts_identical(scheme_name):
    """The ground-truth deadlock oracle sees the same network evolution."""
    ref, fast = _make_pair(scheme_name, rate=0.30, faults=10, fault_seed=3)
    mon_ref = DeadlockMonitor(interval=32)
    mon_fast = DeadlockMonitor(interval=32)
    for cycle in range(700):
        ref.step()
        fast.step()
        vr = mon_ref.check(ref, ref.cycle)
        vf = mon_fast.check(fast, fast.cycle)
        assert vf == vr, f"deadlock verdict diverged at cycle {cycle}"
    assert mon_fast.deadlocked_pids == mon_ref.deadlocked_pids
    assert mon_fast.first_deadlock_cycle == mon_ref.first_deadlock_cycle


def test_recovery_activity_is_exercised_and_identical():
    """The equivalence run actually covers recoveries, not just idling."""
    ref, fast = _make_pair("static-bubble", rate=0.30, faults=10, fault_seed=3)
    ref.run(900)
    fast.run(900)
    assert _stats_dict(fast) == _stats_dict(ref)
    # With ten faults at saturation the protocol must have done real work;
    # a silent no-op equivalence would be vacuous.
    assert ref.stats.probes_sent > 0
    assert ref.stats.recoveries_completed + ref.stats.recoveries_aborted > 0


@pytest.mark.parametrize("scheme_name", ["static-bubble", "adaptive"])
def test_live_reconfig_identical_on_fast_engine(scheme_name):
    """apply_faults / restore mid-run work on the fast engine (mirror rebuild)."""
    ref, fast = _make_pair(scheme_name, rate=0.10, faults=4)
    for net in (ref, fast):
        net.run(150)
        summary = net.apply_faults(routers=[27], links=[(9, 10)])
        assert isinstance(summary, dict)
        net.run(150)
        net.restore(routers=[27], links=[(9, 10)])
        net.run(150)
    assert _stats_dict(fast) == _stats_dict(ref)


@pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
def test_traced_event_stream_identical(scheme_name):
    """A traced fast network emits the reference's exact event stream.

    Every emission site lives in code both engines share, so the fast
    engine runs its own sweep under a tracer (no fallback) and still
    produces the same events in the same order.
    """
    ref, fast = _make_pair(scheme_name, rate=0.30, faults=10, fault_seed=3)
    streams = []
    for net in (ref, fast):
        observer = Observer(trace=True, metrics=False, ring_capacity=1 << 20)
        net.attach_obs(observer)
        net.run(900)
        streams.append([e.to_dict() for e in observer.tracer.events])
    assert type(fast).__name__ == "FastNetwork"
    assert len(streams[0]) > 1000
    assert streams[1] == streams[0]


def test_paranoid_mode_matches():
    """Resyncing the whole mirror every cycle changes nothing."""
    ref, fast = _make_pair("static-bubble", rate=0.20)
    fast._paranoid = True
    ref.run(250)
    fast.run(250)
    assert _stats_dict(fast) == _stats_dict(ref)


def test_full_scan_toggle_keeps_mirror_exact():
    """Grants of either sweep land in the mirror: no resync on switching."""
    ref, fast = _make_pair("static-bubble", rate=0.30, faults=10, fault_seed=3)
    for cycle in range(600):
        fast.full_scan = (cycle // 40) % 2 == 1
        ref.step()
        fast.step()
        assert _stats_dict(fast) == _stats_dict(ref), f"diverged at cycle {cycle}"
    assert ref.stats.probes_sent > 0


def _mirror_state(fast):
    """Everything the filter can still observe of the mirror from ``fast.cycle`` on."""
    from repro.sim.fastcore import BIG

    now = fast.cycle
    slots = [
        (ready, outc, downc) if ready < BIG else None
        for ready, outc, downc in zip(fast._ready, fast._outc, fast._downc)
    ]
    # Times at or before ``now`` all mean "available now".
    return (
        slots,
        [max(v, now) for v in fast._lbusy],
        [max(v, now) for v in fast._comb],
    )


@pytest.mark.parametrize("scheme_name", ["static-bubble", "escape-vc", "adaptive"])
def test_replayed_mirror_matches_full_resync(scheme_name):
    """Replaying the noted grants leaves exactly what a full resync builds."""
    _, fast = _make_pair(scheme_name, rate=0.30, faults=10, fault_seed=3)
    fast.run(250)  # fills past DENSE_ABOVE: the mirror exists from here on
    assert fast._dense
    for _ in range(12):
        fast.run(50)
        fast._begin_cycle(fast.cycle)
        replayed = _mirror_state(fast)
        fast._resync_all()
        assert _mirror_state(fast) == replayed
    assert fast.stats.packets_ejected > 0


# -- the per-cycle sweep choice ----------------------------------------------
#
# The fast engine picks the base sweep or the vector filter each cycle
# from packets in flight.  Correctness must not depend on the choice, so
# these runs are driven across both edges (sparse -> dense -> sparse) and
# compared cycle by cycle with the reference and with ``full_scan=True``,
# the sweep that skips nothing.

#: (topology, link faults, offered rate that fills it past ``DENSE_ABOVE``)
RAMP_TOPOLOGIES = [("8x8", 8, 0.30), ("torus3d:4x4x4", 4, 0.90)]


def _set_rate(net, rate):
    """Re-aim a synthetic source mid-run (``packets_at`` reads the
    probability every cycle, so the RNG draw order is unchanged)."""
    traffic = net.traffic
    traffic.rate = rate
    traffic.packet_prob = min(1.0, rate / traffic.mean_flits) if rate else 0.0


def _make_trio(scheme_name, topology, faults):
    """(reference, fast, reference with ``full_scan``), seeded identically."""
    ref, fast = _make_pair(scheme_name, rate=0.02, faults=faults, topology=topology)
    oracle, _ = _make_pair(scheme_name, rate=0.02, faults=faults, topology=topology)
    oracle.full_scan = True
    return ref, fast, oracle


@pytest.mark.parametrize("scheme_name", ["static-bubble", "escape-vc", "adaptive"])
@pytest.mark.parametrize("topology,faults,high", RAMP_TOPOLOGIES)
def test_rate_ramp_crosses_both_edges_identically(topology, faults, high, scheme_name):
    """Rate 0.02 -> saturating -> 0: stats every cycle, monitor verdicts
    and the traced event stream agree across reference / fast / full_scan."""
    nets = _make_trio(scheme_name, topology, faults)
    fast = nets[1]
    if (topology, scheme_name) == ("8x8", "adaptive"):
        high = 0.45  # adaptive routing holds 0.30 at ~220 in flight, under DENSE_ABOVE
    monitors = [DeadlockMonitor(interval=32) for _ in nets]
    observers = [
        Observer(trace=True, metrics=False, ring_capacity=1 << 21) for _ in nets
    ]
    for net, observer in zip(nets, observers):
        net.attach_obs(observer)
    modes = []
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
            assert verdicts[1] == verdicts[0] == verdicts[2], cycle
            reference = _stats_dict(nets[0])
            assert _stats_dict(fast) == reference, f"fast diverged at {cycle}"
            assert _stats_dict(nets[2]) == reference, f"full_scan diverged at {cycle}"
            if not modes or modes[-1] != fast._dense:
                modes.append(fast._dense)
    # The run really crossed sparse -> dense -> sparse on the fast engine.
    assert modes == [False, True, False]
    assert 0 < fast.filter_passes < fast.cycle
    streams = [[e.to_dict() for e in obs.tracer.events] for obs in observers]
    assert len(streams[0]) > 1000
    assert streams[1] == streams[0]
    assert streams[2] == streams[0]
    assert monitors[1].deadlocked_pids == monitors[0].deadlocked_pids


@pytest.mark.parametrize("scheme_name", ["static-bubble", "escape-vc", "adaptive"])
def test_live_reconfig_in_each_mode(scheme_name):
    """``apply_faults`` / ``restore`` issued on sparse and on dense cycles."""
    ref, fast = _make_pair(scheme_name, rate=0.02, faults=4)
    seen = []

    def both(action, **what):
        seen.append((action, fast._dense))
        for net in (ref, fast):
            getattr(net, action)(**what)

    def run(cycles):
        for _ in range(cycles):
            _assert_bookkeeping(ref, fast)
            ref.step()
            fast.step()
            assert _stats_dict(fast) == _stats_dict(ref), ref.cycle

    run(100)
    both("apply_faults", routers=[27], links=[(9, 10)])   # sparse
    run(60)
    both("restore", routers=[27])                          # sparse
    # (0.30 takes ~300 cycles to put DENSE_ABOVE packets in flight around
    # four faults, and adaptive routing never does.)
    for net in (ref, fast):
        _set_rate(net, 0.45)
    run(100)
    both("apply_faults", routers=[36], links=[(20, 21)])  # dense
    run(60)
    both("restore", routers=[36], links=[(9, 10), (20, 21)])  # dense
    run(60)
    for net in (ref, fast):
        _set_rate(net, 0.0)
    run(650)  # (the full NI queues keep filling the network for a while)
    both("apply_faults", links=[(50, 51)])                 # sparse again
    run(40)
    assert [dense for _, dense in seen] == [False, False, True, True, False]
    assert ref.stats.packets_dropped_reconfig > 0


def test_drained_network_evicts_routers_and_stops_filtering():
    """After a burst drains, neither engine keeps a router active and the
    fast engine runs no further filter pass."""
    ref, fast = _make_pair("static-bubble", rate=0.05)
    for net in (ref, fast):
        net.run(400)
        net.traffic = None
        for _ in range(2000):
            if net.is_drained():
                break
            net.step()
        assert net.is_drained()
        net.run(2)  # the sweep after the last departure evicts lazily
    assert [len(net._active_nodes) for net in (ref, fast)] == [0, 0]
    assert not ref._queued_nodes and not fast._queued_nodes
    passes = fast.filter_passes
    fast.run(50)
    assert fast.filter_passes == passes


def test_mirror_is_built_on_the_first_dense_cycle():
    """Construction builds no mirror; low load never builds one."""
    _, fast = _make_pair("static-bubble", rate=0.02)
    assert fast._structure_stale[0] and not hasattr(fast, "_ready")
    fast.run(300)
    assert fast.filter_passes == 0 and not hasattr(fast, "_ready")
    _set_rate(fast, 0.30)
    fast.run(200)
    assert fast._dense and fast.filter_passes > 0 and not fast._structure_stale[0]


def test_engine_tag_and_selection():
    ref, fast = _make_pair("xy", rate=0.05)
    assert type(fast).__name__ == "FastNetwork"
    assert type(ref) is Network
    with pytest.raises(ValueError):
        topo = parse_topology("4x4")
        Network(topo, SimConfig(), make_scheme("xy"), engine="warp")
