"""Hypothesis property tests on the core invariants.

* The counter FSM never crashes or reaches an inconsistent state under
  arbitrary event sequences.
* Packet conservation holds at every cycle for every scheme under random
  topology/load combinations.
* Static Bubble's recovery machinery never corrupts a packet: whatever
  is eventually delivered is delivered to its own destination.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fsm import FsmEvent, FsmState
from repro.core.messages import make_probe
from repro.core.turns import Port, Turn
from repro.protocols import make_scheme
from repro.sim.config import SimConfig
from repro.sim.network import Network
from repro.topology.faults import inject_link_faults
from repro.topology.mesh import mesh
from repro.traffic.synthetic import UniformRandomTraffic

from tests.conftest import build_2x2_ring_deadlock, fire, tick

# -- FSM event fuzzing --------------------------------------------------------

_EVENTS = st.sampled_from(["tick", "vacate", *FsmEvent])


@given(events=st.lists(_EVENTS, min_size=1, max_size=120))
@settings(max_examples=120, deadline=None)
def test_fsm_never_inconsistent(events):
    """Any event sequence leaves the FSM in a well-defined state with a
    coherent turn buffer (non-empty exactly while a path is latched)."""
    net, scheme = build_2x2_ring_deadlock(t_dd=3)
    net.config.sb_enable_retries = 2
    fsm = scheme.states[3].fsm
    router = net.routers[3]
    probe = make_probe(3, Port.WEST)._replace(turns=(Turn.LEFT,) * 3)
    for event in events:
        if event == "tick":
            tick(net, 3)
        elif event == "vacate":
            vc = router.input_vcs[Port.SOUTH][0]
            if vc.packet is not None:
                router.remove(vc)
        else:
            fire(net, 3, event, probe, Port.SOUTH)
        # invariants after every event:
        assert isinstance(fsm.state, FsmState)
        assert 0 <= fsm.count <= max(fsm.threshold, fsm.t_dd)
        if fsm.in_recovery():
            assert fsm.probe_out_port is not None
        if fsm.state in (FsmState.S_OFF, FsmState.S_DD):
            assert fsm.turn_buffer == ()
        if fsm.state is not FsmState.S_ENABLE:
            assert fsm.enable_retries == 0


# -- network conservation under fuzzed settings ------------------------------

@given(
    seed=st.integers(min_value=0, max_value=50_000),
    faults=st.integers(min_value=0, max_value=8),
    rate=st.floats(min_value=0.02, max_value=0.35),
    scheme=st.sampled_from(["spanning-tree", "escape-vc", "static-bubble"]),
)
@settings(max_examples=12, deadline=None)
def test_conservation_every_cycle(seed, faults, rate, scheme):
    topo = inject_link_faults(mesh(5, 5), faults, random.Random(seed))
    config = SimConfig(width=5, height=5, vcs_per_vnet=2)
    traffic = UniformRandomTraffic(topo, rate=rate, seed=seed)
    net = Network(topo, config, make_scheme(scheme), traffic, seed=seed)
    for _ in range(30):
        net.run(10)
        assert (
            net.stats.packets_injected
            == net.stats.packets_ejected + net.total_occupancy()
        )


@given(seed=st.integers(min_value=0, max_value=50_000))
@settings(max_examples=8, deadline=None)
def test_recovery_never_misdelivers(seed):
    """Under deadlock churn, every delivered packet reaches its own dst."""
    topo = inject_link_faults(mesh(5, 5), 4, random.Random(seed))
    config = SimConfig(width=5, height=5, vcs_per_vnet=1, sb_t_dd=8)
    traffic = UniformRandomTraffic(topo, rate=0.4, seed=seed)
    net = Network(topo, config, make_scheme("static-bubble"), traffic, seed=seed)

    delivered = []
    for ni in net.nis.values():
        original = ni.eject

        def checked(packet, now, _ni=ni, _orig=original):
            assert packet.dst == _ni.node, "packet ejected at wrong node"
            delivered.append(packet.pid)
            _orig(packet, now)

        ni.eject = checked
    net.run(1200)
    assert len(delivered) == len(set(delivered)), "duplicate delivery"
    assert delivered, "network made no progress"
