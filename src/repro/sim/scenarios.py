"""Hand-constructed deadlock scenarios (library + CLI + test-suite).

These builders place packets directly into router VCs to create known
wait-for cycles deterministically — no traffic process, no warm-up, no
seed sensitivity.  They back three consumers:

* the test-suite (``tests/conftest.py`` re-exports them);
* ``repro trace`` — capture a complete probe -> disable -> activate ->
  check_probe -> enable recovery as a JSONL/Chrome trace;
* interactive exploration of the protocol.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.turns import Port
from repro.protocols.static_bubble import StaticBubbleScheme
from repro.sim.config import SimConfig
from repro.sim.network import Network
from repro.sim.packet import Packet
from repro.topology.mesh import mesh


def place_packet(
    net: Network,
    node: int,
    in_port: Port,
    pid: int,
    src: int,
    dst: int,
    route,
    size: int = 1,
    vc_index: int = 0,
) -> Packet:
    """Hand-place a packet into a router VC (for constructed deadlocks).

    ``route`` is the full source route; ``hop`` is advanced to point at
    the output port the packet wants at ``node``.
    """
    router = net.routers[node]
    vc = router.input_vcs[in_port][vc_index]
    assert vc.packet is None, "scenario VC already occupied"
    packet = Packet(pid, src, dst, 0, size, bytes(route), 0)
    packet.injected_at = 0
    packet.hop = 1
    router.place(vc, packet, 0)
    return packet


def build_2x2_ring_deadlock(
    scheme=None, t_dd: int = 5, vcs: int = 1
) -> Tuple[Network, object]:
    """The canonical 4-packet clockwise ring deadlock on a 2x2 mesh.

    Node layout: 0=(0,0) 1=(1,0) 2=(0,1) 3=(1,1); node 3 is the single
    static-bubble router of a 2x2 mesh.  Each packet occupies the VC the
    next one needs, so nothing can move without an extra buffer.
    """
    E, N, W, S, L = Port.EAST, Port.NORTH, Port.WEST, Port.SOUTH, Port.LOCAL
    topo = mesh(2, 2)
    config = SimConfig(width=2, height=2, vcs_per_vnet=vcs, sb_t_dd=t_dd)
    if scheme is None:
        scheme = StaticBubbleScheme()
    net = Network(topo, config, scheme, traffic=None, seed=1)
    place_packet(net, 1, W, 100, 0, 3, (E, N, L))   # at node 1, wants N
    place_packet(net, 3, S, 101, 1, 2, (N, W, L))   # at node 3, wants W
    place_packet(net, 2, E, 102, 3, 0, (W, S, L))   # at node 2, wants S
    place_packet(net, 0, N, 103, 2, 1, (S, E, L))   # at node 0, wants E
    return net, scheme


def build_fig6_walkthrough(t_dd: int = 6) -> Tuple[Network, StaticBubbleScheme]:
    """The paper's Fig. 6 walk-through: a 6-router ring on a 4x2 mesh.

    Two-deep ports (the paper's VC configuration for the example); the
    only on-ring static-bubble router is node 5, matching the paper.  The
    ring's geometry makes the probe record the walk-through's exact turn
    sequence — (L, L, S, L, L) — before returning to its sender, after
    which the disable/bubble/check_probe/enable sequence drains all
    twelve packets.

    Ring (clockwise): 0 -E-> 1 -E-> 2 -N-> 6 -W-> 5 -W-> 4 -S-> 0.
    """
    E, N, W, S, L = Port.EAST, Port.NORTH, Port.WEST, Port.SOUTH, Port.LOCAL
    topo = mesh(4, 2)
    config = SimConfig(width=4, height=2, vcs_per_vnet=2, sb_t_dd=t_dd)
    scheme = StaticBubbleScheme()
    net = Network(topo, config, scheme, traffic=None, seed=1)
    assert set(scheme.states) == {5, 7}

    # (node, in_port, wants) around the ring; each port carries two
    # packets (the paper's (A,B) / (E,F) / ... pairs).
    ring = [
        (1, W, E),  # packets A, B
        (2, W, N),  # packets C, D
        (6, S, W),  # packets E, F
        (5, E, W),  # packets G, H  <- the static-bubble router
        (4, E, S),  # packets I, J
        (0, N, E),  # packets K, Z
    ]
    pid = 500
    for node, in_port, wants in ring:
        dst = topo.neighbor(node, wants)
        for vc_index in range(2):
            place_packet(
                net, node, in_port, pid, src=node, dst=dst,
                route=(E, wants, L), vc_index=vc_index,
            )
            pid += 1
    return net, scheme


#: Scenario registry for ``repro trace --scenario``.
SCENARIOS = {
    "ring2x2": build_2x2_ring_deadlock,
    "fig6": build_fig6_walkthrough,
}


def build_scenario(name: str, t_dd: Optional[int] = None):
    """Instantiate a named scenario; returns ``(network, scheme)``."""
    try:
        builder = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; have {sorted(SCENARIOS)}"
        ) from None
    return builder(t_dd=t_dd) if t_dd is not None else builder()
