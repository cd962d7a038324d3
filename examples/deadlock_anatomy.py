#!/usr/bin/env python3
"""Anatomy of a deadlock recovery (the paper's Fig. 6 walk-through).

Constructs the canonical ring deadlock — four packets on a 2x2 mesh,
each occupying the buffer the next one needs — and narrates the Static
Bubble recovery cycle by cycle: probe traversal, disable traversal and
sealing, bubble activation, ring drain, check_probe, and the enable
teardown.

Run:  python examples/deadlock_anatomy.py
"""

from repro import Network, Port, SimConfig, StaticBubbleScheme, mesh
from repro.core.fsm import FsmState
from repro.core.messages import MsgType
from repro.sim.deadlock import find_wait_cycle
from repro.sim.scenarios import place_packet as place


def main() -> None:
    E, N, W, S, L = Port.EAST, Port.NORTH, Port.WEST, Port.SOUTH, Port.LOCAL
    topo = mesh(2, 2)
    config = SimConfig(width=2, height=2, vcs_per_vnet=1, sb_t_dd=8)
    scheme = StaticBubbleScheme()
    net = Network(topo, config, scheme, traffic=None, seed=1)

    print("2x2 mesh; node 3 = (1,1) is the static-bubble router.\n")
    print("Placing the ring deadlock (A->B means A occupies what B needs):")
    place(net, 1, W, 100, 0, 3, (E, N, L))
    place(net, 3, S, 101, 1, 2, (N, W, L))
    place(net, 2, E, 102, 3, 0, (W, S, L))
    place(net, 0, N, 103, 2, 1, (S, E, L))
    print("  pkt 100 @ node1.W wants N | pkt 101 @ node3.S wants W")
    print("  pkt 102 @ node2.E wants S | pkt 103 @ node0.N wants E")
    cycle = find_wait_cycle(net, 0)
    print(f"\nWait-for cycle confirmed by the oracle: {cycle}\n")

    # Narrate special messages as they are sent.
    original_send = net.send_special

    def narrating_send(from_node, out_port, msg):
        ok = original_send(from_node, out_port, msg)
        tag = {
            MsgType.PROBE: "PROBE      ",
            MsgType.DISABLE: "DISABLE    ",
            MsgType.ENABLE: "ENABLE     ",
            MsgType.CHECK_PROBE: "CHECK_PROBE",
        }[msg.mtype]
        print(
            f"  cycle {net.cycle:3d}: {tag} node {from_node} -> "
            f"{Port(out_port).name:5s} (turns carried: {len(msg.turns)})"
        )
        return ok

    net.send_special = narrating_send

    fsm = scheme.states[3].fsm
    last_state = fsm.state
    for _ in range(120):
        net.step()
        if fsm.state != last_state:
            print(f"  cycle {net.cycle:3d}: FSM {last_state.name} -> {fsm.state.name}")
            last_state = fsm.state
        if net.stats.packets_ejected == 4 and fsm.state in (
            FsmState.S_OFF,
            FsmState.S_DD,
        ):
            break

    print(f"\nAll 4 packets delivered by cycle {net.cycle}.")
    print(f"Wait-for cycle now: {find_wait_cycle(net, net.cycle)}")
    s = net.stats
    print(
        f"Protocol totals: probes={s.probes_sent} disables={s.disables_sent} "
        f"activations={s.bubble_activations} check_probes={s.check_probes_sent} "
        f"enables={s.enables_sent} recoveries={s.recoveries_completed}"
    )


if __name__ == "__main__":
    main()
