"""Network interface: source-routing table + injection/ejection queues.

Each active node has an NI that stamps a route onto every packet at
injection (Section II-D).  Packets whose destination is unreachable in
the current topology are dropped at the NI, as in the paper's synthetic
sweeps.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Optional, Set

from repro.obs.events import PACKET_DROP, PACKET_INJECT, PACKET_REROUTE
from repro.routing.table import RoutingTable
from repro.sim.packet import Packet
from repro.sim.router import NEVER, Router
from repro.sim.stats import NetworkStats


class NetworkInterface:
    """Injection queue + routing table of one node."""

    def __init__(
        self,
        node: int,
        table: RoutingTable,
        router: Router,
        stats: NetworkStats,
        rng: random.Random,
        queue_cap: int = 0,
    ) -> None:
        self.node = node
        self.table = table
        self.router = router
        self.stats = stats
        self.rng = rng
        self.queue_cap = queue_cap
        self.queue: Deque[Packet] = deque()
        #: The owning network's set of nodes with a non-empty NI queue
        #: (``_queued_nodes``): :meth:`create_packet` enters this node,
        #: ``Network._inject_queued`` evicts it once the queue is empty.
        self._queued: Set[int] = set()
        self._next_pid = node * 10_000_000
        self.packets_refused = 0
        #: Optional callback invoked on every delivery (closed-loop traffic).
        self.eject_hook = None
        #: Attached observer and its event tracer (set by
        #: ``Network.attach_obs``), each None when absent.
        self.obs = None
        self.tracer = None

    def create_packet(
        self, dst: int, vnet: int, size: int, now: int
    ) -> Optional[Packet]:
        """Route and enqueue a new packet; None if dropped/refused.

        Drops (unreachable destination) and refusals (queue full) are
        counted separately: refusals are back-pressure at saturation, not
        losses.
        """
        route = self.table.pick_route(dst, self.rng)
        if route is None:
            self.stats.packets_dropped_unreachable += 1
            if self.tracer is not None:
                self.tracer.emit(
                    now, PACKET_DROP, self.node, {"reason": "unreachable", "dst": dst}
                )
            return None
        if self.queue_cap and len(self.queue) >= self.queue_cap:
            self.packets_refused += 1
            return None
        self._next_pid += 1
        packet = Packet(self._next_pid, self.node, dst, vnet, size, route, now)
        self.queue.append(packet)
        self._queued.add(self.node)
        self.stats.packets_created += 1
        return packet

    @property
    def wake_at(self) -> int:
        """The queue head cannot be injected before this cycle."""
        return self.router._wake[~self.node]

    def try_inject(self, now: int) -> bool:
        """Move the queue head into a free local-port VC (one per cycle).

        A refusal records when it lapses on its own in the router's wake
        table (the NI is the local port's feeder);
        ``Network._inject_queued`` skips this NI until then.
        """
        if not self.queue:
            return False
        packet = self.queue[0]
        router = self.router
        local = router.local
        vc = router.free_vc_for(local, packet, now)
        if vc is None:
            router._wake[~self.node] = router.claimable_from(local, packet)
            return False
        if not router.injection_allowed(local, packet.route[0]):
            # The local port is sealed out of a deadlocked chain; hold the
            # packet at the NI rather than occupying a VC it cannot leave.
            router._wake[~self.node] = NEVER
            return False
        self.queue.popleft()
        router.place(vc, packet, now + 1)
        packet.injected_at = now
        self.stats.packets_injected += 1
        self.stats.flits_injected += packet.size
        self.stats.buffer_writes += packet.size
        if self.tracer is not None:
            self.tracer.emit(
                now,
                PACKET_INJECT,
                self.node,
                {
                    "pid": packet.pid,
                    "src": packet.src,
                    "dst": packet.dst,
                    "size": packet.size,
                    "vnet": packet.vnet,
                },
            )
        return True

    def reroute_queued(self, now: int, route_ok) -> tuple:
        """Revalidate queued (not-yet-injected) packets after a live
        topology change (``Network.apply_faults``).

        ``route_ok(node, route)`` reports whether a stamped route still
        crosses only live elements.  Packets with a broken route are
        re-stamped from the (already rebuilt) table, or dropped and
        counted when their destination became unreachable.  Returns
        ``(rerouted, dropped)``.
        """
        rerouted = dropped = 0
        survivors: Deque[Packet] = deque()
        for packet in self.queue:
            if route_ok(self.node, packet.route):
                survivors.append(packet)
                continue
            route = self.table.pick_route(packet.dst, self.rng)
            if route is None:
                dropped += 1
                self.stats.packets_dropped_reconfig += 1
                if self.tracer is not None:
                    self.tracer.emit(
                        now,
                        PACKET_DROP,
                        self.node,
                        {"reason": "reconfig_unreachable", "dst": packet.dst},
                    )
                continue
            packet.route = route
            survivors.append(packet)
            rerouted += 1
            self.stats.packets_rerouted += 1
            if self.tracer is not None:
                self.tracer.emit(
                    now,
                    PACKET_REROUTE,
                    self.node,
                    {"pid": packet.pid, "dst": packet.dst},
                )
        self.queue = survivors
        return rerouted, dropped

    def eject(self, packet: Packet, now: int) -> None:
        """Sink an arriving packet and record its latency."""
        packet.ejected_at = now + packet.size
        self.stats.packets_ejected += 1
        self.stats.flits_ejected += packet.size
        self.stats.window_packets_ejected += 1
        self.stats.window_flits_ejected += packet.size
        latency = packet.ejected_at - packet.injected_at
        self.stats.latency_sum += latency
        self.stats.total_latency_sum += packet.ejected_at - packet.created_at
        self.stats.window_latency_sum += latency
        if self.obs is not None:
            self.obs.packet_ejected(packet, latency, now)
        if self.eject_hook is not None:
            self.eject_hook(packet, now)
