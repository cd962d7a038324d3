"""The network: routers + links + NIs + scheme, advanced cycle by cycle.

Per-cycle order (one ``step()``):

1. Deliver special messages due this cycle (Static Bubble protocol);
   forwarded copies are scheduled ``now + 2`` (1-cycle process + 1-cycle
   link) and claim their output link for the cycle (flits lose switch
   arbitration to them, paper footnote 10).
2. Inject traffic: ask the traffic generator for new packets, then move
   queued packets into free local-port VCs.
3. Switch allocation at every occupied router (separable round-robin,
   one grant per input and output port) and the granted transfers.
4. Scheme per-cycle work (SB counter FSMs / escape-VC diversion timers).
   Specials launched here claim their link for the *next* cycle — this
   cycle's switch allocation has already run (footnote 10 timing).

An attached ``repro.obs.Observer`` (see ``attach_obs``) receives typed
events from every phase, if it traces, plus an end-of-cycle sampling
hook; when nothing traces each emission site costs one attribute check.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.messages import MsgType, SpecialMessage
from repro.obs.events import (
    PACKET_DROP,
    PACKET_REROUTE,
    PACKET_TRANSFER,
    RECONFIG_APPLY,
    RECONFIG_RESTORE,
    SPECIAL_DELIVER,
    SPECIAL_DROP,
    SPECIAL_SEND,
    VERIFY_CERTIFICATE,
)
from repro.routing.paths import HOPS
from repro.routing.table import RoutingTable
from repro.sim.config import SimConfig
from repro.sim.ni import NetworkInterface
from repro.sim.packet import Packet
from repro.sim.router import NEVER, Router, VC_BUBBLE, VirtualChannel, OutputLink
from repro.sim.stats import NetworkStats
from repro.topology.base import BaseTopology as Topology
from repro.utils.rng import spawn_rng

_SPECIAL_STAT_KEY = {
    MsgType.PROBE: "probe",
    MsgType.DISABLE: "disable",
    MsgType.ENABLE: "enable",
    MsgType.CHECK_PROBE: "check_probe",
}


#: Accepted spellings of the ``engine`` argument.  There is one sweep; the
#: name survives only because stored specs and the frozen benchmark
#: harness carry it — it is validated and otherwise ignored.
ENGINES = ("reference", "fast")


class Network:
    """A simulated NoC over one (possibly irregular) topology."""

    def __init__(
        self,
        topo: Topology,
        config: SimConfig,
        scheme,
        traffic=None,
        seed: int = 1,
        engine: str = "reference",
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; have {ENGINES}")
        config.validate()
        if topo.kind == "mesh" and (topo.width, topo.height) != (
            config.width,
            config.height,
        ):
            raise ValueError("topology and config dimensions disagree")
        self.topo = topo
        #: Port geometry, fixed per topology: ``_local`` is the ejection
        #: port (the last port index), ``_port_names`` the display names.
        self._num_ports = topo.num_ports
        self._local = topo.local_port
        self._port_names = tuple(topo.port_name(p) for p in range(topo.num_ports))
        self.config = config
        self.scheme = scheme
        self.traffic = traffic
        self.stats = NetworkStats()
        self.cycle = 0
        self._seed = seed
        self._rng = spawn_rng(seed, "network")
        #: Attached observer (``repro.obs.Observer``) or None: its
        #: end-of-cycle sampling and latency histogram.
        self.obs = None
        #: The attached observer's event ``Tracer``, or None (also under a
        #: metrics-only observer).  Every emission site is gated on one
        #: ``is not None`` check of it, so a network nothing traces builds
        #: no event payload and pays nothing beyond the attribute load.
        self.tracer = None
        #: True while ``step()`` is past switch allocation for the current
        #: cycle: a special launched then must claim the *next* cycle's
        #: mux, because this cycle's arbitration has already happened
        #: (paper footnote 10).
        self._post_alloc = False
        #: Nodes whose router holds a packet — the one "has work" view the
        #: allocator and the schemes share.  ``Router.place`` enters a
        #: router on every arrival; the allocation sweep evicts it lazily
        #: once it sees ``occupancy == 0``, so the set is always a
        #: superset of the occupied routers.  *When* an occupied router
        #: next has something it could be granted is its ``wake_at``.
        self._active_nodes: Set[int] = set()
        #: The wake table every router and NI shares (``Router._wake``).
        self._wake: Dict[int, int] = {}
        #: ``_allocate_router`` calls so far (a count, for tests and probes).
        self.sweeps = 0
        #: Nodes whose NI queue is non-empty, kept the same way:
        #: ``NetworkInterface.create_packet`` enters, ``_inject_queued``
        #: evicts.
        self._queued_nodes: Set[int] = set()
        #: Verification escape hatch: visit every occupied router every
        #: cycle, ignoring ``wake_at`` (bit-identical results, slower).
        self.full_scan = False
        #: Re-certify the scheme's deadlock-freedom claim after every
        #: ``apply_faults`` / ``restore`` (chaos campaigns opt in).
        self.verify_on_reconfig = False
        #: Most recent certificate produced by :meth:`certify`.
        self.last_certificate = None
        #: Failed certificates accumulated over this network's lifetime.
        self.cert_failures = 0

        # Routers for active nodes only, each with its ejection link;
        # inter-router links only where the topology is active.
        self.routers: Dict[int, Router] = {}
        for node in topo.active_nodes():
            self._add_router(node)
        self._router_list: List[Router] = list(self.routers.values())
        self._sync_links()

        # Routing tables + NIs.
        tables = scheme.build_tables(topo, config)
        self.nis: Dict[int, NetworkInterface] = {}
        for node in self.routers:
            table = tables.get(node)
            if table is not None:
                self._add_ni(node, table)
        self._ni_list: List[NetworkInterface] = list(self.nis.values())

        #: Special messages in flight: arrival cycle -> [(node, in_port, msg)].
        self._special_arrivals: Dict[int, List[Tuple[int, int, SpecialMessage]]] = {}

        scheme.setup(self)

    def _add_router(self, node: int) -> None:
        """A fresh (empty) router wired to this network's occupied set."""
        config = self.config
        router = Router(node, config.vnets, config.vcs_per_vnet, self._num_ports)
        router._active = self._active_nodes
        router._wake = self._wake
        router.wake()
        router.output_links[self._local] = OutputLink(None)
        self.routers[node] = router

    def _add_ni(self, node: int, table: RoutingTable) -> None:
        """A fresh NI on ``node``'s router, wired like every other NI."""
        ni = NetworkInterface(
            node,
            table,
            self.routers[node],
            self.stats,
            spawn_rng(self._seed, "ni", node),
            queue_cap=self.config.injection_queue_cap,
        )
        ni._queued = self._queued_nodes
        # Closed-loop traffic sources react to packet deliveries.
        ni.eject_hook = getattr(self.traffic, "on_packet_ejected", None)
        ni.obs, ni.tracer = self.obs, self.tracer
        self.nis[node] = ni

    # -- access --------------------------------------------------------

    def router_at(self, node: int) -> Router:
        return self.routers[node]

    def attach_obs(self, observer) -> None:
        """Attach a ``repro.obs.Observer`` to this network.

        Wires the observer into the NIs (inject/eject events, latency
        histogram), the scheme (FSM transition tracing), and the per-cycle
        sampling hook.  Events are wired only if the observer traces: a
        metrics-only observer is called once per cycle and per ejection.
        """
        self.obs = observer
        self.tracer = observer.tracer
        for ni in self._ni_list:
            ni.obs, ni.tracer = observer, observer.tracer
        observer.bind(self)
        self.scheme.attach_obs(self, observer)

    def active_routers(self) -> List[Router]:
        return self._router_list

    def total_occupancy(self) -> int:
        """Packets in flight (resident in some router's VC)."""
        routers = self.routers
        total = 0
        for node in self._active_nodes:
            total += routers[node]._occupancy
        return total

    def queued_packets(self) -> int:
        return sum(len(ni.queue) for ni in self._ni_list)

    def is_drained(self) -> bool:
        return self.total_occupancy() == 0 and self.queued_packets() == 0

    # -- special message transport ---------------------------------------

    def send_special(self, from_node: int, out_port: int, msg: SpecialMessage) -> bool:
        """Launch a special message; False if the output link is absent.

        The link is claimed for this message's allocation opportunity
        (specials beat flits at the output mux, paper footnote 10) and
        delivery is scheduled ``now + 2``.  The claimed cycle depends on
        where in the cycle the send happens: before switch allocation
        (special forwarding, phase 1) the claim covers the *current*
        cycle; after it (``scheme.on_cycle``, phase 4 — FSM timeouts and
        watchdog sends) the current cycle's arbitration has already run,
        so the claim covers the next cycle instead — otherwise it would
        expire without ever blocking a flit.
        """
        router = self.routers[from_node]
        link = router.output_links[out_port]
        if link is None or link.dest_node is None:
            return False
        link.special_blocked_at = self.cycle + 1 if self._post_alloc else self.cycle
        self.stats.link_special_cycles[_SPECIAL_STAT_KEY[msg.mtype]] += 1
        arrival = self.cycle + 2
        self._special_arrivals.setdefault(arrival, []).append(
            (link.dest_node, link.dest_in_port, msg)
        )
        if self.tracer is not None:
            self.tracer.emit(
                self.cycle,
                SPECIAL_SEND,
                from_node,
                {
                    "mtype": msg.mtype.name,
                    "sender": msg.sender,
                    "out": self._port_names[out_port],
                    "turns": len(msg.turns),
                    "arrival": arrival,
                },
            )
        return True

    def _deliver_specials(self, now: int) -> None:
        arrivals = self._special_arrivals.pop(now, None)
        if not arrivals:
            return
        tracer = self.tracer
        by_router: Dict[int, List[Tuple[int, SpecialMessage]]] = {}
        for node, in_port, msg in arrivals:
            if node in self.routers:
                by_router.setdefault(node, []).append((in_port, msg))
                if tracer is not None:
                    tracer.emit(
                        now,
                        SPECIAL_DELIVER,
                        node,
                        {
                            "mtype": msg.mtype.name,
                            "sender": msg.sender,
                            "in_port": self._port_names[in_port],
                            "turns": len(msg.turns),
                        },
                    )
            else:
                # The target router died mid-flight (live reconfiguration):
                # the message is lost exactly like a dropped special — the
                # sender FSM recovers via its timeout — but the loss must
                # be visible, not silent.
                self.stats.specials_dropped += 1
                if tracer is not None:
                    tracer.emit(
                        now,
                        SPECIAL_DROP,
                        node,
                        {
                            "mtype": msg.mtype.name,
                            "sender": msg.sender,
                            "reason": "dead_router",
                        },
                    )
        for node, messages in by_router.items():
            self.scheme.process_specials(self, self.routers[node], messages, now)

    # -- live reconfiguration ----------------------------------------------

    def apply_faults(
        self,
        links: Iterable[Tuple[int, int]] = (),
        routers: Iterable[int] = (),
    ) -> Dict[str, int]:
        """Deactivate links/routers *mid-run* without rebuilding the network.

        Models the paper's Section II-D reconfiguration (faults and
        power-gating carving an irregular graph out of the mesh) happening
        while traffic is in flight, rather than between runs:

        1. the shared :class:`Topology` is mutated in place;
        2. dead routers are torn down — every resident packet and every
           packet queued at their NI is dropped and counted
           (``packets_dropped_reconfig``);
        3. surviving routers' output links are re-synced to the topology;
        4. routing tables are rebuilt in place via ``scheme.build_tables``
           and swapped into every NI (the "reconfiguration software" step
           the paper assumes costs zero cycles);
        5. in-flight special messages crossing a dead link or addressed to
           a dead router are cancelled (the sender FSM times out);
        6. the scheme reconciles its protocol state
           (:meth:`~repro.protocols.base.DeadlockScheme.on_topology_changed`):
           seals whose chain crosses a dead element are cleared and the
           owning recovery FSMs reset;
        7. salvage: packets (buffered or queued) whose remaining route
           crosses a dead element are re-stamped with a fresh route from
           their current router, or dropped-and-counted when their
           destination became unreachable.

        Returns a summary dict (also emitted as a ``reconfig.apply``
        event when an observer is attached).
        """
        now = self.cycle
        dead_routers = sorted(
            {n for n in routers if self.topo.node_is_active(n)}
        )
        link_list = [tuple(link) for link in links]
        for node in dead_routers:
            self.topo.deactivate_node(node)
        for u, v in link_list:
            self.topo.deactivate_link(u, v)

        dropped = 0
        for node in dead_routers:
            router = self.routers.pop(node)
            self._active_nodes.discard(node)
            self._queued_nodes.discard(node)
            for vc in list(router.residents()):
                dropped += self._count_drop(vc.packet, "dead_router", now)
                router.remove(vc)
            ni = self.nis.pop(node, None)
            if ni is not None:
                for packet in ni.queue:
                    dropped += self._count_drop(packet, "dead_router", now)
                ni.queue.clear()
        self._router_list = list(self.routers.values())
        self._ni_list = list(self.nis.values())

        self._sync_links()
        tables = self._rebuild_tables()
        specials_cancelled = self._purge_dead_specials(now)
        scheme_summary = self.scheme.on_topology_changed(
            self, added=(), removed=dead_routers, now=now
        ) or {}

        rerouted = 0
        for router in self._router_list:
            table = tables.get(router.node)
            for vc in list(router.residents()):
                packet = vc.packet
                reachable = packet.dst == router.node or (
                    table is not None and table.has_route(packet.dst)
                )
                if not reachable:
                    dropped += self._count_drop(
                        packet, "reconfig_unreachable", now
                    )
                    router.remove(vc)
                    continue
                if packet.is_escape:
                    continue  # follows the (rebuilt) per-router escape tables
                if router._adaptive_lookup is not None:
                    # Adaptive packets carry no committed route — the
                    # reachability check above is the whole salvage story.
                    # Drop the cached preference (it may point at a
                    # torn-down link); the next scan re-chooses from the
                    # rebuilt candidate sets.
                    packet.adapt_out = -1
                    continue
                if self._route_intact(router.node, packet.route, packet.hop):
                    continue
                if packet.dst == router.node:
                    packet.route = HOPS[self._local]
                else:
                    packet.route = table.pick_route(packet.dst, self._rng)
                packet.hop = 0
                rerouted += 1
                self.stats.packets_rerouted += 1
                if self.tracer is not None:
                    self.tracer.emit(
                        now,
                        PACKET_REROUTE,
                        router.node,
                        {"pid": packet.pid, "dst": packet.dst},
                    )
        for ni in self._ni_list:
            ni_rerouted, ni_dropped = ni.reroute_queued(
                now, lambda node, route: self._route_intact(node, route, 0)
            )
            rerouted += ni_rerouted
            dropped += ni_dropped
        for router in self._router_list:
            router.invalidate_vc_cache()
        self.wake_all()

        summary = {
            "links": len(link_list),
            "routers": len(dead_routers),
            "dropped": dropped,
            "rerouted": rerouted,
            "specials_cancelled": specials_cancelled,
            "seals_cleared": scheme_summary.get("seals_cleared", 0),
            "fsms_reset": scheme_summary.get("fsms_reset", 0),
        }
        if self.tracer is not None:
            self.tracer.emit(now, RECONFIG_APPLY, -1, summary)
        if self.verify_on_reconfig:
            self.certify()
        return summary

    def restore(
        self,
        links: Iterable[Tuple[int, int]] = (),
        routers: Iterable[int] = (),
    ) -> Dict[str, int]:
        """Reactivate power-gated links/routers mid-run (un-gating).

        The inverse of :meth:`apply_faults`: restored routers come back
        with fresh (empty) buffers and a fresh NI — exactly the state a
        rebuilt network would give them — the scheme re-provisions any
        augmentation (static bubble + FSM, escape VCs) through
        ``on_topology_changed``, and routing tables are rebuilt so traffic
        immediately uses the recovered paths.
        """
        now = self.cycle
        new_routers = sorted(
            {n for n in routers if not self.topo.node_is_active(n)}
        )
        link_list = [tuple(link) for link in links]
        for node in new_routers:
            self.topo.activate_node(node)
        for u, v in link_list:
            self.topo.activate_link(u, v)

        for node in new_routers:
            self._add_router(node)
        self.routers = dict(sorted(self.routers.items()))
        self._router_list = list(self.routers.values())

        self._sync_links()
        tables = self._rebuild_tables()
        for node in new_routers:
            self._add_ni(node, tables.get(node) or RoutingTable(node))
        self.nis = dict(sorted(self.nis.items()))
        self._ni_list = list(self.nis.values())

        self.scheme.on_topology_changed(
            self, added=new_routers, removed=(), now=now
        )
        for router in self._router_list:
            router.invalidate_vc_cache()
        self.wake_all()

        summary = {"links": len(link_list), "routers": len(new_routers)}
        if self.tracer is not None:
            self.tracer.emit(now, RECONFIG_RESTORE, -1, summary)
        if self.verify_on_reconfig:
            self.certify()
        return summary

    def wake_all(self) -> None:
        """Have the next sweep reconsider every router and NI.

        For state rewritten wholesale — links, routes, tables, seals: a
        reconfiguration, or a model-checker snapshot written back.
        """
        wake = self._wake
        for key in wake:
            wake[key] = 0

    def certify(self):
        """Machine-check the scheme's deadlock-freedom claim right now.

        Delegates to :meth:`repro.protocols.base.DeadlockScheme.verify`
        against the *current* (possibly faulted) topology, stores the
        certificate in :attr:`last_certificate`, and emits a
        ``verify.certificate`` event when an observer is attached.
        """
        cert = self.scheme.verify(self.topo, self.config)
        self.last_certificate = cert
        if not cert.ok:
            self.cert_failures += 1
        if self.tracer is not None:
            self.tracer.emit(
                self.cycle,
                VERIFY_CERTIFICATE,
                -1,
                {
                    "kind": cert.kind,
                    "scheme": cert.scheme,
                    "ok": cert.ok,
                    "channels": cert.channels,
                    "edges": cert.edges,
                    "counterexample": cert.counterexample_text,
                },
            )
        return cert

    def _count_drop(self, packet: Packet, reason: str, now: int) -> int:
        self.stats.packets_dropped_reconfig += 1
        if self.tracer is not None:
            self.tracer.emit(
                now, PACKET_DROP, packet.src, {"reason": reason, "dst": packet.dst}
            )
        return 1

    def _sync_links(self) -> None:
        """Re-derive every router's output links from the topology.

        Links that stayed active keep their :class:`OutputLink` object
        (preserving ``busy_until`` for tails still draining); dead links
        drop to ``None``; restored links get a fresh object.  Links are
        bidirectional, so the peer behind an output port is also the
        feeder of that input port (the router itself behind a dead one).
        """
        for node, router in self.routers.items():
            active = {port: peer for port, peer in self.topo.active_neighbors(node)}
            for port in range(self._local):
                peer = active.get(port)
                router._feeders[port] = node if peer is None else peer
                if peer is None:
                    router.output_links[port] = None
                elif router.output_links[port] is None:
                    router.output_links[port] = OutputLink(
                        peer, self.topo.arrival_port(node, port)
                    )
            # Re-home the arbiters.  Stale round-robin pointers would keep
            # biasing arbitration toward ports that no longer exist after
            # a reconfiguration — and a network rebuilt from the same
            # faulted topology starts from zero, so in-place must too.
            router._in_rr = [0] * self._num_ports
            router._out_rr = [0] * self._num_ports
            router._adapt_rr = [0] * self._num_ports

    def _rebuild_tables(self) -> Dict[int, RoutingTable]:
        """Re-run the scheme's table construction and swap tables in place."""
        tables = self.scheme.build_tables(self.topo, self.config)
        for node, ni in self.nis.items():
            ni.table = tables.get(node) or RoutingTable(node)
        return tables

    def _route_intact(self, node: int, route: Sequence[int], hop: int) -> bool:
        """Does the remaining source route cross only live links/routers?"""
        topo = self.topo
        local = self._local
        current = node
        for port in route[hop:]:
            if port == local:
                continue  # ejection exists at every live router
            nxt = topo.neighbor(current, port)
            if nxt is None or not topo.link_is_active(current, nxt):
                return False
            current = nxt
        return True

    def _purge_dead_specials(self, now: int) -> int:
        """Cancel scheduled special arrivals that crossed a dead element."""
        cancelled = 0
        tracer = self.tracer
        for arrival in list(self._special_arrivals):
            kept: List[Tuple[int, int, SpecialMessage]] = []
            for node, in_port, msg in self._special_arrivals[arrival]:
                upstream = self.topo.neighbor(node, in_port)
                if node not in self.routers:
                    reason = "dead_router"
                elif upstream is None or not self.topo.link_is_active(
                    upstream, node
                ):
                    reason = "dead_link"
                else:
                    kept.append((node, in_port, msg))
                    continue
                cancelled += 1
                self.stats.specials_dropped += 1
                if tracer is not None:
                    tracer.emit(
                        now,
                        SPECIAL_DROP,
                        node,
                        {
                            "mtype": msg.mtype.name,
                            "sender": msg.sender,
                            "reason": reason,
                        },
                    )
            if kept:
                self._special_arrivals[arrival] = kept
            else:
                del self._special_arrivals[arrival]
        return cancelled

    # -- per-cycle machinery -----------------------------------------------

    def step(self) -> None:
        now = self.cycle
        # A phase with nothing to act on is not entered at all.
        if self._special_arrivals:
            self._deliver_specials(now)
        self._inject_traffic(now)
        if self._queued_nodes:
            self._inject_queued(now)
        if self._active_nodes:
            self._allocate(now)
        self._post_alloc = True
        self.scheme.on_cycle(self, now)
        self._post_alloc = False
        obs = self.obs
        if obs is not None:
            obs.end_cycle(self, now)
        self.stats.cycles += 1
        self.cycle += 1

    def _inject_queued(self, now: int) -> None:
        """Move queued packets into free local-port VCs, ascending node order."""
        queued = self._queued_nodes
        nis = self.nis
        wake = self._wake
        sleepers = not self.full_scan
        for node in sorted(queued):
            if sleepers and wake[~node] > now:
                continue  # ``try_inject`` refused the head; it cannot have lapsed
            ni = nis[node]
            ni.try_inject(now)
            if not ni.queue:
                queued.discard(node)

    def _allocate(self, now: int) -> None:
        """Switch allocation at every router that can act, ascending node order."""
        if self.full_scan:
            for router in self._router_list:
                if router._occupancy:
                    self._allocate_router(router, now)
        else:
            # Node order matches the full scan (active_nodes() ascends),
            # so both paths are bit-identical.  A router asleep (``wake_at``
            # ahead of ``now``) is skipped: a sweep there rejects every VC
            # and has no side effect.  Routers drained to zero are evicted;
            # a mid-sweep arrival re-enters its router through
            # ``Router.place``.
            active = self._active_nodes
            routers = self.routers
            wake = self._wake
            for node in sorted(active):
                if wake[node] <= now:
                    router = routers[node]
                    if router._occupancy:
                        self._allocate_router(router, now)
                    else:
                        active.discard(node)

    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            self.step()

    def _inject_traffic(self, now: int) -> None:
        if self.traffic is None:
            return
        for src, dst, vnet, size in self.traffic.packets_at(now):
            ni = self.nis.get(src)
            if ni is None:
                self.stats.packets_dropped_unreachable += 1
                if self.tracer is not None:
                    self.tracer.emit(
                        now, PACKET_DROP, src, {"reason": "unreachable_src", "dst": dst}
                    )
                continue
            ni.create_packet(dst, vnet, size, now)

    # -- switch allocation ---------------------------------------------------

    def _allocate_router(self, router: Router, now: int) -> None:
        """Request latch, output arbitration and transfers for one router.

        The only switch-allocation code.  Each input port someone is
        resident at (``Router._port_load``) offers its VCs in round-robin
        order from its pointer; the first one that clears every grant
        condition is the port's request.  A rejected VC has no side
        effects (an adaptive request aside, see below).  A downstream
        class found full is asked once per sweep: later VCs wanting the
        same output and class are rejected from a memo.

        A sweep that issued no request raises ``router.wake_at`` to the
        earliest cycle at which one of the rejections lapses on its own:
        a ``ready_at``, a link's ``busy_until``, the cycle after a
        special's claim, the earliest ``free_at`` of an empty downstream
        buffer.  A dead link, a seal and a downstream class full of
        packets never do; the event that ends them wakes the router (see
        ``Router._wake``).
        """
        self.sweeps += 1
        # Input arbitration: one candidate VC per input port (round-robin).
        # This is the simulator's hottest loop — it runs once per occupied
        # router per cycle — so it works off the router's cached per-port
        # VC tuples and plain-int port arithmetic (no enum construction).
        requests: List[Tuple[int, VirtualChannel, Packet, int, object, int]] = []
        # The earliest cycle at which a rejection seen so far lapses.
        wake_at = NEVER
        # ``(out, is_escape, vnet)`` of each downstream class found with no
        # free VC this sweep, made on the first miss.  Exact: nothing is
        # claimed or released until every port has latched its request
        # (``place`` and ``remove`` run only from ``_grant``), so the same
        # question gets the same answer until then.
        full = None
        routers = self.routers
        vc_cache = router._vc_cache
        in_rr = router._in_rr
        output_links = router.output_links
        restricted = router.is_deadlock
        adaptive = router._adaptive_lookup is not None
        local = self._local
        for port, load in enumerate(router._port_load):
            if not load:
                continue  # nobody resident: not even the VC tuple is read
            vcs = vc_cache[port]
            if vcs is None:
                vcs = router.cached_port_vcs(port)
            n = len(vcs)
            if n == 0:
                continue
            start = in_rr[port] % n
            for k in range(start, start + n):
                vc = vcs[k % n]
                packet = vc.packet
                if packet is None:
                    continue
                if now < vc.ready_at:
                    if vc.ready_at < wake_at:
                        wake_at = vc.ready_at
                    continue
                if adaptive and not packet.is_escape:
                    grant = self._adaptive_request(router, port, packet, now)
                    if grant is None:
                        # Not side-effect free (``packet.adapt_out``):
                        # the rejected request is made again every cycle.
                        wake_at = now + 1
                        continue
                    out, target = grant
                    requests.append((port, vc, packet, out, target, (k + 1) % n))
                    break
                if packet.is_escape:
                    out = router._requested_output(packet)
                else:
                    out = packet.route[packet.hop]
                if full is not None and (out, packet.is_escape, packet.vnet) in full:
                    # Asked this sweep, so the link checks below passed
                    # then and its lapse is in ``wake_at``; a seal would
                    # reject without a wake either.
                    continue
                link = output_links[out]
                if link is None:
                    continue
                if now < link.busy_until:
                    if link.busy_until < wake_at:
                        wake_at = link.busy_until
                    continue
                if link.special_blocked_at == now:
                    wake_at = now + 1
                    continue
                if restricted and not router.injection_allowed(port, out):
                    continue
                if out == local:
                    target = None
                else:
                    downstream = routers[link.dest_node]
                    target = downstream.free_vc_for(link.dest_in_port, packet, now)
                    if target is None:
                        lapse = downstream.claimable_from(link.dest_in_port, packet)
                        if lapse < wake_at:
                            wake_at = lapse
                        if full is None:
                            full = set()
                        full.add((out, packet.is_escape, packet.vnet))
                        continue
                requests.append((port, vc, packet, out, target, (k + 1) % n))
                break
        if len(requests) == 1:
            self._grant(router, requests[0], now)  # nothing to arbitrate
            return
        if not requests:
            self._wake[router.node] = wake_at
            return
        # Output arbitration: one grant per output port (round-robin on
        # input port index).
        num_ports = self._num_ports
        by_out: Dict[int, List[tuple]] = {}
        for request in requests:
            by_out.setdefault(request[3], []).append(request)
        for out, contenders in by_out.items():
            if len(contenders) == 1:
                winner = contenders[0]
            else:
                rr = router._out_rr[out]
                winner = min(contenders, key=lambda c: (c[0] - rr) % num_ports)
            self._grant(router, winner, now)

    def _grant(self, router: Router, request: tuple, now: int) -> None:
        """Advance the arbiters past a winning request and move its packet.

        The input pointer advances only for *granted* requests: a VC that
        loses output arbitration must stay first in line at its port, or
        it can starve behind fresher arrivals.
        """
        port, vc, packet, out, target, advance = request
        num_ports = self._num_ports
        router._out_rr[out] = (port + 1) % num_ports
        router._in_rr[port] = advance
        if router._adaptive_lookup is not None and not packet.is_escape:
            # The adaptive tie-break pointer advances past the port that
            # just won, like the switch arbiters: grants rotate
            # preference, losses keep it.
            router._adapt_rr[port] = (out + 1) % num_ports
        self._transfer(router, vc, packet, out, target, now)

    def _adaptive_request(
        self, router: Router, port: int, packet: Packet, now: int
    ) -> Optional[Tuple[int, Optional[VirtualChannel]]]:
        """One adaptive packet's switch request: first grantable candidate.

        Walks the credit-ordered minimal candidates
        (:meth:`Router.adaptive_order`) and returns ``(out, target_vc)``
        for the first one that clears every grant condition the
        deterministic path checks (live link, IO-priority seal,
        downstream free VC), or ``None`` when the packet cannot move this
        cycle.  ``packet.adapt_out`` is updated to the winning candidate
        — or the top preference when nothing is grantable — so probes,
        the deadlock oracle, and seal checks see a concrete outport.
        """
        order = router.adaptive_order(port, packet, self.routers, now)
        if not order:
            return None
        packet.adapt_out = order[0]
        output_links = router.output_links
        restricted = router.is_deadlock
        for out in order:
            link = output_links[out]
            if (
                link is None
                or now < link.busy_until
                or link.special_blocked_at == now
            ):
                continue
            if restricted and not router.injection_allowed(port, out):
                continue
            if out == router.local:
                packet.adapt_out = out
                return out, None
            target = self.routers[link.dest_node].free_vc_for(
                link.dest_in_port, packet, now
            )
            if target is None:
                continue
            packet.adapt_out = out
            return out, target
        return None

    def _transfer(
        self,
        router: Router,
        vc: VirtualChannel,
        packet: Packet,
        out: int,
        target: Optional[VirtualChannel],
        now: int,
    ) -> None:
        link = router.output_links[out]
        size = packet.size
        link.busy_until = now + size
        router.remove(vc, now + size)
        self.stats.buffer_reads += size
        self.stats.crossbar_flits += size
        if out == router.local:
            self.nis[router.node].eject(packet, now)
        else:
            self.stats.link_flit_cycles += size
            self.stats.buffer_writes += size
            self.routers[link.dest_node].place(target, packet, now + 2)
            if not packet.is_escape:
                packet.hop += 1
                # Any cached adaptive preference referred to the router
                # just left; the next allocation scan re-chooses here.
                packet.adapt_out = -1
            if self.tracer is not None:
                self.tracer.emit(
                    now,
                    PACKET_TRANSFER,
                    router.node,
                    {
                        "pid": packet.pid,
                        "to": link.dest_node,
                        "out": self._port_names[out],
                        "size": size,
                    },
                )
        if vc.kind == VC_BUBBLE:
            # A drained bubble may leave the port's VC membership (it is
            # only attached while active or occupied).
            router.invalidate_vc_cache()
            self.scheme.on_bubble_drained(self, router, now)
