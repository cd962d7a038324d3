"""Router microarchitecture: VCs, output links, and switch allocation.

Model (Section "DESIGN.md §4"):

* ``radix + 1`` ports — the topology's network ports plus the local
  injection/ejection port (E/N/W/S/Local on the 2D mesh, whose port
  count of 5 is the default); ``vnets * vcs_per_vnet`` packet-deep VCs
  per input port (virtual cut-through).
* 1-cycle router + 1-cycle link: a packet granted the switch at cycle
  ``t`` becomes switchable at the downstream router at ``t + 2``; its
  tail occupies the upstream VC and the link for ``size`` cycles.
* Separable round-robin switch allocation: one grant per input port and
  per output port per cycle.
* Scheme hooks: the ``is_deadlock`` / IO-priority injection restriction
  (Static Bubble disables), the activated static-bubble VC, and escape
  VCs are all modelled here so that every scheme shares one router.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.core.turns import Port
from repro.sim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.network import Network

#: Later than any reachable cycle.
NEVER = 1 << 60

#: VC kinds.
VC_NORMAL = 0
VC_ESCAPE = 1
VC_BUBBLE = 2


class VirtualChannel:
    """One packet-deep virtual channel at an input port."""

    __slots__ = ("port", "index", "vnet", "kind", "packet", "ready_at", "free_at")

    def __init__(self, port: int, index: int, vnet: int, kind: int = VC_NORMAL):
        self.port = port
        self.index = index
        self.vnet = vnet
        self.kind = kind
        self.packet: Optional[Packet] = None
        #: Cycle from which the resident packet may be switched onward.
        self.ready_at = 0
        #: Cycle from which an empty VC may be re-reserved (tail drain).
        self.free_at = 0

    def is_free(self, now: int) -> bool:
        return self.packet is None and now >= self.free_at

    def has_switchable_packet(self, now: int) -> bool:
        return self.packet is not None and now >= self.ready_at

    def __repr__(self) -> str:
        kind = {VC_NORMAL: "N", VC_ESCAPE: "E", VC_BUBBLE: "B"}[self.kind]
        name = Port(self.port).name if 0 <= self.port < 5 else str(self.port)
        return f"VC(p={name},i={self.index},{kind},pkt={self.packet})"


class OutputLink:
    """The unidirectional channel behind one output port."""

    __slots__ = ("dest_node", "dest_in_port", "busy_until", "special_blocked_at")

    def __init__(self, dest_node: Optional[int], dest_in_port: int = -1):
        #: Downstream router id; ``None`` for the ejection (local) port.
        self.dest_node = dest_node
        #: Input port at the downstream router this link feeds — the
        #: per-edge generalization of the mesh's ``OPPOSITE_PORT`` table
        #: (-1 for the ejection port).
        self.dest_in_port = dest_in_port
        self.busy_until = 0
        #: Cycle in which a special message claimed this link (flits lose
        #: switch arbitration for that cycle, paper footnote 10).
        self.special_blocked_at = -1

    def is_free(self, now: int) -> bool:
        return now >= self.busy_until and self.special_blocked_at != now


class Router:
    """One router (any topology; the 2D mesh's 5 ports are the default)."""

    def __init__(
        self, node: int, vnets: int, vcs_per_vnet: int, num_ports: int = 5
    ) -> None:
        self.node = node
        self.vnets = vnets
        self.vcs_per_vnet = vcs_per_vnet
        #: Ports including local; ``local`` is always the last port index.
        self.num_ports = num_ports
        self.local = num_ports - 1
        #: input_vcs[port] -> list of VirtualChannel (normal, then escape).
        self.input_vcs: List[List[VirtualChannel]] = [[] for _ in range(num_ports)]
        for port in range(num_ports):
            for vnet in range(vnets):
                for i in range(vcs_per_vnet):
                    self.input_vcs[port].append(
                        VirtualChannel(port, len(self.input_vcs[port]), vnet)
                    )
        #: output_links[port] -> OutputLink or None when no active link.
        self.output_links: List[Optional[OutputLink]] = [None] * num_ports
        #: Round-robin pointers for input-side and output-side arbiters.
        self._in_rr = [0] * num_ports
        self._out_rr = [0] * num_ports
        #: Per-input-port round-robin pointer breaking credit ties in the
        #: adaptive outport selection (unused by deterministic schemes).
        self._adapt_rr = [0] * num_ports
        #: The resident index, written only by :meth:`place`, :meth:`remove`
        #: and the bubble re-tag in :meth:`activate_bubble`, read by every
        #: per-cycle buffer walk: packets resident in this router, ...
        self._occupancy = 0
        #: ... per input port (``vc.port``: a bubble resident counts under
        #: the port its bubble is attached to; a never-attached bubble's -1
        #: indexes the local port's cell, where it can hide nothing), ...
        self._port_load = [0] * num_ports
        #: ... and a lower bound on the ``ready_at`` of those outside the
        #: escape layer: exact after an arrival at an empty router, too low
        #: after a departure until a walk of the residents tightens it.
        self._ready_floor = 0
        #: The owning network's wake table: ``node`` -> a lower bound on
        #: the earliest cycle at which a packet resident in that router
        #: could be granted (:attr:`wake_at`), ``~node`` -> the same for
        #: the head of that node's NI queue.  A sweep that granted nothing
        #: raises an entry to the earliest cycle at which a reject reason
        #: lapses on its own; whatever else can make a grant possible
        #: lowers it (:meth:`place`, :meth:`remove`, :meth:`wake`).  Plain
        #: ints in a shared dict, so routers never reference each other.
        #: A private table for a router built standalone.
        self._wake: Dict[int, int] = {node: 0, ~node: 0}
        #: Per input port, the wake-table key of whoever feeds it: the
        #: upstream router's node, ``~node`` (the NI) for the local port,
        #: and this router itself where nothing does.
        self._feeders: List[int] = [node] * self.local + [~node]
        #: The owning network's occupied-router set (``_active_nodes``):
        #: :meth:`place` enters this router, the allocation sweep evicts
        #: it once drained.  A private set for a router built standalone.
        self._active: Set[int] = set()
        #: Lazily built ``tuple(port_vcs(port))`` per port; invalidated on
        #: bubble activation/deactivation, bubble drain, and escape-VC
        #: provisioning — the only events that change VC membership.
        self._vc_cache: List[Optional[Tuple[VirtualChannel, ...]]] = [None] * num_ports
        #: The Static Bubble scheme's sealed-router set (shared by all its
        #: routers): ``set_io_restriction`` enters this router, so the set
        #: tracks every install site (including direct calls in tests).
        #: The set itself rather than a bound ``add``, so a deep copy of
        #: the network seals into its own copy.  A private set otherwise.
        self._sealed: Set[int] = set()
        #: Flat tuple of all compass-port (E/N/W/S) input VCs, rebuilt with
        #: the class index — the SB watch logic walks this every cycle.
        self.compass_vcs: Tuple[VirtualChannel, ...] = ()
        #: Per-port map (kind, vnet) -> VCs in index order, so the free-VC
        #: search touches only candidates of the right class.
        self._class_vcs: List[Dict[Tuple[int, int], Tuple[VirtualChannel, ...]]] = []
        self._rebuild_class_index()

        # -- deadlock-scheme state (Section IV) --
        #: Injection restriction installed by a disable message.
        self.is_deadlock = False
        self.io_in_port: Optional[int] = None
        self.io_out_port: Optional[int] = None
        self.source_id: Optional[int] = None
        #: Cycle at which the current IO restriction was installed.
        self.io_set_at = 0
        #: The static bubble VC (only on SB routers; None elsewhere).
        self.bubble: Optional[VirtualChannel] = None
        self.bubble_active = False

    # -- occupancy / activity tracking -------------------------------------

    @property
    def occupancy(self) -> int:
        """Packets resident in this router."""
        return self._occupancy

    @property
    def wake_at(self) -> int:
        """No resident packet can be granted before this cycle."""
        return self._wake[self.node]

    @wake_at.setter
    def wake_at(self, cycle: int) -> None:
        self._wake[self.node] = cycle

    def wake(self) -> None:
        """Have the next sweep reconsider this router and its NI.

        For a change other than the passing of time to what a resident
        or the NI's queue head may be granted: a seal set or cleared, a
        buffered packet diverted to the escape layer.
        """
        self._wake[self.node] = self._wake[~self.node] = 0

    def place(self, vc: VirtualChannel, packet: Packet, ready_at: int) -> None:
        """Put ``packet`` into ``vc``, switchable from cycle ``ready_at``.

        The one way a packet arrives at a router — link transfer, NI
        injection, bubble relocation, snapshot restore, a scenario
        placing packets by hand — so occupancy, :attr:`wake_at` and the
        network's occupied-router set cannot disagree with the VCs.
        """
        vc.packet = packet
        vc.ready_at = ready_at
        wake = self._wake
        if self._occupancy == 0:
            wake[self.node] = self._ready_floor = ready_at
        else:
            if ready_at < wake[self.node]:
                wake[self.node] = ready_at
            if ready_at < self._ready_floor:
                self._ready_floor = ready_at
        self._occupancy += 1
        self._port_load[vc.port] += 1
        self._active.add(self.node)

    def remove(self, vc: VirtualChannel, free_at: Optional[int] = None) -> None:
        """Take the resident packet out of ``vc`` (departure or drop).

        ``free_at`` is the cycle from which the emptied VC may be claimed
        again (tail drain); ``None`` keeps the VC's current one.  Whoever
        feeds ``vc.port`` is woken for that cycle.
        """
        vc.packet = None
        if free_at is None:
            free_at = vc.free_at
        else:
            vc.free_at = free_at
        self._occupancy -= 1
        self._port_load[vc.port] -= 1
        wake = self._wake
        feeder = self._feeders[vc.port]
        if free_at < wake[feeder]:
            wake[feeder] = free_at

    # -- VC caches ----------------------------------------------------------

    def invalidate_vc_cache(self) -> None:
        """Drop the cached per-port VC tuples (bubble/provisioning change)."""
        cache = self._vc_cache
        for port in range(self.num_ports):
            cache[port] = None

    def cached_port_vcs(self, port: int) -> Tuple[VirtualChannel, ...]:
        """``tuple(port_vcs(port))``, cached until VC membership changes."""
        vcs = self._vc_cache[port]
        if vcs is None:
            vcs = tuple(self.port_vcs(port))
            self._vc_cache[port] = vcs
        return vcs

    def _rebuild_class_index(self) -> None:
        self._class_vcs = []
        for port in range(self.num_ports):
            by_class: Dict[Tuple[int, int], List[VirtualChannel]] = {}
            for vc in self.input_vcs[port]:
                by_class.setdefault((vc.kind, vc.vnet), []).append(vc)
            self._class_vcs.append(
                {key: tuple(vcs) for key, vcs in by_class.items()}
            )
        self.compass_vcs = tuple(
            vc for port in range(self.num_ports - 1) for vc in self.input_vcs[port]
        )

    # -- construction helpers ---------------------------------------------

    def add_escape_vcs(self, reserve_existing: bool = True) -> None:
        """Provision one escape VC per vnet at every input port.

        With ``reserve_existing`` (the paper's framing: "one VC per message
        class per input port always needs to be kept reserved"), the last
        normal VC of each vnet is converted into the escape VC, so normal
        traffic sees one VC less.  Otherwise an extra VC is appended.
        """
        for port in range(self.num_ports):
            if reserve_existing:
                converted = set()
                for vc in reversed(self.input_vcs[port]):
                    if vc.kind == VC_NORMAL and vc.vnet not in converted:
                        vc.kind = VC_ESCAPE
                        converted.add(vc.vnet)
                if len(converted) != self.vnets:
                    raise RuntimeError("not enough VCs to reserve escapes")
            else:
                for vnet in range(self.vnets):
                    self.input_vcs[port].append(
                        VirtualChannel(port, len(self.input_vcs[port]), vnet, VC_ESCAPE)
                    )
        self._rebuild_class_index()
        self.invalidate_vc_cache()

    def add_static_bubble(self) -> None:
        """Attach the (initially off) static bubble buffer."""
        self.bubble = VirtualChannel(-1, -1, 0, VC_BUBBLE)
        self.invalidate_vc_cache()

    def activate_bubble(self, in_port: int) -> None:
        bubble = self.bubble
        if bubble is None:
            raise RuntimeError(f"router {self.node} has no static bubble")
        if bubble.packet is not None:
            # A stale resident moves to the new port with its bubble.
            self._port_load[bubble.port] -= 1
            self._port_load[in_port] += 1
        bubble.port = in_port
        self.bubble_active = True
        self.invalidate_vc_cache()
        # A buffer became claimable behind ``in_port``, and a resident of
        # the bubble now competes under that port.
        self._wake[self._feeders[in_port]] = 0
        self.wake()

    def deactivate_bubble(self) -> None:
        self.bubble_active = False
        self.invalidate_vc_cache()

    # -- queries ------------------------------------------------------------

    def all_vcs(self):
        for port_vcs in self.input_vcs:
            for vc in port_vcs:
                yield vc
        if self.bubble is not None and (self.bubble_active or self.bubble.packet):
            yield self.bubble

    def residents(self):
        """The VCs holding a packet, in :meth:`all_vcs` order; only ports
        with a non-zero count are opened."""
        load = self._port_load
        for port, port_vcs in enumerate(self.input_vcs):
            if load[port]:
                for vc in port_vcs:
                    if vc.packet is not None:
                        yield vc
        if self.bubble is not None and self.bubble.packet is not None:
            yield self.bubble

    def compass_load(self) -> int:
        """Packets counted under the compass (non-local) input ports.

        One-sided: zero proves :attr:`compass_vcs` empty; a bubble resident
        counts under a compass port without being one of them.
        """
        return self._occupancy - self._port_load[self.local]

    def port_vcs(self, port: int):
        """VCs logically attached to ``port``.

        The static bubble counts while it is active or still holds a
        packet (a resident must stay switchable even after the bubble is
        administratively switched off).
        """
        yield from self.input_vcs[port]
        if (
            self.bubble is not None
            and (self.bubble_active or self.bubble.packet is not None)
            and self.bubble.port == port
        ):
            yield self.bubble

    def free_vc_for(self, port: int, packet: Packet, now: int) -> Optional[VirtualChannel]:
        """A free VC at input port ``port`` usable by ``packet``.

        Escape packets use escape VCs only; normal packets use normal VCs,
        falling back to an *active* static bubble attached to this port.
        """
        wanted_kind = VC_ESCAPE if packet.is_escape else VC_NORMAL
        for vc in self._class_vcs[port].get((wanted_kind, packet.vnet), ()):
            if vc.packet is None and now >= vc.free_at:
                return vc
        if (
            not packet.is_escape
            and self.bubble is not None
            and self.bubble_active
            and self.bubble.port == port
            and self.bubble.is_free(now)
        ):
            return self.bubble
        return None

    def claimable_from(self, port: int, packet: Packet) -> int:
        """When :meth:`free_vc_for` can next succeed with no departure here.

        The earliest ``free_at`` among the buffers it would consider that
        are already empty; :data:`NEVER` when every one holds a packet.
        """
        wanted_kind = VC_ESCAPE if packet.is_escape else VC_NORMAL
        vcs = self._class_vcs[port].get((wanted_kind, packet.vnet), ())
        if not packet.is_escape and self.bubble_active and self.bubble.port == port:
            vcs += (self.bubble,)
        best = NEVER
        for vc in vcs:
            if vc.packet is None and vc.free_at < best:
                best = vc.free_at
        return best

    def injection_allowed(self, in_port: int, out_port: int) -> bool:
        """Apply the IO-priority restriction installed by a disable.

        When ``is_deadlock`` is set, only the chain's input port may send
        into the chain's output port (no new packets enter the sealed
        dependence cycle; local injection into it is also stopped).
        """
        if not self.is_deadlock:
            return True
        if out_port != self.io_out_port:
            return True
        return in_port == self.io_in_port

    def set_io_restriction(
        self, in_port: int, out_port: int, source: int, now: int = 0
    ) -> None:
        self.is_deadlock = True
        self.io_in_port = in_port
        self.io_out_port = out_port
        self.source_id = source
        self.io_set_at = now
        self._sealed.add(self.node)
        self.wake()

    def clear_io_restriction(self) -> None:
        self.is_deadlock = False
        self.io_in_port = None
        self.io_out_port = None
        self.source_id = None
        self.wake()

    def vc_wants_output(self, port: int, out_port: int, now: int) -> bool:
        """Buffer Dependency Check unit: any VC at ``port`` wanting ``out_port``?"""
        for vc in self.cached_port_vcs(port):
            if vc.has_switchable_packet(now):
                pkt = vc.packet
                if self._requested_output(pkt) == out_port:
                    return True
        return False

    def _requested_output(self, packet: Packet) -> int:
        """Output port the packet wants at this router (escape-aware).

        Adaptive packets report the preference cached by the last
        allocation scan (``packet.adapt_out``); before any scan has run
        at this router, the lowest-numbered minimal candidate stands in.
        The single-outport view is what probes, seal checks, and trace
        events consume — the allocator itself uses the full candidate
        set via :meth:`adaptive_order`.
        """
        if packet.is_escape and self._escape_lookup is not None:
            return self._escape_lookup(self.node, packet.dst)
        if self._adaptive_lookup is not None:
            out = packet.adapt_out
            if out >= 0:
                return out
            candidates = self._adaptive_lookup(self.node, packet.dst)
            return candidates[0] if candidates else self.local
        return packet.route[packet.hop]

    # -- adaptive outport selection ----------------------------------------

    def downstream_credits(self, out: int, vnet: int, routers, now: int) -> int:
        """Free non-escape VCs of ``vnet`` at the downstream input port.

        This is the credit signal the adaptive selection scores with: the
        count of immediately claimable normal VCs behind outport ``out``.
        Escape VCs never count (they belong to the recovery layer) and
        neither does a static bubble (claimable, but only as a last
        resort through :meth:`free_vc_for` — scoring it would steer load
        *into* the recovery resource).  Returns 0 for a dead link.
        """
        link = self.output_links[out]
        if link is None or link.dest_node is None:
            return 0
        downstream = routers[link.dest_node]
        credits = 0
        in_port = link.dest_in_port
        for vc in downstream._class_vcs[in_port].get((VC_NORMAL, vnet), ()):
            if vc.packet is None and now >= vc.free_at:
                credits += 1
        return credits

    def adaptive_order(
        self, in_port: int, packet: Packet, routers, now: int
    ) -> List[int]:
        """Minimal outport candidates for ``packet``, best-first.

        Order: downstream credit count descending, ties broken by the
        per-input-port round-robin pointer ``_adapt_rr[in_port]`` (the
        pointer advances only when a grant lands, mirroring the switch
        arbiters).  Candidates whose output link is torn down are
        dropped; the ejection port (destination reached) is always the
        sole candidate and shortcuts the scoring walk.
        """
        candidates = self._adaptive_lookup(self.node, packet.dst)
        if len(candidates) <= 1:
            return list(candidates)
        rr = self._adapt_rr[in_port]
        scored = []
        for out in candidates:
            if self.output_links[out] is None:
                continue
            scored.append(
                (
                    -self.downstream_credits(out, packet.vnet, routers, now),
                    (out - rr) % self.num_ports,
                    out,
                )
            )
        scored.sort()
        return [entry[2] for entry in scored]

    #: Installed by the escape-VC scheme: (node, dst) -> output port.
    _escape_lookup: Optional[Callable[[int, int], int]] = None
    #: Installed by an adaptive scheme: (node, dst) -> tuple of minimal
    #: outport candidates (ascending).  ``None`` under deterministic
    #: schemes, which keeps the allocation hot path branch-free for them.
    _adaptive_lookup: Optional[Callable[[int, int], Tuple[int, ...]]] = None

    def __repr__(self) -> str:
        return f"Router({self.node}, occ={self.occupancy}, dl={self.is_deadlock})"
