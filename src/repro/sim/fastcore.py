"""Struct-of-arrays fast engine (``Network(..., engine="fast")``).

The reference engine in :mod:`repro.sim.network` walks every occupied
router and every VC as Python objects each cycle.  At saturation most of
that walk rejects candidates: the VC is empty, its packet is not yet
switchable, the output link is busy, or the downstream port has no free
buffer.  :class:`FastNetwork` keeps the object model as the source of
truth but mirrors the *rejection tests* into flat preallocated numpy
arrays — a packet/VC side table indexed by slot — so a cycle on a busy
network opens with a handful of masked array ops over all slots at once:

``ready[slot]``
    ``vc.ready_at`` while occupied, else a ``BIG`` sentinel (so plain
    ``<= now`` folds "is there a switchable packet" into one compare).
``outc[slot] -> lbusy[cell]``
    Gather index into per-output-link "free from" times.  A special
    message claiming the link for cycle ``c`` is folded in as
    ``max(busy_until, c + 1)`` — one array answers both rejection tests.
``downc[slot] -> comb[cell]``
    Gather index into per-(router, port, kind, vnet) class availability:
    the min ``free_at`` over the class's empty VCs, pre-merged with the
    attached static bubble's availability for normal classes.  One
    compare answers "does the downstream port have a usable buffer".

The surviving mask is an *over-approximation* of the grantable set:
during the ascending-node allocation sweep, availability only shrinks
(grants fill downstream buffers, specials claim links, bubbles
deactivate — nothing mid-sweep creates new candidates;
``CounterFsm.on_bubble_reclaimed`` never activates a bubble).  So a
cycle-start filter never *misses* a grantable VC.  The survivors go to
the one grant stage both engines share —
``Network._allocate_router(router, now, candidates)`` — which re-checks
every condition against the live objects, so grants, round-robin
pointer movement, stats and trace events are bit-identical to the
reference sweep.  IO-priority restrictions (Static Bubble seals) are
deliberately *not* vectorized: they are checked live only, so seal churn
needs no mirror maintenance.

The planes are ``array('q')`` buffers, each with a zero-copy numpy view:
bookkeeping writes single elements at plain-Python cost, the filter
reads the same memory vectorized, and nothing is ever copied between
the two.  No grant is mirrored as it happens: nothing reads the planes
between a grant and the next filter (the grant stage checks the live
objects), so the ``_transfer`` override only notes what moved and the
next cycle start replays the notes in one pass (``_flush_moved``).

Scheme hooks need no changes: membership mutations funnel through
``Router.invalidate_vc_cache`` which fires ``Router._dirty_hook`` — the
narrow adapter — and dirtied routers are resynced at the next cycle
start.  In-place packet mutations (the escape-VC scheme flipping
``packet.is_escape`` on buffered packets) fire the same hook directly,
so only the affected routers resync.

The filter costs the same whatever the load, and on a nearly empty
network the reference's sweep of the few occupied routers is cheaper.
So the sweep is chosen every cycle from packets in flight
(:meth:`FastNetwork._begin_cycle`, :data:`DENSE_ABOVE` /
:data:`SPARSE_BELOW`).  Both are exact, so the choice only moves time.
A *sparse* cycle is the base class's in every respect and maintains
nothing here; the first *dense* cycle after one resyncs the whole
mirror, or builds it — a network that never fills never has one.  On
dense cycles the mirror is exact whichever sweep ran: ``full_scan`` runs
the base sweep through the same ``_transfer`` override.
``apply_faults`` / ``restore`` mark the layout stale and the next dense
cycle rebuilds it.  Setting ``_paranoid`` on an instance resyncs every
router every dense cycle (slow; for debugging mirror drift).
"""

from __future__ import annotations

from array import array
from itertools import groupby
from typing import Dict, List, Tuple

import numpy as np

from repro.core.messages import SpecialMessage
from repro.sim.network import Network
from repro.sim.router import Router, VC_ESCAPE, VC_NORMAL, VirtualChannel

#: Time sentinel: larger than any reachable cycle count, small enough to
#: survive int64 arithmetic headroom.
BIG = 1 << 60

#: Packets in flight above which a cycle runs the vector filter, and
#: below which a dense run falls back to the base sweep.  The filter
#: costs the same whatever the load and the base sweep costs per loaded
#: port of a router awake, so the two cross once; on the faulted 8x8 that
#: is a plateau around 175-250 in flight (rate 0.02 holds ~6, saturation
#: ~680), and the gap between the two constants is the hysteresis.
DENSE_ABOVE = 250
SPARSE_BELOW = 175


def _plane(values: List[int]):
    """An ``array('q')`` and the numpy view sharing its memory."""
    cells = array("q", values)
    return cells, np.frombuffer(cells, dtype=np.int64)


class FastNetwork(Network):
    """Struct-of-arrays engine; constructed via ``Network(..., engine="fast")``."""

    # -- construction -------------------------------------------------------

    def _engine_setup(self) -> None:
        self.engine = "fast"
        #: Which sweep this cycle runs, chosen in :meth:`_begin_cycle`:
        #: True = vector filter with the mirror kept current, False = the
        #: base sweep with nothing maintained.
        self._dense = False
        #: Vector-filter passes run so far (a count, for tests and probes).
        self.filter_passes = 0
        #: Debugging aid: resync every router every dense cycle (slow) to
        #: rule out mirror drift.
        self._paranoid = False
        #: Node ids whose router mutated VC membership since the last sync.
        self._dirty: set = set()
        #: The slot layout does not describe the routers: no mirror built
        #: yet, ``apply_faults`` / ``restore``, or VC *structure* changed
        #: post-warm (``add_escape_vcs`` / ``add_static_bubble``; the
        #: mirrored routers share this cell).  A value-level resync
        #: cannot help — the next dense cycle rebuilds.
        self._structure_stale = [True]

    def _build_mirror(self) -> None:
        """(Re)build the slot layout and the planes."""
        P = self._num_ports
        local = self._local
        routers = self.routers
        rlist = [routers[node] for node in sorted(routers)]
        self._mrouters: List[Router] = rlist
        self._rpos: Dict[int, int] = {r.node: i for i, r in enumerate(rlist)}

        slot_vcs: List[VirtualChannel] = []
        slot_rpos: List[int] = []
        slot_port: List[int] = []
        rslots: List[Tuple[int, int]] = []
        rlocal: List[Tuple[int, int]] = []
        avail_index: Dict[Tuple[int, int, int, int], int] = {}
        avail_members: List[List[int]] = []
        comb_bub: List[int] = []
        avail_of_slot: List[int] = []

        for rpos, router in enumerate(rlist):
            slot_lo = len(slot_vcs)
            local_lo = local_hi = 0
            for port in range(P):
                if port == local:
                    local_lo = len(slot_vcs)
                for vc in router.input_vcs[port]:
                    key = (rpos, port, vc.kind, vc.vnet)
                    c = avail_index.get(key)
                    if c is None:
                        c = len(avail_members)
                        avail_index[key] = c
                        avail_members.append([])
                        # Normal classes fold in their port's bubble
                        # availability; escape packets never use the bubble.
                        comb_bub.append(
                            rpos * P + port if vc.kind == VC_NORMAL else -1
                        )
                    avail_members[c].append(len(slot_vcs))
                    avail_of_slot.append(c)
                    slot_vcs.append(vc)
                    slot_rpos.append(rpos)
                    slot_port.append(port)
                if port == local:
                    local_hi = len(slot_vcs)
            if router.bubble is not None:
                # The bubble gets its own slot with port -1: its attachment
                # port is resolved live at grant time.
                avail_of_slot.append(-1)
                slot_vcs.append(router.bubble)
                slot_rpos.append(rpos)
                slot_port.append(-1)
            rslots.append((slot_lo, len(slot_vcs)))
            rlocal.append((local_lo, local_hi))

        S = len(slot_vcs)
        C = len(avail_members)
        L = len(rlist) * P  # sentinel link/bubble cell (always unavailable)
        self._S = S
        self._slot_vcs = slot_vcs
        self._slot_of: Dict[VirtualChannel, int] = {
            vc: i for i, vc in enumerate(slot_vcs)
        }
        self._slot_rpos = slot_rpos
        self._slot_port = slot_port
        self._avail_members = [tuple(m) for m in avail_members]
        self._avail_of_slot = avail_of_slot
        self._avail_index = avail_index
        self._comb_bub = comb_bub
        self._rslots = rslots
        self._rlocal = rlocal
        self._sent_link = L
        self._sent_true = C  # always-available comb cell (LOCAL ejection)
        self._sent_false = C + 1
        #: Always-free link cell: adaptive slots point here so the filter
        #: reduces to ``ready <= now`` — a multi-candidate request has no
        #: single (outc, downc) pair, so stage 2 evaluates it live.
        self._sent_pass = L + 1

        # The planes the filter reads (see the module docstring).
        self._ready, self._ready_np = _plane([BIG] * S)
        self._outc, self._outc_np = _plane([L] * S)
        self._downc, self._downc_np = _plane([C + 1] * S)
        self._lbusy, self._lbusy_np = _plane([0] * L + [BIG, 0])
        self._comb, self._comb_np = _plane([0] * C + [0, BIG])
        # Inputs of ``comb`` the filter never reads: per-slot ``free_at``
        # (BIG while occupied) and per-(router, port) bubble availability.
        self._free: List[int] = [0] * S
        self._bubav: List[int] = [BIG] * (L + 1)
        self._t1 = np.empty(S, dtype=np.int64)
        self._t2 = np.empty(S, dtype=np.int64)
        self._b0 = np.empty(S, dtype=bool)

        # What changed since the last cycle start, for ``_flush_moved``:
        # ``(router, vc, out, target)`` per grant, and slots injected into.
        self._moved: List[tuple] = []
        self._filled: List[int] = []

        for router in rlist:
            router._dirty_hook = self._dirty.add
            router._structure_stale = self._structure_stale

        self._resync_all()
        self._dirty.clear()
        self._structure_stale[0] = False

    # -- mirror synchronization ---------------------------------------------

    def _sync(self, slots) -> None:
        """Refresh slots, and the class cells they belong to, from the live VCs."""
        slot_vcs = self._slot_vcs
        slot_rpos = self._slot_rpos
        rlist = self._mrouters
        rpos_map = self._rpos
        avail_index_get = self._avail_index.get
        ready = self._ready
        free = self._free
        outc = self._outc
        downc = self._downc
        sent_link = self._sent_link
        sent_false = self._sent_false
        sent_true = self._sent_true
        P = self._num_ports
        local = self._local
        for i in slots:
            vc = slot_vcs[i]
            packet = vc.packet
            if packet is None:
                # ``ready`` alone keeps an empty slot out of the filter.
                ready[i] = BIG
                free[i] = vc.free_at
                continue
            ready[i] = vc.ready_at
            free[i] = BIG
            rpos = slot_rpos[i]
            router = rlist[rpos]
            if not packet.is_escape and router._adaptive_lookup is not None:
                # Multi-candidate request: no single (outc, downc) pair can
                # express "grantable via any minimal hop", so the filter
                # passes whenever the packet is switchable and stage 2 walks
                # the candidates live (the shared ``_adaptive_request``).
                outc[i] = self._sent_pass
                downc[i] = sent_true
                continue
            # Past the adaptive case, only escape packets need the lookup.
            out = (
                router._requested_output(packet)
                if packet.is_escape
                else packet.route[packet.hop]
            )
            link = router.output_links[out]
            if link is None:
                # Dead link (transient mid-reconfig state): never a candidate.
                outc[i] = sent_link
                downc[i] = sent_false
                continue
            outc[i] = rpos * P + out
            if out == local:
                downc[i] = sent_true
                continue
            kind = VC_ESCAPE if packet.is_escape else VC_NORMAL
            downc[i] = avail_index_get(
                (rpos_map[link.dest_node], link.dest_in_port, kind, packet.vnet),
                sent_false,
            )
        # Class availability: the min ``free_at`` over the class's empty
        # VCs, merged with the attached bubble's for normal classes.
        avail_of_slot = self._avail_of_slot
        members = self._avail_members
        comb_bub = self._comb_bub
        bubav = self._bubav
        comb = self._comb
        free_at = free.__getitem__
        for c in {avail_of_slot[i] for i in slots}:
            if c < 0:
                continue  # the bubble's own slot backs no class
            best = min(map(free_at, members[c]))
            b = comb_bub[c]
            if b >= 0 and bubav[b] < best:
                best = bubav[b]
            comb[c] = best

    def _resync_router(self, rpos: int) -> None:
        """Refresh every mirrored value owned by one router."""
        router = self._mrouters[rpos]
        now = self.cycle
        P = self._num_ports
        base = rpos * P
        lbusy = self._lbusy
        for port in range(P):
            link = router.output_links[port]
            if link is None:
                lbusy[base + port] = BIG
            else:
                # Fold a live special-message claim (for this cycle or a
                # later one) into the busy time; past claims are inert.
                busy = link.busy_until
                sblock = link.special_blocked_at
                if sblock >= now and sblock + 1 > busy:
                    busy = sblock + 1
                lbusy[base + port] = busy
        bubble = router.bubble
        bub_port = -1
        if (
            bubble is not None
            and router.bubble_active
            and bubble.packet is None
            and 0 <= bubble.port <= self._local
        ):
            bub_port = bubble.port
        for port in range(P):
            self._bubav[base + port] = bubble.free_at if port == bub_port else BIG
        self._sync(range(*self._rslots[rpos]))

    def _resync_all(self) -> None:
        for rpos in range(len(self._mrouters)):
            self._resync_router(rpos)

    # -- per-cycle machinery -------------------------------------------------

    def _begin_cycle(self, now: int) -> None:
        """Choose this cycle's sweep from packets in flight; ready the mirror.

        Both sweeps are exact, so the choice only moves time.  A sparse
        cycle maintains nothing; the first dense cycle after one pays a
        full resync (or the build, if the layout is stale).
        """
        if not self._active_nodes:
            self._dense = False  # idle: nothing in flight
            return
        # ``total_occupancy()``, inlined: this runs every cycle.
        routers = self.routers
        in_flight = 0
        for node in self._active_nodes:
            in_flight += routers[node]._occupancy
        if self._dense:
            if in_flight < SPARSE_BELOW:
                self._dense = False
                return
            resync = self._paranoid
        elif in_flight > DENSE_ABOVE:
            self._dense = resync = True
        else:
            return
        if self._structure_stale[0]:
            self._build_mirror()
        elif resync:
            self._resync_all()
            self._moved.clear()
            self._filled.clear()
        else:
            if self._moved or self._filled:
                self._flush_moved()
            for node in self._dirty:
                rpos = self._rpos.get(node)
                if rpos is not None:
                    self._resync_router(rpos)
        self._dirty.clear()

    def _flush_moved(self) -> None:
        """Replay last cycle's injections and grants on the planes, in one pass."""
        P = self._num_ports
        slot_of = self._slot_of
        slot_rpos = self._slot_rpos
        lbusy = self._lbusy
        slots = self._filled
        for router, vc, out, target in self._moved:
            i = slot_of[vc]
            slots.append(i)
            link = router.output_links[out]
            cell = slot_rpos[i] * P + out
            if link.busy_until > lbusy[cell]:
                lbusy[cell] = link.busy_until
            if target is not None:
                slots.append(slot_of[target])
                if target.index < 0:
                    # A claimed bubble stops backing its port.
                    self._dirty.add(link.dest_node)
        self._moved.clear()
        self._sync(slots)
        slots.clear()

    def _after_injection(self, ni) -> None:
        if not self._dense:
            return
        # Exactly one VC gained a packet; its slot still reads as empty,
        # so a scan of the local span finds it.
        rpos = self._rpos[ni.node]
        lo, hi = self._rlocal[rpos]
        ready = self._ready
        slot_vcs = self._slot_vcs
        for i in range(lo, hi):
            if ready[i] == BIG and slot_vcs[i].packet is not None:
                self._filled.append(i)
                return
        # The claimed VC sits outside the local span (an attached bubble,
        # possible only if one is ever parked on the local port).
        self._dirty.add(ni.node)

    def _allocate(self, now: int) -> None:
        """Vector filter, then the shared grant stage on the survivors.

        ``max(ready, lbusy[outc], comb[downc]) <= now`` over every slot at
        once; the survivors are an exact superset of the grantable VCs
        (see the module docstring).  They are partitioned per router, in
        ascending node order, into the ``{input port: [VC positions]}``
        map ``Network._allocate_router`` takes.  A sparse cycle and
        ``full_scan`` run the base sweep instead; on a dense cycle the
        mirror stays exact either way because every grant lands in
        :meth:`_transfer`.
        """
        if self.full_scan or not self._dense:
            Network._allocate(self, now)
            return
        self.filter_passes += 1
        t1 = self._t1
        t2 = self._t2
        b0 = self._b0
        np.take(self._lbusy_np, self._outc_np, out=t1)
        np.maximum(t1, self._ready_np, out=t1)
        np.take(self._comb_np, self._downc_np, out=t2)
        np.maximum(t1, t2, out=t1)
        np.less_equal(t1, now, out=b0)
        hits = np.nonzero(b0)[0]
        if not hits.size:
            return
        hits = hits.tolist()

        slot_port = self._slot_port
        slot_vcs = self._slot_vcs
        rlist = self._mrouters
        local = self._local
        for rpos, slots in groupby(hits, self._slot_rpos.__getitem__):
            router = rlist[rpos]
            by_port: Dict[int, List[int]] = {}
            for s in slots:
                p = slot_port[s]
                if p >= 0:
                    by_port.setdefault(p, []).append(slot_vcs[s].index)
                    continue
                # The bubble competes under its live attachment port, as
                # the last entry of that port's VC tuple.
                p = router.bubble.port
                if 0 <= p <= local:
                    by_port.setdefault(p, []).append(
                        len(router.cached_port_vcs(p)) - 1
                    )
                    # Slots ascend within a router, so the keys already
                    # ascend unless the bubble (last slot, live port)
                    # landed out of sequence.
                    by_port = dict(sorted(by_port.items()))
            if by_port:
                self._allocate_router(router, now, by_port)

    # -- overrides that keep the mirror coherent -----------------------------

    def _transfer(self, router, vc, packet, out, target, now) -> None:
        """``Network._transfer``; the mirror catches up in :meth:`_flush_moved`."""
        Network._transfer(self, router, vc, packet, out, target, now)
        if self._dense:
            self._moved.append((router, vc, out, target))

    def send_special(self, from_node: int, out_port: int, msg: SpecialMessage) -> bool:
        sent = super().send_special(from_node, out_port, msg)
        if sent and self._dense:
            rpos = self._rpos.get(from_node)
            if rpos is not None:
                claimed = self.cycle + 1 if self._post_alloc else self.cycle
                cell = rpos * self._num_ports + out_port
                if claimed + 1 > self._lbusy[cell]:
                    self._lbusy[cell] = claimed + 1
        return sent

    def apply_faults(self, links=(), routers=()):
        summary = super().apply_faults(links, routers)
        self._structure_stale[0] = True
        return summary

    def restore(self, links=(), routers=()):
        summary = super().restore(links, routers)
        self._structure_stale[0] = True
        return summary
