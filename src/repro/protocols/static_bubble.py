"""The Static Bubble deadlock-recovery scheme (Sections III and IV).

Minimal routes in every VC, all the time.  The routers chosen by
:mod:`repro.core.placement` carry one extra packet-sized buffer — the
static bubble — and the counter FSM of :mod:`repro.core.fsm`, whose
transition table :meth:`StaticBubbleScheme._fire` runs.  This module
holds the table's guards and effects, the per-cycle driving of the FSMs
and the forwarding rules of the four special messages.  DESIGN.md §1
describes the protocol and §4 every deviation from the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.core.fsm import (
    TRANSITIONS,
    CounterFsm,
    FsmEvent,
    FsmState,
    recovery_threshold,
)
from repro.core.messages import MsgType, SpecialMessage, make_path_message, make_probe
from repro.core.placement import placement_node_ids
from repro.obs.events import (
    BUBBLE_ACTIVATE,
    BUBBLE_DRAIN,
    BUBBLE_RELOCATE,
    FSM_TRANSITION,
    RECOVERY_ABORT,
    RECOVERY_DONE,
    SEAL_CLEAR,
    SEAL_EXPIRE,
    SEAL_INSTALL,
    SEAL_REFRESH,
    SPECIAL_DROP,
)
from repro.protocols.base import DeadlockScheme
from repro.sim.config import SimConfig
from repro.sim.router import VC_NORMAL

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.network import Network
    from repro.sim.router import Router

#: The event an own special message fires when it returns to its sender.
_RETURNED = {
    MsgType.PROBE: FsmEvent.PROBE_BACK,
    MsgType.DISABLE: FsmEvent.DISABLE_BACK,
    MsgType.CHECK_PROBE: FsmEvent.CHECK_PROBE_BACK,
    MsgType.ENABLE: FsmEvent.ENABLE_BACK,
}

#: The path message a state sends on entry (and on retransmission), with
#: its ``NetworkStats`` counter.
_PATH_MESSAGE = {
    FsmState.S_DISABLE: (MsgType.DISABLE, "disables_sent"),
    FsmState.S_CHECK_PROBE: (MsgType.CHECK_PROBE, "check_probes_sent"),
    FsmState.S_ENABLE: (MsgType.ENABLE, "enables_sent"),
}


@lru_cache(maxsize=None)
def _compile(cls, use_check_probe: bool) -> Dict[FsmEvent, list]:
    """``TRANSITIONS`` by event, in table order: ``(states, row, guard,
    effect)`` with the guard and effect as functions of ``cls`` (unbound,
    so a dropped network is not cyclic garbage), shared by every scheme of
    ``cls`` and never mutated.  Without check_probe (paper footnote 7) a
    re-claimed bubble goes straight to the enable teardown."""
    rows: Dict[FsmEvent, list] = {}
    for row in TRANSITIONS:
        if row.next is FsmState.S_CHECK_PROBE and not use_check_probe:
            row = row._replace(next=FsmState.S_ENABLE)
        states = row.state if isinstance(row.state, tuple) else (row.state,)
        guard = row.guard and getattr(cls, "_" + row.guard)
        effect = row.effect and getattr(cls, "_" + row.effect)
        rows.setdefault(row.event, []).append((states, row, guard, effect))
    return rows


@dataclass
class _SbRouterState:
    """Per static-bubble-router protocol state beyond the FSM."""

    fsm: CounterFsm
    #: Flat round-robin list of compass-port VCs and the watch pointer.
    watch_index: int = 0
    watched_pid: Optional[int] = None
    #: Cycle the bubble was (last) activated; drives the unclaimed-bubble
    #: timeout.
    bubble_active_since: int = 0


class StaticBubbleScheme(DeadlockScheme):
    """Minimal routing + static bubbles + recovery FSM."""

    name = "static-bubble"

    def __init__(
        self,
        fork_probes: bool = True,
        use_check_probe: bool = True,
        placement_override: Optional[set] = None,
    ) -> None:
        #: Ablations (DESIGN.md §7): without forking, a probe is forwarded
        #: only when every VC at the probed port wants the same output;
        #: without the check_probe optimization, each bubble re-claim goes
        #: straight to the enable/teardown and deadlock must be re-detected
        #: from scratch (paper footnote 7).
        self.fork_probes = fork_probes
        self.use_check_probe = use_check_probe
        #: Optional explicit set of static-bubble node ids (ablations:
        #: bubble-at-every-router, random sparse placements, ...).
        self.placement_override = placement_override
        #: Per-SB-router state, in ascending node order (the order
        #: ``on_cycle`` drives the FSMs in).
        self.states: Dict[int, _SbRouterState] = {}
        #: Nodes whose FSM is not in ``S_OFF``; every ``CounterFsm`` shares
        #: this set and updates it in ``transition``.
        self._awake: set = set()
        #: Over-approximating set of sealed (``is_deadlock``) router ids;
        #: every router shares it and enters itself when sealed, members
        #: whose seal is gone are discarded lazily by
        #: ``_collect_stale_seals``.  Avoids scanning every active router
        #: every cycle for the seal-GC watchdog.
        self._sealed: set = set()
        #: Placement actually provisioned at ``setup`` (None before).
        self._placement: Optional[set] = None
        self._rows = _compile(type(self), use_check_probe)

    # -- construction -----------------------------------------------------

    def _placed_nodes(self, topo) -> set:
        """The static-bubble node set for ``topo`` (override wins)."""
        if self.placement_override is not None:
            return set(self.placement_override)
        return set(topo.bubble_placement())

    def setup(self, network: "Network") -> None:
        """Bind the topology's hop codec, then provision the placement."""
        topo = network.topo
        local = self._local = topo.local_port
        self._enc = tuple(
            tuple(
                topo.encode_hop(i, o) if i < local and o < local and o != i else None
                for o in range(topo.num_ports)
            )
            for i in range(topo.num_ports)
        )
        self._decode = topo.decode_hop
        self._probe_capacity = topo.probe_hop_capacity()
        self._port_names = tuple(topo.port_name(p) for p in range(topo.num_ports))
        sb_nodes = self._placed_nodes(topo)
        self._placement = sb_nodes
        for router in network.routers.values():
            router._sealed = self._sealed
        for node, router in network.routers.items():
            if node in sb_nodes:
                self._provision(router, network.config)

    def _provision(self, router: "Router", config: SimConfig) -> None:
        """Give ``router`` its static bubble and counter FSM."""
        node = router.node
        router.add_static_bubble()
        # Per-router detection thresholds are configurable in the paper's
        # design; staggering them by node id desynchronizes probe retries
        # so that concurrent probes do not collide in the same
        # deterministic pattern every period (collisions drop the lower-id
        # probe, Section IV-B).
        stagger = (node * 7) % 13
        fsm = CounterFsm(node, config.sb_t_dd + stagger, awake=self._awake)
        self.states[node] = _SbRouterState(fsm)

    def resync_awake(self) -> None:
        """Re-derive the running-FSM set after FSM states were written
        directly (``verify.model.restore``) rather than through
        ``CounterFsm.transition``."""
        self._awake.clear()
        self._awake.update(
            node
            for node, state in self.states.items()
            if state.fsm.state is not FsmState.S_OFF
        )

    def is_sb_router(self, node: int) -> bool:
        return node in self.states

    def verify(self, topo, config: SimConfig):
        """Certify the Section III lemma on this (possibly faulted) topology.

        Checks the cycle cover on the *turn-closure* CDG (every non-u-turn
        hop over active links), not just the currently installed tables:
        a cover of the closure stays valid for any minimal-route tables
        the reconfiguration software may install after further faults.
        The cover is the placement restricted to live routers — a bubble
        at a dead router protects nothing.
        """
        from repro.verify.cdg import cdg_from_turns
        from repro.verify.certify import certify_cycle_cover

        placed = self._placed_nodes(topo)
        cover = placed & set(topo.active_nodes())
        return certify_cycle_cover(
            cdg_from_turns(topo),
            cover,
            scheme=self.name,
            placed_routers=len(placed),
        )

    # -- live reconfiguration ----------------------------------------------

    def on_topology_changed(self, network, added, removed, now):
        """Reconcile SB protocol state with a live topology change.

        Three structures can straddle a dead element and must not be left
        dangling (the protocol itself cannot clean them up, because its
        cleanup vehicle — the enable replaying the turn path — can no
        longer traverse that path):

        * FSM state owned by a removed router (discarded with it);
        * a recovery whose latched turn path crosses a dead link/router:
          the owner FSM is administratively reset and its bubble
          deactivated;
        * IO-priority seals installed by a now-dead or now-reset sender:
          cleared at every surviving router, as the matching enable will
          never arrive.
        """
        config = network.config
        removed_set = set(removed)
        for node in removed_set:
            self.states.pop(node, None)
            self._awake.discard(node)

        if added:
            sb_nodes = self._placed_nodes(network.topo)
            for node in added:
                network.routers[node]._sealed = self._sealed
            restored = [node for node in added if node in sb_nodes]
            for node in restored:
                self._provision(network.routers[node], config)
            if restored:
                # Same FSM visit order as a network rebuilt on this topology.
                self.states = dict(sorted(self.states.items()))
                if network.tracer is not None:
                    self.attach_obs(network, network.obs)

        fsms_reset = 0
        broken_senders = set(removed_set)
        for node, state in self.states.items():
            fsm = state.fsm
            if not fsm.in_recovery() or self._path_intact(network.topo, node, fsm):
                continue
            broken_senders.add(node)
            self._fire(network, network.routers[node], state, FsmEvent.RESET, now)
            fsms_reset += 1

        seals_cleared = 0
        for router in network.active_routers():
            if not router.is_deadlock or router.source_id not in broken_senders:
                continue
            self._emit(network, SEAL_CLEAR, router.node, source=router.source_id)
            router.clear_io_restriction()
            seals_cleared += 1
            state = self.states.get(router.node)
            if state is not None:
                # Parked S_OFF by the (now unreachable) foreign disable:
                # resume watching as a real enable would have done.
                self._fire(network, router, state, FsmEvent.FOREIGN_ENABLE, now)
        return {"seals_cleared": seals_cleared, "fsms_reset": fsms_reset}

    @staticmethod
    def _path_intact(topo, node: int, fsm: CounterFsm) -> bool:
        """Does the FSM's latched recovery loop still exist as wiring?

        Replays the turn buffer geometrically: ``len(turns) + 1`` link
        hops starting out of ``probe_out_port``, turning at each
        intermediate router, ending back at ``node``.
        """
        if fsm.probe_out_port is None:
            return True
        travel = fsm.probe_out_port
        current = node
        turns = fsm.turn_buffer
        for i in range(len(turns) + 1):
            nxt = topo.neighbor(current, travel)
            if (
                nxt is None
                or not topo.link_is_active(current, nxt)
                or not topo.node_is_active(nxt)
            ):
                return False
            current = nxt
            if i < len(turns):
                travel = topo.decode_hop(travel, turns[i])
        return True

    def attach_obs(self, network: "Network", observer) -> None:
        """Install FSM transition tracing (called by ``attach_obs``) if
        ``observer`` traces."""
        tracer = observer.tracer
        if tracer is None:
            return

        def trace(fsm, old, new):
            tracer.emit(
                network.cycle,
                FSM_TRANSITION,
                fsm.node,
                {"from_state": old.name, "to_state": new.name},
            )

        for state in self.states.values():
            state.fsm.trace = trace

    @staticmethod
    def _emit(network: "Network", kind: str, node: int, **data) -> None:
        """Trace-event emission guard (no-op when nothing traces)."""
        tracer = network.tracer
        if tracer is not None:
            tracer.emit(network.cycle, kind, node, data)

    def _drop(self, network: "Network", router: "Router", msg, reason: str) -> None:
        """Trace a special message that dies at ``router``."""
        if network.tracer is not None:  # (probe drops are frequent)
            self._emit(
                network, SPECIAL_DROP, router.node,
                mtype=msg.mtype.name, sender=msg.sender, reason=reason,
            )

    def extra_vcs_per_router(self, node: int, config: SimConfig) -> int:
        if self.placement_override is not None:
            return 1 if node in self.placement_override else 0
        if self._placement is not None:
            return 1 if node in self._placement else 0
        # Design-time query with no network attached: the config's mesh.
        return 1 if node in placement_node_ids(config.width, config.height) else 0

    # -- the transition table ------------------------------------------------

    def _fire(self, network, router, st, event, now, msg=None, in_port=None):
        """Take the first row of ``(state, event)`` whose guard holds.

        State change, then the effect, then the counter rule.  Returns
        the row taken, or ``None`` when the event means nothing here.
        """
        fsm = st.fsm
        state = fsm.state
        for states, row, guard, effect in self._rows[event]:
            if state not in states or (
                guard is not None and not guard(self, network, router, st, now)
            ):
                continue
            if row.next is not state:
                fsm.transition(row.next)
            if effect is not None:
                effect(self, network, router, st, now, msg, in_port)
            counter = row.counter
            if counter is not None:
                fsm.count = 0
                if counter == "t_dd":
                    fsm.threshold = fsm.t_dd
                elif counter == "t_dr":
                    fsm.threshold = recovery_threshold(len(fsm.turn_buffer))
                elif counter == "retry":
                    fsm.enable_retries += 1
            return row
        return None

    # guards ------------------------------------------------------------------

    def _active(self, network, router, st, now) -> bool:
        """Does any compass-port VC hold a packet?"""
        return router.compass_load() > 0 and any(
            vc.packet is not None for vc in router.compass_vcs
        )

    def _closed(self, network, router, st, now) -> bool:
        """Deviation 3: the traced chain still closes through this router
        — its probed input port is full and a resident wants the chain's
        output.  Closure is what lets the bubble's slot circulate back and
        free the bubble's own resident."""
        fsm = st.fsm
        in_vcs = router.input_vcs[fsm.probe_in_port]
        return (
            bool(in_vcs)
            and all(vc.packet is not None for vc in in_vcs)
            and router.vc_wants_output(fsm.probe_in_port, fsm.probe_out_port, now)
        )

    def _retries_left(self, network, router, st, now) -> bool:
        return st.fsm.enable_retries < network.config.sb_enable_retries

    # effects -----------------------------------------------------------------

    def _send_probe(self, network, router, st, now, msg, in_port) -> None:
        """Probe from the output the watched packet is blocked on, then
        rotate the watch (deviation 1)."""
        node = router.node
        st.fsm.probes_sent += 1
        vcs = router.compass_vcs
        wi = st.watch_index
        packet = vcs[wi].packet if wi < len(vcs) else None
        if packet is not None and packet.pid == st.watched_pid:
            out = router._requested_output(packet)
            # (ejection is never part of a dependence chain)
            if out != self._local and network.send_special(
                node, out, make_probe(node, out)
            ):
                network.stats.probes_sent += 1
        self._watch_next(router, st, wi + 1)

    def _latch(self, network, router, st, now, msg, in_port) -> None:
        """Latch the returned probe's path in the Turn Buffer (its origin
        port rode along, deviation 2), then send the disable."""
        fsm = st.fsm
        fsm.turn_buffer = msg.turns
        fsm.probe_in_port = in_port
        fsm.probe_out_port = msg.origin_out
        self._send_path(network, router, st, now, msg, in_port)

    def _send_path(self, network, router, st, now, msg, in_port) -> None:
        """Send the path message of the state just entered."""
        fsm = st.fsm
        mtype, stat = _PATH_MESSAGE[fsm.state]
        node = router.node
        out = fsm.probe_out_port
        if network.send_special(
            node, out, make_path_message(mtype, node, fsm.turn_buffer, out)
        ):
            stats = network.stats
            setattr(stats, stat, getattr(stats, stat) + 1)

    def _release_bubble(self, network, router, st, now, msg, in_port) -> None:
        router.deactivate_bubble()
        self._send_path(network, router, st, now, msg, in_port)

    def _activate(self, network, router, st, now, msg, in_port) -> None:
        """Seal this hop and switch the static bubble on."""
        fsm = st.fsm
        node = router.node
        router.set_io_restriction(fsm.probe_in_port, fsm.probe_out_port, node, now)
        router.activate_bubble(fsm.probe_in_port)
        st.bubble_active_since = now
        network.stats.bubble_activations += 1
        in_name = self._port_names[fsm.probe_in_port]
        self._emit(
            network, SEAL_INSTALL, node,
            source=node, in_port=in_name,
            out_port=self._port_names[fsm.probe_out_port],
        )
        self._emit(network, BUBBLE_ACTIVATE, node, in_port=in_name)

    def _finish(self, network, router, st, now, msg, in_port) -> None:
        self._lift(network, router, st)
        network.stats.recoveries_completed += 1
        self._emit(network, RECOVERY_DONE, router.node)

    def _abort(self, network, router, st, now, msg, in_port) -> None:
        """Give up a recovery whose enable keeps getting lost."""
        retries = st.fsm.enable_retries + 1  # the retransmission refused
        self._lift(network, router, st)
        network.stats.recoveries_aborted += 1
        self._emit(network, RECOVERY_ABORT, router.node, retries=retries)

    def _lift(self, network, router, st) -> None:
        """Clear this router's seal, then :meth:`_reset`."""
        if router.is_deadlock:
            self._emit(network, SEAL_CLEAR, router.node, source=router.source_id)
        router.clear_io_restriction()
        self._reset(network, router, st, None, None, None)

    def _reset(self, network, router, st, now, msg, in_port) -> None:
        """Switch the bubble off and forget the latched path.  Alone (a
        live topology change) it counts neither a completed nor an aborted
        recovery: the chain was cancelled from outside the protocol."""
        router.deactivate_bubble()
        fsm = st.fsm
        fsm.turn_buffer = ()
        fsm.probe_in_port = None
        fsm.probe_out_port = None
        fsm.enable_retries = 0

    def _drop_id_race(self, network, router, st, now, msg, in_port) -> None:
        self._drop(network, router, msg, "id_race")

    def _drop_unclosed(self, network, router, st, now, msg, in_port) -> None:
        self._drop(network, router, msg, "revalidation_failed")

    # -- per-cycle FSM driving ---------------------------------------------

    def on_cycle(self, network: "Network", now: int) -> None:
        # Only two kinds of SB router have anything to do in a cycle: one
        # whose FSM is running, and one that holds a packet (its first
        # flit arms the FSM; a bubble resident may relocate).  They are
        # driven in ascending node order.  The guards of
        # `_relocate_bubble_resident` / `_sb_active_watchdog` and the
        # counter tick are inlined so a visit with nothing to do costs a
        # few attribute reads, not a method call each.
        states = self.states
        visit = self._awake.union(
            filter(states.__contains__, network._active_nodes)
        )
        routers = network.routers
        fire = self._fire
        s_off = FsmState.S_OFF
        s_dd = FsmState.S_DD
        s_active = FsmState.S_SB_ACTIVE
        for node in sorted(visit):
            state = states[node]
            router = routers[node]
            fsm = state.fsm
            bubble = router.bubble
            if (
                bubble is not None
                and bubble.packet is not None
                and now >= bubble.ready_at
            ):
                self._relocate_bubble_resident(network, router, now)
            st = fsm.state
            if st is s_off:
                if router._occupancy and self._watch_next(
                    router, state, state.watch_index
                ):
                    fire(network, router, state, FsmEvent.FIRST_FLIT, now)
                    st = fsm.state
            elif st is s_dd:
                vcs = router.compass_vcs
                wi = state.watch_index
                current = vcs[wi] if wi < len(vcs) else None
                if (
                    current is None
                    or current.packet is None
                    or current.packet.pid != state.watched_pid
                ):
                    if self._watch_next(router, state, wi + 1):
                        fire(network, router, state, FsmEvent.WATCH_MOVED, now)
                    else:
                        state.watched_pid = None
                        fire(network, router, state, FsmEvent.WATCH_EMPTIED, now)
                    st = fsm.state
            elif st is s_active:
                self._sb_active_watchdog(network, router, state, now)
                st = fsm.state
            if st is not s_off and st is not s_active:
                # Every other state counts; the no-timeout path is by far
                # the common case.
                fsm.count += 1
                if fsm.count >= fsm.threshold:
                    fire(network, router, state, FsmEvent.TIMEOUT, now)
        self._collect_stale_seals(network, now)

    def _collect_stale_seals(self, network: "Network", now: int) -> None:
        """Expire IO restrictions whose chain dissolved and enable was lost.

        Robustness extension (DESIGN.md §4): a sealed router whose
        dependence is long gone and that never saw the matching enable
        (dropped to a collision, or its sender aborted) clears itself
        after ``sb_seal_timeout`` idle cycles; otherwise the locked output
        port would throttle unrelated traffic forever.
        """
        if not self._sealed:
            return
        timeout = network.config.sb_seal_timeout
        routers = network.routers
        for node in sorted(self._sealed):
            router = routers.get(node)
            if router is None or not router.is_deadlock:
                self._sealed.discard(node)
                continue
            state = self.states.get(router.node)
            if state is not None and state.fsm.in_recovery():
                continue  # the owner FSM manages its own seal
            age = now - router.io_set_at
            if age < timeout:
                continue
            if router.vc_wants_output(router.io_in_port, router.io_out_port, now):
                router.io_set_at = now  # chain still flowing; keep the seal
                self._emit(
                    network, SEAL_REFRESH, router.node,
                    source=router.source_id, age=age,
                )
                continue
            self._emit(
                network, SEAL_EXPIRE, router.node,
                source=router.source_id, age=age,
            )
            router.clear_io_restriction()

    def _relocate_bubble_resident(
        self, network: "Network", router: "Router", now: int
    ) -> None:
        """Footnote 6: move a stuck bubble resident into a freed normal VC.

        If the packet occupying the static bubble is waiting on some other
        output while a regular VC at the same input port frees up, the
        packet shifts into that VC so the bubble can be re-claimed and the
        recovery hand-shake can continue.
        """
        bubble = router.bubble
        if bubble is None or bubble.packet is None or now < bubble.ready_at:
            return
        resident = bubble.packet
        if router.bubble_active:
            ports = (bubble.port,)
        else:
            # Stale resident: the owning recovery was torn down (bubble
            # timeout / abort) with the resident still wedged, and every
            # future recovery through this router needs the bubble's spare
            # slot back.  The bubble buffer feeds the crossbar directly —
            # which input-port arbiter it competes under is a mux setting —
            # so the resident may be re-tagged to *any* port with a free
            # VC, not just the chain port it arrived on (liveness
            # extension of footnote 6; without it a deadlock web whose
            # only SB router carries a stranded resident is unrecoverable).
            ports = (bubble.port,) + tuple(range(self._local))
        for port in ports:
            for vc in router.input_vcs[port]:
                if (
                    vc.kind == VC_NORMAL
                    and vc.vnet == resident.vnet
                    and vc.is_free(now)
                ):
                    router.remove(bubble, now + 1)
                    router.place(vc, resident, now + 1)
                    router.invalidate_vc_cache()
                    self._emit(
                        network, BUBBLE_RELOCATE, router.node, pid=resident.pid
                    )
                    self.on_bubble_drained(network, router, now)
                    return

    @staticmethod
    def _watch_next(router: "Router", st: _SbRouterState, start: int) -> bool:
        """Watch the first occupied position of ``compass_vcs`` from
        ``start`` on; False (watch unchanged) when there is none."""
        vcs = router.compass_vcs
        n = len(vcs)
        if n == 0 or router.compass_load() == 0:
            return False  # (a zero count proves "none"; non-zero proves nothing)
        for k in range(n):
            idx = (start + k) % n
            packet = vcs[idx].packet
            if packet is not None:
                st.watch_index = idx
                st.watched_pid = packet.pid
                return True
        return False

    def _sb_active_watchdog(
        self, network: "Network", router: "Router", st: _SbRouterState, now: int
    ) -> None:
        """Fire ``STUCK`` (deviation 11) or ``UNCLAIMED`` (deviation 7)
        when the active bubble stops making progress."""
        bubble = router.bubble
        if st.fsm.state is not FsmState.S_SB_ACTIVE or bubble is None:
            return
        timed_out = now - st.bubble_active_since >= network.config.sb_bubble_timeout
        if bubble.packet is not None:
            # Claimed but immobile for the bubble timeout: the resident is
            # wedged in a *different* cycle, so this chain's hole will
            # never circulate back.
            if timed_out:
                self._fire(network, router, st, FsmEvent.STUCK, now)
            return
        # Unclaimed: the chain gained space without the bubble (a free VC
        # at its input port — a congestion false positive), or nothing
        # claimed it within the bubble timeout.
        if timed_out or any(
            vc.packet is None for vc in router.input_vcs[st.fsm.probe_in_port]
        ):
            self._fire(network, router, st, FsmEvent.UNCLAIMED, now)

    # -- bubble reclaim hook ----------------------------------------------------

    def on_bubble_drained(self, network: "Network", router: "Router", now: int) -> None:
        state = self.states.get(router.node)
        if state is not None:
            self._emit(network, BUBBLE_DRAIN, router.node)
            self._fire(network, router, state, FsmEvent.RECLAIMED, now)

    # -- special message processing -------------------------------------------

    def process_specials(
        self,
        network: "Network",
        router: "Router",
        messages: Sequence[Tuple[int, SpecialMessage]],
        now: int,
    ) -> None:
        if len(messages) == 1:
            # Fast path for the overwhelmingly common case of a single
            # arrival: no priority sort, no per-output arbitration dict.
            in_port, msg = messages[0]
            for out, fwd in self._handle_one(network, router, in_port, msg, now):
                network.send_special(router.node, out, fwd)
            return
        # Process in priority order (higher class, then higher sender id).
        ordered = sorted(
            messages, key=lambda im: (im[1].priority, im[1].sender), reverse=True
        )
        outgoing: Dict[int, List[SpecialMessage]] = {}
        for in_port, msg in ordered:
            for out, fwd in self._handle_one(network, router, in_port, msg, now):
                outgoing.setdefault(out, []).append(fwd)
        for out, candidates in outgoing.items():
            winner = self._arbitrate_output(router, candidates)
            network.send_special(router.node, out, winner)

    def _handle_one(
        self,
        network: "Network",
        router: "Router",
        in_port: int,
        msg: SpecialMessage,
        now: int,
    ) -> List[Tuple[int, SpecialMessage]]:
        if msg.sender == router.node:
            state = self.states.get(router.node)
            if state is not None:
                self._fire(
                    network, router, state, _RETURNED[msg.mtype], now, msg, in_port
                )
            return []
        if msg.mtype == MsgType.PROBE:
            return self._forward_probe(network, router, in_port, msg, now)
        return self._forward_path(network, router, in_port, msg, now)

    @staticmethod
    def _arbitrate_output(
        router: "Router", candidates: List[SpecialMessage]
    ) -> SpecialMessage:
        """Msg_Sel priority for one output port (Section IV-C)."""
        if len(candidates) == 1:
            return candidates[0]
        types = {c.mtype for c in candidates}
        if MsgType.ENABLE in types and MsgType.DISABLE in types:
            # Enable/disable tie: is_deadlock set -> the enable wins.
            keep = MsgType.ENABLE if router.is_deadlock else MsgType.DISABLE
            candidates = [
                c
                for c in candidates
                if c.mtype not in (MsgType.ENABLE, MsgType.DISABLE)
                or c.mtype == keep
            ]
        return max(candidates, key=lambda c: (c.priority, c.sender))

    # -- forwarding of foreign messages ------------------------------------------

    def _forward_probe(
        self,
        network: "Network",
        router: "Router",
        in_port: int,
        msg: SpecialMessage,
        now: int,
    ) -> List[Tuple[int, SpecialMessage]]:
        if msg.sender < router.node:
            state = self.states.get(router.node)
            if state is not None and self._fire(
                network, router, state, FsmEvent.LOWER_PROBE, now, msg
            ):
                return []
        # Probe Fork Unit: forward only if every VC at the probed input
        # port is occupied; fork to the union of their requested outputs.
        vcs = router.cached_port_vcs(in_port)
        full = bool(vcs)
        for vc in vcs:
            if vc.packet is None:
                full = False
                break
        if not full:
            self._drop(network, router, msg, "port_not_full")
            return []
        if len(msg.turns) >= self._probe_capacity:
            self._drop(network, router, msg, "capacity")
            return []
        # Union of requested outputs as a bitmask: deterministic ascending
        # fork order (a set of Port members iterates in *name-hash* order,
        # which varies with PYTHONHASHSEED) and no enum hashing.
        local = self._local
        mask = 0
        for vc in vcs:
            packet = vc.packet
            # _requested_output resolves escape tables, a cached adaptive
            # preference, or the embedded source route as appropriate.
            out = router._requested_output(packet)
            if out != local and out != in_port:  # ejection / u-turn
                mask |= 1 << out
        if not self.fork_probes and mask & (mask - 1):
            # Ablation: no Probe Fork Unit — forward only when the probed
            # port's residents agree on one output (Section IV-B Q&A warns
            # this misses nested dependency cycles).
            return []
        forwards = []
        row = self._enc[in_port]
        mtype = msg.mtype
        sender = msg.sender
        turns = msg.turns
        origin = msg.origin_out
        out = 0
        while mask:
            if mask & 1:
                forwards.append(
                    (
                        out,
                        SpecialMessage(
                            mtype, sender, turns + (row[out],), out, origin
                        ),
                    )
                )
            mask >>= 1
            out += 1
        return forwards

    def _forward_path(
        self,
        network: "Network",
        router: "Router",
        in_port: int,
        msg: SpecialMessage,
        now: int,
    ) -> List[Tuple[int, SpecialMessage]]:
        """Disable, check_probe and enable replay their sender's turn path."""
        if not msg.turns:
            return []
        node = router.node
        out = self._decode(msg.travel, msg.turns[0])
        if msg.mtype == MsgType.ENABLE:
            # Forwarded even on a source-id mismatch (Section IV-B), and
            # processed even at an SB router with its own recovery in
            # flight (deviation 5).
            if router.source_id == msg.sender:
                self._emit(network, SEAL_CLEAR, node, source=msg.sender)
                router.clear_io_restriction()
                state = self.states.get(node)
                if state is not None:
                    self._fire(network, router, state, FsmEvent.FOREIGN_ENABLE, now)
        elif not router.vc_wants_output(in_port, out, now):
            # Buffer Dependency Check unit: the dependence dissolved here,
            # so the message dies and its sender times out.  The output
            # comes from the replayed turn, which also covers hops a
            # disable could not seal (deviation 6).
            self._drop(network, router, msg, "chain_dissolved")
            return []
        elif msg.mtype == MsgType.DISABLE:
            # A router whose one IO-priority buffer is claimed — sealed
            # into another chain, or running its own recovery — forwards
            # the disable without sealing this hop (deviation 4).
            state = self.states.get(node)
            if not router.is_deadlock and (
                state is None or not state.fsm.in_recovery()
            ):
                router.set_io_restriction(in_port, out, msg.sender, now)
                self._emit(
                    network, SEAL_INSTALL, node,
                    source=msg.sender,
                    in_port=self._port_names[in_port],
                    out_port=self._port_names[out],
                )
                if state is not None:
                    self._fire(network, router, state, FsmEvent.FOREIGN_DISABLE, now)
        return [(out, msg.with_head_stripped(out))]
