"""The Static Bubble deadlock-recovery scheme (Sections III and IV).

All packets use minimal routes in all VCs, all the time.  A subset of
routers (chosen by :mod:`repro.core.placement`) carries one extra
packet-sized buffer — the *static bubble* — plus the counter FSM of
Fig. 5.  On suspicion of a deadlock (a watched packet stuck beyond
``t_DD``) the FSM runs the four-message recovery protocol:

probe        traces the suspected dependency cycle, forking at every
             router whose probed input port is fully occupied and
             recording the L/S/R turn taken; returning to its sender
             confirms a cycle.
disable      replays the recorded path, installing at each router the
             IO-priority injection restriction (``is_deadlock`` bit) that
             seals the cycle against new traffic; returning to the sender
             switches the static bubble ON.
check_probe  after the bubble drains one packet and is re-claimed,
             retraces the path to test whether the chain still exists;
             if it returns, the bubble switches on again.
enable       replays the path clearing the restrictions once the chain
             is gone (or when a disable/check_probe was dropped midway).

All four are bufferless and single-flit; per cycle a router forwards at
most one special message per output port (priority: check_probe >
disable/enable > probe; ties to the higher sender id; an enable/disable
tie is broken by the local ``is_deadlock`` bit, Section IV-C).

Robustness extension (documented in DESIGN.md): if the activated bubble
is never claimed because the sealed chain dissolved through an
independent drain (a false positive caused by congestion), the FSM
treats the dissolution — detected as "no VC at the chain input port
wants the chain output port any more" — like a re-claim, so the
check_probe/enable path still runs and the restrictions are removed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.core.fsm import CounterFsm, FsmAction, FsmState
from repro.core.messages import (
    MsgType,
    SpecialMessage,
    make_path_message,
    make_probe,
)
from repro.core.placement import placement_node_ids
from repro.core.turns import PROBE_TURN_CAPACITY, Port, apply_turn, turn_between
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

#: ``_PORTS[i] is Port(i)`` — avoids the enum-constructor call on hot paths.
_PORTS = (Port.EAST, Port.NORTH, Port.WEST, Port.SOUTH, Port.LOCAL)

#: Mesh default for ``_enc[in_port][out_port]`` — ``turn_between``
#: precomputed; ``None`` for u-turns and local ports (never looked up on
#: the fork path, which filters those out first).  Replaced by the
#: topology's own hop codec at ``setup()``; these module tables only back
#: schemes that are driven before/without a network (unit tests).
_TURN = tuple(
    tuple(
        turn_between(_PORTS[i], _PORTS[o])
        if i < 4 and o < 4 and o != i
        else None
        for o in range(5)
    )
    for i in range(5)
)
from repro.sim.config import SimConfig
from repro.sim.router import VC_NORMAL

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.network import Network
    from repro.sim.router import Router


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
        t_dd: Optional[int] = None,
        fork_probes: bool = True,
        use_check_probe: bool = True,
        placement_override: Optional[set] = None,
    ) -> None:
        #: Optional override of the config's deadlock-detection threshold.
        self._t_dd_override = t_dd
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
        self._install_codec(None)

    # -- construction -----------------------------------------------------

    def _install_codec(self, topo) -> None:
        """Bind the per-topology port layout and hop codec.

        ``topo=None`` installs the 2D-mesh defaults (L/R/S relative
        turns, 5 ports) so a scheme driven without a network — the
        protocol unit tests construct messages by hand — behaves exactly
        as before the topology generalization.
        """
        if topo is None:
            self._local = int(Port.LOCAL)
            self._num_ports = 5
            self._enc = _TURN
            self._decode = apply_turn
            self._probe_capacity = PROBE_TURN_CAPACITY
            self._port_names = tuple(p.name for p in _PORTS)
            return
        self._local = topo.local_port
        self._num_ports = topo.num_ports
        local = self._local
        self._enc = tuple(
            tuple(
                topo.encode_hop(i, o)
                if i < local and o < local and o != i
                else None
                for o in range(self._num_ports)
            )
            for i in range(self._num_ports)
        )
        self._decode = topo.decode_hop
        self._probe_capacity = topo.probe_hop_capacity()
        self._port_names = tuple(
            topo.port_name(p) for p in range(self._num_ports)
        )

    def _placed_nodes(self, topo) -> set:
        """The static-bubble node set for ``topo`` (override wins)."""
        if self.placement_override is not None:
            return set(self.placement_override)
        return set(topo.bubble_placement())

    def setup(self, network: "Network") -> None:
        config = network.config
        self._install_codec(network.topo)
        sb_nodes = self._placed_nodes(network.topo)
        self._placement = sb_nodes
        for router in network.routers.values():
            router._sealed = self._sealed
        for node, router in network.routers.items():
            if node in sb_nodes:
                self._provision(router, config)

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
        fsm = CounterFsm(
            node,
            (self._t_dd_override or config.sb_t_dd) + stagger,
            max_enable_retries=config.sb_enable_retries,
            awake=self._awake,
        )
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
                if network.obs is not None:
                    self.attach_obs(network, network.obs)

        fsms_reset = 0
        broken_senders = set(removed_set)
        for node, state in self.states.items():
            fsm = state.fsm
            if not fsm.in_recovery():
                continue
            if self._path_intact(network.topo, node, fsm):
                continue
            broken_senders.add(node)
            router = network.routers[node]
            router.deactivate_bubble()
            any_active = self._compass_occupied(router)
            fsm.reset(any_active)
            fsms_reset += 1

        seals_cleared = 0
        for router in network.active_routers():
            if not router.is_deadlock or router.source_id not in broken_senders:
                continue
            self._emit(network, SEAL_CLEAR, router.node, source=router.source_id)
            router.clear_io_restriction()
            seals_cleared += 1
            state = self.states.get(router.node)
            if state is not None and not state.fsm.in_recovery():
                # Parked S_OFF by the (now unreachable) foreign disable:
                # resume watching as a real enable would have done.
                any_active = self._compass_occupied(router)
                state.fsm.on_foreign_enable(any_active)
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
        """Install FSM transition tracing (called by ``attach_obs``)."""

        def trace(fsm, old, new):
            observer.emit(
                network.cycle,
                FSM_TRANSITION,
                fsm.node,
                {"from_state": old.name, "to_state": new.name},
            )

        for state in self.states.values():
            state.fsm.trace = trace

    @staticmethod
    def _emit(network: "Network", kind: str, node: int, **data) -> None:
        """Trace-event emission guard (no-op when no observer attached)."""
        obs = network.obs
        if obs is not None:
            obs.emit(network.cycle, kind, node, data)

    def extra_vcs_per_router(self, node: int, config: SimConfig) -> int:
        if self.placement_override is not None:
            return 1 if node in self.placement_override else 0
        if self._placement is not None:
            return 1 if node in self._placement else 0
        # Design-time query with no network attached: the config's mesh.
        return 1 if node in placement_node_ids(config.width, config.height) else 0

    # -- per-cycle FSM driving ---------------------------------------------

    def on_cycle(self, network: "Network", now: int) -> None:
        # Only two kinds of SB router have anything to do in a cycle: one
        # whose FSM is running, and one that holds a packet (its first
        # flit arms the FSM; a bubble resident may relocate).  They are
        # driven in ascending node order.  The guards of
        # `_relocate_bubble_resident` / `_sb_active_watchdog` /
        # `CounterFsm.tick` are inlined so a visit with nothing to do
        # costs a few attribute reads, not a method call each.
        states = self.states
        visit = self._awake.union(
            filter(states.__contains__, network._active_nodes)
        )
        routers = network.routers
        s_off = FsmState.S_OFF
        s_dd = FsmState.S_DD
        s_active = FsmState.S_SB_ACTIVE
        none_action = FsmAction.NONE
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
                if router._occupancy:
                    vcs = router.compass_vcs
                    idx = self._next_occupied(router, state.watch_index)
                    if idx is not None:
                        state.watch_index = idx
                        state.watched_pid = vcs[idx].packet.pid
                        fsm.on_first_flit()
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
                    idx = self._next_occupied(router, wi + 1)
                    if idx is not None:
                        state.watch_index = idx
                        state.watched_pid = vcs[idx].packet.pid
                        fsm.on_watched_vc_progress(True)
                    else:
                        state.watched_pid = None
                        fsm.on_watched_vc_progress(False)
                    st = fsm.state
            elif st is s_active:
                self._sb_active_watchdog(network, router, state, now)
                st = fsm.state
            if st is not s_off and st is not s_active:
                # ``fsm.tick()`` unrolled (every state but these two
                # counts): the no-timeout path is by far the common case.
                fsm.count += 1
                if fsm.count >= fsm.threshold:
                    action = fsm._on_timeout()
                    if action is not none_action:
                        self._dispatch(network, router, state, action, now)
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
    def _compass_occupied(router: "Router") -> bool:
        """Does any compass-port VC hold a packet?"""
        return router.compass_load() > 0 and any(
            vc.packet is not None for vc in router.compass_vcs
        )

    @staticmethod
    def _next_occupied(router: "Router", start: int) -> Optional[int]:
        """The first occupied position of ``compass_vcs`` from ``start`` on."""
        vcs = router.compass_vcs
        n = len(vcs)
        if n == 0 or router.compass_load() == 0:
            return None  # (a zero count proves "none"; non-zero proves nothing)
        for k in range(n):
            idx = (start + k) % n
            if vcs[idx].packet is not None:
                return idx
        return None

    def _sb_active_watchdog(
        self, network: "Network", router: "Router", state: _SbRouterState, now: int
    ) -> None:
        """Detect a dissolved chain while the (unclaimed) bubble is active."""
        fsm = state.fsm
        if fsm.state != FsmState.S_SB_ACTIVE:
            return
        if router.bubble is None:
            return
        if router.bubble.packet is not None:
            # Claimed but immobile: the resident is itself wedged in a
            # *different* dependency cycle (deadlock web), so the hole this
            # bubble introduced will never circulate back.  S_SB_ACTIVE has
            # no counter, so without a backstop the FSM — and every seal
            # along its chain — would be stuck forever while the true cycle
            # goes untraced.  After the bubble timeout, tear the chain down
            # through the normal enable replay (clearing the path's seals)
            # and resume detection on the web as it now is.  The resident
            # stays in the bubble, which remains switchable until it drains.
            if now - state.bubble_active_since >= network.config.sb_bubble_timeout:
                action = state.fsm.on_bubble_stuck()
                if action != FsmAction.NONE:
                    self._dispatch(network, router, state, action, now)
            return
        # Give up waiting for the chain to claim the bubble when either
        # (a) the chain gained space without it — a free normal VC at the
        # chain's input port means some resident drained independently (a
        # congestion false positive), or (b) nothing has claimed it for
        # ``sb_bubble_timeout`` cycles (the traced chain does not actually
        # feed this router).  Both fall through to the check_probe/enable
        # machinery so the injection restrictions are eventually lifted.
        chain_port_full = all(
            vc.packet is not None for vc in router.input_vcs[fsm.probe_in_port]
        )
        timed_out = now - state.bubble_active_since >= network.config.sb_bubble_timeout
        if chain_port_full and not timed_out:
            return
        router.deactivate_bubble()
        action = fsm.on_bubble_reclaimed()
        if action != FsmAction.NONE:
            self._dispatch(network, router, state, action, now)

    # -- FSM action dispatch --------------------------------------------------

    def _dispatch(
        self,
        network: "Network",
        router: "Router",
        state: _SbRouterState,
        action: FsmAction,
        now: int,
    ) -> None:
        fsm = state.fsm
        node = router.node
        if action == FsmAction.SEND_PROBE:
            out = self._watched_output(router, state, now)
            if out is not None and out != self._local:
                # (ejection is never part of a dependence chain)
                if network.send_special(node, out, make_probe(node, out)):
                    network.stats.probes_sent += 1
            # Liveness clarification of Fig. 5 (DESIGN.md §4): rotate the
            # watch to the next occupied VC after an unsuccessful
            # detection period.  With the pointer frozen on one VC, the
            # highest-id SB router of a deadlocked ring — the only one
            # whose probes are not dropped by the id rule — could probe a
            # non-ring VC forever and the ring would never be traced.
            vcs = router.compass_vcs
            idx = self._next_occupied(router, state.watch_index + 1)
            if idx is not None:
                state.watch_index = idx
                state.watched_pid = vcs[idx].packet.pid
            return
        if action == FsmAction.SEND_DISABLE:
            msg = make_path_message(
                MsgType.DISABLE, node, fsm.turn_buffer, fsm.probe_out_port
            )
            if network.send_special(node, fsm.probe_out_port, msg):
                network.stats.disables_sent += 1
            return
        if action == FsmAction.SEND_CHECK_PROBE:
            if not self.use_check_probe:
                # Ablation (paper footnote 7): skip the check_probe
                # speed-up — tear the seal down immediately and let a
                # fresh detection round find the chain again if it still
                # exists.
                fsm.transition(FsmState.S_ENABLE)
                fsm.enable_retries = 0
                fsm.count = 0
                self._dispatch(network, router, state, FsmAction.SEND_ENABLE, now)
                return
            msg = make_path_message(
                MsgType.CHECK_PROBE, node, fsm.turn_buffer, fsm.probe_out_port
            )
            if network.send_special(node, fsm.probe_out_port, msg):
                network.stats.check_probes_sent += 1
            return
        if action == FsmAction.SEND_ENABLE:
            msg = make_path_message(
                MsgType.ENABLE, node, fsm.turn_buffer, fsm.probe_out_port
            )
            if network.send_special(node, fsm.probe_out_port, msg):
                network.stats.enables_sent += 1
            return
        if action == FsmAction.ACTIVATE_BUBBLE:
            router.set_io_restriction(
                fsm.probe_in_port, fsm.probe_out_port, node, now
            )
            router.activate_bubble(fsm.probe_in_port)
            state.bubble_active_since = now
            network.stats.bubble_activations += 1
            self._emit(
                network, SEAL_INSTALL, node,
                source=node,
                in_port=self._port_names[fsm.probe_in_port],
                out_port=self._port_names[fsm.probe_out_port],
            )
            self._emit(
                network, BUBBLE_ACTIVATE, node,
                in_port=self._port_names[fsm.probe_in_port],
            )
            return
        if action == FsmAction.RECOVERY_DONE:
            network.stats.recoveries_completed += 1
            self._emit(network, RECOVERY_DONE, node)
            return
        if action == FsmAction.ABORT_RECOVERY:
            retries = fsm.enable_retries
            if router.is_deadlock:
                self._emit(network, SEAL_CLEAR, node, source=router.source_id)
            router.clear_io_restriction()
            router.deactivate_bubble()
            any_active = self._compass_occupied(router)
            fsm.abort_recovery(any_active)
            network.stats.recoveries_aborted += 1
            self._emit(network, RECOVERY_ABORT, node, retries=retries)
            return

    def _watched_output(
        self, router: "Router", state: _SbRouterState, now: int
    ) -> Optional[int]:
        vcs = router.compass_vcs
        if state.watch_index >= len(vcs):
            return None
        packet = vcs[state.watch_index].packet
        if packet is None or packet.pid != state.watched_pid:
            return None
        return router._requested_output(packet)

    # -- bubble reclaim hook ----------------------------------------------------

    def on_bubble_drained(self, network: "Network", router: "Router", now: int) -> None:
        state = self.states.get(router.node)
        if state is None:
            return
        self._emit(network, BUBBLE_DRAIN, router.node)
        action = state.fsm.on_bubble_reclaimed()
        if action != FsmAction.NONE:
            router.deactivate_bubble()
            self._dispatch(network, router, state, action, now)

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
        mtype = msg.mtype
        if mtype == MsgType.PROBE:
            return self._handle_probe(network, router, in_port, msg, now)
        if mtype == MsgType.DISABLE:
            return self._handle_disable(network, router, in_port, msg, now)
        if mtype == MsgType.CHECK_PROBE:
            return self._handle_check_probe(network, router, in_port, msg, now)
        return self._handle_enable(network, router, in_port, msg, now)

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

    # -- per-type handlers --------------------------------------------------

    def _handle_probe(
        self,
        network: "Network",
        router: "Router",
        in_port: int,
        msg: SpecialMessage,
        now: int,
    ) -> List[Tuple[int, SpecialMessage]]:
        state = self.states.get(router.node)
        if state is not None:
            if msg.sender == router.node:
                # Own probe back: a dependence cycle is confirmed.  The
                # probe carries the output port it originally left from.
                action = state.fsm.on_probe_returned(
                    msg.turns, in_port, msg.origin_out
                )
                if action != FsmAction.NONE:
                    self._dispatch(network, router, state, action, now)
                return []
            if msg.sender < router.node and state.fsm.state == FsmState.S_DD:
                self._emit(
                    network, SPECIAL_DROP, router.node,
                    mtype=msg.mtype.name, sender=msg.sender, reason="id_race",
                )
                # Lower-id static bubble's probe while this node is itself
                # detecting: this node wins the race (Section IV-B).  When
                # this node is busy with another recovery (or its bubble
                # is pinned by a stuck resident) it cannot resolve the
                # cycle itself, so starving the lower-id sender would
                # wedge the ring — forward instead (liveness refinement,
                # DESIGN.md §4).
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
            if network.obs is not None:
                self._emit(
                    network, SPECIAL_DROP, router.node,
                    mtype=msg.mtype.name, sender=msg.sender, reason="port_not_full",
                )
            return []
        if len(msg.turns) >= self._probe_capacity:
            self._emit(
                network, SPECIAL_DROP, router.node,
                mtype=msg.mtype.name, sender=msg.sender, reason="capacity",
            )
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

    def _handle_disable(
        self,
        network: "Network",
        router: "Router",
        in_port: int,
        msg: SpecialMessage,
        now: int,
    ) -> List[Tuple[int, SpecialMessage]]:
        state = self.states.get(router.node)
        if msg.sender == router.node:
            if state is None:
                return []
            fsm = state.fsm
            if fsm.state != FsmState.S_DISABLE:
                return []
            # Sender-side dependence re-validation (Section IV-B): the
            # traced chain must still close through this router — the
            # probed input port is fully occupied *and* one of its
            # residents wants the chain's output.  Closure matters: it is
            # what guarantees (bubble flow control's circulation argument)
            # that the packet that claims the bubble is eventually freed
            # by the very slot the bubble introduced, so the bubble is
            # always re-claimed and recovery completes.
            in_vcs = router.input_vcs[fsm.probe_in_port]
            if not in_vcs or any(vc.packet is None for vc in in_vcs):
                self._emit(
                    network, SPECIAL_DROP, router.node,
                    mtype=msg.mtype.name, sender=msg.sender,
                    reason="revalidation_failed",
                )
                return []
            if not router.vc_wants_output(fsm.probe_in_port, fsm.probe_out_port, now):
                self._emit(
                    network, SPECIAL_DROP, router.node,
                    mtype=msg.mtype.name, sender=msg.sender,
                    reason="revalidation_failed",
                )
                return []
            action = fsm.on_disable_returned()
            if action != FsmAction.NONE:
                self._dispatch(network, router, state, action, now)
            return []
        if not msg.turns:
            return []
        out = self._decode(msg.travel, msg.turns[0])
        if not router.vc_wants_output(in_port, out, now):
            # The dependence dissolved: drop, sender times out.
            self._emit(
                network, SPECIAL_DROP, router.node,
                mtype=msg.mtype.name, sender=msg.sender, reason="chain_dissolved",
            )
            return []
        # A router whose single IO-priority buffer is already claimed —
        # sealed into another chain, or an SB node running its own
        # recovery — cannot install this chain's restriction.  The paper
        # drops the disable here; we instead forward it *without sealing*
        # this hop (deviation, DESIGN.md §4): the sender still gets its
        # confirmation and activates the bubble, at the cost of one
        # unsealed hop new traffic may slip through.  Dropping instead
        # livelocks frozen deadlock webs in which every disable must cross
        # some other chain's router.
        busy = router.is_deadlock or (state is not None and state.fsm.in_recovery())
        if not busy:
            router.set_io_restriction(in_port, out, msg.sender, now)
            self._emit(
                network, SEAL_INSTALL, router.node,
                source=msg.sender,
                in_port=self._port_names[in_port],
                out_port=self._port_names[out],
            )
            if state is not None:
                state.fsm.on_foreign_disable()
        return [(out, msg.with_head_stripped(out))]

    def _handle_check_probe(
        self,
        network: "Network",
        router: "Router",
        in_port: int,
        msg: SpecialMessage,
        now: int,
    ) -> List[Tuple[int, SpecialMessage]]:
        state = self.states.get(router.node)
        if msg.sender == router.node:
            if state is None:
                return []
            action = state.fsm.on_check_probe_returned()
            if action != FsmAction.NONE:
                self._dispatch(network, router, state, action, now)
            return []
        # Buffer Dependency Check unit: forward only while a VC still
        # feeds the chain at this hop.  The output port comes from the
        # replayed turn; for hops sealed by this sender it equals the
        # stored IO-priority output (the paper's formulation) — using the
        # turn also covers hops that could not be sealed because their IO
        # buffer was claimed by another chain (see _handle_disable).
        if not msg.turns:
            return []
        out = self._decode(msg.travel, msg.turns[0])
        if not router.vc_wants_output(in_port, out, now):
            self._emit(
                network, SPECIAL_DROP, router.node,
                mtype=msg.mtype.name, sender=msg.sender, reason="chain_dissolved",
            )
            return []
        return [(out, msg.with_head_stripped(out))]

    def _handle_enable(
        self,
        network: "Network",
        router: "Router",
        in_port: int,
        msg: SpecialMessage,
        now: int,
    ) -> List[Tuple[int, SpecialMessage]]:
        state = self.states.get(router.node)
        if msg.sender == router.node:
            if state is None:
                return []
            fsm = state.fsm
            if fsm.state != FsmState.S_ENABLE:
                return []
            if router.is_deadlock:
                self._emit(
                    network, SEAL_CLEAR, router.node, source=router.source_id
                )
            router.clear_io_restriction()
            router.deactivate_bubble()
            any_active = self._compass_occupied(router)
            action = fsm.on_enable_returned(any_active)
            if action != FsmAction.NONE:
                self._dispatch(network, router, state, action, now)
            return []
        if not msg.turns:
            return []
        out = self._decode(msg.travel, msg.turns[0])
        # Unlike disables, foreign enables are processed and forwarded even
        # while this SB node runs its own recovery: an enable only touches
        # state whose source-id matches its sender, so it cannot disturb
        # the local recovery, and dropping it would leak stale seals along
        # the other chain (a liveness hole; see DESIGN.md §4).
        if router.source_id == msg.sender:
            self._emit(network, SEAL_CLEAR, router.node, source=msg.sender)
            router.clear_io_restriction()
            if state is not None and not state.fsm.in_recovery():
                any_active = self._compass_occupied(router)
                state.fsm.on_foreign_enable(any_active)
        # Forwarded even on a source-id mismatch (Section IV-B).
        return [(out, msg.with_head_stripped(out))]
