"""Exhaustive model checking of the static-bubble recovery protocol.

The CDG certificates (:mod:`repro.verify.certify`) prove the *placement*
claim: every dependency cycle crosses a static-bubble router.  This
module proves the *protocol* claim on top of it: once a deadlock exists,
the 6-state counter FSM plus the probe / disable / check_probe / enable
messages actually recover — the network drains, every injection-
restriction seal is released, and no FSM wedges in ``S_SB_ACTIVE`` —
even when any special message is lost at any point.

The checker explores the **full reachable state space** of a scenario
network (``repro.sim.scenarios``) under an adversarial message-loss
environment:

* **States** are canonical snapshots of everything behaviour-relevant:
  VC contents, link busy/claim times, seals, round-robin pointers, FSM
  state/counters/turn buffers, watch pointers, and in-flight specials —
  all timestamps rebased to the current cycle (and ages clamped at their
  timeout thresholds) so that behaviourally identical configurations
  reached at different absolute cycles collapse into one state.
* **Transitions**: one simulator cycle.  Where special messages are due
  for delivery the adversary branches over *every subset to drop* —
  a strict over-approximation of the collisions that lose specials in
  the real semantics (output-port arbitration), so any robustness proved
  here holds for the real network.
* **Properties** checked:

  1. *Recovery possible from everywhere* (AG EF drained): every
     reachable state can still reach a fully drained state with all
     seals released and all FSMs off.  A violation is a livelock (or a
     stuck seal / stuck ``S_SB_ACTIVE``) and is reported with a concrete
     driving path from the initial deadlock.
  2. *Recovery happens* (progress): the deterministic no-loss run
     reaches the drained state within a bounded number of cycles.

Thresholds (``t_dd``, bubble/seal timeouts, enable retries) are protocol
*parameters*; the checker shrinks them by default so the state space
stays small enough to exhaust in CI while still exercising every FSM
edge — timeouts fire earlier, they do not fire differently.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.fsm import FsmState

StateKey = Tuple
#: Transition label: (cycle-index-in-path, number of specials dropped).


class StateSpaceExceeded(RuntimeError):
    """The exploration outgrew ``max_states`` — not a verification verdict."""


# -- canonicalization -----------------------------------------------------


def _packet_key(packet) -> Optional[Tuple]:
    if packet is None:
        return None
    return (
        packet.pid,
        packet.src,
        packet.dst,
        packet.vnet,
        packet.size,
        tuple(int(p) for p in packet.route),
        packet.hop,
        packet.is_escape,
    )


def _msg_key(msg) -> Tuple:
    return (
        int(msg.mtype),
        msg.sender,
        tuple(int(t) for t in msg.turns),
        msg.travel,
        None if msg.origin_out is None else int(msg.origin_out),
    )


def _delta(value: int, now: int, floor: int = 0) -> int:
    return max(floor, value - now)


def _scheme_key(net, now: int) -> Tuple:
    """Canonical protocol state (static-bubble scheme; else empty)."""
    states = getattr(net.scheme, "states", None)
    if not isinstance(states, dict):
        return ()
    cfg = net.config
    parts = []
    for node in sorted(states):
        st = states[node]
        fsm = st.fsm
        router = net.routers.get(node)
        if fsm.state is FsmState.S_SB_ACTIVE:
            bubble_age = min(
                max(0, now - st.bubble_active_since), cfg.sb_bubble_timeout
            )
        else:
            bubble_age = 0
        parts.append(
            (
                node,
                fsm.state.name,
                fsm.count,
                fsm.threshold,
                tuple(int(t) for t in fsm.turn_buffer),
                None if fsm.probe_in_port is None else int(fsm.probe_in_port),
                None if fsm.probe_out_port is None else int(fsm.probe_out_port),
                fsm.enable_retries,
                st.watch_index,
                st.watched_pid,
                bubble_age,
                router is not None and router.bubble_active,
            )
        )
    return tuple(parts)


def canonical_state(net) -> StateKey:
    """A hashable snapshot of everything that determines future behaviour.

    All absolute cycle stamps become deltas against ``net.cycle`` (past
    stamps clamp to their "expired" value, ages clamp at the timeout that
    consumes them), so the key is invariant under time translation.
    Statistics, RNGs and the lazily-evicted active-router set are
    excluded: they never feed back into packet or protocol behaviour.
    """
    now = net.cycle
    cfg = net.config
    routers = []
    for node in sorted(net.routers):
        r = net.routers[node]
        vcs = []
        for port in range(r.num_ports):
            for vc in r.input_vcs[port]:
                vcs.append(
                    (
                        port,
                        vc.index,
                        vc.kind,
                        _packet_key(vc.packet),
                        _delta(vc.ready_at, now),
                        _delta(vc.free_at, now),
                    )
                )
        bubble = None
        if r.bubble is not None:
            bubble = (
                int(r.bubble.port),
                r.bubble_active,
                _packet_key(r.bubble.packet),
                _delta(r.bubble.ready_at, now),
                _delta(r.bubble.free_at, now),
            )
        links = []
        for port in range(r.num_ports):
            link = r.output_links[port]
            links.append(
                None
                if link is None
                else (
                    _delta(link.busy_until, now),
                    _delta(link.special_blocked_at, now, floor=-1),
                )
            )
        seal_age = (
            min(now - r.io_set_at, cfg.sb_seal_timeout) if r.is_deadlock else 0
        )
        routers.append(
            (
                node,
                tuple(vcs),
                bubble,
                tuple(links),
                r.is_deadlock,
                r.io_in_port,
                r.io_out_port,
                r.source_id,
                seal_age,
                tuple(r._in_rr),
                tuple(r._out_rr),
            )
        )
    specials = tuple(
        sorted(
            (arrival - now, node, in_port, _msg_key(msg))
            for arrival, entries in net._special_arrivals.items()
            for node, in_port, msg in entries
        )
    )
    queues = tuple(
        (node, tuple(_packet_key(p) for p in ni.queue))
        for node, ni in sorted(net.nis.items())
        if ni.queue
    )
    return (tuple(routers), specials, _scheme_key(net, now), queues)


def is_recovered(net) -> bool:
    """Fully drained, all seals released, all FSMs off, nothing in flight."""
    if net.total_occupancy() or net.queued_packets():
        return False
    if net._special_arrivals:
        return False
    for router in net.active_routers():
        if router.is_deadlock or router.bubble_active:
            return False
    states = getattr(net.scheme, "states", None)
    if isinstance(states, dict):
        for st in states.values():
            if st.fsm.state is not FsmState.S_OFF:
                return False
    return True


# -- snapshot / restore ---------------------------------------------------
#
# The explorer visits tens of thousands of states; ``copy.deepcopy`` of a
# Network costs milliseconds, which would dominate the whole check.  A
# snapshot is instead the *full-fidelity* version of the canonical key —
# the same field inventory, absolute timestamps, no clamping — and
# ``restore`` writes it back into one shared working network.  Packets
# are stored as tuples and rebuilt on restore (``step`` mutates ``hop``
# in place, so live Packet objects must never be shared across states);
# frozen SpecialMessages are shared by reference.


def _vc_snap(vc) -> Tuple:
    return (_packet_key(vc.packet), vc.ready_at, vc.free_at)


def _vc_restore(router, vc, snap: Tuple) -> None:
    if vc.packet is not None:
        router.remove(vc)
    pkt, vc.ready_at, vc.free_at = snap
    if pkt is not None:
        # The one arrival path: occupancy, ``wake_at`` and the network's
        # occupied-router set are re-derived by the placement itself.
        router.place(vc, _packet_from_key(pkt), vc.ready_at)


def _packet_from_key(key: Tuple):
    from repro.sim.packet import Packet

    pid, src, dst, vnet, size, route, hop, is_escape = key
    packet = Packet(pid, src, dst, vnet, size, route, 0)
    packet.hop = hop
    packet.is_escape = is_escape
    packet.injected_at = 0
    return packet


def snapshot(net) -> Tuple:
    """Full dynamic state of a scenario network (see restore)."""
    routers = []
    for node in sorted(net.routers):
        r = net.routers[node]
        routers.append(
            (
                node,
                tuple(
                    _vc_snap(vc)
                    for port in range(r.num_ports)
                    for vc in r.input_vcs[port]
                ),
                None
                if r.bubble is None
                else (int(r.bubble.port), r.bubble_active, _vc_snap(r.bubble)),
                tuple(
                    None
                    if link is None
                    else (link.busy_until, link.special_blocked_at)
                    for link in r.output_links
                ),
                (
                    r.is_deadlock,
                    r.io_in_port,
                    r.io_out_port,
                    r.source_id,
                    r.io_set_at,
                ),
                tuple(r._in_rr),
                tuple(r._out_rr),
            )
        )
    specials = tuple(
        (arrival, tuple(entries))
        for arrival, entries in sorted(net._special_arrivals.items())
    )
    scheme_states = getattr(net.scheme, "states", None)
    fsms = ()
    if isinstance(scheme_states, dict):
        fsms = tuple(
            (
                node,
                st.fsm.state,
                st.fsm.count,
                st.fsm.threshold,
                st.fsm.turn_buffer,
                st.fsm.probe_in_port,
                st.fsm.probe_out_port,
                st.fsm.enable_retries,
                st.watch_index,
                st.watched_pid,
                st.bubble_active_since,
            )
            for node, st in sorted(scheme_states.items())
        )
    return (net.cycle, routers, specials, fsms)


def restore(net, snap: Tuple) -> None:
    """Write a snapshot back into ``net`` (the shared working network)."""
    cycle, routers, specials, fsms = snap
    net.cycle = cycle
    net._active_nodes.clear()
    # Links, seals and free times are written directly below.
    net.wake_all()
    for node, vcs, bubble, links, seal, in_rr, out_rr in routers:
        r = net.routers[node]
        it = iter(vcs)
        for port in range(r.num_ports):
            for vc in r.input_vcs[port]:
                _vc_restore(r, vc, next(it))
        if r.bubble is not None:
            port, active, vc_snap = bubble
            # The old resident leaves under the port it was counted at;
            # only then is the bubble re-tagged.
            if r.bubble.packet is not None:
                r.remove(r.bubble)
            r.bubble.port = port
            r.bubble_active = active
            _vc_restore(r, r.bubble, vc_snap)
        for port, link_snap in enumerate(links):
            link = r.output_links[port]
            if link_snap is not None:
                link.busy_until, link.special_blocked_at = link_snap
        (
            r.is_deadlock,
            r.io_in_port,
            r.io_out_port,
            r.source_id,
            r.io_set_at,
        ) = seal
        # Direct attribute writes bypass ``set_io_restriction``; enter
        # the router so the scheme-side sealed-router set stays a superset
        # of the truth (stale members are discarded lazily).
        if r.is_deadlock:
            r._sealed.add(r.node)
        r._in_rr[:] = in_rr
        r._out_rr[:] = out_rr
        # Bubble activation changes port-VC membership; drop the cache.
        r.invalidate_vc_cache()
    net._special_arrivals = {
        arrival: list(entries) for arrival, entries in specials
    }
    scheme_states = getattr(net.scheme, "states", None)
    if isinstance(scheme_states, dict):
        for (
            node,
            state,
            count,
            threshold,
            turn_buffer,
            probe_in,
            probe_out,
            retries,
            watch_index,
            watched_pid,
            active_since,
        ) in fsms:
            st = scheme_states[node]
            st.fsm.state = state
            st.fsm.count = count
            st.fsm.threshold = threshold
            st.fsm.turn_buffer = turn_buffer
            st.fsm.probe_in_port = probe_in
            st.fsm.probe_out_port = probe_out
            st.fsm.enable_retries = retries
            st.watch_index = watch_index
            st.watched_pid = watched_pid
            st.bubble_active_since = active_since
        # ``fsm.state`` was written directly, not through ``transition``.
        net.scheme.resync_awake()


# -- transition function --------------------------------------------------


def clone_network(net):
    """Deep-copy a network so the copy can be stepped independently.

    Routers, NIs and FSMs hold the network's occupied / queued / awake /
    sealed *sets* (not bound ``set.add`` methods, which ``deepcopy`` treats
    as atomic), so the copy's members point at the copy's sets.
    """
    return copy.deepcopy(net)


def successor_states(net, max_due_specials: int = 8):
    """Yield ``(dropped_count, successor)`` for one adversarial cycle.

    Branches over every subset of the specials due for delivery this
    cycle being lost.  ``max_due_specials`` bounds the branching factor
    (2^k); scenario networks stay well under it, and exceeding it raises
    rather than silently truncating the adversary.
    """
    due = net._special_arrivals.get(net.cycle, ())
    k = len(due)
    if k > max_due_specials:
        raise StateSpaceExceeded(
            f"{k} specials due in one cycle exceeds the adversary bound "
            f"({max_due_specials}); raise max_due_specials"
        )
    for mask in range(1 << k):
        clone = clone_network(net)
        if mask:
            entries = clone._special_arrivals[clone.cycle]
            kept = [e for i, e in enumerate(entries) if not (mask >> i) & 1]
            if kept:
                clone._special_arrivals[clone.cycle] = kept
            else:
                del clone._special_arrivals[clone.cycle]
            clone.stats.specials_dropped += bin(mask).count("1")
        clone.step()
        yield bin(mask).count("1"), clone


# -- the checker ----------------------------------------------------------


@dataclass
class ModelCheckResult:
    """Outcome of one exhaustive protocol exploration."""

    scenario: str
    ok: bool
    states: int
    transitions: int
    recovered_states: int
    #: Deterministic no-loss run: cycle of full recovery (None = never).
    det_recovery_cycle: Optional[int]
    #: States in which some FSM is in S_SB_ACTIVE (all proved transient).
    sb_active_states: int
    #: Largest number of specials simultaneously due (adversary width).
    max_due_specials: int
    #: Livelock witness: per-step (state-id, specials dropped) from the
    #: initial state to a state that cannot reach recovery.
    livelock_path: Optional[List[Tuple[int, int]]] = None
    config: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "ok": self.ok,
            "states": self.states,
            "transitions": self.transitions,
            "recovered_states": self.recovered_states,
            "det_recovery_cycle": self.det_recovery_cycle,
            "sb_active_states": self.sb_active_states,
            "max_due_specials": self.max_due_specials,
            "livelock_path": self.livelock_path,
            "config": dict(self.config),
        }

    def describe(self) -> str:
        lines = [
            f"model check: {self.scenario} -> "
            + ("OK" if self.ok else "FAIL"),
            f"  reachable states: {self.states}, "
            f"transitions: {self.transitions}",
            f"  recovered (drained, seals released, FSMs off) states: "
            f"{self.recovered_states}",
            f"  states with an active static bubble FSM: "
            f"{self.sb_active_states} (all transient)"
            if self.ok
            else f"  states with an active static bubble FSM: "
            f"{self.sb_active_states}",
            f"  adversary width: up to {self.max_due_specials} "
            f"droppable specials per cycle",
        ]
        if self.det_recovery_cycle is not None:
            lines.append(
                f"  deterministic (no-loss) run recovers at cycle "
                f"{self.det_recovery_cycle}"
            )
        else:
            lines.append("  deterministic (no-loss) run never recovers")
        if self.config:
            knobs = ", ".join(f"{k}={v}" for k, v in sorted(self.config.items()))
            lines.append(f"  thresholds: {knobs}")
        if self.livelock_path is not None:
            lines.append(
                f"  LIVELOCK witness of {len(self.livelock_path)} steps "
                f"(state id, specials dropped): {self.livelock_path}"
            )
        return "\n".join(lines)


def _shrink_thresholds(
    net,
    bubble_timeout: int,
    seal_timeout: int,
    enable_retries: int,
) -> Dict[str, int]:
    """Install small protocol thresholds so the state space closes.

    Timeouts and retry bounds are configuration parameters of the
    protocol (SimConfig); shrinking them changes *when* the same FSM
    edges fire, not which edges exist.
    """
    net.config.sb_bubble_timeout = bubble_timeout
    net.config.sb_seal_timeout = seal_timeout
    net.config.sb_enable_retries = enable_retries
    return {
        "sb_bubble_timeout": bubble_timeout,
        "sb_seal_timeout": seal_timeout,
        "sb_enable_retries": enable_retries,
    }


def check_scenario(
    name: str,
    t_dd: Optional[int] = 2,
    max_states: int = 200_000,
    bubble_timeout: int = 6,
    seal_timeout: int = 8,
    enable_retries: int = 1,
    det_bound: int = 5_000,
    max_due_specials: int = 8,
) -> ModelCheckResult:
    """Exhaustively model-check a named deadlock scenario.

    Builds the scenario (``repro.sim.scenarios``), shrinks the liveness
    thresholds, explores every reachable state under the drop-any-subset
    adversary, and checks AG EF recovered plus deterministic progress.
    Raises :class:`StateSpaceExceeded` past ``max_states`` — an
    exploration budget, never reported as a pass or a fail.
    """
    from repro.sim.scenarios import build_scenario

    net, _scheme = build_scenario(name, t_dd=t_dd)
    knobs = _shrink_thresholds(net, bubble_timeout, seal_timeout, enable_retries)
    if t_dd is not None:
        knobs["t_dd"] = t_dd

    # Deterministic no-loss progress run (the real network semantics).
    det_net = clone_network(net)
    det_cycle: Optional[int] = None
    for _ in range(det_bound):
        if is_recovered(det_net):
            det_cycle = det_net.cycle
            break
        det_net.step()

    # Exhaustive exploration.  The working network ``net`` is reused for
    # every expansion: restore snapshot, (maybe) drop specials, step once.
    init_key = canonical_state(net)
    ids: Dict[StateKey, int] = {init_key: 0}
    snaps: List[Tuple] = [snapshot(net)]
    parents: Dict[int, Tuple[int, int]] = {}  # id -> (parent id, dropped)
    redges: Dict[int, List[int]] = {}
    recovered_ids: Set[int] = set()
    sb_active_states = 0
    transitions = 0
    widest = 0
    frontier = [0]
    if is_recovered(net):
        recovered_ids.add(0)
    if _any_sb_active(net):
        sb_active_states += 1
    while frontier:
        next_frontier: List[int] = []
        for sid in frontier:
            snap = snaps[sid]
            restore(net, snap)
            due = len(net._special_arrivals.get(net.cycle, ()))
            widest = max(widest, due)
            if due > max_due_specials:
                raise StateSpaceExceeded(
                    f"{due} specials due in one cycle exceeds the adversary "
                    f"bound ({max_due_specials}); raise max_due_specials"
                )
            for mask in range(1 << due):
                restore(net, snap)
                if mask:
                    entries = net._special_arrivals[net.cycle]
                    kept = [
                        e for i, e in enumerate(entries) if not (mask >> i) & 1
                    ]
                    if kept:
                        net._special_arrivals[net.cycle] = kept
                    else:
                        del net._special_arrivals[net.cycle]
                net.step()
                key = canonical_state(net)
                tid = ids.get(key)
                if tid is None:
                    tid = len(snaps)
                    if tid >= max_states:
                        raise StateSpaceExceeded(
                            f"{name}: more than {max_states} reachable states"
                        )
                    ids[key] = tid
                    snaps.append(snapshot(net))
                    parents[tid] = (sid, bin(mask).count("1"))
                    next_frontier.append(tid)
                    if is_recovered(net):
                        recovered_ids.add(tid)
                    if _any_sb_active(net):
                        sb_active_states += 1
                transitions += 1
                redges.setdefault(tid, []).append(sid)
        frontier = next_frontier

    # AG EF recovered: reverse reachability from the recovered states.
    co_reachable = set(recovered_ids)
    stack = list(recovered_ids)
    while stack:
        sid = stack.pop()
        for pred in redges.get(sid, ()):
            if pred not in co_reachable:
                co_reachable.add(pred)
                stack.append(pred)
    bad = [sid for sid in range(len(snaps)) if sid not in co_reachable]

    livelock_path: Optional[List[Tuple[int, int]]] = None
    if bad:
        witness = min(bad)  # earliest-discovered (shortest BFS depth)
        path: List[Tuple[int, int]] = []
        sid = witness
        while sid != 0:
            parent, dropped = parents[sid]
            path.append((sid, dropped))
            sid = parent
        path.reverse()
        livelock_path = path

    ok = not bad and bool(recovered_ids) and det_cycle is not None
    return ModelCheckResult(
        scenario=name,
        ok=ok,
        states=len(snaps),
        transitions=transitions,
        recovered_states=len(recovered_ids),
        det_recovery_cycle=det_cycle,
        sb_active_states=sb_active_states,
        max_due_specials=widest,
        livelock_path=livelock_path,
        config=knobs,
    )


def _any_sb_active(net) -> bool:
    states = getattr(net.scheme, "states", None)
    if not isinstance(states, dict):
        return False
    return any(st.fsm.state is FsmState.S_SB_ACTIVE for st in states.values())
