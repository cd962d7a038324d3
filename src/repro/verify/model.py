"""Exhaustive model checking of the static-bubble recovery protocol.

The CDG certificates (:mod:`repro.verify.certify`) prove the *placement*
claim: every dependency cycle crosses a static-bubble router.  This
module proves the *protocol* claim on top of it: once a deadlock exists,
the 6-state counter FSM plus the probe / disable / check_probe / enable
messages actually recover — the network drains, every injection-
restriction seal is released, and no FSM wedges in ``S_SB_ACTIVE`` —
even when any special message is lost at any point.

**One state codec.**  :func:`_encode` is the one walk over a network's
dynamic state: every router (VC residents and stamps, bubble, output
links, seal, the ``_in_rr`` / ``_out_rr`` / ``_adapt_rr`` pointers),
every NI (queue, next pid), the specials in flight and the static-bubble
FSM and watch state, with every cycle stamp stored relative to
``net.cycle``.  It has two forms:

* :func:`canonical_state` clamps: past stamps read "expired", the seal
  and bubble ages clamp at the timeouts that consume them (0 while no
  seal or ``S_SB_ACTIVE`` is held), specials are sorted, and packets drop
  ``created_at`` / ``injected_at``.  Configurations that behave alike at
  different absolute cycles share one key.
* :func:`snapshot` clamps nothing and adds ``net.cycle``, the network,
  NI and traffic RNG states and ``NetworkStats``.

:func:`restore` decodes either form into a network of the same build:
every resident leaves and is placed back through ``Router.place``, then
links, seals, FSMs and specials are rewritten and every router is woken.
The invariant: *a key is a restorable member of its class* —
``canonical_state`` of a restored key is that key, and a restored
snapshot steps in lockstep with a ``copy.deepcopy`` of the network it
was taken from (``tests/test_verify.py``, every generator × scheme).

The checker stores keys only and explores the **full reachable state
space** of a scenario network (``repro.sim.scenarios``) under an
adversarial message-loss environment:

* **Transitions**: one simulator cycle from a restored key.  Where
  special messages are due for delivery the adversary branches over
  *every subset to drop* (:func:`successor_states`) — a strict
  over-approximation of the collisions that lose specials in the real
  semantics (output-port arbitration), so any robustness proved here
  holds for the real network.
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

import dataclasses
from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional, Set, Tuple

from repro.core.fsm import FsmState

#: A :func:`canonical_state` key or a :func:`snapshot`.
StateKey = Tuple


class StateSpaceExceeded(RuntimeError):
    """The exploration outgrew ``max_states`` — not a verification verdict."""


# -- the codec ------------------------------------------------------------


def _encode(net, exact: bool) -> StateKey:
    """``(routers, nis, specials, fsms)``, stamps relative to ``net.cycle``.

    ``exact`` keeps every stamp and appends the :func:`snapshot` tail;
    otherwise the :func:`canonical_state` clamps apply.
    """
    now = net.cycle
    cfg = net.config

    if exact:
        def rel(stamp: int, floor: int = 0) -> int:
            return stamp - now
    else:
        def rel(stamp: int, floor: int = 0) -> int:
            return stamp - now if stamp > now + floor else floor

    def pkt(p) -> Optional[Tuple]:
        if p is None:
            return None
        key = (p.pid, p.src, p.dst, p.vnet, p.size, p.route, p.hop,
               p.is_escape, p.adapt_out)
        if exact:
            injected = None if p.injected_at is None else p.injected_at - now
            key += (p.created_at - now, injected)
        return key

    def vc_key(vc) -> Tuple:
        return (pkt(vc.packet), rel(vc.ready_at), rel(vc.free_at))

    routers = []
    for r in net.routers.values():
        bubble = r.bubble
        seal_age = now - r.io_set_at
        if not exact:
            seal_age = min(seal_age, cfg.sb_seal_timeout) if r.is_deadlock else 0
        routers.append((
            tuple(map(vc_key, chain.from_iterable(r.input_vcs))),
            None if bubble is None else (bubble.port, r.bubble_active, vc_key(bubble)),
            tuple(
                None if link is None
                else (rel(link.busy_until), rel(link.special_blocked_at, -1))
                for link in r.output_links
            ),
            (r.is_deadlock, r.io_in_port, r.io_out_port, r.source_id, seal_age),
            tuple(r._in_rr),
            tuple(r._out_rr),
            tuple(r._adapt_rr),
        ))
    nis = tuple(
        (tuple(map(pkt, ni.queue)), ni._next_pid) for ni in net.nis.values()
    )
    specials = [
        (arrival - now, node, in_port, msg)
        for arrival, entries in net._special_arrivals.items()
        for node, in_port, msg in entries
    ]
    if not exact:
        specials.sort()
    states = getattr(net.scheme, "states", {})
    fsms = []
    for st in states.values():
        fsm = st.fsm
        bubble_age = now - st.bubble_active_since
        if not exact:
            bubble_age = (
                min(max(0, bubble_age), cfg.sb_bubble_timeout)
                if fsm.state is FsmState.S_SB_ACTIVE
                else 0
            )
        fsms.append((
            fsm.state, fsm.count, fsm.threshold, fsm.turn_buffer,
            fsm.probe_in_port, fsm.probe_out_port, fsm.enable_retries,
            st.watch_index, st.watched_pid, bubble_age,
        ))
    body = (tuple(routers), nis, tuple(specials), tuple(fsms))
    if not exact:
        return body
    traffic_rng = getattr(net.traffic, "rng", None)
    stats = net.stats
    return body + (
        now,
        net._rng.getstate(),
        tuple(ni.rng.getstate() for ni in net.nis.values()),
        None if traffic_rng is None else traffic_rng.getstate(),
        dataclasses.replace(
            stats, link_special_cycles=dict(stats.link_special_cycles)
        ),
    )


def canonical_state(net) -> StateKey:
    """A hashable key of everything that determines future behaviour,
    invariant under time translation (see the module docstring).
    Statistics never feed back; RNGs are left out because a scenario
    network, which has no traffic, draws no random numbers."""
    return _encode(net, exact=False)


def snapshot(net) -> StateKey:
    """The full dynamic state of ``net``, for an exact :func:`restore`."""
    return _encode(net, exact=True)


def _packet(key: Tuple, now: int):
    from repro.sim.packet import Packet

    pid, src, dst, vnet, size, route, hop, escape, adapt_out, *stamps = key
    created, injected = stamps or (0, 0)
    packet = Packet(pid, src, dst, vnet, size, route, now + created)
    packet.hop = hop
    packet.is_escape = escape
    packet.adapt_out = adapt_out
    packet.injected_at = None if injected is None else now + injected
    return packet


def _put(router, vc, key: Tuple, now: int) -> None:
    """Write one VC's ``(packet, ready, free)`` into an emptied ``vc``."""
    packet, ready, free = key
    vc.free_at = now + free
    if packet is None:
        vc.ready_at = now + ready
    else:
        # The one arrival path: occupancy, ``wake_at`` and the network's
        # occupied-router set are re-derived by the placement itself.
        router.place(vc, _packet(packet, now), now + ready)


def restore(net, state: StateKey) -> None:
    """Write a :func:`canonical_state` key or a :func:`snapshot` into ``net``.

    A key is placed at ``net.cycle``; a snapshot also brings back its
    cycle, RNG states and statistics.
    """
    routers, nis, specials, fsms, *tail = state
    if tail:
        net.cycle = tail[0]
    now = net.cycle
    pairs = list(zip(net.routers.values(), routers))
    # Every resident leaves under the port it was counted at before any
    # bubble is re-tagged.
    for r, _key in pairs:
        for vc in list(r.residents()):
            r.remove(vc)
    net._active_nodes.clear()
    for r, (vcs, bubble, links, seal, in_rr, out_rr, adapt_rr) in pairs:
        for vc, key in zip(chain.from_iterable(r.input_vcs), vcs):
            _put(r, vc, key, now)
        if bubble is not None:
            r.bubble.port, r.bubble_active, key = bubble
            _put(r, r.bubble, key, now)
        for link, key in zip(r.output_links, links):
            if key is not None:
                link.busy_until, link.special_blocked_at = now + key[0], now + key[1]
        r.is_deadlock, r.io_in_port, r.io_out_port, r.source_id, age = seal
        r.io_set_at = now - age
        if r.is_deadlock:
            # Written past ``set_io_restriction``: keep the scheme's sealed
            # set a superset of the truth (stale members leave lazily).
            r._sealed.add(r.node)
        r._in_rr[:] = in_rr
        r._out_rr[:] = out_rr
        r._adapt_rr[:] = adapt_rr
        # Bubble activation changes port-VC membership; drop the cache.
        r.invalidate_vc_cache()
    net._queued_nodes.clear()
    for ni, (queue, ni._next_pid) in zip(net.nis.values(), nis):
        ni.queue = deque(_packet(key, now) for key in queue)
        if queue:
            net._queued_nodes.add(ni.node)
    arrivals = net._special_arrivals = {}
    for delta, node, in_port, msg in specials:
        arrivals.setdefault(now + delta, []).append((node, in_port, msg))
    states = getattr(net.scheme, "states", {})
    for st, key in zip(states.values(), fsms):
        fsm = st.fsm
        (fsm.state, fsm.count, fsm.threshold, fsm.turn_buffer,
         fsm.probe_in_port, fsm.probe_out_port, fsm.enable_retries,
         st.watch_index, st.watched_pid, age) = key
        st.bubble_active_since = now - age
    if states:
        # ``fsm.state`` was written directly, not through ``transition``.
        net.scheme.resync_awake()
    if tail:
        _cycle, net_rng, ni_rngs, traffic_rng, stats = tail
        net._rng.setstate(net_rng)
        for ni, rng in zip(net.nis.values(), ni_rngs):
            ni.rng.setstate(rng)
        if traffic_rng is not None:
            net.traffic.rng.setstate(traffic_rng)
        vars(net.stats).update(vars(stats))
        net.stats.link_special_cycles = dict(stats.link_special_cycles)
    # Wake table and links were written wholesale.
    net.wake_all()


def is_recovered(net) -> bool:
    """Fully drained, all seals released, all FSMs off, nothing in flight."""
    if net.total_occupancy() or net.queued_packets():
        return False
    if net._special_arrivals:
        return False
    for router in net.active_routers():
        if router.is_deadlock or router.bubble_active:
            return False
    return all(state is FsmState.S_OFF for state in _fsm_states(net))


def _fsm_states(net) -> List[FsmState]:
    return [st.fsm.state for st in getattr(net.scheme, "states", {}).values()]


# -- transition function --------------------------------------------------


def successor_states(net, key: StateKey, max_due_specials: int = 8):
    """Yield ``(dropped, successor key)`` for one adversarial cycle from ``key``.

    Restores ``key`` into ``net`` and branches over every subset of the
    specials due this cycle being lost; drops count in
    ``stats.specials_dropped``.  ``net`` holds each successor while its
    key is yielded.  ``max_due_specials`` bounds the branching factor
    (2^k); scenario networks stay well under it, and exceeding it raises
    rather than silently truncating the adversary.
    """
    restore(net, key)
    k = len(net._special_arrivals.get(net.cycle, ()))
    if k > max_due_specials:
        raise StateSpaceExceeded(
            f"{k} specials due in one cycle exceeds the adversary bound "
            f"({max_due_specials}); raise max_due_specials"
        )
    for mask in range(1 << k):
        dropped = bin(mask).count("1")
        if mask:
            restore(net, key)
            due = net._special_arrivals[net.cycle]
            due[:] = [e for i, e in enumerate(due) if not (mask >> i) & 1]
            if not due:
                del net._special_arrivals[net.cycle]
            net.stats.specials_dropped += dropped
        net.step()
        yield dropped, canonical_state(net)


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

    # Deterministic no-loss progress run (the real network semantics),
    # then back to the initial deadlock.
    initial = snapshot(net)
    det_cycle: Optional[int] = None
    for _ in range(det_bound):
        if is_recovered(net):
            det_cycle = net.cycle
            break
        net.step()
    restore(net, initial)

    # Exhaustive breadth-first exploration: ids are handed out in
    # discovery order, so expanding them in id order is the BFS.
    keys: List[StateKey] = [canonical_state(net)]
    ids: Dict[StateKey, int] = {keys[0]: 0}
    parents: Dict[int, Tuple[int, int]] = {}  # id -> (parent id, dropped)
    redges: Dict[int, List[int]] = {}
    recovered_ids: Set[int] = {0} if is_recovered(net) else set()
    sb_active_states = int(_any_sb_active(net))
    transitions = 0
    widest = 0
    sid = 0
    while sid < len(keys):
        for dropped, key in successor_states(net, keys[sid], max_due_specials):
            # The all-dropped branch drops every due special.
            widest = max(widest, dropped)
            tid = ids.get(key)
            if tid is None:
                tid = len(keys)
                if tid >= max_states:
                    raise StateSpaceExceeded(
                        f"{name}: more than {max_states} reachable states"
                    )
                ids[key] = tid
                keys.append(key)
                parents[tid] = (sid, dropped)
                if is_recovered(net):
                    recovered_ids.add(tid)
                sb_active_states += _any_sb_active(net)
            transitions += 1
            redges.setdefault(tid, []).append(sid)
        sid += 1

    # AG EF recovered: reverse reachability from the recovered states.
    co_reachable = set(recovered_ids)
    stack = list(recovered_ids)
    while stack:
        sid = stack.pop()
        for pred in redges.get(sid, ()):
            if pred not in co_reachable:
                co_reachable.add(pred)
                stack.append(pred)
    bad = [sid for sid in range(len(keys)) if sid not in co_reachable]

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
        states=len(keys),
        transitions=transitions,
        recovered_states=len(recovered_ids),
        det_recovery_cycle=det_cycle,
        sb_active_states=sb_active_states,
        max_due_specials=widest,
        livelock_path=livelock_path,
        config=knobs,
    )


def _any_sb_active(net) -> bool:
    return FsmState.S_SB_ACTIVE in _fsm_states(net)
