"""Diagnostics: inspect deadlocks, FSM state, and special-message traffic.

These are the tools used to debug the recovery protocol itself; they are
shipped because anyone extending the scheme (new placements, new message
types, different flow control) will need exactly them.

* :func:`describe_wait_cycle` — locate every packet of a wait-for cycle
  (router, input port, requested output, seal state).
* :func:`fsm_snapshot` — one line per static-bubble router: FSM state,
  counter, watch target, bubble occupancy.
* :class:`SpecialMessageTracer` — wrap a network to log every special
  message launch (optionally filtered by sender).
* :func:`phase_budget` — where one simulated cycle's time goes, by phase
  of ``Network.step``.
* :func:`cost_profile` — calls per simulated cycle of each function of
  the simulator, the schemes and the observer, and sweeps: exact counts
  that, unlike wall time, repeat on any host.
* :func:`overslept` — packets a sleeping router or NI could move right
  now (a wake event is missing if there are any).
* :func:`resident_index_errors` — where a router's resident index
  disagrees with a recount of its buffers.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.messages import MsgType, SpecialMessage
from repro.sim.deadlock import find_wait_cycle
from repro.sim.network import Network


@dataclass
class WaitingPacket:
    """One packet of a wait-for cycle, located in the network."""

    pid: int
    node: int
    #: Port display names (``network._port_names``; topology-specific).
    in_port: str
    wants: str
    vc_kind: int
    router_sealed: bool
    seal_source: Optional[int]

    def describe(self) -> str:
        seal = f" sealed(src={self.seal_source})" if self.router_sealed else ""
        return (
            f"pid={self.pid} node={self.node} in={self.in_port} "
            f"wants={self.wants}{seal}"
        )


def locate_packets(network: Network) -> Dict[int, Tuple]:
    """Map pid -> (router, vc) for every packet resident in a VC."""
    located = {}
    for router in network.active_routers():
        for vc in router.residents():
            located[vc.packet.pid] = (router, vc)
    return located


def describe_wait_cycle(network: Network) -> List[WaitingPacket]:
    """The current wait-for cycle as located packets ([] if none)."""
    cycle = find_wait_cycle(network, network.cycle)
    if cycle is None:
        return []
    located = locate_packets(network)
    names = network._port_names
    result = []
    for pid in cycle:
        router, vc = located[pid]
        result.append(
            WaitingPacket(
                pid=pid,
                node=router.node,
                in_port=names[vc.port],
                wants=names[router._requested_output(vc.packet)],
                vc_kind=vc.kind,
                router_sealed=router.is_deadlock,
                seal_source=router.source_id,
            )
        )
    return result


def fsm_snapshot(network: Network) -> List[str]:
    """One status line per static-bubble router (empty for other schemes)."""
    scheme = network.scheme
    states = getattr(scheme, "states", None)
    if not states:
        return []
    lines = []
    for node in sorted(states):
        state = states[node]
        router = network.routers[node]
        bubble = router.bubble
        occupied = bubble is not None and bubble.packet is not None
        lines.append(
            f"SB {node:3d}: {state.fsm.state.name:13s} "
            f"count={state.fsm.count:3d}/{state.fsm.threshold:3d} "
            f"watch_idx={state.watch_index:2d} "
            f"bubble={'occupied' if occupied else 'active' if router.bubble_active else 'off'} "
            f"sealed={router.is_deadlock}"
        )
    return lines


class SpecialMessageTracer:
    """Log every special-message launch of a network.

    Usage::

        tracer = SpecialMessageTracer(net, senders={50})
        net.run(200)
        for line in tracer.lines: print(line)

    The tracer wraps ``network.send_special``; call :meth:`detach` to
    restore the original.
    """

    def __init__(
        self,
        network: Network,
        senders: Optional[set] = None,
        sink: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.network = network
        self.senders = senders
        self.sink = sink
        self.lines: List[str] = []
        self.counts: Dict[MsgType, int] = {t: 0 for t in MsgType}
        self._original = network.send_special
        self._installed = self._traced
        network.send_special = self._installed  # type: ignore[method-assign]

    def _traced(self, from_node: int, out_port: int, msg: SpecialMessage) -> bool:
        ok = self._original(from_node, out_port, msg)
        if self.senders is None or msg.sender in self.senders:
            self.counts[msg.mtype] += 1
            line = (
                f"cycle {self.network.cycle:5d}: {msg.mtype.name:11s} "
                f"sender={msg.sender:3d} at node {from_node:3d} "
                f"out {self.network._port_names[out_port]:5s} turns={len(msg.turns)} "
                f"{'sent' if ok else 'no-link'}"
            )
            self.lines.append(line)
            if self.sink is not None:
                self.sink(line)
        return ok

    def detach(self) -> None:
        original_func = getattr(self._original, "__func__", None)
        if original_func is type(self.network).send_special:
            # The original was the plain class method: drop our override.
            self.network.__dict__.pop("send_special", None)
        else:
            # The original was itself an override (stacked tracer, test
            # harness, ...): reinstall it.
            self.network.send_special = self._original  # type: ignore[method-assign]


def seal_census(network: Network) -> List[Tuple[int, int, str, str]]:
    """All currently sealed routers: (node, source, in_port, out_port names)."""
    names = network._port_names
    result = []
    for router in network.active_routers():
        if router.is_deadlock:
            result.append(
                (
                    router.node,
                    router.source_id,
                    names[router.io_in_port],
                    names[router.io_out_port],
                )
            )
    return result


#: The phases of ``Network.step`` that :func:`phase_budget` times: the
#: network's own hooks, then the scheme's per-cycle work.
STEP_PHASES = (
    "_deliver_specials",
    "_inject_traffic",
    "_inject_queued",
    "_allocate",
    "on_cycle",
)


def phase_budget(network: Network, cycles: int) -> Dict[str, float]:
    """Run ``cycles`` cycles and return microseconds per cycle by phase.

    Times each hook ``Network.step`` calls by wrapping it on the
    *instance* for the duration of the run, so ``step`` stays the only
    place that spells the phase order.  Keys are :data:`STEP_PHASES` plus
    ``"step"``, the wall time of a whole cycle (phases, timer overhead
    and ``step``'s own bookkeeping).
    """
    spent = dict.fromkeys(STEP_PHASES, 0.0)
    owners = {
        name: network.scheme if name == "on_cycle" else network
        for name in STEP_PHASES
    }

    def timed(owner, name):
        hook = getattr(owner, name)

        def wrapper(*args):
            begin = perf_counter()
            hook(*args)
            spent[name] += perf_counter() - begin

        setattr(owner, name, wrapper)

    for name, owner in owners.items():
        timed(owner, name)
    try:
        begin = perf_counter()
        network.run(cycles)
        wall = perf_counter() - begin
    finally:
        for name, owner in owners.items():
            del owner.__dict__[name]
    budget = {name: spent[name] / cycles * 1e6 for name in STEP_PHASES}
    budget["step"] = wall / cycles * 1e6
    return budget


#: The packages whose functions :func:`cost_profile` counts.
COST_PACKAGES = ("repro.sim", "repro.protocols", "repro.obs")


def _qualified_names() -> Dict[object, str]:
    """``code -> __qualname__`` of every function, method and property
    defined at module or class level in a loaded module of
    :data:`COST_PACKAGES`."""
    names = {}
    for module in list(sys.modules.values()):
        owner = getattr(module, "__name__", "")
        if not any(owner == p or owner.startswith(p + ".") for p in COST_PACKAGES):
            continue
        for value in vars(module).values():
            for member in vars(value).values() if isinstance(value, type) else (value,):
                if isinstance(member, property):
                    functions = (member.fget, member.fset)
                else:  # a staticmethod or classmethod wraps its function
                    functions = (getattr(member, "__func__", member),)
                for function in functions:
                    code = getattr(function, "__code__", None)
                    if code is not None and function.__module__ == owner:
                        names[code] = function.__qualname__
    return names


def cost_profile(network: Network, cycles: int) -> Dict[str, float]:
    """Run ``cycles`` cycles and return Python calls per simulated cycle.

    Keys are the qualified names (``"Router.free_vc_for"``) of the
    functions and methods of :data:`COST_PACKAGES`, counting each entry
    into one of their frames (a generator counts each resume), plus
    ``"Network.sweeps"``.  Nested functions, lambdas and comprehensions
    are not counted, so the counts are the same on every interpreter
    version and every host.  ``sys.setprofile`` is installed for the run
    only and the previous profiler restored, so this costs nothing when
    it is not called.
    """
    names = _qualified_names()
    counts: Dict[str, int] = {}

    def profile(frame, event, arg):
        if event == "call":
            name = names.get(frame.f_code)
            if name is not None:
                counts[name] = counts.get(name, 0) + 1

    sweeps = network.sweeps
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        network.run(cycles)
    finally:
        sys.setprofile(previous)
    per_cycle = {name: count / cycles for name, count in counts.items()}
    per_cycle["Network.sweeps"] = (network.sweeps - sweeps) / cycles
    return per_cycle


def overslept(network: Network) -> List[Tuple[int, int]]:
    """``(node, pid)`` of every packet asleep although it could move now.

    The wake-time invariant, checked read-only between two steps: no
    router whose ``wake_at`` is ahead of ``network.cycle`` holds a packet
    that passes every grant condition of ``Network._allocate_router``,
    and no such NI a queue head ``try_inject`` would accept.  ``[]`` on a
    healthy network, ``full_scan`` or not.
    """
    now = network.cycle
    found = []
    for router in network.active_routers():
        if router.wake_at <= now:
            continue
        for vc in router.residents():
            packet = vc.packet
            if now < vc.ready_at:
                continue
            # (A switchable adaptive packet's request updates ``adapt_out``
            # even when refused: its router may not sleep at all.)
            if router._adaptive_lookup is None or packet.is_escape:
                out = router._requested_output(packet)
                link = router.output_links[out]
                if link is None or not link.is_free(now):
                    continue
                if not router.injection_allowed(vc.port, out):
                    continue
                peer = network.routers.get(link.dest_node)
                if peer is not None and (
                    peer.free_vc_for(link.dest_in_port, packet, now) is None
                ):
                    continue
            found.append((router.node, packet.pid))
    for ni in network.nis.values():
        if ni.queue and ni.wake_at > now:
            packet, local = ni.queue[0], ni.router.local
            vc = ni.router.free_vc_for(local, packet, now)
            if vc is not None and ni.router.injection_allowed(local, packet.route[0]):
                found.append((ni.node, packet.pid))
    return found


def resident_index_errors(network: Network) -> List[str]:
    """Where a router's resident index disagrees with a recount of its buffers.

    Read-only: per-port counts, ``occupancy``, ``residents()``, the
    ``ready_at`` bound (against every resident outside the escape layer)
    and the occupied-router set.  ``[]`` on a healthy network.
    """
    errors = []
    for router in network.active_routers():
        held = [vc for vc in router.all_vcs() if vc.packet is not None]
        counts = [0] * router.num_ports
        for vc in held:
            counts[vc.port] += 1
        floor = router._ready_floor
        checks = {
            f"port counts {router._port_load}, recount {counts}":
                counts == router._port_load,
            f"occupancy {router.occupancy}, holds {len(held)}":
                router.occupancy == len(held),
            "residents() differs from a scan": list(router.residents()) == held,
            f"ready_at bound {floor} above a resident's": all(
                vc.packet.is_escape or vc.ready_at >= floor for vc in held
            ),
            "occupied but not in _active_nodes":
                not held or router.node in network._active_nodes,
        }
        errors += [
            f"router {router.node}: {what}" for what, ok in checks.items() if not ok
        ]
    return errors
