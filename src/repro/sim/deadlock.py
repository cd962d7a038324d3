"""Ground-truth deadlock detection (the experiment oracle).

Independent of any recovery scheme, the monitor builds the packet
wait-for graph — packet P (at the head of a VC, wanting output port
``o``) waits on the packets occupying *all* VCs it could use at the next
hop — and searches it for a cycle.  A cycle of buffer waits that cannot
be broken by any drain is precisely a routing deadlock.

Used by the Fig. 2 / Fig. 3 state-space studies (does this topology
deadlock at this injection rate?) and by the test-suite as the oracle
that Static Bubble recovery really clears deadlocks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, TYPE_CHECKING

from repro.obs.events import ORACLE_DEADLOCK

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.network import Network


def build_wait_graph(network: "Network", now: int) -> Dict[int, List[int]]:
    """The packet wait-for graph: blocked pid -> pids it waits on.

    A packet is *blocked on buffers* when its requested output link is
    healthy and every VC it could occupy at the next hop is held by a
    packet (VCs merely draining their tail are transiently busy and do
    not count — they will free without any dependency).
    """
    # adjacency: pid -> list of pids it waits on
    adjacency: Dict[int, List[int]] = {}
    for router in network.active_routers():
        if router.occupancy == 0:
            continue
        adaptive = router._adaptive_lookup is not None
        local = router.local
        for vc in router.residents():
            if now < vc.ready_at:
                continue
            packet = vc.packet
            if adaptive and not packet.is_escape:
                # An adaptive packet waits only if EVERY minimal candidate
                # is blocked; its wait set is the union across candidates.
                # Scoring the single cached preference instead would
                # report deadlock while another candidate drains freely.
                outs = router._adaptive_lookup(router.node, packet.dst)
            else:
                outs = (router._requested_output(packet),)
            waits_on: List[int] = []
            blocked = True
            live_candidates = False
            for out in outs:
                if out == local:
                    blocked = False  # ejection always drains
                    break
                link = router.output_links[out]
                if link is None:
                    # Stuck on a dead link: a routing bug, not deadlock.
                    continue
                live_candidates = True
                downstream = network.router_at(link.dest_node)
                wanted_kind = 1 if packet.is_escape else 0  # ESCAPE / NORMAL
                port_free = False
                for cand in downstream.cached_port_vcs(link.dest_in_port):
                    if cand.kind == 2:  # bubble: usable by normal packets
                        usable = not packet.is_escape
                    elif cand.kind == wanted_kind and cand.vnet == packet.vnet:
                        usable = True
                    else:
                        usable = False
                    if not usable:
                        continue
                    if cand.packet is None:
                        # Free now or merely draining: the wait resolves.
                        port_free = True
                        break
                    waits_on.append(cand.packet.pid)
                if port_free:
                    blocked = False
                    break
            if blocked and live_candidates and waits_on:
                adjacency[packet.pid] = waits_on
    return adjacency


def find_wait_cycle(network: "Network", now: int) -> Optional[List[int]]:
    """Return the pids of one wait-for cycle, or None."""
    return _find_cycle(build_wait_graph(network, now))


def _find_cycle(adjacency: Dict[int, List[int]]) -> Optional[List[int]]:
    """Iterative DFS cycle search over the wait-for graph."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color: Dict[int, int] = {pid: WHITE for pid in adjacency}
    for start in adjacency:
        if color[start] != WHITE:
            continue
        stack: List[tuple] = [(start, iter(adjacency[start]))]
        path: List[int] = [start]
        #: pid -> position in ``path`` (O(1) cycle slicing on GRAY hits).
        pos: Dict[int, int] = {start: 0}
        color[start] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in adjacency:
                    continue  # waits on a packet that is itself unblocked
                if color[nxt] == GRAY:
                    # cycle: slice the current path from nxt onward
                    return path[pos[nxt]:]
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, iter(adjacency[nxt])))
                    pos[nxt] = len(path)
                    path.append(nxt)
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
                path.pop()
                del pos[node]
    return None


class DeadlockMonitor:
    """Periodically checks the network for true wait-for cycles.

    ``interval`` spaces out the (O(VCs)) graph construction; the cheap
    progress pre-check (`no transfer since last check`) skips the build
    entirely while traffic is flowing.  Movement does not *prove* the
    absence of a deadlock (a partial deadlock coexists with live traffic
    elsewhere), so after ``max_skips`` consecutive movement-skips the
    graph is built regardless — detection latency is bounded by
    ``(max_skips + 1) * interval`` cycles.
    """

    def __init__(self, interval: int = 64, max_skips: int = 2) -> None:
        self.interval = interval
        self.max_skips = max_skips
        self.deadlocked_pids: Set[int] = set()
        self.first_deadlock_cycle: Optional[int] = None
        self._last_check = 0
        self._last_crossbar_flits: Optional[int] = None
        self._skips = 0
        #: Verdict of the most recent graph build, repeated on skip cycles
        #: so the return value honours the contract below.
        self._last_result = False
        #: Last cycle at which a graph build found *no* wait cycle; bounds
        #: how far back the deadlock could have formed unobserved.
        self._last_clear_cycle: Optional[int] = None

    def check(self, network: "Network", now: int) -> bool:
        """True iff a (new or old) wait cycle exists, as of the last build.

        The graph is only rebuilt when the check is due (``interval``) and
        the movement pre-check does not skip it; on skip cycles the verdict
        of the most recent build is repeated, so a caller polling every
        cycle keeps seeing True once a deadlock has been observed (until a
        later build finds the network clear again).
        """
        if now - self._last_check < self.interval:
            return self._last_result
        self._last_check = now
        flits = network.stats.crossbar_flits
        moved = (
            self._last_crossbar_flits is not None
            and flits != self._last_crossbar_flits
        )
        self._last_crossbar_flits = flits
        if moved and self._skips < self.max_skips:
            self._skips += 1
            return self._last_result
        self._skips = 0
        adjacency = build_wait_graph(network, now)
        cycle = _find_cycle(adjacency)
        if cycle is None:
            self._last_clear_cycle = now
            self._last_result = False
            # The network is cycle-free: any later wait cycle — even one
            # re-forming among previously-seen pids after a successful
            # recovery — is a *new* deadlock and must be counted as such.
            self.deadlocked_pids.clear()
            return False
        # Forget pids that are no longer blocked (recovered and moved on,
        # or ejected): a cycle they re-join later is a fresh deadlock, and
        # the set stays bounded by the in-flight packet population.
        self.deadlocked_pids.intersection_update(adjacency)
        new = [pid for pid in cycle if pid not in self.deadlocked_pids]
        if new:
            network.stats.deadlocks_observed += 1
            self.deadlocked_pids.update(cycle)
            tracer = getattr(network, "tracer", None)
            if tracer is not None:
                tracer.emit(now, ORACLE_DEADLOCK, -1, {"pids": list(cycle), "new": new})
        if self.first_deadlock_cycle is None:
            # The cycle formed somewhere between the last clear build and
            # now; backdate to the start of that blind window rather than
            # stamping the (up to ``(max_skips + 1) * interval`` cycles
            # late) detection time.
            if self._last_clear_cycle is not None:
                self.first_deadlock_cycle = self._last_clear_cycle + 1
            else:
                self.first_deadlock_cycle = 0
        self._last_result = True
        return True
