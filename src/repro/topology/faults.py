"""Random fault / power-gating injection (Section V-A fault model).

Two models, matching the paper: random *link* removal and random
*router* removal from an underlying mesh.  "Fault" and "power-gated"
are interchangeable here — both remove the component from the topology
graph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.topology.mesh import Topology, mesh
from repro.topology import graph as tgraph


@dataclass(frozen=True)
class FaultEvent:
    """One scripted topology change: at ``cycle``, fail or restore the
    listed links/routers (consumed by ``repro.sim.engine.run_with_faults``
    via ``Network.apply_faults`` / ``Network.restore``)."""

    cycle: int
    action: str  # "fail" | "restore"
    links: Tuple[Tuple[int, int], ...] = ()
    routers: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.action not in ("fail", "restore"):
            raise ValueError(f"unknown fault action {self.action!r}")


class FaultSchedule:
    """An ordered script of live topology changes ("at cycle N, fail X").

    Immutable once built; iteration yields events in cycle order (stable
    for ties, so "fail then restore at the same cycle" keeps its meaning).
    """

    def __init__(self, events: Iterator[FaultEvent] = ()) -> None:
        self.events: List[FaultEvent] = sorted(events, key=lambda e: e.cycle)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    @property
    def last_cycle(self) -> int:
        return self.events[-1].cycle if self.events else 0

    def __repr__(self) -> str:
        return f"FaultSchedule({len(self.events)} events, last={self.last_cycle})"


#: Chance that a chaos event restores a failed element (once one exists).
CHAOS_P_RESTORE = 0.35
#: Chance that a failing chaos event kills a router rather than a link.
CHAOS_P_ROUTER = 0.25


def random_fault_schedule(
    topo: Topology,
    n_events: int,
    rng: random.Random,
    first_cycle: int = 100,
    spacing: int = 200,
) -> FaultSchedule:
    """A random live-fault script for chaos campaigns (``repro chaos``).

    Events land at increasing random cycles (1..``spacing`` apart,
    starting after ``first_cycle``).  Each event either fails one random
    currently-active link or router (a router with
    :data:`CHAOS_P_ROUTER`), or (with :data:`CHAOS_P_RESTORE`, once
    something has failed) restores one previously failed element —
    gate/un-gate round trips included.  A shadow copy of ``topo`` tracks
    the evolving state so the script is always applicable; ``topo`` itself
    is not modified.  Router kills stop once only half the routers (at
    least two) would remain, so the network never degenerates to nothing.
    """
    shadow = topo.copy()
    min_active_routers = max(2, len(shadow.active_nodes()) // 2)
    failed_links: List[Tuple[int, int]] = []
    failed_routers: List[int] = []
    events: List[FaultEvent] = []
    cycle = first_cycle
    for _ in range(n_events):
        cycle += rng.randrange(1, spacing + 1)
        if (failed_links or failed_routers) and rng.random() < CHAOS_P_RESTORE:
            pool = [("link", link) for link in failed_links]
            pool += [("router", node) for node in failed_routers]
            kind, target = pool[rng.randrange(len(pool))]
            if kind == "link":
                failed_links.remove(target)
                shadow.activate_link(*target)
                events.append(FaultEvent(cycle, "restore", links=(target,)))
            else:
                failed_routers.remove(target)
                shadow.activate_node(target)
                events.append(FaultEvent(cycle, "restore", routers=(target,)))
            continue
        kill_router = (
            rng.random() < CHAOS_P_ROUTER
            and len(shadow.active_nodes()) > min_active_routers
        )
        if kill_router:
            candidates = shadow.active_nodes()
            node = candidates[rng.randrange(len(candidates))]
            shadow.deactivate_node(node)
            failed_routers.append(node)
            events.append(FaultEvent(cycle, "fail", routers=(node,)))
        else:
            links = [
                tuple(sorted(link))
                for link in shadow.all_links()
                if shadow.link_is_active(*tuple(link))
            ]
            if not links:
                continue
            link = links[rng.randrange(len(links))]
            shadow.deactivate_link(*link)
            failed_links.append(link)
            events.append(FaultEvent(cycle, "fail", links=(link,)))
    return FaultSchedule(events)


def inject_link_faults(
    topo: Topology, count: int, rng: random.Random
) -> Topology:
    """Return a copy of ``topo`` with ``count`` random links deactivated."""
    result = topo.copy()
    candidates = [link for link in result.all_links()
                  if result.link_is_active(*tuple(link))]
    if count > len(candidates):
        raise ValueError(
            f"cannot fail {count} links; only {len(candidates)} active"
        )
    for link in rng.sample(candidates, count):
        u, v = tuple(link)
        result.deactivate_link(u, v)
    return result


def inject_router_faults(
    topo: Topology, count: int, rng: random.Random
) -> Topology:
    """Return a copy of ``topo`` with ``count`` random routers deactivated."""
    result = topo.copy()
    candidates = result.active_nodes()
    if count > len(candidates):
        raise ValueError(
            f"cannot fail {count} routers; only {len(candidates)} active"
        )
    for node in rng.sample(candidates, count):
        result.deactivate_node(node)
    return result


def sample_topologies(
    width: int,
    height: int,
    fault_kind: str,
    fault_count: int,
    n_samples: int,
    seed: int,
    require_memory_controllers: Optional[List[int]] = None,
) -> Iterator[Tuple[int, Topology]]:
    """Yield ``(fault_seed, topology)`` for ``n_samples`` random topologies.

    ``fault_seed`` is the attempt seed whose ``random.Random`` derived the
    topology's faults from the healthy mesh, so a
    :class:`~repro.service.spec.SimSpec` with that ``fault_seed`` (and the
    same dimensions and fault count) rebuilds the same topology.
    ``fault_kind`` is ``"link"`` or ``"router"``.  When
    ``require_memory_controllers`` is given (a list of node ids), only
    topologies whose largest component contains *all* those nodes are
    yielded (the paper only considers topologies that do not disconnect
    the memory controllers for application runs); sampling retries until
    enough qualifying topologies are found (bounded retries).
    """
    if fault_kind not in ("link", "router"):
        raise ValueError("fault_kind must be 'link' or 'router'")
    base = mesh(width, height)
    produced = 0
    attempt = 0
    max_attempts = max(50, n_samples * 50)
    while produced < n_samples and attempt < max_attempts:
        fault_seed = (seed * 1_000_003 + attempt) & 0xFFFFFFFF
        rng = random.Random(fault_seed)
        attempt += 1
        if fault_kind == "link":
            topo = inject_link_faults(base, fault_count, rng)
        else:
            topo = inject_router_faults(base, fault_count, rng)
        if require_memory_controllers is not None:
            component = tgraph.largest_component(topo)
            if not all(mc in component for mc in require_memory_controllers):
                continue
        produced += 1
        yield fault_seed, topo
    if produced < n_samples:
        raise RuntimeError(
            f"could not sample {n_samples} qualifying topologies "
            f"({fault_kind} faults={fault_count}) after {max_attempts} tries"
        )


def default_memory_controllers(
    width: int, height: int, topo: Optional[Topology] = None
) -> List[int]:
    """Corner-node memory controllers (the usual 4-MC 8x8 configuration).

    Without ``topo`` this is the design-time placement: the four grid
    corners of a healthy ``width`` x ``height`` mesh.  With ``topo`` (the
    caller's possibly faulted instance), each corner MC relocates to the
    nearest *active* router (Manhattan distance to the corner, ties to
    the lower node id), never reusing a node — an MC pinned to a dead
    corner router would make every request to it undeliverable.
    """
    corners = [(0, 0), (width - 1, 0), (0, height - 1), (width - 1, height - 1)]
    base = mesh(width, height)
    if topo is None:
        return [base.node_id(x, y) for x, y in corners]
    active = sorted(topo.active_nodes())
    if len(active) < len(corners):
        raise ValueError(
            f"need {len(corners)} active routers for memory controllers, "
            f"topology has {len(active)}"
        )
    chosen: List[int] = []
    taken: set = set()
    for cx, cy in corners:
        best = min(
            (n for n in active if n not in taken),
            key=lambda n: (
                abs(topo.coords(n)[0] - cx) + abs(topo.coords(n)[1] - cy),
                n,
            ),
        )
        chosen.append(best)
        taken.add(best)
    return chosen
