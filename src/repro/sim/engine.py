"""Run-loop helpers: warm-up/measure windows, drain runs, deadlock runs.

These wrap :class:`repro.sim.network.Network` with the measurement
discipline the experiments need (warm-up before measuring latency,
stop-at-first-deadlock for the state-space studies, run-to-drain for
application "runtime").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.obs import Observer, obs_enabled, proc_registry
from repro.sim.deadlock import DeadlockMonitor
from repro.sim.network import Network
from repro.topology.faults import FaultSchedule


def _auto_observer(obs) -> Optional[Observer]:
    """Resolve the effective observer for a run.

    An explicit observer wins; otherwise, when ``REPRO_OBS`` is set, a
    metrics-only observer bound to the per-process registry is created so
    sweep counters aggregate across pool workers with no tracing cost.
    """
    if obs is not None:
        return obs
    if obs_enabled():
        return Observer(trace=False, registry=proc_registry())
    return None


@dataclass
class WindowResult:
    """Measurement-window metrics of one simulation."""

    avg_latency: float
    throughput_flits_node_cycle: float
    packets_ejected: int
    deadlocked: bool
    cycles: int


def run_cycles(network: Network, cycles: int) -> None:
    """Step ``cycles`` times, under the ``REPRO_OBS`` observer if one is on."""
    obs = _auto_observer(None)
    if obs is not None:
        network.attach_obs(obs)
    try:
        network.run(cycles)
    finally:
        if obs is not None:
            obs.finalize(network)


def run_with_window(
    network: Network,
    warmup: int,
    measure: int,
    monitor: Optional[DeadlockMonitor] = None,
    obs=None,
) -> WindowResult:
    """Warm up, then measure latency/throughput over ``measure`` cycles.

    ``obs``: an optional :class:`repro.obs.Observer`; it is attached
    before the warm-up and finalized (terminal stats folded into its
    metrics registry) before returning.  With no explicit observer the
    ``REPRO_OBS`` switch attaches a metrics-only one (see
    :func:`_auto_observer`).
    """
    obs = _auto_observer(obs)
    if obs is not None:
        network.attach_obs(obs)
    try:
        deadlocked = False
        for _ in range(warmup):
            network.step()
            if monitor is not None and monitor.check(network, network.cycle):
                deadlocked = True
        network.stats.begin_window(network.cycle)
        for _ in range(measure):
            network.step()
            if monitor is not None and monitor.check(network, network.cycle):
                deadlocked = True
        stats = network.stats
        return WindowResult(
            avg_latency=stats.window_avg_latency(),
            throughput_flits_node_cycle=stats.window_throughput(
                network.cycle, len(network.nis)
            ),
            packets_ejected=stats.window_packets_ejected,
            deadlocked=deadlocked,
            cycles=network.cycle,
        )
    finally:
        if obs is not None:
            obs.finalize(network)


def run_to_drain(
    network: Network, max_cycles: int, obs=None
) -> Optional[int]:
    """Run until all traffic is delivered; cycle count, or None on timeout.

    Requires a finite traffic source (a trace); checks the source is
    exhausted and the network empty.
    """
    obs = _auto_observer(obs)
    if obs is not None:
        network.attach_obs(obs)
    try:
        idle_check_every = 8
        for _ in range(max_cycles):
            network.step()
            if network.cycle % idle_check_every == 0:
                traffic_done = network.traffic is None or network.traffic.exhausted(
                    network.cycle
                )
                if traffic_done and network.is_drained():
                    return network.cycle
        return None
    finally:
        if obs is not None:
            obs.finalize(network)


@dataclass
class FaultRunResult:
    """Outcome + packet accounting of one live-fault (chaos) run.

    The conservation invariant every run must satisfy — each created
    packet is delivered, explicitly dropped by a reconfiguration, or still
    in the network when the run ends — is exposed as :attr:`unaccounted`,
    which must be zero.
    """

    cycles: int
    drained: bool
    reconfig_events: int
    created: int
    ejected: int
    dropped_reconfig: int
    rerouted: int
    specials_dropped: int
    occupancy: int
    queued: int

    @property
    def unaccounted(self) -> int:
        return (
            self.created
            - self.ejected
            - self.dropped_reconfig
            - self.occupancy
            - self.queued
        )


def run_with_faults(
    network: Network,
    schedule: FaultSchedule,
    max_cycles: int,
    stop_traffic_at: Optional[int] = None,
    obs=None,
) -> FaultRunResult:
    """Run ``network`` while applying ``schedule``'s live topology changes.

    Each due :class:`~repro.topology.faults.FaultEvent` is applied *in
    place* through ``Network.apply_faults`` / ``Network.restore`` — the
    network object is never rebuilt.  After ``stop_traffic_at`` cycles
    (if given) the traffic source is detached so the run can drain; the
    run ends when the network is empty (``drained=True``) or at
    ``max_cycles``.
    """
    obs = _auto_observer(obs)
    if obs is not None:
        network.attach_obs(obs)
    try:
        events = list(schedule)
        idx = 0
        reconfigs = 0
        drained = False
        for _ in range(max_cycles):
            while idx < len(events) and events[idx].cycle <= network.cycle:
                event = events[idx]
                idx += 1
                if event.action == "fail":
                    network.apply_faults(links=event.links, routers=event.routers)
                else:
                    network.restore(links=event.links, routers=event.routers)
                reconfigs += 1
            if (
                stop_traffic_at is not None
                and network.traffic is not None
                and network.cycle >= stop_traffic_at
            ):
                network.traffic = None
            network.step()
            if idx >= len(events) and network.cycle % 8 == 0:
                traffic_done = network.traffic is None or network.traffic.exhausted(
                    network.cycle
                )
                if traffic_done and network.is_drained():
                    drained = True
                    break
        stats = network.stats
        return FaultRunResult(
            cycles=network.cycle,
            drained=drained,
            reconfig_events=reconfigs,
            created=stats.packets_created,
            ejected=stats.packets_ejected,
            dropped_reconfig=stats.packets_dropped_reconfig,
            rerouted=stats.packets_rerouted,
            specials_dropped=stats.specials_dropped,
            occupancy=network.total_occupancy(),
            queued=network.queued_packets(),
        )
    finally:
        if obs is not None:
            obs.finalize(network)


def deadlocks_within(
    network: Network,
    cycles: int,
    monitor: Optional[DeadlockMonitor] = None,
    obs=None,
) -> bool:
    """Does a true wait-for cycle appear within ``cycles``?  (Fig. 2/3)."""
    if monitor is None:
        monitor = DeadlockMonitor(interval=32)
    obs = _auto_observer(obs)
    if obs is not None:
        network.attach_obs(obs)
    try:
        for _ in range(cycles):
            network.step()
            if monitor.check(network, network.cycle):
                return True
        return False
    finally:
        if obs is not None:
            obs.finalize(network)
