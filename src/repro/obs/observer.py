"""The :class:`Observer` facade wiring tracer + metrics into a network.

Attachment contract (``Network.attach_obs``): the network keeps the
observer in ``obs`` and its tracer in ``tracer``, both ``None`` by
default.  Every hot-path emission site guards with one ``tracer is not
None`` check and calls :meth:`Tracer.emit` directly, so a network that
nothing traces pays one attribute load per candidate event and nothing
else: unobserved, it enters no ``repro.obs`` frame; under a metrics-only
observer, only ``end_cycle`` and ``packet_ejected`` and what they call
(``repro.sim.debug.cost_profile`` counts them, pinned in
``tests/test_router_sleep.py``).

The observer owns:

* an optional :class:`~repro.obs.tracer.Tracer` (event ring buffer);
* an optional :class:`~repro.obs.metrics.MetricsRegistry`, sampled every
  ``sample_every`` cycles (FSM state residency, per-class link
  utilization, network occupancy) plus per-packet latency histograms;
* the link-utilization time series (kept raw for ``repro trace``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.obs.events import PACKET_EJECT
from repro.obs.metrics import (
    LATENCY_BOUNDS,
    MetricsRegistry,
    UTILIZATION_BOUNDS,
)
from repro.obs.tracer import Tracer
from repro.obs.transcript import RecoveryTranscript, recovery_transcripts

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.network import Network
    from repro.sim.packet import Packet


class Observer:
    """Tracing + metrics attached to one :class:`~repro.sim.network.Network`."""

    def __init__(
        self,
        trace: bool = True,
        metrics: bool = True,
        ring_capacity: int = 65536,
        sample_every: int = 64,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.tracer: Optional[Tracer] = Tracer(ring_capacity) if trace else None
        if registry is not None:
            # Shared (e.g. per-process) registry: sweeps accumulate into it
            # across many networks, then merge across workers.
            self.metrics: Optional[MetricsRegistry] = registry
        else:
            self.metrics = MetricsRegistry() if metrics else None
        self.sample_every = sample_every
        #: Raw per-class utilization samples: (cycle, {class: fraction}).
        self.link_util_series: List[Tuple[int, Dict[str, float]]] = []
        self._links = 0
        self._last_sample_cycle = 0
        self._last_flit_cycles = 0
        self._last_special_cycles: Dict[str, int] = {}

    # -- attachment ------------------------------------------------------

    def bind(self, network: "Network") -> None:
        """Initialize sampling baselines against ``network``'s state."""
        self._links = sum(
            1
            for router in network.active_routers()
            for port in range(router.local)
            if router.output_links[port] is not None
        )
        stats = network.stats
        self._last_sample_cycle = network.cycle
        self._last_flit_cycles = stats.link_flit_cycles
        self._last_special_cycles = dict(stats.link_special_cycles)

    # -- event emission --------------------------------------------------

    def packet_ejected(self, packet: "Packet", latency: int, now: int) -> None:
        if self.metrics is not None:
            self.metrics.histogram("packet.latency", LATENCY_BOUNDS).add(latency)
        if self.tracer is not None:
            self.tracer.emit(
                now,
                PACKET_EJECT,
                packet.dst,
                {
                    "pid": packet.pid,
                    "latency": latency,
                    "total_latency": packet.ejected_at - packet.created_at,
                },
            )

    # -- cadence sampling ------------------------------------------------

    def end_cycle(self, network: "Network", now: int) -> None:
        """Called by ``Network.step`` once per cycle while attached."""
        if self.metrics is None:
            return
        if now - self._last_sample_cycle < self.sample_every:
            return
        self._sample(network, now)

    def _sample(self, network: "Network", now: int) -> None:
        metrics = self.metrics
        window = now - self._last_sample_cycle
        self._last_sample_cycle = now
        # FSM state residency (approximated at sample granularity).
        states = getattr(network.scheme, "states", None)
        if states:
            for state in states.values():
                metrics.counter(
                    f"fsm.residency.{state.fsm.state.name}"
                ).inc(window)
        # Per-class link utilization over the sample window.
        stats = network.stats
        denominator = self._links * window
        if denominator > 0:
            sample: Dict[str, float] = {}
            flit_delta = stats.link_flit_cycles - self._last_flit_cycles
            sample["flit"] = flit_delta / denominator
            for key, value in stats.link_special_cycles.items():
                delta = value - self._last_special_cycles.get(key, 0)
                sample[key] = delta / denominator
            for key, frac in sample.items():
                metrics.histogram(f"link_util.{key}", UTILIZATION_BOUNDS).add(frac)
            self.link_util_series.append((now, sample))
        self._last_flit_cycles = stats.link_flit_cycles
        self._last_special_cycles = dict(stats.link_special_cycles)
        metrics.gauge("network.occupancy").set(network.total_occupancy())

    # -- end-of-run folding ----------------------------------------------

    def finalize(self, network: "Network") -> None:
        """Fold the network's terminal counters into the metrics registry.

        Keeps counter semantics mergeable: every field is a sum, so
        registries from parallel sweep workers fold without bias.
        """
        if self.metrics is None:
            return
        stats = network.stats
        counters = self.metrics.counter
        counters("sims").inc(1)
        for name in (
            "cycles",
            "packets_injected",
            "packets_ejected",
            "packets_dropped_unreachable",
            "packets_dropped_reconfig",
            "packets_rerouted",
            "specials_dropped",
            "probes_sent",
            "disables_sent",
            "enables_sent",
            "check_probes_sent",
            "bubble_activations",
            "recoveries_completed",
            "recoveries_aborted",
            "deadlocks_observed",
            "escape_diversions",
        ):
            counters(f"net.{name}").inc(getattr(stats, name))

    # -- views -----------------------------------------------------------

    @property
    def events(self):
        return self.tracer.events if self.tracer is not None else []

    def transcripts(self) -> List[RecoveryTranscript]:
        """Recovery transcripts stitched from the buffered events."""
        return recovery_transcripts(self.events)
