"""Queueing-style analytical predictor: the cycle-accurate simulator's fast lane.

The model answers the three questions every campaign cell asks — mean
latency, accepted throughput, and (dynamic) energy — from the *installed
routing tables* instead of from simulation.  The key object is the
:class:`LoadProfile`: for one (topology, scheme, pattern) it records the
expected per-unit-rate flit load on every directed channel (computed by
walking every stored route, weighted by the traffic pattern's
destination distribution and the NI's uniform route choice) plus the
weighted hop counts.  Every rate-dependent metric then evaluates in
O(channels) arithmetic:

* **latency** — zero-load term (per-hop router+link pipeline, injection
  overhead, tail-flit serialization) plus an M/M/1-style contention term
  per traversed channel, ``rho / (1 - rho)``, continued linearly past
  ``rho_max`` so the curve stays finite *and monotone* in offered load;
* **throughput** — offered load capped at the saturation rate
  ``1 / max_e G_e`` (the hottest channel's per-unit-rate load decides
  when the network saturates), scaled by the pattern's routable mass;
* **dynamic energy** — per-event energies from
  :class:`repro.energy.model.EnergyParams` times analytically estimated
  event counts (flits x hops).  Leakage is excluded: it is already a
  closed-form function both sides agree on, so calibrating it would only
  dilute the signal.

Raw predictions are deliberately *uncalibrated* — systematic error
(pipeline constants, burstiness, protocol overheads) is corrected per
(topology family, scheme) by :mod:`repro.surrogate.calibrate` against
cycle-accurate ground truth.

Profiles are memoized per model on the canonical topology spec (like
the routing-table cache they sit on), and the topology a spec derives
on the spec fields that determine it, so a sweep over rates/seeds on a
shared topology pays the mesh build and the table walk once and then
predicts each cell in microseconds of arithmetic.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict, defaultdict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.energy.model import EnergyParams
from repro.routing.paths import active_adjacency
from repro.routing.table import build_minimal_tables, build_updown_tables
from repro.sim.config import SimConfig
from repro.topology.base import BaseTopology as Topology

#: Schemes routed over the up*/down* spanning tree; everything else uses
#: the minimal-route tables (escape-VC's escape layer and static
#: bubble's recovery machinery do not change the *normal-path* routes).
_UPDOWN_SCHEMES = ("spanning-tree",)


@dataclass(frozen=True)
class ModelParams:
    """Analytical constants (systematic error is calibrated away)."""

    #: Cycles spent in the router pipeline per hop (paper: 1-cycle router
    #: + 1-cycle link; allocation/contention-free buffering adds ~1).
    t_router: float = 2.0
    t_link: float = 1.0
    #: Injection/ejection overhead (NI enqueue + final ejection cycle).
    inj_overhead: float = 2.0
    #: Weight of the per-channel M/M/1 contention term.
    q_weight: float = 1.0
    #: Utilization past which the queueing curve continues linearly —
    #: keeps predictions finite and strictly monotone through saturation.
    rho_max: float = 0.95
    energy: EnergyParams = field(default_factory=EnergyParams)


def topology_family(topo: Topology) -> str:
    """Calibration-cell key: correction coefficients pool per family."""
    return getattr(topo, "kind", "mesh") or "mesh"


def _queue_delay(rho: float, rho_max: float) -> float:
    """M/M/1 waiting factor, linearly continued past ``rho_max``.

    Monotone increasing on [0, inf): the continuation reuses the slope
    at ``rho_max`` so there is no kink-induced decrease.
    """
    if rho <= 0.0:
        return 0.0
    if rho < rho_max:
        return rho / (1.0 - rho)
    base = rho_max / (1.0 - rho_max)
    slope = 1.0 / ((1.0 - rho_max) ** 2)
    return base + slope * (rho - rho_max)


def _demand(topo: Topology, pattern: str) -> Dict[int, Dict[int, float]]:
    """Per-source destination distribution of one injected packet draw.

    Mirrors :mod:`repro.traffic.synthetic`: ``uniform_random`` resamples
    until the destination differs from the source (mass 1 per draw);
    ``bit_complement``/``transpose`` are deterministic maps whose
    self-targeting or inactive destinations yield no packet (mass < 1).
    Unknown patterns raise — the oracle treats that as "escalate".
    """
    active = topo.active_nodes()
    active_set = set(active)
    demand: Dict[int, Dict[int, float]] = {}
    if pattern == "uniform_random":
        if len(active) < 2:
            return {}
        share = 1.0 / (len(active) - 1)
        for src in active:
            demand[src] = {dst: share for dst in active if dst != src}
        return demand
    if pattern in ("bit_complement", "transpose"):
        width = getattr(topo, "width", None)
        height = getattr(topo, "height", None)
        if width is None or height is None:
            raise ValueError(
                f"pattern {pattern!r} needs a mesh-addressed topology"
            )
        if pattern == "transpose" and width != height:
            raise ValueError("transpose requires a square mesh")
        for src in active:
            x, y = topo.coords(src)
            if pattern == "bit_complement":
                dst = topo.node_id(width - 1 - x, height - 1 - y)
            else:
                if x == y:
                    continue
                dst = topo.node_id(y, x)
            if dst == src or dst not in active_set:
                continue
            demand[src] = {dst: 1.0}
        return demand
    raise ValueError(f"surrogate has no demand model for pattern {pattern!r}")


@dataclass
class LoadProfile:
    """Rate-independent load summary of one (topology, scheme, pattern)."""

    family: str
    scheme: str
    pattern: str
    #: Directed channel -> expected flit load per unit offered rate
    #: (flits/node/cycle); ``L_e(rate) = rate * g[e]``.
    g: Dict[Tuple[int, int], float]
    #: Total valid packet mass per draw, summed over sources (<= nodes).
    weight: float
    #: Mass actually routable (destination reachable in the tables).
    routable_weight: float
    #: Packet-weighted total and mean hop counts over routable pairs.
    hops_total: float
    hops_mean: float
    n_active: int
    mean_flits: float

    @property
    def g_max(self) -> float:
        return max(self.g.values()) if self.g else 0.0

    @property
    def saturation_rate(self) -> float:
        """Offered rate (flits/node/cycle) saturating the hottest channel."""
        g_max = self.g_max
        return 1.0 / g_max if g_max > 0 else float("inf")

    def features(self, rate: float) -> Tuple[float, ...]:
        """Coordinates for distance-to-calibration-support measurement."""
        sat = self.saturation_rate
        load_frac = rate / sat if sat > 0 and sat != float("inf") else 0.0
        return (load_frac, self.hops_mean, float(self.n_active))


@dataclass
class RawPrediction:
    """Uncalibrated model output for one cell (plus its provenance)."""

    latency: float
    throughput: float
    energy_dynamic: float
    window_packets: float
    hop_bound: float
    zero_load_latency: float
    saturation_rate: float
    load_fraction: float
    features: Tuple[float, ...]
    family: str
    scheme: str
    pattern: str

    def metrics(self) -> Dict[str, float]:
        return {
            "latency": self.latency,
            "throughput": self.throughput,
            "energy": self.energy_dynamic,
        }


class AnalyticalModel:
    """Profile cache + per-cell evaluator."""

    #: Bound of each memo (profiles and topologies are a few KB each).
    _CACHE_MAX = 64

    def __init__(self, params: Optional[ModelParams] = None) -> None:
        self.params = params if params is not None else ModelParams()
        self._profiles: "OrderedDict[tuple, LoadProfile]" = OrderedDict()
        #: Topology-determining spec fields -> (topology, its canonical
        #: JSON: the profile key's first element).
        self._topologies: "OrderedDict[tuple, Tuple[Topology, str]]" = OrderedDict()
        #: The service predicts from its event loop and thread pool at once.
        self._lock = threading.Lock()

    # -- memos -----------------------------------------------------------

    def _recall(self, memo: OrderedDict, key: tuple):
        with self._lock:
            value = memo.get(key)
            if value is not None:
                memo.move_to_end(key)
            return value

    def _remember(self, memo: OrderedDict, key: tuple, value) -> None:
        with self._lock:
            memo[key] = value
            while len(memo) > self._CACHE_MAX:
                memo.popitem(last=False)

    def _spec_topology(self, spec, build: bool = True) -> Optional[Tuple[Topology, str]]:
        key = (
            spec.width, spec.height, spec.topology,
            spec.link_faults, spec.router_faults, spec.seed,
        )
        entry = self._recall(self._topologies, key)
        if entry is None and build:
            topo = spec.build_topology()
            entry = (topo, json.dumps(topo.to_spec(), sort_keys=True))
            self._remember(self._topologies, key, entry)
        return entry

    # -- profiles --------------------------------------------------------

    @staticmethod
    def _profile_key(
        topo_json: str, scheme: str, pattern: str, config: SimConfig
    ) -> tuple:
        return (
            topo_json,
            scheme,
            pattern,
            config.vnets,
            config.vcs_per_vnet,
            config.data_packet_flits,
            config.ctrl_packet_flits,
            config.max_minimal_routes,
        )

    def profile(
        self,
        topo: Topology,
        scheme: str,
        pattern: str,
        config: SimConfig,
        topo_json: Optional[str] = None,
    ) -> LoadProfile:
        if topo_json is None:
            topo_json = json.dumps(topo.to_spec(), sort_keys=True)
        key = self._profile_key(topo_json, scheme, pattern, config)
        cached = self._recall(self._profiles, key)
        if cached is None:
            cached = self._build_profile(topo, scheme, pattern, config)
            self._remember(self._profiles, key, cached)
        return cached

    def is_warm(self, spec) -> bool:
        """True when :meth:`predict_spec` is arithmetic only: the spec's
        topology and load profile are both memoized."""
        entry = self._spec_topology(spec, build=False)
        return entry is not None and (
            self._profile_key(entry[1], spec.scheme, spec.pattern, spec.build_config())
            in self._profiles
        )

    def _build_profile(
        self, topo: Topology, scheme: str, pattern: str, config: SimConfig
    ) -> LoadProfile:
        if scheme in _UPDOWN_SCHEMES:
            tables = build_updown_tables(topo)
        else:
            tables = build_minimal_tables(topo, config.max_minimal_routes)
        demand = _demand(topo, pattern)
        #: node -> port -> (neighbor, the directed channel's key in ``g``).
        hop = {
            node: {port: (nxt, (node, nxt)) for port, nxt in pairs}
            for node, pairs in active_adjacency(topo).items()
        }
        g: Dict[Tuple[int, int], float] = defaultdict(float)
        weight = 0.0
        routable = 0.0
        hops_total = 0.0
        for src, dsts in demand.items():
            table = tables.get(src)
            for dst, mass in dsts.items():
                weight += mass
                routes = table.routes(dst) if table is not None else []
                if not routes:
                    continue
                routable += mass
                route_share = mass / len(routes)
                for route in routes:
                    node = src
                    for port in route[:-1]:  # last element is ejection
                        node, edge = hop[node][port]
                        g[edge] += route_share
                    hops_total += route_share * (len(route) - 1)
        # 0.5/0.5 ctrl/data mix, as repro.traffic.synthetic defaults.
        mean_flits = 0.5 * (config.data_packet_flits + config.ctrl_packet_flits)
        return LoadProfile(
            family=topology_family(topo),
            scheme=scheme,
            pattern=pattern,
            g=dict(g),
            weight=weight,
            routable_weight=routable,
            hops_total=hops_total,
            hops_mean=hops_total / routable if routable else 0.0,
            n_active=len(topo.active_nodes()),
            mean_flits=mean_flits,
        )

    # -- evaluation ------------------------------------------------------

    def evaluate(
        self,
        profile: LoadProfile,
        rate: float,
        warmup: int,
        measure: int,
    ) -> RawPrediction:
        """O(channels) metric evaluation of one cell at ``rate``."""
        params = self.params
        n = max(1, profile.n_active)
        sat = profile.saturation_rate
        effective = min(rate, sat) if sat != float("inf") else rate
        serialization = max(0.0, profile.mean_flits - 1.0)
        zero_load = (
            profile.hops_mean * (params.t_router + params.t_link)
            + params.inj_overhead
            + serialization
        )
        contention = 0.0
        if rate > 0 and profile.routable_weight > 0:
            acc = 0.0
            rho_max = params.rho_max
            for g_e in profile.g.values():
                acc += g_e * _queue_delay(rate * g_e, rho_max)
            contention = params.q_weight * acc / profile.routable_weight
        latency = zero_load + contention
        hop_bound = profile.hops_mean + serialization

        routable_frac = profile.routable_weight / n
        throughput = effective * routable_frac

        cycles = warmup + measure
        flit_rate = effective * profile.routable_weight  # flits/cycle network-wide
        flits = cycles * flit_rate
        hops_per_flit = profile.hops_mean
        e = params.energy
        energy_dynamic = flits * (
            (e.e_buffer_write + e.e_buffer_read) * (hops_per_flit + 1.0)
            + (e.e_crossbar + e.e_arbitration) * (hops_per_flit + 1.0)
            + e.e_link * hops_per_flit
        )
        window_packets = (
            (effective / profile.mean_flits) * profile.routable_weight * measure
        )
        load_fraction = rate / sat if sat not in (0.0, float("inf")) else 0.0
        return RawPrediction(
            latency=latency,
            throughput=throughput,
            energy_dynamic=energy_dynamic,
            window_packets=window_packets,
            hop_bound=hop_bound,
            zero_load_latency=zero_load,
            saturation_rate=sat,
            load_fraction=load_fraction,
            features=profile.features(rate),
            family=profile.family,
            scheme=profile.scheme,
            pattern=profile.pattern,
        )

    def predict_spec(self, spec) -> RawPrediction:
        """Predict a :class:`repro.service.spec.SimSpec` (materializes it
        the first time its topology is seen)."""
        topo, topo_json = self._spec_topology(spec)
        profile = self.profile(
            topo, spec.scheme, spec.pattern, spec.build_config(), topo_json
        )
        return self.evaluate(profile, spec.rate, spec.warmup, spec.measure)


def energy_dynamic_from_stats(stats: Dict[str, float], params: EnergyParams) -> Optional[float]:
    """Ground-truth dynamic energy from a stored stats summary.

    Returns ``None`` for payloads persisted before the stats summary
    carried the energy-proxy counters (they simply cannot calibrate the
    energy metric).
    """
    needed = ("buffer_writes", "buffer_reads", "crossbar_flits", "link_flit_cycles")
    if not all(key in stats for key in needed):
        return None
    specials = sum(stats.get("link_special_cycles", {}).values())
    return (
        params.e_buffer_write * stats["buffer_writes"]
        + params.e_buffer_read * stats["buffer_reads"]
        + (params.e_crossbar + params.e_arbitration) * stats["crossbar_flits"]
        + params.e_link * stats["link_flit_cycles"]
        + params.e_special * specials
    )
