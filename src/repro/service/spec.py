"""Canonical simulation specs: the submission unit of the service.

A :class:`SimSpec` is the *complete* identity of one simulation — mesh
dimensions, fault derivation, scheme, traffic, measurement window, every
protocol knob, and the seed.  Two specs with equal canonical encodings
produce bit-identical results (the simulator is deterministic), which is
what makes content-addressed memoization sound: the fingerprint of the
spec *is* the identity of the result.

:meth:`SimSpec.build_network` is the one derivation of a network from
a spec: the CLI's ``simulate``, ``verify`` and synthetic ``trace`` build
through it (or :meth:`SimSpec.build_topology`), and ``submit`` /
``predict`` send or answer the same :class:`SimSpec`.
``run_sim_spec`` is the module-level executable form (picklable, so the
job queue can fan it over :func:`repro.parallel.run_jobs` workers); it
runs :func:`run_window`, the run figure cells make too, and returns a
plain-JSON payload so results cross process and HTTP boundaries
without a custom decoder.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.protocols import SCHEMES, make_scheme
from repro.sim.config import SimConfig
from repro.sim.deadlock import DeadlockMonitor
from repro.sim.engine import WindowResult, run_with_window
from repro.sim.network import ENGINES, Network
from repro.topology.faults import inject_link_faults, inject_router_faults
from repro.topology.mesh import Topology, mesh
from repro.traffic.synthetic import PATTERNS, make_pattern

#: Bump when a simulator change invalidates previously stored results.
#: Folded (with the package version) into every fingerprint salt.
SPEC_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SimSpec:
    """Everything that determines one simulation's outcome.

    :meth:`build_network` is the only code that turns these fields into a
    network; the CLI builds its networks through it too.
    """

    width: int = 8
    height: int = 8
    #: Optional non-mesh topology as a ``parse_topology`` string
    #: (``mesh3d:3x3x3``, ``circulant:11,2,5``, ``fullmesh:6``...).
    #: ``None`` means the classic ``width x height`` mesh, and is omitted
    #: from :meth:`to_dict` so every pre-existing stored fingerprint is
    #: unchanged.
    topology: Optional[str] = None
    #: Faults derived from the healthy topology with
    #: ``random.Random(fault_seed)`` (``random.Random(seed)`` when it is
    #: ``None``), link faults first (:meth:`build_topology`).
    link_faults: int = 0
    router_faults: int = 0
    scheme: str = "static-bubble"
    pattern: str = "uniform_random"
    rate: float = 0.05
    warmup: int = 500
    measure: int = 2000
    vcs_per_vnet: int = 4
    vnets: int = 1
    sb_t_dd: int = 34
    seed: int = 1
    monitor: bool = False
    #: Accepted (``repro.sim.network.ENGINES``), echoed and ignored: there
    #: is one simulator.  Stored specs carry the field; it is *not* part
    #: of the spec's result identity — see :func:`spec_identity`.
    engine: str = "reference"
    #: Answer lane (``exact`` | ``surrogate`` | ``auto``).  ``exact``
    #: always simulates; ``surrogate`` always answers from the
    #: calibrated analytical model (:mod:`repro.surrogate`); ``auto``
    #: answers from the surrogate only when its reported error bound is
    #: under the gate threshold, else escalates to simulation.  This
    #: selects *how* an answer is produced, not *what* the spec
    #: identifies — it is stripped from fingerprints.
    mode: str = "exact"
    #: Seed of the fault derivation alone, when it is not ``seed``: a
    #: figure's sampled topology is derived from the attempt seed
    #: :func:`~repro.topology.faults.sample_topologies` yields, while
    #: ``seed`` drives the traffic and the network.  ``None`` is omitted
    #: from :meth:`to_dict`, like ``topology``, so no stored fingerprint
    #: moves.
    fault_seed: Optional[int] = None

    def validate(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(
                f"unknown scheme {self.scheme!r}; have {sorted(SCHEMES)}"
            )
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; have {ENGINES}")
        if self.mode not in ("exact", "surrogate", "auto"):
            raise ValueError(
                f"unknown mode {self.mode!r}; have ('exact', 'surrogate', 'auto')"
            )
        if self.pattern not in PATTERNS:
            raise ValueError(
                f"unknown pattern {self.pattern!r}; have {sorted(PATTERNS)}"
            )
        if self.topology is not None:
            from repro.topology.generators import parse_topology

            kind = parse_topology(self.topology).kind  # ValueError on bad forms
            if self.scheme == "xy" and kind != "mesh":
                raise ValueError(f"scheme 'xy' needs a 2D mesh, not {kind}")
        if self.link_faults < 0 or self.router_faults < 0:
            raise ValueError("fault counts must be >= 0")
        if self.fault_seed is not None and (
            type(self.fault_seed) is not int or self.fault_seed < 0
        ):
            raise ValueError("fault_seed must be an integer >= 0")
        if self.warmup < 0 or self.measure < 1:
            raise ValueError("need warmup >= 0 and measure >= 1")
        if not (0.0 <= self.rate <= 1.0):
            raise ValueError("rate must be within [0, 1]")
        # Dimensions, VC counts and t_DD: the simulator's own bounds.
        self.build_config().validate()

    def to_dict(self) -> Dict[str, Any]:
        # Every field is a scalar: no need for ``asdict``'s recursive copy.
        payload = {name: getattr(self, name) for name in _FIELD_NAMES}
        # Mesh specs and service specs predate these fields; omitting
        # them keeps every previously stored fingerprint valid.
        if payload["topology"] is None:
            payload.pop("topology")
        if payload["fault_seed"] is None:
            payload.pop("fault_seed")
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SimSpec":
        """Build from a client-supplied dict; unknown keys are an error.

        Rejecting unknown keys (rather than ignoring them) keeps the
        fingerprint honest — a typo'd parameter must not silently alias
        the default-parameter spec's cache entry.
        """
        unknown = sorted(set(payload).difference(_FIELD_NAMES))
        if unknown:
            raise ValueError(f"unknown spec fields: {', '.join(unknown)}")
        spec = cls(**payload)
        spec.validate()
        return spec

    # -- materialization -------------------------------------------------

    def build_topology(self) -> Topology:
        if self.topology is not None:
            from repro.topology.generators import parse_topology

            topo = parse_topology(self.topology)
        else:
            topo = mesh(self.width, self.height)
        seed = self.seed if self.fault_seed is None else self.fault_seed
        rng = random.Random(seed)
        if self.link_faults:
            topo = inject_link_faults(topo, self.link_faults, rng)
        if self.router_faults:
            topo = inject_router_faults(topo, self.router_faults, rng)
        return topo

    def build_config(self) -> SimConfig:
        return SimConfig(
            width=self.width,
            height=self.height,
            vnets=self.vnets,
            vcs_per_vnet=self.vcs_per_vnet,
            sb_t_dd=self.sb_t_dd,
        )

    def build_network(self) -> Network:
        """Topology -> config -> traffic -> scheme -> :class:`Network`."""
        topo = self.build_topology()
        config = self.build_config()
        traffic = make_pattern(
            self.pattern, topo, self.rate, seed=self.seed, vnets=self.vnets
        )
        return Network(topo, config, make_scheme(self.scheme), traffic, seed=self.seed)


_FIELD_NAMES = tuple(f.name for f in dataclasses.fields(SimSpec))

#: Spec fields that select *how* a result is computed, not *what* it is.
#: Excluded from content-address identity: ``engine`` is ignored, so
#: either spelling must hit the cache entry the other produced.
#: ``mode`` likewise: an auto-mode submission that escalates must land on
#: (and later hit) the same stored result an exact submission produces.
EXECUTION_ONLY_FIELDS = ("engine", "mode")


def spec_identity(spec_dict: Dict[str, Any]) -> Dict[str, Any]:
    """The fingerprint-bearing view of a spec dict.

    Strips execution-only fields so specs differing only in those
    coalesce onto one stored result.  Non-``SimSpec`` spec shapes pass
    through unchanged (minus any identically-named execution field).
    """
    if not any(field in spec_dict for field in EXECUTION_ONLY_FIELDS):
        return spec_dict
    trimmed = dict(spec_dict)
    for field in EXECUTION_ONLY_FIELDS:
        trimmed.pop(field, None)
    return trimmed


def sim_result_payload(
    spec: SimSpec, result: WindowResult, network: Network
) -> Dict[str, Any]:
    """Plain-JSON result payload (the blob the store persists).

    The same shape serves ``simulate --json``, ``POST /jobs`` responses,
    and ``GET /results/<fingerprint>`` — one serializer, three surfaces.
    """
    return {
        "spec": spec.to_dict(),
        "result": dataclasses.asdict(result),
        "stats": network.stats.summary(),
        "topology": network.topo.to_spec(),
    }


def run_window(spec: SimSpec) -> Tuple[WindowResult, Network]:
    """Build the spec's network and run its warmup + measure window.

    With ``REPRO_OBS`` set, the engine attaches a metrics-only observer
    bound to the per-process registry, so sweep counters aggregate
    across workers.
    """
    network = spec.build_network()
    monitor = DeadlockMonitor() if spec.monitor else None
    return run_with_window(network, spec.warmup, spec.measure, monitor), network


def run_sim_spec(spec_dict: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one spec; module-level so it pickles to pool workers."""
    spec = SimSpec.from_dict(dict(spec_dict))
    return sim_result_payload(spec, *run_window(spec))
