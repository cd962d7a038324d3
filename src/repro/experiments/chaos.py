"""Chaos campaign: random live-fault schedules against every scheme.

Not a paper figure — a robustness harness for the live-reconfiguration
subsystem (``Network.apply_faults`` / ``Network.restore``).  Each
campaign builds a random :class:`~repro.topology.faults.FaultSchedule`
(mid-run link/router failures, occasional restores) and drives it
against one scheme on a healthy mesh with synthetic traffic, then drains
and checks packet conservation: every created packet must be delivered,
explicitly dropped by a reconfiguration, or still queued/buffered when
the run times out.  A nonzero ``unaccounted`` count or a failure to
drain is a bug in the reconfiguration machinery, not a property of the
scheme under test.

Campaigns fan out over the process pool (one job per scheme x schedule),
with per-job seeds derived from identity so results are independent of
worker count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.experiments.common import SCHEME_ORDER, cell_spec, fan_out
from repro.parallel import job_seed
from repro.service.spec import SimSpec
from repro.sim.engine import run_with_faults
from repro.topology.faults import random_fault_schedule
from repro.utils.reporting import Reporter


@dataclass
class ChaosParams:
    width: int = 6
    height: int = 6
    schemes: List[str] = field(default_factory=lambda: list(SCHEME_ORDER))
    #: Random fault schedules per scheme.
    campaigns: int = 8
    #: Fault events per schedule.
    events: int = 6
    pattern: str = "uniform_random"
    rate: float = 0.08
    #: Cycles of injected traffic before the drain phase.
    traffic_cycles: int = 1500
    #: Hard cap on the whole run (faults + drain).
    max_cycles: int = 10000
    vcs_per_vnet: int = 2
    seed: int = 42
    #: Worker processes for the sweep (None -> REPRO_WORKERS / cpu-1).
    workers: Optional[int] = None
    #: Re-certify the scheme's deadlock-freedom claim (CDG certificate)
    #: after every mid-run reconfiguration; failures fail the campaign.
    verify_reconfig: bool = False

    @classmethod
    def quick(cls) -> "ChaosParams":
        return cls()

    @classmethod
    def full(cls) -> "ChaosParams":
        return cls(
            width=8,
            height=8,
            campaigns=32,
            events=10,
            traffic_cycles=4000,
            max_cycles=30000,
        )


@dataclass
class ChaosCampaignResult:
    scheme: str
    campaign: int
    drained: bool
    cycles: int
    reconfig_events: int
    created: int
    ejected: int
    dropped_reconfig: int
    rerouted: int
    specials_dropped: int
    unaccounted: int
    #: Post-reconfiguration certificates that failed (0 unless the
    #: campaign ran with ``verify_reconfig``).
    cert_failures: int = 0


@dataclass
class ChaosResult:
    params: ChaosParams
    campaigns: List[ChaosCampaignResult]

    @property
    def all_drained(self) -> bool:
        return all(c.drained for c in self.campaigns)

    @property
    def total_unaccounted(self) -> int:
        return sum(abs(c.unaccounted) for c in self.campaigns)

    @property
    def total_cert_failures(self) -> int:
        return sum(c.cert_failures for c in self.campaigns)

    @property
    def ok(self) -> bool:
        """The pass/fail verdict ``repro chaos --check`` gates CI on."""
        return (
            self.all_drained
            and self.total_unaccounted == 0
            and self.total_cert_failures == 0
        )


def _chaos_job(
    spec: Dict[str, Any],
    campaign: int,
    events: int,
    traffic_cycles: int,
    max_cycles: int,
    verify_reconfig: bool,
) -> ChaosCampaignResult:
    """One campaign: ``spec``'s healthy mesh under a schedule from its seed."""
    spec = SimSpec.from_dict(spec)
    network = spec.build_network()
    schedule = random_fault_schedule(
        network.topo,
        events,
        random.Random(spec.seed),
        first_cycle=100,
        spacing=max(50, traffic_cycles // max(1, events)),
    )
    network.verify_on_reconfig = verify_reconfig
    result = run_with_faults(
        network, schedule, max_cycles, stop_traffic_at=traffic_cycles
    )
    return ChaosCampaignResult(
        scheme=spec.scheme,
        campaign=campaign,
        drained=result.drained,
        cycles=result.cycles,
        reconfig_events=result.reconfig_events,
        created=result.created,
        ejected=result.ejected,
        dropped_reconfig=result.dropped_reconfig,
        rerouted=result.rerouted,
        specials_dropped=result.specials_dropped,
        unaccounted=result.unaccounted,
        cert_failures=network.cert_failures,
    )


def run(params: ChaosParams) -> ChaosResult:
    argslist = [
        (
            cell_spec(SimSpec(
                width=params.width, height=params.height, scheme=scheme,
                pattern=params.pattern, rate=params.rate,
                vcs_per_vnet=params.vcs_per_vnet,
                seed=job_seed(params.seed, "chaos", scheme, campaign),
            )),
            campaign, params.events, params.traffic_cycles, params.max_cycles,
            params.verify_reconfig,
        )
        for scheme in params.schemes
        for campaign in range(params.campaigns)
    ]
    outcomes = fan_out(_chaos_job, argslist, workers=params.workers)
    return ChaosResult(params, list(outcomes))


def report(result: ChaosResult) -> str:
    rep = Reporter(
        "Chaos campaign — live reconfiguration under random fault schedules"
    )
    by_scheme: Dict[str, List[ChaosCampaignResult]] = {}
    for campaign in result.campaigns:
        by_scheme.setdefault(campaign.scheme, []).append(campaign)
    rows = []
    for scheme, campaigns in by_scheme.items():
        rows.append(
            [
                scheme,
                f"{sum(c.drained for c in campaigns)}/{len(campaigns)}",
                sum(c.reconfig_events for c in campaigns),
                sum(c.created for c in campaigns),
                sum(c.ejected for c in campaigns),
                sum(c.dropped_reconfig for c in campaigns),
                sum(c.rerouted for c in campaigns),
                sum(abs(c.unaccounted) for c in campaigns),
                sum(c.cert_failures for c in campaigns),
            ]
        )
    rep.table(
        [
            "scheme",
            "drained",
            "reconfigs",
            "created",
            "ejected",
            "dropped",
            "rerouted",
            "unaccounted",
            "cert_fail",
        ],
        rows,
    )
    rep.line(
        "verdict: "
        + ("OK — all campaigns drained, zero unaccounted packets, "
           "no failed certificates"
           if result.ok
           else "FAIL — undrained campaigns, unaccounted packets, or "
           "failed certificates")
    )
    return rep.text()
