"""Declared workloads and metrics: the single source ``BENCHMARK.json`` mirrors.

``test_harness.py`` asserts that ``BENCHMARK.json`` equals
:func:`benchmark_json`, so a metric is added or renamed here and nowhere
else.  Which end-to-end metric each layer metric is expected to move is
documented in ``README.md``.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional

#: How long one run measures (``--seconds``), fixed by ``BENCHMARK.json``.
RUN_SECONDS = 20


class Workload(NamedTuple):
    name: str
    why: str


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: End-to-end only: share of the parent's median it may worsen by.
    bound: Optional[float] = None
    #: Simulated (not host-time) value: repeats exactly for one seed, so
    #: ``compare`` reports a difference as ``model-changed``.
    exact: bool = False


WORKLOADS: List[Workload] = [
    Workload(
        "sim-sat",
        "one long deadlock-heavy run_sim_spec per engine (8x8, 8 link faults, "
        "rate 0.30): allocator, specials and the recovery FSM do the work; "
        "tables and service are bypassed",
    ),
    Workload(
        "sim-lowload",
        "same sim layer at rate 0.02: per-cycle fixed costs dominate and the "
        "allocator idles, so a saturation win that costs low load shows",
    ),
    Workload(
        "campaign-cold",
        "closed loop, 2 clients, distinct cells through async server + one "
        "worker subprocess + fresh store: table build, construction and the "
        "service path dominate; step loop ~10%",
    ),
    Workload(
        "serve-warm-mix",
        "closed loop, 2 clients, 50% memo resubmits / 30% result reads / 20% "
        "surrogate answers on a preloaded store: HTTP, fingerprint, memo, "
        "store read, predict; simulator bypassed",
    ),
]

#: Every workload reports every end-to-end metric (the driver's contract),
#: so the names are generic; README.md says what each means per workload.
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("throughput_per_s", "1/s", "higher", 0.25),
    Metric("latency_p50_ms", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.10),
]

#: Consecutive steps of one traced campaign job; together its whole latency.
CAMPAIGN_SPANS = ("submit", "queue_wait", "claim", "execute", "settle")
#: Layer calls the traced execute step is split into.
EXEC_CHILDREN = ("topology", "tables", "construct", "run", "payload")


def _us(name: str) -> Metric:
    return Metric(name, "us", "lower")


def _ms(name: str) -> Metric:
    return Metric(name, "ms", "lower")


PER_LAYER: List[Metric] = [
    # set-up of one cell -> cells/s and job latency on campaign-cold
    _ms("routing.minimal_tables_cold_ms"),
    _ms("routing.updown_tables_cold_ms"),
    _us("routing.tables_warm_us"),
    _us("topology.build_mesh_faulted_us"),
    _us("topology.build_nonmesh_us"),
    _us("core.placement_us"),
    _us("core.cycle_cover_nonmesh_us"),
    _us("protocols.make_scheme_us"),
    _ms("sim.construct_ms.reference"),
    _ms("sim.construct_ms.fast"),
    # the step loop -> cycles/s on sim-sat (.sat) and sim-lowload (rest)
    *[
        _us(f"sim.us_per_cycle.{engine}.{load}")
        for engine in ("reference", "fast")
        for load in ("sat", "lowload", "idle")
    ],
    _us("traffic.packets_at_us_per_cycle.r002"),
    _us("traffic.packets_at_us_per_cycle.r030"),
    _us("sim.deadlock.find_wait_cycle_us"),
    _us("sim.stats.summary_us"),
    # off the job path today; recorded so a change that puts them on it shows
    _ms("verify.certify_ms.mesh"),
    _ms("verify.certify_ms.torus3d"),
    _us("energy.model_us"),
    _us("obs.metrics_only_us_per_cycle"),
    # service layers -> requests/s and request latency on serve-warm-mix
    _us("serialize.fingerprint_us"),
    _us("serialize.payload_roundtrip_us"),
    _us("store.get_hit_us"),
    _us("store.get_miss_us"),
    _us("store.put_us.empty"),
    _us("store.put_us.4k"),
    _us("shard.get_us"),
    _us("shard.put_us"),
    _us("queue.submit_new_us"),
    _us("queue.submit_memo_us"),
    _us("queue.claim_us"),
    _us("queue.complete_us"),
    _ms("queue.local_exec_job_ms"),
    _us("http.healthz_rtt_us.async"),
    _us("http.healthz_rtt_us.threaded"),
    _us("http.submit_hit_rtt_us"),
    _us("http.result_get_rtt_us"),
    _us("http.surrogate_rtt_us"),
    _us("http.claim_empty_rtt_us"),
    _ms("surrogate.predict_cold_ms"),
    _us("surrogate.predict_warm_us"),
    _ms("surrogate.refresh_ms"),
    Metric("surrogate.err_p50_pct", "%", "lower", exact=True),
    Metric("surrogate.bound_coverage", "ratio", "higher", exact=True),
    # per-job spans of a traced campaign -> job latency on campaign-cold
    *[_ms(f"campaign.{span}_p50_ms") for span in CAMPAIGN_SPANS],
    *[Metric(f"campaign.{span}_share", "ratio", "lower") for span in CAMPAIGN_SPANS],
    _ms("campaign.complete_p50_ms"),
    *[
        Metric(f"campaign.exec.{child}_share", "ratio", "lower")
        for child in EXEC_CHILDREN
    ],
    Metric("campaign.exec_child_coverage", "ratio", "higher"),
    _ms("worker.run_once_overhead_ms"),
    # -> setup_s everywhere
    _us("parallel.run_jobs_us_per_job.w1"),
    _us("parallel.run_jobs_us_per_job.w2"),
    _ms("cli.import_ms"),
    _ms("cli.simulate_tiny_ms"),
    # the traced workload itself
    Metric("workload.latency_tail_ms", "ms", "lower"),
    Metric("trace.overhead_ratio", "ratio", "higher"),
    # modelled-design counters (simulated, exact per seed); a
    # simulator-speed change must leave them identical.  The direction is
    # nominal: these are compared for equality, not ranked.
    Metric("model.avg_latency", "cycles", "lower", exact=True),
    Metric("model.throughput_flits_node_cycle", "flits/node/cyc", "higher", exact=True),
    Metric("model.packets_ejected", "count", "higher", exact=True),
    Metric("model.recoveries_completed", "count", "lower", exact=True),
    Metric("model.probes_sent", "count", "lower", exact=True),
    Metric("model.payload_sha48", "count", "higher", exact=True),
]

BY_NAME: Dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}


def benchmark_json() -> Dict[str, Any]:
    """The document ``BENCHMARK.json`` must hold."""
    return {
        "command": ["python3", "benchmarks/harness/run.py"],
        "paths": ["benchmarks/harness"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
