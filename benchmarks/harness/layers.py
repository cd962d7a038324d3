"""Per-layer probes: each layer timed from outside through its public calls.

Every traced run executes the whole suite, so a per-layer number means
the same thing whichever workload's trace it came from.  ``slot`` is the
host time a cheap probe may spend; a probe whose single call is longer
takes its minimum number of samples instead.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import statistics
import subprocess
import sys
from dataclasses import replace
from typing import Any, Callable, Dict, List

from repro.core.placement import greedy_cycle_cover, placement_node_ids
from repro.energy.model import EnergyModel
from repro.obs import Observer
from repro.parallel import Job, run_jobs
from repro.protocols import make_scheme
from repro.routing import build_minimal_tables, build_updown_tables, clear_table_cache
from repro.service.client import ServiceClient
from repro.service.fabric import FabricWorker, ShardMap, ShardedResultStore
from repro.service.queue import JobQueue
from repro.service.server import ServiceServer, fingerprint_for
from repro.service.spec import SimSpec, run_sim_spec
from repro.service.store import ResultStore
from repro.sim.deadlock import find_wait_cycle
from repro.sim.network import ENGINES, Network
from repro.surrogate import AnalyticalModel
from repro.traffic.synthetic import UniformRandomTraffic
from repro.utils.serialize import canonical_json, from_jsonable

from benchmarks.harness import inputs
from benchmarks.harness import ROOT, SRC
from benchmarks.harness.common import Context
from benchmarks.harness.measure import Tracer, clock, per_call
from benchmarks.harness.service import (
    CampaignWorkload,
    ServeFixture,
    ServeWorkload,
    ServerFixture,
    campaign_span_metrics,
    run_campaign,
)

US, MS = 1e6, 1e3


def measure_all(
    ctx: Context, budget: float, workload: Any, tracer: Tracer
) -> Dict[str, float]:
    """Every per-layer metric except the workload's own (model, overhead)."""
    slot = budget / 80.0
    metrics = _simulator_layers(ctx, slot)
    metrics.update(_process_layers())
    # The traced workload already holds the fixture (or the spans) two of
    # the groups need; otherwise build a small one here.
    own_serve = isinstance(workload, ServeWorkload)
    serve = workload.fixture if own_serve else ServeFixture(ctx)
    try:
        metrics.update(_service_layers(ctx, slot, serve))
    finally:
        if not own_serve:
            serve.close()
    fabric = ServerFixture(ctx, "fabric", local_exec=False)
    try:
        metrics["worker.run_once_overhead_ms"] = _worker_overhead(ctx, fabric) * MS
        if isinstance(workload, CampaignWorkload):
            metrics.update(campaign_span_metrics(tracer))
        else:
            spans = Tracer()
            run_campaign(fabric, ctx, 0.0, spans, blocks=1, first=10**6 * inputs.BLOCK)
            metrics.update(campaign_span_metrics(spans))
    finally:
        fabric.close()
    return metrics


# -- topology, routing, core, protocols, sim, traffic, verify, energy, obs ---


def _simulator_layers(ctx: Context, slot: float) -> Dict[str, float]:
    rng = inputs.rng_for(ctx.seed, "layers")
    mesh_spec = SimSpec(link_faults=8, seed=rng.randrange(1, 2**31))
    torus_spec = SimSpec(
        topology="torus3d:4x4x4", link_faults=4, seed=rng.randrange(1, 2**31)
    )
    topo, torus = mesh_spec.build_topology(), torus_spec.build_topology()
    config = mesh_spec.build_config()
    warm = ctx.sizes.sat_cycles[0]
    m: Dict[str, float] = {}

    m["topology.build_mesh_faulted_us"] = per_call(mesh_spec.build_topology, slot, 10) * US
    m["topology.build_nonmesh_us"] = per_call(torus_spec.build_topology, slot, 10) * US
    m["routing.minimal_tables_cold_ms"] = (
        per_call(lambda: build_minimal_tables(topo), 0, min_samples=2,
                 prepare=clear_table_cache) * MS
    )
    m["routing.updown_tables_cold_ms"] = (
        per_call(lambda: build_updown_tables(topo), 0, min_samples=2,
                 prepare=clear_table_cache) * MS
    )
    build_minimal_tables(topo)
    m["routing.tables_warm_us"] = per_call(lambda: build_minimal_tables(topo), slot, 100) * US
    m["core.placement_us"] = per_call(lambda: placement_node_ids(8, 8), slot, 100) * US
    m["core.cycle_cover_nonmesh_us"] = per_call(lambda: greedy_cycle_cover(torus), slot, 5) * US
    m["protocols.make_scheme_us"] = per_call(lambda: make_scheme("static-bubble"), slot, 100) * US

    def network(engine: str, rate, on=topo) -> Network:
        traffic = UniformRandomTraffic(on, rate=rate, seed=1) if rate else None
        return Network(
            on, config, make_scheme("static-bubble"), traffic, seed=1, engine=engine
        )

    saturated = None
    for engine in ENGINES:
        m[f"sim.construct_ms.{engine}"] = per_call(lambda: network(engine, 0.02), slot) * MS
        # (load, rate, warm-up cycles, cycles per timed sample)
        for load, rate, warmup, chunk in (
            ("sat", 0.30, warm, 100),
            ("lowload", 0.02, warm // 2, 500),
            ("idle", None, 50, 1000),
        ):
            net = network(engine, rate)
            net.run(warmup)
            m[f"sim.us_per_cycle.{engine}.{load}"] = (
                per_call(lambda: net.run(chunk), slot) / chunk * US
            )
            if engine == "reference" and load == "sat":
                saturated = net
    for label, rate in (("r002", 0.02), ("r030", 0.30)):
        source = UniformRandomTraffic(topo, rate=rate, seed=1)
        cycle = itertools.count()
        m[f"traffic.packets_at_us_per_cycle.{label}"] = (
            per_call(lambda: list(source.packets_at(next(cycle))), slot, 200) * US
        )
    m["sim.deadlock.find_wait_cycle_us"] = (
        per_call(lambda: find_wait_cycle(saturated, saturated.cycle), slot) * US
    )
    m["sim.stats.summary_us"] = per_call(saturated.stats.summary, slot, 100) * US
    m["energy.model_us"] = per_call(lambda: EnergyModel().network_energy(saturated), slot, 10) * US
    m["verify.certify_ms.mesh"] = per_call(saturated.certify, slot) * MS
    m["verify.certify_ms.torus3d"] = per_call(network("reference", None, torus).certify, slot) * MS

    # Metrics-only observer: two identical low-load networks, one observed,
    # timed alternately so drift cancels in the paired difference.
    bare, observed = network("reference", 0.02), network("reference", 0.02)
    observed.attach_obs(Observer(trace=False))
    for net in (bare, observed):
        net.run(warm // 2)
    extra = []
    for _ in range(9):
        plain = per_call(lambda: bare.run(500), 0, min_samples=1)
        extra.append(per_call(lambda: observed.run(500), 0, min_samples=1) - plain)
    m["obs.metrics_only_us_per_cycle"] = statistics.median(extra) / 500 * US
    return m


# -- serialize, store, shard, queue, http, surrogate --------------------------


def _noop_runner(spec: Dict[str, Any]) -> Dict[str, Any]:
    return {"echo": spec}


def _median_each(calls: List[Callable[[], Any]]) -> float:
    """Median host seconds over ``calls``, each made exactly once."""
    samples = []
    for call in calls:
        begin = clock()
        call()
        samples.append(clock() - begin)
    return statistics.median(samples)


def _service_layers(ctx: Context, slot: float, serve: ServeFixture) -> Dict[str, float]:
    spec = serve.support[0]
    fp = fingerprint_for(spec)
    payload = serve.exact[fp]
    scratch = ctx.mkdtemp("layers")
    m: Dict[str, float] = {}

    m["serialize.fingerprint_us"] = per_call(lambda: fingerprint_for(spec), slot, 20) * US
    m["serialize.payload_roundtrip_us"] = (
        per_call(lambda: from_jsonable(json.loads(canonical_json(payload))), slot, 5) * US
    )

    small = ResultStore(scratch / "small")
    m["store.put_us.empty"] = per_call(lambda: small.put(fp, payload), slot) * US
    m["store.get_hit_us"] = per_call(lambda: small.get(fp), slot, 10) * US
    m["store.get_miss_us"] = per_call(lambda: small.get("0" * 64), slot, 10) * US
    # put() rescans every blob to enforce the size cap, so its cost grows
    # with the store.  Blobs are written straight into the store's layout:
    # filling it through put() would itself be quadratic.
    big = ResultStore(scratch / "big")
    for i in range(ctx.sizes.store_preload_blobs):
        path = big.path_for(hashlib.sha256(str(i).encode()).hexdigest())
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(b"{}")
    m["store.put_us.4k"] = per_call(lambda: big.put(fp, payload), slot) * US

    sharded = ShardedResultStore(
        ShardMap.local([scratch / "s0", scratch / "s1"], replicas=2)
    )
    m["shard.put_us"] = per_call(lambda: sharded.put(fp, payload), slot) * US
    m["shard.get_us"] = per_call(lambda: sharded.get(fp), slot, 10) * US

    queue = JobQueue(
        runner=_noop_runner, store=ResultStore(scratch / "queue"),
        max_depth=10**6, local_exec=False,
    )
    jobs = [{"probe": i} for i in range(50)]
    m["queue.submit_new_us"] = _median_each([lambda j=j: queue.submit(j) for j in jobs]) * US
    claimed: List[Any] = []
    m["queue.claim_us"] = (
        _median_each([lambda: claimed.extend(queue.claim("probe", 1)) for _ in jobs]) * US
    )
    m["queue.complete_us"] = (
        _median_each(
            [lambda r=r: queue.complete(r.job_id, "probe", True, payload) for r in claimed]
        ) * US
    )
    m["queue.submit_memo_us"] = _median_each([lambda j=j: queue.submit(j) for j in jobs]) * US
    with JobQueue(
        runner=_noop_runner, store=ResultStore(scratch / "local"), workers=1
    ) as local:
        m["queue.local_exec_job_ms"] = (
            _median_each(
                [
                    lambda i=i: local.wait(local.submit({"local": i})[0].job_id, 30.0)
                    for i in range(5)
                ]
            ) * MS
        )

    client = ServiceClient(serve.url)
    m["http.healthz_rtt_us.async"] = per_call(client.healthz, slot) * US
    m["http.submit_hit_rtt_us"] = per_call(lambda: client.submit(spec), slot) * US
    m["http.result_get_rtt_us"] = per_call(lambda: client.result(fp), slot) * US
    asked = replace(spec, rate=inputs.SERVE_SURROGATE_RATES[0], mode="surrogate")
    m["http.surrogate_rtt_us"] = per_call(lambda: client.submit(asked), slot) * US
    m["http.claim_empty_rtt_us"] = per_call(lambda: client.claim("probe", 1, 0.0), slot) * US
    with ServiceServer(
        port=0, store=ResultStore(scratch / "threaded"), quiet=True, surrogate=False
    ) as threaded:
        m["http.healthz_rtt_us.threaded"] = (
            per_call(ServiceClient(threaded.url).healthz, slot) * US
        )

    oracle = serve.server.oracle
    m["surrogate.predict_warm_us"] = per_call(lambda: oracle.predict(asked), slot, 5) * US
    # A fresh model has no load profile for the topology; the routing
    # tables it walks stay cached, so this is the model's own cold cost.
    m["surrogate.predict_cold_ms"] = (
        per_call(lambda: AnalyticalModel().predict_spec(asked), slot) * MS
    )
    m["surrogate.refresh_ms"] = per_call(oracle.refresh, slot) * MS
    m["surrogate.err_p50_pct"], m["surrogate.bound_coverage"] = serve.surrogate_accuracy()
    return m


def _worker_overhead(ctx: Context, fabric: ServerFixture) -> float:
    """``FabricWorker.run_once`` on a one-cycle 2x2 job minus running it."""
    client = ServiceClient(fabric.url)
    worker = FabricWorker(fabric.url, worker_id="probe", max_jobs=1, poll_wait=0.0)
    through, direct = [], []
    for i in range(5):
        spec = SimSpec(width=2, height=2, warmup=0, measure=1, seed=ctx.seed * 100 + i)
        client.submit(spec)
        begin = clock()
        settled = worker.run_once()
        through.append(clock() - begin)
        if settled != 1:
            raise RuntimeError("worker probe: run_once settled no job")
        begin = clock()
        run_sim_spec(spec.to_dict())
        direct.append(clock() - begin)
    return statistics.median(through) - statistics.median(direct)


# -- parallel, cli -----------------------------------------------------------


def _noop_job(value: int) -> int:
    return value


def _process_layers() -> Dict[str, float]:
    m: Dict[str, float] = {}
    jobs = [Job(_noop_job, (i,)) for i in range(64)]
    for workers in (1, 2):
        m[f"parallel.run_jobs_us_per_job.w{workers}"] = (
            per_call(lambda: run_jobs(jobs, workers=workers), 0, min_samples=3)
            / len(jobs) * US
        )
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def python(*args: str) -> None:
        subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=env, check=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )

    m["cli.import_ms"] = per_call(lambda: python("-c", "import repro"), 0, min_samples=2) * MS
    m["cli.simulate_tiny_ms"] = (
        per_call(
            lambda: python("-m", "repro", "simulate", "--width", "2", "--height", "2",
                           "--warmup", "0", "--cycles", "1"),
            0, min_samples=2,
        ) * MS
    )
    return m
