"""Shared experiment plumbing: topology sampling, sweeps, normalization.

Every experiment module follows the same shape:

* a ``*Params`` dataclass with a ``quick()`` constructor (minutes on a
  laptop; used by the benchmark harness) and a ``full()`` constructor
  (closer to the paper's scale; hours in pure Python);
* a ``run(params) -> *Result`` function returning structured data;
* a ``report(result) -> str`` function printing the same rows/series the
  paper's figure or table shows.

A figure's ``run`` declares its sweep as ``(key, args)`` cells — one
per sampled topology and scheme (and pattern, workload or t_DD) — and
:func:`sweep_cells` runs them through :func:`fan_out` and hands back
``{key: [outcome per cell]}`` in cell order, which the figure reduces
(usually to a mean per key).  :func:`fault_samples` walks the
link-then-router fault axes (:func:`fault_axes`) the two-axis figures
share.
"""

from __future__ import annotations

import os
from statistics import mean
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.parallel import Job, JobError, run_jobs
from repro.protocols import make_scheme
from repro.sim.config import SimConfig
from repro.sim.deadlock import DeadlockMonitor
from repro.sim.engine import WindowResult, run_with_window
from repro.sim.network import Network
from repro.topology.faults import sample_topologies
from repro.topology.mesh import Topology
from repro.traffic.synthetic import make_pattern
from repro.utils.serialize import from_jsonable, to_jsonable

#: Scheme names in the order the paper's figures list them, plus the
#: adaptive-minimal extension curve (congestion-aware selection over the
#: static-bubble substrate) appended last.
SCHEME_ORDER = ("spanning-tree", "escape-vc", "static-bubble", "adaptive")


def topologies_for(
    width: int,
    height: int,
    fault_kind: str,
    fault_count: int,
    samples: int,
    seed: int,
    require_mcs: Optional[List[int]] = None,
) -> List[Topology]:
    """Materialized topology sample (shared across schemes for fairness)."""
    return list(
        sample_topologies(
            width,
            height,
            fault_kind,
            fault_count,
            samples,
            seed,
            require_memory_controllers=require_mcs,
        )
    )


def fault_axes(params) -> Tuple[Tuple[str, List[int]], Tuple[str, List[int]]]:
    """The ``(kind, counts)`` axes of a two-axis figure: links, then routers."""
    return (("link", params.link_fault_counts), ("router", params.router_fault_counts))


def fault_samples(
    params, require_mcs: Optional[List[int]] = None
) -> Iterable[Tuple[str, int, List[Topology]]]:
    """``(kind, count, topologies)`` for each point of both fault axes."""
    for kind, counts in fault_axes(params):
        for count in counts:
            yield kind, count, topologies_for(
                params.width, params.height, kind, count, params.samples,
                params.seed, require_mcs,
            )


def run_synthetic(
    topo: Topology,
    scheme_name: str,
    pattern: str,
    rate: float,
    config: SimConfig,
    warmup: int,
    measure: int,
    seed: int,
    monitor: bool = False,
    obs=None,
) -> Tuple[WindowResult, Network]:
    """One warmup+measure simulation of a synthetic pattern.

    ``obs``: optional :class:`repro.obs.Observer` to attach for this run;
    when ``None`` but ``REPRO_OBS`` is set, the engine attaches a
    metrics-only observer bound to the per-process registry so sweep
    counters aggregate across pool workers with no tracing overhead.
    """
    traffic = make_pattern(
        pattern,
        topo,
        rate,
        seed=seed,
        vnets=config.vnets,
        data_flits=config.data_packet_flits,
        ctrl_flits=config.ctrl_packet_flits,
    )
    network = Network(topo, config, make_scheme(scheme_name), traffic, seed=seed)
    result = run_with_window(
        network,
        warmup,
        measure,
        monitor=DeadlockMonitor() if monitor else None,
        obs=obs,
    )
    return result, network


#: Environment variable routing every ``fan_out`` sweep through the
#: content-addressed result store (the CLI's ``experiment --cached``).
CACHE_ENV_VAR = "REPRO_CACHE"


def cache_enabled() -> bool:
    """True when ``REPRO_CACHE`` asks sweeps to memoize through the store."""
    return os.environ.get(CACHE_ENV_VAR, "").strip().lower() in (
        "1", "true", "yes", "on",
    )


def fan_out(
    func: Callable,
    argslist: Sequence[Sequence],
    workers: Optional[int] = None,
    cached: Optional[bool] = None,
    store=None,
) -> List:
    """Run ``func(*args)`` for each args tuple, fanned over worker processes.

    Thin sweep-shaped wrapper over :func:`repro.parallel.run_jobs`:
    results come back in ``argslist`` order regardless of worker count, so
    aggregation code is identical for serial and parallel runs.  ``func``
    must be a module-level (picklable) callable.

    ``cached`` routes the cells through the content-addressed result
    store: :func:`repro.service.campaign.sweep` keys each cell by
    the canonical fingerprint of ``(func, args)`` — the topology, config,
    rate, and seed are all part of ``args``, so the fingerprint is the
    cell's full identity — runs only the missing ones and stores each as
    it finishes, so a failing cell (raised as :class:`JobError` once the
    sweep ends) loses no other.  ``None`` defers to the ``REPRO_CACHE``
    environment variable, which is how ``repro experiment --cached``
    reaches all nine figure sweeps through this one entry point.  Fresh
    and stored values alike come back through
    :mod:`repro.utils.serialize`, so a cold cached sweep returns exactly
    what a warm one does.
    """
    if cached is None:
        cached = cache_enabled()
    jobs = [Job(func, tuple(args)) for args in argslist]
    if cached and jobs:
        from repro.service.campaign import ERROR, sweep
        from repro.service.store import ResultStore, spec_fingerprint

        func_id = (
            getattr(func, "__module__", "?"),
            getattr(func, "__qualname__", repr(func)),
        )
        keys = [spec_fingerprint(("fan_out", func_id, job.args)) for job in jobs]
        outcomes = sweep(
            store if store is not None else ResultStore(),
            keys, jobs, _stored_result, workers,
        )
        for job, (status, value) in zip(jobs, outcomes):
            if status == ERROR:
                raise JobError(f"{job.describe()} failed: {value}")
        return [from_jsonable(blob["result"]) for _, blob in outcomes]
    return run_jobs(jobs, workers=workers)


def sweep_cells(
    func: Callable, cells: Iterable[Tuple[Any, Sequence]], workers: Optional[int]
) -> Dict[Any, List]:
    """Run ``(key, args)`` cells through :func:`fan_out` and group them.

    Returns ``{key: [func(*args) for each of the key's cells]}``: keys in
    first-seen order, each list in cell order (so per-topology outcomes
    of different keys pair up by position).  The args alone reach
    :func:`fan_out`, so the cached store key of a cell is its args.
    """
    cells = list(cells)
    outcomes = fan_out(func, [args for _, args in cells], workers=workers)
    groups: Dict[Any, List] = {}
    for (key, _), outcome in zip(cells, outcomes):
        groups.setdefault(key, []).append(outcome)
    return groups


def _stored_result(job: Job) -> Dict[str, Any]:
    """A cached ``fan_out`` cell's runner: the blob its store key holds."""
    return {"result": to_jsonable(job.func(*job.args))}


def saturation_throughput(
    topo: Topology,
    scheme_name: str,
    config: SimConfig,
    rates: Sequence[float],
    warmup: int,
    measure: int,
    seed: int,
) -> float:
    """Peak accepted throughput (flits/node/cycle) over an offered sweep.

    The standard saturation metric: accepted throughput rises with offered
    load until the network saturates; the plateau/peak is the saturation
    throughput.  Sweeping past the knee and taking the max is robust to
    post-saturation degradation.

    Early exit: ``rates`` is swept in the given (ascending) order, and the
    sweep stops once accepted throughput has *declined* for two consecutive
    rates — past the knee, higher offered load only deepens congestion, so
    the remaining (most expensive, most saturated) points cannot raise the
    max.  Two consecutive declines are required so that one noisy
    measurement near the knee does not truncate the sweep.
    """
    best = 0.0
    prev = None
    declines = 0
    for rate in rates:
        result, _ = run_synthetic(
            topo, scheme_name, "uniform_random", rate, config, warmup, measure, seed
        )
        accepted = result.throughput_flits_node_cycle
        best = max(best, accepted)
        if prev is not None and accepted < prev:
            declines += 1
            if declines >= 2:
                break
        else:
            declines = 0
        prev = accepted
    return best


def safe_mean(values: Iterable[float]) -> float:
    values = list(values)
    return mean(values) if values else 0.0


def normalize_to(base: float, value: float) -> float:
    """value / base with a 0-guard (returns 1.0 when the base is zero)."""
    return value / base if base else 1.0
