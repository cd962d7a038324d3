"""Tests for ``repro.parallel`` and the active-router-set fast path.

Two families:

* pool semantics — ordering, worker resolution, streamed results,
  serial fallbacks, and (the load-bearing property) bit-identical
  results between serial and multi-process runs of the same job list;
* hot-path equivalence — the active-router set and VC caches must leave
  simulation outcomes exactly unchanged versus the full per-cycle scan.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import fig8_latency
from repro.parallel import (
    Job,
    JobError,
    WORKERS_ENV_VAR,
    default_workers,
    iter_jobs,
    job_seed,
    resolve_workers,
    run_jobs,
)
from repro.protocols import MinimalUnprotected, StaticBubbleScheme
from repro.service.spec import SimSpec, run_window
from repro.sim.config import SimConfig
from repro.sim.deadlock import DeadlockMonitor, find_wait_cycle
from repro.sim.engine import deadlocks_within
from repro.sim.network import Network
from repro.topology.faults import sample_topologies
from repro.topology.mesh import mesh
from repro.traffic.synthetic import UniformRandomTraffic

from tests.conftest import build_2x2_ring_deadlock


def _square(x: int) -> int:
    return x * x


def _simulate_point(rate: float, seed: int):
    """Small measured run returning its WindowResult (picklable)."""
    spec = SimSpec(width=4, height=4, rate=rate, warmup=50, measure=150, seed=seed)
    result, _ = run_window(spec)
    return result


# -- pool semantics -----------------------------------------------------


class TestRunJobs:
    def test_results_in_submission_order(self):
        jobs = [Job(_square, (i,)) for i in range(20)]
        assert run_jobs(jobs, workers=4) == [i * i for i in range(20)]

    def test_serial_path_matches_parallel(self):
        jobs = [Job(_square, (i,)) for i in range(10)]
        assert run_jobs(jobs, workers=1) == run_jobs(jobs, workers=3)

    def test_empty_job_list(self):
        assert run_jobs([], workers=4) == []

    def test_single_job_runs_serially(self):
        # One job never justifies a pool; exercised via the n<=1 branch.
        assert run_jobs([Job(_square, (7,))], workers=8) == [49]

    def test_kwargs(self):
        assert run_jobs([Job(pow, (2,), {"exp": 10})], workers=1) == [1024]

    def test_progress_callback_serial(self):
        # Progress is counted by the caller while it iterates.
        jobs = [Job(_square, (i,)) for i in range(5)]
        seen = [(done, len(jobs)) for done, _ in enumerate(iter_jobs(jobs, workers=1), 1)]
        assert seen == [(i, 5) for i in range(1, 6)]

    def test_progress_callback_parallel(self):
        jobs = [Job(_square, (i,)) for i in range(8)]
        seen = []
        for done, result in enumerate(iter_jobs(jobs, workers=2), 1):
            assert result == (done - 1) ** 2  # streamed in submission order
            seen.append((done, len(jobs)))
        assert seen == [(i, 8) for i in range(1, 9)]

    def test_unpicklable_jobs_fall_back_to_serial(self):
        # Lambdas cannot cross a process boundary; results must still come
        # back correct (and in order) via the in-process fallback.
        jobs = [Job(lambda i=i: i * 10) for i in range(6)]
        assert run_jobs(jobs, workers=4) == [i * 10 for i in range(6)]

    def test_window_result_identity_through_pool(self):
        direct = _simulate_point(0.05, 7)
        (pooled,) = run_jobs([Job(_simulate_point, (0.05, 7))] * 1, workers=1)
        (pooled2, extra) = run_jobs(
            [Job(_simulate_point, (0.05, 7)), Job(_simulate_point, (0.10, 8))],
            workers=2,
        )
        assert pooled == direct
        assert pooled2 == direct
        assert extra != direct  # different rate/seed really ran


def _explode(x: int, *, why: str = "bad input") -> int:
    raise ValueError(f"{why}: {x}")


class TestJobError:
    def test_describe_names_func_args_kwargs(self):
        job = Job(_explode, (3,), {"why": "nope"})
        text = job.describe()
        assert "_explode" in text
        assert "3" in text and "why='nope'" in text

    def test_describe_trims_long_args(self):
        job = Job(_square, ("x" * 5000,))
        text = job.describe(limit=400)
        assert text.endswith("...))")
        assert len(text) < 500  # limit + function name + framing

    def test_serial_failure_identifies_job(self):
        jobs = [Job(_square, (1,)), Job(_explode, (9,))]
        with pytest.raises(JobError, match=r"_explode.*9"):
            run_jobs(jobs, workers=1)

    def test_serial_failure_chains_cause(self):
        with pytest.raises(JobError) as exc_info:
            run_jobs([Job(_explode, (1,))], workers=1)
        assert isinstance(exc_info.value.__cause__, ValueError)

    def test_pool_failure_identifies_job(self):
        # The original traceback cannot cross the process boundary, but
        # the job identity and exception repr must.
        jobs = [Job(_square, (i,)) for i in range(3)] + [Job(_explode, (7,))]
        with pytest.raises(JobError, match=r"_explode\(7\).*ValueError"):
            run_jobs(jobs, workers=2)


class TestWorkerResolution:
    def test_explicit_wins(self):
        assert resolve_workers(3) == 3

    def test_explicit_clamped_to_one(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(-5) == 1

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "6")
        assert resolve_workers(None) == 6
        assert default_workers() == 6

    def test_env_var_invalid_ignored(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "lots")
        assert default_workers() == max(1, (os.cpu_count() or 2) - 1)

    def test_default_is_cpu_minus_one(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert default_workers() == max(1, (os.cpu_count() or 2) - 1)


class TestJobSeed:
    def test_deterministic(self):
        assert job_seed(42, "fig8", 3, "static-bubble") == job_seed(
            42, "fig8", 3, "static-bubble"
        )

    def test_distinct_labels_distinct_seeds(self):
        seeds = {
            job_seed(42, "fig8", i, scheme)
            for i in range(4)
            for scheme in ("spanning-tree", "escape-vc", "static-bubble")
        }
        assert len(seeds) == 12


# -- experiment-level determinism ---------------------------------------


def _mini_fig8_params(workers):
    return fig8_latency.Fig8Params(
        width=4,
        height=4,
        link_fault_counts=[2],
        router_fault_counts=[1],
        patterns=["uniform_random"],
        samples=2,
        warmup=60,
        measure=150,
        workers=workers,
    )


def test_fig8_parallel_bit_identical_to_serial():
    serial = fig8_latency.run(_mini_fig8_params(workers=1))
    parallel = fig8_latency.run(_mini_fig8_params(workers=4))
    assert serial.latency == parallel.latency


# -- active-router-set equivalence --------------------------------------


def _faulty_net(seed: int, rate: float, full_scan: bool) -> Network:
    ((_, topo),) = sample_topologies(4, 4, "link", 3, 1, seed)
    config = SimConfig(width=4, height=4, vcs_per_vnet=2)
    traffic = UniformRandomTraffic(topo, rate=rate, seed=seed)
    net = Network(topo, config, MinimalUnprotected(), traffic, seed=seed)
    net.full_scan = full_scan
    return net


@pytest.mark.parametrize("seed,rate", [(3, 0.6), (11, 0.4), (21, 0.15)])
def test_active_set_matches_full_scan(seed, rate):
    fast = _faulty_net(seed, rate, full_scan=False)
    slow = _faulty_net(seed, rate, full_scan=True)
    fast_dl = deadlocks_within(fast, 600, DeadlockMonitor(interval=16))
    slow_dl = deadlocks_within(slow, 600, DeadlockMonitor(interval=16))
    assert fast_dl == slow_dl
    assert fast.stats.packets_injected == slow.stats.packets_injected
    assert fast.stats.packets_ejected == slow.stats.packets_ejected
    assert fast.stats.crossbar_flits == slow.stats.crossbar_flits
    assert fast.total_occupancy() == slow.total_occupancy()


def test_active_set_static_bubble_recovery_unchanged():
    """The constructed ring deadlock must still recover, in the same
    number of cycles, with the active-set sweep as with the full scan."""
    results = []
    for full_scan in (False, True):
        net, _ = build_2x2_ring_deadlock()
        net.full_scan = full_scan
        recovered_at = None
        for _ in range(400):
            net.step()
            if net.stats.recoveries_completed and find_wait_cycle(
                net, net.cycle
            ) is None:
                recovered_at = net.cycle
                break
        assert recovered_at is not None, "recovery did not complete"
        results.append((recovered_at, net.stats.recoveries_completed))
    assert results[0] == results[1]


def test_hand_placed_packets_wake_router():
    # conftest.place_packet goes through Router.place, the one arrival
    # path, which registers the router in the active set.
    net, _ = build_2x2_ring_deadlock()
    assert set(net._active_nodes) == {0, 1, 2, 3}


def test_vc_cache_consistent_after_recovery():
    net, _ = build_2x2_ring_deadlock()
    for _ in range(400):
        net.step()
        if net.stats.recoveries_completed:
            break
    for router in net.active_routers():
        for port in range(5):
            assert router.cached_port_vcs(port) == tuple(router.port_vcs(port))


def test_full_scan_flag_defaults_off():
    net = Network(
        mesh(2, 2), SimConfig(width=2, height=2), MinimalUnprotected(), seed=1
    )
    assert net.full_scan is False


# -- DeadlockMonitor pre-check ------------------------------------------


def test_monitor_skips_while_moving_then_backstops():
    net, _ = build_2x2_ring_deadlock(scheme=MinimalUnprotected())
    monitor = DeadlockMonitor(interval=4, max_skips=2)
    # First due check has no movement baseline: must build and detect the
    # constructed (static) deadlock immediately.
    for _ in range(4):
        net.step()
    assert monitor.check(net, net.cycle)


def test_monitor_backstop_detects_despite_movement():
    # Fake continuous movement by bumping crossbar_flits between checks;
    # the backstop must still run the full detector within
    # (max_skips + 1) intervals.
    net, _ = build_2x2_ring_deadlock(scheme=MinimalUnprotected())
    monitor = DeadlockMonitor(interval=2, max_skips=2)
    detected_at = None
    for _ in range(20):
        net.step()
        net.stats.crossbar_flits += 1  # traffic elsewhere keeps moving
        if monitor.check(net, net.cycle):
            detected_at = net.cycle
            break
    assert detected_at is not None
    assert detected_at <= 2 * (monitor.max_skips + 2)
