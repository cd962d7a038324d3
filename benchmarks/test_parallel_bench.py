"""Benchmarks of the parallel experiment runner.

Pins the two properties the `repro.parallel` subsystem promises:

* correctness — a multi-worker run of a figure-style sweep returns
  *bit-identical* numbers to the serial run (always asserted);
* speed — with enough cores, fanning a sweep over 4 workers beats the
  serial run by >= 2x (asserted only when the host actually has >= 4
  CPUs; single-core CI boxes still verify identity and just record the
  timings).
"""

import os
import time

from repro.experiments import fig8_latency
from repro.parallel import Job, run_jobs
from repro.service.spec import SimSpec, run_window


def _simulate(rate: float, seed: int):
    spec = SimSpec(rate=rate, warmup=100, measure=400, seed=seed)
    result, _ = run_window(spec)
    return result


def _sweep_jobs():
    return [Job(_simulate, (0.02 + 0.01 * i, 100 + i)) for i in range(8)]


def test_run_jobs_identity_and_speedup(benchmark):
    t0 = time.perf_counter()
    serial = run_jobs(_sweep_jobs(), workers=1)
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = benchmark.pedantic(
        lambda: run_jobs(_sweep_jobs(), workers=4), rounds=1, iterations=1
    )
    parallel_s = time.perf_counter() - t0

    assert parallel == serial  # bit-identical regardless of worker count
    cores = os.cpu_count() or 1
    print(
        f"\nserial {serial_s:.2f}s, workers=4 {parallel_s:.2f}s "
        f"({serial_s / parallel_s:.2f}x on {cores} cores)"
    )
    if cores >= 4:
        assert serial_s / parallel_s >= 2.0


def test_fig8_quick_parallel(benchmark):
    params = fig8_latency.Fig8Params(
        link_fault_counts=[4],
        router_fault_counts=[2],
        patterns=["uniform_random"],
        samples=2,
        warmup=100,
        measure=300,
        workers=4,
    )
    result = benchmark.pedantic(
        lambda: fig8_latency.run(params), rounds=1, iterations=1
    )
    assert result.latency  # every sweep point aggregated
