"""Parallel experiment execution (process-pool sweep fan-out).

:func:`iter_jobs` is the one pool loop: one pool per job list, results
yielded in submission order as they stream back.  :func:`run_jobs` is
its list form.
"""

from repro.parallel.pool import (
    CallTimeout,
    Job,
    JobError,
    WORKERS_ENV_VAR,
    call_with_timeout,
    default_workers,
    iter_jobs,
    job_seed,
    resolve_workers,
    run_jobs,
)

__all__ = [
    "CallTimeout",
    "Job",
    "JobError",
    "WORKERS_ENV_VAR",
    "call_with_timeout",
    "default_workers",
    "iter_jobs",
    "job_seed",
    "resolve_workers",
    "run_jobs",
]
