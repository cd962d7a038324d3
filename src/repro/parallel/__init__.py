"""Parallel experiment execution (process-pool sweep fan-out)."""

from repro.parallel.pool import (
    CallTimeout,
    Job,
    JobError,
    WORKERS_ENV_VAR,
    call_with_timeout,
    default_workers,
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
    "job_seed",
    "resolve_workers",
    "run_jobs",
]
