"""Process-pool experiment executor.

Every paper figure sweeps hundreds of fully independent simulations —
``(topology sample x scheme x injection rate x seed)`` — so the sweeps
parallelize embarrassingly well over a process pool (PPT-style
discrete-event parallelism: independent sub-workloads, no shared state).
This module is the one place that owns that machinery:

* :class:`Job` — a picklable ``(func, args, kwargs)`` work unit;
* :func:`iter_jobs` — execute a job list over ``workers`` processes of
  one pool, yielding results in submission order as they stream back,
  with chunked dispatch and a graceful serial fallback (``workers=1``,
  unpicklable jobs, or pools being unavailable in the host
  environment); :func:`run_jobs` is its list form;
* :func:`resolve_workers` — the worker-count policy: explicit argument,
  else the ``REPRO_WORKERS`` environment variable, else
  ``os.cpu_count() - 1`` (always at least 1);
* :func:`job_seed` — deterministic per-job seed derivation, so a job's
  RNG stream depends only on its identity, never on scheduling order.

Determinism: jobs are pure functions of their arguments (every seed is
part of the job spec) and results are returned in submission order, so a
parallel run is bit-identical to a serial run of the same job list.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import sys
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.obs.metrics import drain_proc_registry, obs_enabled, proc_registry
from repro.utils.rng import derive_seed

#: Environment variable consulted when no explicit worker count is given.
WORKERS_ENV_VAR = "REPRO_WORKERS"


class JobError(RuntimeError):
    """A job's function raised.

    The message embeds the originating :meth:`Job.describe` (function,
    args, kwargs — including the seed, which is always part of the
    args/kwargs by convention) plus the original exception, so a failed
    cell deep inside a thousand-job sweep is identifiable straight from
    the traceback.  The message is a plain string so the exception
    survives pickling back across the pool boundary; on the serial path
    the original exception additionally rides along as ``__cause__``.
    """


@dataclass(frozen=True)
class Job:
    """One unit of work: ``func(*args, **kwargs)``.

    ``func`` must be picklable (a module-level function) for the job to
    run in a worker process; unpicklable jobs silently take the serial
    path instead.
    """

    func: Callable[..., Any]
    args: Tuple = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def describe(self, limit: int = 400) -> str:
        """Identifying repr: qualified function name + trimmed arguments."""
        func = getattr(self.func, "__module__", "?") + "." + getattr(
            self.func, "__qualname__", repr(self.func)
        )
        parts = [repr(a) for a in self.args]
        parts += [f"{k}={v!r}" for k, v in self.kwargs.items()]
        arglist = ", ".join(parts)
        if len(arglist) > limit:
            arglist = arglist[:limit] + "..."
        return f"Job({func}({arglist}))"

    def run(self) -> Any:
        try:
            return self.func(*self.args, **self.kwargs)
        except Exception as exc:
            raise JobError(f"{self.describe()} failed: {exc!r}") from exc


def _call_job(job: Job) -> Any:
    """Top-level trampoline executed inside worker processes."""
    return job.run()


class CallTimeout(RuntimeError):
    """:func:`call_with_timeout` exceeded its wall-clock budget."""


def call_with_timeout(
    func: Callable[..., Any],
    args: Tuple = (),
    kwargs: Optional[Dict[str, Any]] = None,
    timeout: Optional[float] = None,
) -> Any:
    """Run ``func(*args, **kwargs)``, raising :class:`CallTimeout` past
    ``timeout`` seconds.

    Portable replacement for SIGALRM-based budgets: the call runs in a
    daemon thread and the caller joins with a deadline, so it works on
    every platform and from *any* thread — including pool worker
    processes, the service queue's scheduler thread, and asyncio
    executor threads, where signals either do not exist or never fire.

    The cost of portability is that a timed-out call is *abandoned*, not
    preempted: the daemon thread keeps running to completion in the
    background and its result is discarded.  That matches the service
    contract (the job is reported failed and may be retried elsewhere)
    — simulations are pure, so an abandoned duplicate can at worst
    re-derive the same bytes.

    ``timeout=None`` (or <= 0) calls ``func`` directly, with zero
    threading overhead.
    """
    if timeout is None or timeout <= 0:
        return func(*args, **(kwargs or {}))
    outcome: List[Any] = []

    def _target() -> None:
        try:
            outcome.append(("ok", func(*args, **(kwargs or {}))))
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            outcome.append(("raise", exc))

    runner = threading.Thread(
        target=_target, name="repro-timeout-call", daemon=True
    )
    runner.start()
    runner.join(timeout)
    if not outcome:
        raise CallTimeout(f"call exceeded {timeout:g}s wall clock")
    status, value = outcome[0]
    if status == "raise":
        raise value
    return value


def _call_job_obs(job: Job) -> Tuple[Any, Dict[str, Any]]:
    """Trampoline used when ``REPRO_OBS`` is on: ship the worker's
    per-process metrics snapshot home alongside the result, so the parent
    can merge every worker's counters into one registry."""
    result = job.run()
    return result, drain_proc_registry()


def job_seed(base_seed: int, *labels: object) -> int:
    """Deterministic per-job seed: a pure function of identity labels.

    Include every axis that distinguishes the job (figure, fault count,
    scheme, sample index, ...) so that reordering or re-chunking the job
    list can never change any job's RNG stream.
    """
    return derive_seed(base_seed, "job", *labels)


#: One-shot guard so a sweep dispatching thousands of jobs warns once.
_warned_invalid_workers = False


def default_workers() -> int:
    """``REPRO_WORKERS`` if set and valid, else ``os.cpu_count() - 1``."""
    global _warned_invalid_workers
    env = os.environ.get(WORKERS_ENV_VAR)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            # A typo'd value must not quietly serialize (or mis-size) a
            # sweep: say so once, then fall through to the default.
            if not _warned_invalid_workers:
                _warned_invalid_workers = True
                print(
                    f"repro: ignoring invalid {WORKERS_ENV_VAR}={env!r} "
                    "(not an integer); using cpu_count()-1",
                    file=sys.stderr,
                )
    return max(1, (os.cpu_count() or 2) - 1)


def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve an explicit/None worker count to a concrete value >= 1."""
    if workers is None:
        return default_workers()
    return max(1, workers)


def _picklable(jobs: Sequence[Job]) -> bool:
    try:
        pickle.dumps(jobs)
        return True
    except Exception:
        return False


def _pool_context():
    """Prefer fork (cheap, no re-import) where the platform offers it."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def iter_jobs(jobs: Iterable[Job], workers: Optional[int] = None) -> Iterator[Any]:
    """Run every job; yield their results in submission order.

    ``workers`` is the process count; ``None`` defers to
    :func:`resolve_workers` (``REPRO_WORKERS`` / ``cpu_count - 1``), and
    ``workers=1`` runs serially in-process with no pool at all.  A
    caller that wants a running count keeps it while it iterates.

    One pool serves the whole list: its processes take
    ``len(jobs) // (workers * 4)`` jobs (at least 1) per task, so long
    sweeps amortize IPC and per-process caches (warm routing tables)
    while short ones still load-balance.  Each result is yielded as soon
    as it and every earlier one are back, so a caller can persist it
    before the sweep ends; closing the generator early
    (``contextlib.closing`` does it when the caller's loop raises)
    terminates the pool.

    Serial fallbacks (all produce identical results): a single job,
    ``workers=1``, unpicklable jobs, or a host that cannot create a
    process pool (sandboxes without semaphore support).
    """
    jobs = list(jobs)
    n = min(resolve_workers(workers), len(jobs))
    pool = None
    if n > 1 and _picklable(jobs):
        try:
            pool = _pool_context().Pool(processes=n)
        except (OSError, PermissionError, ImportError):
            pass  # a host without process pools runs the list serially
    if pool is None:
        for job in jobs:
            yield job.run()
        return
    merge_obs = obs_enabled()
    call = _call_job_obs if merge_obs else _call_job
    with pool:
        for result in pool.imap(call, jobs, max(1, len(jobs) // (n * 4))):
            if merge_obs:
                result, snapshot = result
                proc_registry().merge_dict(snapshot)
            yield result


def run_jobs(jobs: Iterable[Job], workers: Optional[int] = None) -> List[Any]:
    """:func:`iter_jobs`, collected into a list."""
    return list(iter_jobs(jobs, workers))
