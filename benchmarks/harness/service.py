"""The two service workloads: ``campaign-cold`` and ``serve-warm-mix``.

Load comes from this process only: two client threads, the async front
end (an in-process thread, as ``repro serve --backend async`` runs it)
and at most one ``repro worker`` subprocess.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.routing import clear_table_cache
from repro.service.client import ServiceClient
from repro.service.fabric import AsyncServiceServer
from repro.service.server import fingerprint_for
from repro.service.spec import SimSpec, run_sim_spec
from repro.service.store import ResultStore

from benchmarks.harness import checks, inputs
from benchmarks.harness import ROOT, SRC
from benchmarks.harness.common import Context, Outcome, run_spec_traced
from benchmarks.harness.measure import Tracer, clock, percentile
from benchmarks.harness.metrics import CAMPAIGN_SPANS, EXEC_CHILDREN

CLIENTS = 2
#: Equal time windows a serve-warm-mix slice is cut into.
WINDOWS = 20
POLL = 0.02
JOB_TIMEOUT = 60.0
#: A job the server always has to execute: proves the fabric is up.
PROBE_SPEC = SimSpec(width=2, height=2, warmup=0, measure=1)



class ServerFixture:
    """Async front end over a fresh temp store, plus its worker if any."""

    def __init__(self, ctx: Context, label: str, local_exec: bool) -> None:
        self.dir = ctx.mkdtemp(label)
        self.store = ResultStore(self.dir / "store")
        self.server = AsyncServiceServer(
            port=0, store=self.store, local_exec=local_exec, quiet=True
        )
        self.server.start()
        self.url = self.server.url
        self.worker: Optional[subprocess.Popen] = None

    def spawn_worker(self) -> None:
        """``python -m repro worker --max-jobs 1`` with default knobs."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        with open(self.dir / "worker.log", "ab") as log:
            self.worker = subprocess.Popen(
                [sys.executable, "-m", "repro", "worker", "--url", self.url,
                 "--max-jobs", "1", "--quiet"],
                cwd=ROOT,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=log,
            )

    def stop_worker(self) -> None:
        if self.worker is None:
            return
        self.worker.terminate()
        try:
            self.worker.wait(5.0)
        except subprocess.TimeoutExpired:
            self.worker.kill()
            self.worker.wait()
        self.worker = None

    def close(self) -> None:
        try:
            self.stop_worker()
        finally:
            self.server.stop()


def _run_clients(target, count: int = CLIENTS) -> None:
    threads = [
        threading.Thread(target=target, args=(cid,), name=f"harness-client-{cid}")
        for cid in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


# -- campaign-cold ----------------------------------------------------------


@dataclass
class _JobMarks:
    """Timestamps of one traced job, written by client and worker threads."""

    submit: Tuple[float, float] = (0.0, 0.0)
    done_seen: float = 0.0
    claim: Tuple[float, float] = (0.0, 0.0)
    children: List[Tuple[str, float, float]] = field(default_factory=list)
    execute_end: float = 0.0
    complete_end: float = 0.0


class _ThreadWorker(threading.Thread):
    """The traced stand-in for ``repro worker``: same public client calls
    (claim -> execute -> complete), execution split into its layer calls."""

    def __init__(self, url: str, marks: Dict[str, _JobMarks], out: Outcome) -> None:
        super().__init__(name="harness-worker")
        self.client = ServiceClient(url)
        self.marks = marks
        self.out = out
        self.halt = threading.Event()

    def run(self) -> None:
        try:
            while not self.halt.is_set():
                self._claim_and_execute()
        except Exception as exc:  # noqa: BLE001 — clients then time out; say why
            self.out.fail(f"traced worker died: {type(exc).__name__}: {exc}")

    def _claim_and_execute(self) -> None:
        claim_start = clock()
        claim = self.client.claim("harness-worker", max_jobs=1, wait=0.5)
        claim_end = clock()
        for job in claim.get("jobs", []):
            marks = self.marks[job["job_id"]]
            marks.claim = (claim_start, claim_end)
            local = Tracer()
            payload, unaccounted = run_spec_traced(job["spec"], local)
            marks.children = [(s["name"], s["start"], s["end"]) for s in local.spans]
            marks.execute_end = clock()
            if unaccounted:
                self.out.fail(f"{job['job_id'][:12]}: {unaccounted} packets unaccounted")
            self.client.complete(job["job_id"], "harness-worker", True, result=payload)
            marks.complete_end = clock()


def _emit_job_spans(tracer: Tracer, fp: str, m: _JobMarks) -> None:
    """One job's spans; the five steps partition submit -> observed done.

    ``settle`` runs from the end of execution to the client seeing
    ``done``: the completion call plus the client's poll.  The two are
    not separable from outside — the server marks the job done before it
    answers the worker (calibration feedback runs in between), so a poll
    usually lands first.  ``complete`` is the worker's view of that call.
    """
    job = tracer.add("job", m.submit[0], m.done_seen, fp)
    tracer.add("submit", m.submit[0], m.submit[1], fp, job)
    claim_from = max(m.submit[1], m.claim[0])  # a parked claim predates the job
    tracer.add("queue_wait", m.submit[1], claim_from, fp, job)
    tracer.add("claim", claim_from, m.claim[1], fp, job)
    execute = tracer.add("execute", m.claim[1], m.execute_end, fp, job)
    for name, start, end in m.children:
        tracer.add(name, start, end, fp, execute)
    settle = tracer.add("settle", m.execute_end, m.done_seen, fp, job)
    tracer.add("complete", m.execute_end, m.complete_end, fp, settle)


def campaign_span_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-job span medians and shares of summed job latency."""
    total = sum(tracer.durations("job"))
    execute = sum(tracer.durations("execute"))
    metrics: Dict[str, float] = {}
    for name in CAMPAIGN_SPANS:
        durations = tracer.durations(name)
        metrics[f"campaign.{name}_p50_ms"] = statistics.median(durations) * 1e3
        metrics[f"campaign.{name}_share"] = sum(durations) / total
    metrics["campaign.complete_p50_ms"] = (
        statistics.median(tracer.durations("complete")) * 1e3
    )
    for name in EXEC_CHILDREN:
        metrics[f"campaign.exec.{name}_share"] = sum(tracer.durations(name)) / execute
    metrics["campaign.exec_child_coverage"] = sum(
        metrics[f"campaign.exec.{name}_share"] for name in EXEC_CHILDREN
    )
    return metrics


class CampaignWorkload:
    """Distinct cold cells through server + worker + store, closed loop."""

    setup_repeats = 5

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.fixture: Optional[ServerFixture] = None
        self.cursor = 0
        #: index -> (spec, payload) of every completed cell.
        self.completed: Dict[int, Tuple[SimSpec, Dict[str, Any]]] = {}

    def setup(self) -> None:
        self.fixture = ServerFixture(self.ctx, "campaign", local_exec=False)
        self.fixture.spawn_worker()
        ServiceClient(self.fixture.url).run(PROBE_SPEC, poll=POLL, timeout=JOB_TIMEOUT)

    def teardown(self) -> None:
        if self.fixture is not None:
            self.fixture.close()
            self.fixture = None

    def measure(
        self, seconds: float, tracer: Optional[Tracer] = None, ops: Optional[int] = None
    ) -> Outcome:
        if tracer is not None:
            # The traced slice brings its own worker thread and a fresh
            # front end: the stopped subprocess leaves a long-poll claim
            # parked in the old one, which would lease the next job to a
            # dead connection until the lease expires.  With the store and
            # the table cache cold again (the in-process server warmed this
            # process's cache: its calibration feedback walks the tables of
            # every completed job), the slice replays the untraced slice's
            # cells, so the two throughputs compare like with like.
            self.teardown()
            self.fixture = ServerFixture(self.ctx, "campaign", local_exec=False)
            clear_table_cache()
            self.cursor -= ops
        out = run_campaign(
            self.fixture,
            self.ctx,
            seconds,
            tracer,
            blocks=None if ops is None else ops // inputs.BLOCK,
            first=self.cursor,
            completed=self.completed,
        )
        self.cursor += out.attempted
        return out

    def verify(self, out: Outcome) -> None:
        """Re-run one seeded block in-process; payloads must match."""
        block = inputs.BLOCK
        whole = [
            b
            for b in range(self.cursor // block)
            if all(b * block + j in self.completed for j in range(block))
        ]
        if not whole:
            return  # run_campaign already failed the run for it
        chosen = inputs.rng_for(self.ctx.seed, "campaign-verify").choice(whole)
        for index in range(chosen * block, (chosen + 1) * block):
            spec, payload = self.completed[index]
            reason = checks.same_payload(
                run_sim_spec(spec.to_dict()), payload, f"cell {index} re-run"
            )
            if reason:
                out.fail(reason)


def run_campaign(
    fixture: ServerFixture,
    ctx: Context,
    seconds: float,
    tracer: Optional[Tracer],
    blocks: Optional[int] = None,
    first: int = 0,
    completed: Optional[Dict[int, Tuple[SimSpec, Dict[str, Any]]]] = None,
) -> Outcome:
    """Closed loop over the cell stream from ``first``.

    Runs whole blocks: for ``seconds`` and then to the end of the block
    in progress, or exactly ``blocks`` of them.  Untraced, the fixture's
    worker subprocess executes; traced, a harness thread does, and spans
    are recorded.  Throughput is the median over blocks of cells per
    second between consecutive block completions, so a burst of host
    noise costs one block, not the run.
    """
    out = Outcome()
    completed = {} if completed is None else completed
    lock = threading.Lock()
    marks: Dict[str, _JobMarks] = {}
    worker: Optional[_ThreadWorker] = None
    if tracer is not None:
        worker = _ThreadWorker(fixture.url, marks, out)
        worker.start()
    block = inputs.BLOCK
    taken = 0
    limit = blocks * block if blocks is not None else None
    finished: Dict[int, float] = {}  # cell offset -> completion time
    start = clock()
    deadline = start + seconds

    def client_loop(cid: int) -> None:
        nonlocal taken, limit
        client = ServiceClient(fixture.url)
        while True:
            with lock:
                if limit is None and clock() >= deadline:
                    limit = max(block, -(-taken // block) * block)
                if limit is not None and taken >= limit:
                    return
                offset = taken
                taken += 1
            index = first + offset
            spec = inputs.campaign_cell(ctx.seed, index, ctx.sizes)
            fp = fingerprint_for(spec)
            try:
                if tracer is None:
                    begin = clock()
                    job = client.run(spec, poll=POLL, timeout=JOB_TIMEOUT)
                    end = clock()
                else:
                    m = marks[fp] = _JobMarks()
                    begin = clock()
                    submitted = client.submit(spec)
                    m.submit = (begin, clock())
                    job = client.wait_job(
                        submitted["job_id"], timeout=JOB_TIMEOUT, poll=POLL
                    )
                    end = m.done_seen = clock()
            except Exception as exc:  # noqa: BLE001 — any failure is a failed op
                marks.pop(fp, None)
                with lock:
                    out.fail(f"cell {index}: {type(exc).__name__}: {exc}")
                continue
            payload = job["result"]
            reason = checks.echoed_spec(spec.to_dict(), payload) or checks.conservation(
                payload
            )
            with lock:
                if reason:
                    out.fail(f"cell {index}: {reason}")
                out.latencies_ms.append((end - begin) * 1e3)
                completed[index] = (spec, payload)
                finished[offset] = end

    try:
        _run_clients(client_loop)
    finally:
        if worker is not None:
            worker.halt.set()
            worker.join()
    if tracer is not None:
        for fp, m in marks.items():
            _emit_job_spans(tracer, fp, m)
    out.attempted = taken
    rates, previous = [], start
    for b in range(taken // block):
        cells = [finished.get(b * block + j) for j in range(block)]
        if None in cells:
            break  # a failed cell: already counted, and the block has no time
        rates.append(block / (max(cells) - previous))
        previous = max(cells)
    if rates:
        out.throughput = statistics.median(rates)
        out.latency_p50_ms = percentile(out.latencies_ms, 0.5)
        out.model_payloads = [completed[first + j][1] for j in range(block)]
    else:
        out.fail("no whole block completed")
    out.info = {
        "cells": len(finished),
        "blocks": len(rates),
        "cells_per_s_overall": len(finished) / (previous - start) if rates else 0.0,
        "clients": CLIENTS,
        "loop": "closed",
    }
    return out


# -- serve-warm-mix ---------------------------------------------------------


class ServeFixture(ServerFixture):
    """A front end whose store holds exact cells; every lane is warm.

    Set-up runs the support and held-out cells in-process, stores the
    support cells, then touches each stored spec and each surrogate
    profile once so the timed section sees only warm paths.
    """

    def __init__(self, ctx: Context) -> None:
        support, heldout = inputs.serve_cells(ctx.seed, ctx.sizes)
        clear_table_cache()
        self.support = support
        #: fingerprint -> exact payload of every stored (support) cell.
        self.exact = {
            fingerprint_for(s): _as_stored(run_sim_spec(s.to_dict())) for s in support
        }
        self.heldout = [(s, _as_stored(run_sim_spec(s.to_dict()))) for s in heldout]
        super().__init__(ctx, "serve", local_exec=True)
        try:
            for fp, payload in self.exact.items():
                self.store.put(fp, payload)
            client = ServiceClient(self.url)
            for spec in support:
                client.submit(spec)
            for spec in support:
                for rate in inputs.SERVE_SURROGATE_RATES:
                    client.submit(_surrogate(spec, rate))
        except BaseException:
            self.close()
            raise

    def surrogate_accuracy(self) -> Tuple[float, float]:
        """``(median % error, bound coverage)`` on the held-out cells,
        asked through ``POST /jobs mode=surrogate``."""
        client = ServiceClient(self.url)
        errors, inside = [], 0
        for spec, exact in self.heldout:
            answer = client.submit(_surrogate(spec, spec.rate))["result"]
            truth = exact["result"]["avg_latency"]
            error = abs(answer["result"]["avg_latency"] - truth) / truth
            errors.append(error * 100.0)
            bound = answer["surrogate"]["error_bound"]
            inside += bound is not None and error <= bound
        return statistics.median(errors), inside / len(self.heldout)


def _as_stored(payload: Dict[str, Any]) -> Dict[str, Any]:
    """``payload`` as it reads back from the store (tuples become lists)."""
    return json.loads(checks.canonical(payload))


def _surrogate(spec: SimSpec, rate: float) -> SimSpec:
    return replace(spec, rate=rate, mode="surrogate")


class ServeWorkload:
    """Warm request mix on a preloaded store; the simulator is bypassed."""

    setup_repeats = 2

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.fixture: Optional[ServeFixture] = None
        self.slices = 0

    def setup(self) -> None:
        self.fixture = ServeFixture(self.ctx)

    def teardown(self) -> None:
        if self.fixture is not None:
            self.fixture.close()
            self.fixture = None

    def measure(
        self, seconds: float, tracer: Optional[Tracer] = None, ops: Optional[int] = None
    ) -> Outcome:
        fixture = self.fixture
        out = Outcome()
        lock = threading.Lock()
        self.slices += 1
        lanes = {lane: 0 for lane, _ in inputs.SERVE_MIX}
        samples: List[Tuple[float, float]] = []  # (completion time, latency ms)
        start = clock()
        deadline = start + seconds

        def client_loop(cid: int) -> None:
            client = ServiceClient(fixture.url)
            rng = inputs.rng_for(self.ctx.seed, f"serve-client-{cid}-{self.slices}")
            quota = None if ops is None else ops // CLIENTS + (cid < ops % CLIENTS)
            mine: List[Tuple[float, float]] = []
            failures: List[str] = []
            counts = dict.fromkeys(lanes, 0)
            end = clock()
            while (len(mine) + len(failures) < quota) if quota is not None else (
                end < deadline
            ):
                lane, spec = inputs.serve_request(rng, fixture.support)
                fp = fingerprint_for(spec)
                begin = clock()
                try:
                    if lane == "read":
                        reply = client.result(fp)
                    else:
                        reply = client.submit(spec)
                    end = clock()
                    reason = _check_reply(lane, reply, fixture.exact.get(fp))
                except Exception as exc:  # noqa: BLE001 — any failure is a failed op
                    end = clock()
                    reason = f"{type(exc).__name__}: {exc}"
                if reason:
                    failures.append(f"{lane} request: {reason}")
                    continue
                counts[lane] += 1
                mine.append((end, (end - begin) * 1e3))
                if tracer is not None:
                    tracer.add(f"request.{lane}", begin, end, f"c{cid}-{len(mine)}")
            with lock:
                samples.extend(mine)
                out.failures.extend(failures)
                for lane, n in counts.items():
                    lanes[lane] += n

        _run_clients(client_loop)
        out.attempted = len(samples) + len(out.failures)
        out.latencies_ms = [latency for _, latency in samples]
        if samples:
            # Equal windows, medians over them: a burst of host noise
            # spoils a window or two, not the figure.
            span = (max(end for end, _ in samples) - start) / WINDOWS
            windows: List[List[float]] = [[] for _ in range(WINDOWS)]
            for end, latency in samples:
                windows[min(int((end - start) / span), WINDOWS - 1)].append(latency)
            out.throughput = statistics.median(len(w) for w in windows) / span
            out.latency_p50_ms = statistics.median(
                statistics.median(w) for w in windows if w
            )
        out.model_payloads = list(fixture.exact.values()) + [p for _, p in fixture.heldout]
        out.info = {
            "requests": len(samples),
            "lanes": lanes,
            "windows": WINDOWS,
            "clients": CLIENTS,
            "loop": "closed",
        }
        return out

    def verify(self, out: Outcome) -> None:
        error, coverage = self.fixture.surrogate_accuracy()
        out.info["surrogate_err_p50_pct"] = error
        out.info["surrogate_bound_coverage"] = coverage


def _check_reply(
    lane: str, reply: Dict[str, Any], exact: Optional[Dict[str, Any]]
) -> Optional[str]:
    if lane == "read":
        return None if reply == exact else "stored payload differs"
    if reply.get("status") != "done":
        return f"status {reply.get('status')!r}, expected an immediate answer"
    if lane == "memo":
        if not reply.get("cached"):
            return "resubmit of a stored spec was not a cache hit"
        return None if reply["result"] == exact else "memo payload differs"
    if not reply.get("surrogate"):
        return "surrogate-mode submit was not answered by the surrogate"
    if not reply["result"]["result"]["avg_latency"] > 0:
        return "surrogate latency not positive"
    return None
