"""The two simulator workloads and the run procedure common to all four."""

from __future__ import annotations

import statistics
from dataclasses import replace
from typing import Any, Dict, List, Optional

from repro.routing import clear_table_cache
from repro.service.spec import run_sim_spec
from repro.sim.network import ENGINES

from benchmarks.harness import checks, inputs
from benchmarks.harness import OUT_DIR
from benchmarks.harness.common import (
    Context,
    Outcome,
    model_counters,
    run_spec_traced,
)
from benchmarks.harness.measure import Tracer, clock, peak_rss_mib
from benchmarks.harness.service import CampaignWorkload, ServeWorkload

#: Tail percentile reported beside the median, per workload: the highest
#: with about ten samples beyond it at the workload's usual size.
TAIL_QUANTILE = {
    "sim-sat": 0.75,
    "sim-lowload": 0.75,
    "campaign-cold": 0.90,
    "serve-warm-mix": 0.99,
}


class SimWorkload:
    """``run_sim_spec`` on faulted 8x8 static-bubble specs, both engines.

    One operation is one ``run_sim_spec`` call; calls come in
    ``reference, fast`` pairs on the same spec so the two payloads can be
    compared.  Every topology is run several times and its fastest pair
    kept; throughput is the geometric mean over topologies of simulated
    cycles per host second across that pair, latency the median over
    topologies of its wall time.
    """

    setup_repeats = 3

    def __init__(self, ctx: Context, name: str, traced: bool) -> None:
        self.ctx = ctx
        self.specs = inputs.sim_specs(ctx.seed, name, ctx.sizes)
        if traced:
            # A traced slice is a quarter of the run: two topologies keep
            # a whole round (every topology once) inside it.
            del self.specs[2:]

    def setup(self) -> None:
        """Build every topology's tables and both engines once."""
        clear_table_cache()
        for spec in self.specs:
            for engine in ENGINES:
                run_sim_spec(replace(spec, warmup=0, measure=1, engine=engine).to_dict())

    def teardown(self) -> None:
        pass

    def measure(
        self, seconds: float, tracer: Optional[Tracer] = None, ops: Optional[int] = None
    ) -> Outcome:
        out = Outcome()
        walls: Dict[int, List[float]] = {}
        start = clock()
        pairs = 0
        # A full run visits every topology at least once, so the geometric
        # mean is over the same set whatever the host's speed.
        floor = len(self.specs) if ops is None else ops // 2
        while pairs < floor or (ops is None and clock() - start < seconds):
            index = pairs % len(self.specs)
            spec = self.specs[index]
            payloads = []
            begin = clock()
            for engine in ENGINES:
                out.attempted += 1
                spec_dict = replace(spec, engine=engine).to_dict()
                try:
                    if tracer is None:
                        payload = run_sim_spec(spec_dict)
                    else:
                        trace = f"pair{pairs}"
                        with tracer.span(engine, trace) as parent:
                            payload, unaccounted = run_spec_traced(
                                spec_dict, tracer, trace, parent
                            )
                        if unaccounted:
                            out.fail(f"{engine}: {unaccounted} packets unaccounted")
                except Exception as exc:  # noqa: BLE001 — any failure is a failed op
                    out.fail(f"{engine} run_sim_spec: {type(exc).__name__}: {exc}")
                    continue
                reason = checks.conservation(payload)
                if reason:
                    out.fail(f"{engine}: {reason}")
                payloads.append(payload)
            wall = clock() - begin
            pairs += 1
            if len(payloads) != len(ENGINES):
                continue
            reason = checks.same_payload(*payloads, "engines")
            if reason:
                out.fail(reason)
            walls.setdefault(index, []).append(wall)
            out.latencies_ms.append(wall * 1e3)
            if index == 0 and not out.model_payloads:
                out.model_payloads = [payloads[0]]
        cycles = self.specs[0].warmup + self.specs[0].measure
        if walls:
            # Interference from outside only ever adds time, so the fastest
            # of a topology's repetitions is the least disturbed one.
            best = [min(w) for w in walls.values()]
            out.throughput = statistics.geometric_mean([len(ENGINES) * cycles / w for w in best])
            out.latency_p50_ms = statistics.median(best) * 1e3
        out.info = {
            "pairs": pairs,
            "topologies": len(walls),
            "cycles_per_run": cycles,
            "engines": list(ENGINES),
        }
        return out

    def verify(self, out: Outcome) -> None:
        pass


def make(name: str, ctx: Context, traced: bool):
    if name in ("sim-sat", "sim-lowload"):
        return SimWorkload(ctx, name, traced)
    if name == "campaign-cold":
        return CampaignWorkload(ctx)
    if name == "serve-warm-mix":
        return ServeWorkload(ctx)
    raise ValueError(f"unknown workload {name!r}")


def execute(
    name: str, seed: int, seconds: float, trace: bool, sizes: inputs.Sizes, import_s: float
) -> Dict[str, Any]:
    """Run one workload; returns the result document (see ``cli``)."""
    ctx = Context(seed=seed, sizes=sizes)
    workload = make(name, ctx, trace)
    setup_times: List[float] = []
    try:
        for repeat in range(1 if trace else workload.setup_repeats):
            if repeat:
                workload.teardown()
            begin = clock()
            workload.setup()
            setup_times.append(clock() - begin)
        if not trace:
            out = workload.measure(seconds)
            workload.verify(out)
            outcomes = [out]
            metrics = {
                "setup_s": import_s + statistics.median(setup_times),
                "throughput_per_s": out.throughput,
                "latency_p50_ms": out.latency_p50_ms,
                "peak_rss_mb": peak_rss_mib(),
            }
            info = dict(
                out.info,
                latency_tail_ms=_tail(name, out),
                setup_times_s=setup_times,
                model=model_counters(out.model_payloads),
            )
        else:
            from benchmarks.harness import layers

            base = workload.measure(seconds / 4)
            tracer = Tracer()
            traced = workload.measure(seconds / 4, tracer, ops=base.attempted)
            workload.verify(traced)
            outcomes = [base, traced]
            metrics = layers.measure_all(ctx, seconds / 2, workload, tracer)
            metrics.update(model_counters(base.model_payloads))
            metrics["workload.latency_tail_ms"] = _tail(name, base)
            metrics["trace.overhead_ratio"] = (
                traced.throughput / base.throughput if base.throughput else 0.0
            )
            tracer.write(OUT_DIR / f"trace_{name}.json")
            info = {"untraced": base.info, "traced": traced.info}
    finally:
        try:
            workload.teardown()
        finally:
            ctx.cleanup()
    failures = [reason for out in outcomes for reason in out.failures]
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": sum(out.attempted for out in outcomes),
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": metrics,
        "info": info,
    }


def _tail(name: str, out: Outcome) -> float:
    return out.tail_latency_ms(TAIL_QUANTILE[name])
