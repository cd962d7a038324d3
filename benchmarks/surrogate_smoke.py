#!/usr/bin/env python
"""Surrogate fast-lane smoke gate (CI: ``service-soak``).

End-to-end check of the calibrated analytical lane on a fig8-style
sweep (8x8 mesh, 4 link faults, static-bubble, uniform random):

1. run three exact cells into a throwaway result store (the calibration
   seed);
2. build a :class:`repro.surrogate.SurrogateOracle` on that store and
   predict a six-rate sweep in ``auto`` mode;
3. **assert** that exactly ``ESCALATIONS`` cells escalate and that no
   ``run_sim_spec`` call happens inside the lane (counted, not timed:
   one escalated cell fails it on any host);
4. **assert** that every answer carries an explicit error bound +
   provenance, and that each answered cell's true (exact-rerun)
   relative error is within its reported bound.

Exit code 0 = all assertions hold.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.service.spec import SimSpec, run_sim_spec, spec_identity  # noqa: E402
from repro.service.store import ResultStore, spec_fingerprint  # noqa: E402
from repro.surrogate import SurrogateOracle  # noqa: E402

#: Shared fig8-style cell shape.
BASE = dict(
    width=8, height=8, link_faults=4, scheme="static-bubble",
    pattern="uniform_random", warmup=150, measure=400, seed=3,
)
CALIBRATION_RATES = (0.01, 0.02, 0.04)
SWEEP_RATES = (0.005, 0.01, 0.015, 0.02, 0.03, 0.04)

#: Cells of the sweep the auto lane escalates to a cycle-accurate run.
ESCALATIONS = 0


def main() -> int:
    store = ResultStore(root=Path(tempfile.mkdtemp(prefix="repro-surrogate-smoke-")))

    print(f"calibrating on {len(CALIBRATION_RATES)} exact cells ...", file=sys.stderr)
    for rate in CALIBRATION_RATES:
        spec = SimSpec(rate=rate, **BASE)
        payload = run_sim_spec(spec.to_dict())
        store.put(spec_fingerprint(spec_identity(spec.to_dict())), payload)

    oracle = SurrogateOracle(store=store)
    table = oracle.calibration
    assert table.sample_count == len(CALIBRATION_RATES), table.sample_count
    print(
        f"calibration: {table.sample_count} samples, "
        f"fingerprint {table.fingerprint()[:16]}",
        file=sys.stderr,
    )

    # -- the auto-mode sweep, counting cycle-accurate runs inside it -------
    exact_runs = 0

    def count(frame, event, arg):
        nonlocal exact_runs
        if event == "call" and frame.f_code is run_sim_spec.__code__:
            exact_runs += 1

    sys.setprofile(count)
    try:
        answers = {
            rate: oracle.answer(SimSpec(rate=rate, mode="auto", **BASE))
            for rate in SWEEP_RATES
        }
    finally:
        sys.setprofile(None)
    answered = {r: a for r, a in answers.items() if a is not None}
    escalated = len(SWEEP_RATES) - len(answered)
    print(
        f"auto lane: {len(answered)}/{len(SWEEP_RATES)} answered from the "
        f"surrogate, {escalated} escalated, {exact_runs} run_sim_spec calls",
        file=sys.stderr,
    )
    assert escalated == ESCALATIONS, (
        f"{escalated} of {len(SWEEP_RATES)} cells escalated (pinned: {ESCALATIONS})"
    )
    assert exact_runs == 0, f"{exact_runs} run_sim_spec calls inside the lane"

    # -- every answer: explicit bound + provenance, bound honored ---------
    worst = 0.0
    for rate, payload in sorted(answered.items()):
        meta = payload["surrogate"]
        bound = meta["error_bound"]
        prov = meta["provenance"]
        assert bound is not None and bound > 0, (rate, meta)
        assert prov["calibration_fingerprint"] == table.fingerprint(), prov
        assert prov["cell"] == "mesh/static-bubble", prov
        truth = run_sim_spec(SimSpec(rate=rate, **BASE).to_dict())
        true_latency = truth["result"]["avg_latency"]
        err = abs(payload["result"]["avg_latency"] - true_latency) / true_latency
        worst = max(worst, err)
        marker = "ok " if err <= bound else "VIOLATION"
        print(
            f"  rate {rate:6.3f}  pred {payload['result']['avg_latency']:7.2f}"
            f"  true {true_latency:7.2f}  err {err:6.1%}  bound {bound:6.1%}  {marker}",
            file=sys.stderr,
        )
        assert err <= bound, (
            f"rate {rate}: relative error {err:.1%} exceeds reported bound {bound:.1%}"
        )
    print(f"worst in-bound error {worst:.1%}", file=sys.stderr)
    print("surrogate smoke: PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
