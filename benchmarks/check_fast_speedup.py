#!/usr/bin/env python
"""Gate the fast engine against the reference engine: it must not lose.

Reads a ``pytest-benchmark`` JSON containing, for each gated workload,
the reference benchmark and its ``*_fast`` twin (struct-of-arrays
engine) from the *same run* — same machine, same load — and fails when
``reference_median / fast_median`` drops below :data:`MIN_RATIO` on any
of them.  Comparing within one run sidesteps machine-to-machine baseline
drift entirely.  Medians over the rounds, not means: a benchmark is five
rounds of a few milliseconds, and one round that catches a host stall
(7-11 ms against a 2.9 ms median, about every other run) moves the mean
ratio to 0.5-0.7 and the median not at all.

One minimum for all three workloads.  At low load and idle the fast
engine runs the reference's own sweep, so the ratio is ~1.  Saturated it
runs its vector filter against a reference sweep that skips blocked
routers (DESIGN.md 4b): the filter's lead is whatever the host measures
(about 1.3-1.5x), and the gate only says it must still pay for itself.
The floor leaves room for timing noise on a cycle that costs a few
microseconds.

Usage::

    python benchmarks/check_fast_speedup.py bench.json
"""

from __future__ import annotations

import json
import sys

#: Minimum reference/fast ratio on every gated workload.
MIN_RATIO = 0.9

#: (reference benchmark, fast-engine benchmark).
GATED_PAIRS = [
    ("test_step_saturated", "test_step_saturated_fast"),
    ("test_step_low_load", "test_step_low_load_fast"),
    ("test_step_idle_network", "test_step_idle_network_fast"),
]


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    doc = json.loads(open(argv[1]).read())
    medians = {r["name"]: r["stats"]["median"] for r in doc.get("benchmarks", [])}
    failures = []
    for ref_name, fast_name in GATED_PAIRS:
        if ref_name not in medians or fast_name not in medians:
            print(f"missing benchmark(s): need {ref_name} and {fast_name}")
            failures.append((ref_name, 0.0))
            continue
        speedup = medians[ref_name] / medians[fast_name]
        status = "ok" if speedup >= MIN_RATIO else "FAIL"
        print(
            f"{ref_name}: median reference {medians[ref_name] * 1e3:.2f} ms, "
            f"fast {medians[fast_name] * 1e3:.2f} ms -> {speedup:.2f}x "
            f"(min {MIN_RATIO:g}x) {status}"
        )
        if speedup < MIN_RATIO:
            failures.append((ref_name, speedup))
    if failures:
        print(f"fast-engine ratio below its minimum on {len(failures)} workload(s)")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
