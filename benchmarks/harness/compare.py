"""``compare A.jsonl B.jsonl [A2 B2 ...]``: parent runs against change runs.

Each file holds result lines appended by ``--out``.  Files come in
(parent, change) pairs; runs are matched within a pair by workload,
traced flag, seed and order.  One row per (workload, metric):

* ``ok`` / ``worse`` — the change's median is within / beyond the
  metric's bound of the parent's (end-to-end metrics only);
* ``unresolved`` — the run-to-run spread (quartile distance over the
  median, either side) is wider than the bound, unless every change run
  beats every parent run (``ok``) or loses to it (``worse``);
* ``model-changed`` — a simulated, exact metric differs for some seed:
  not a failure, but a simulator-speed change must not cause it;
* ``-`` — per-layer timing: no bound, shown for attribution.

``gain`` is ``yes`` only with at least ten matched pairs, the change
winning nine tenths of them (ties count for neither) and the medians
further apart than the parent's own quartile distance.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from collections import defaultdict
from typing import Any, Dict, List, Tuple

from benchmarks.harness.metrics import BY_NAME, Metric

Key = Tuple[str, str]  # (workload, metric)
FAILED_SHARE = Metric("ops_failed_share", "ratio", "lower", bound=0.0)


def _load(path: str) -> List[Dict[str, Any]]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _paired(parent: List[Dict[str, Any]], change: List[Dict[str, Any]]):
    """Yield (parent run, change run) matched by workload/trace/seed/order."""
    waiting: Dict[Tuple, List[Dict[str, Any]]] = defaultdict(list)
    for run in change:
        waiting[(run["workload"], run["trace"], run["seed"])].append(run)
    for run in parent:
        matches = waiting[(run["workload"], run["trace"], run["seed"])]
        if matches:
            yield run, matches.pop(0)


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _better(metric: Metric, a: float, b: float) -> bool:
    """Is ``b`` strictly better than ``a``?"""
    return b < a if metric.better == "lower" else b > a


def verdict(metric: Metric, pairs: List[Tuple[float, float]]) -> Tuple[str, str]:
    """``(verdict, gain)`` of one metric on one workload."""
    a = [p[0] for p in pairs]
    b = [p[1] for p in pairs]
    if metric.exact:
        same = all(math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-12) for x, y in pairs)
        return ("ok" if same else "model-changed"), "-"
    (a1, am, a3), (b1, bm, b3) = _quartiles(a), _quartiles(b)
    wins = sum(_better(metric, x, y) for x, y in pairs)
    gain = (
        len(pairs) >= 10
        and wins >= 0.9 * len(pairs)
        and abs(bm - am) > (a3 - a1)
        and _better(metric, am, bm)
    )
    if metric.bound is None:
        return "-", "yes" if gain else "no"
    worse_by = (bm - am if metric.better == "lower" else am - bm) / abs(am) if am else 0.0
    spread = max((a3 - a1) / abs(am) if am else 0.0, (b3 - b1) / abs(bm) if bm else 0.0)
    if all(_better(metric, x, y) for x in a for y in b):
        result = "ok"
    elif all(_better(metric, y, x) for x in a for y in b) and worse_by > metric.bound:
        result = "worse"
    elif spread > metric.bound:
        result = "unresolved"
    else:
        result = "worse" if worse_by > metric.bound else "ok"
    return result, "yes" if gain else "no"


def main(argv: List[str]) -> int:
    if len(argv) < 2 or len(argv) % 2:
        print("usage: compare PARENT.jsonl CHANGE.jsonl [more pairs...]", file=sys.stderr)
        return 2
    samples: Dict[Key, List[Tuple[float, float]]] = defaultdict(list)
    ops: Dict[str, List[List[int]]] = defaultdict(lambda: [[0, 0], [0, 0]])
    for parent_path, change_path in zip(argv[::2], argv[1::2]):
        for parent, change in _paired(_load(parent_path), _load(change_path)):
            for name, cell in parent["metrics"].items():
                if name in change["metrics"]:
                    samples[(parent["workload"], name)].append(
                        (cell["value"], change["metrics"][name]["value"])
                    )
            for side, run in enumerate((parent, change)):
                ops[parent["workload"]][side][0] += run["failed"]
                ops[parent["workload"]][side][1] += run["attempted"]
    if not samples:
        print("compare: no matching runs", file=sys.stderr)
        return 2
    print(
        f"{'workload':15s} {'metric':36s} {'unit':>14s} "
        f"{'parent med [q1, q3]':>34s} {'change med [q1, q3]':>34s} "
        f"{'change':>8s} {'n':>3s} verdict       gain"
    )
    worst = 0
    for (workload, name), pairs in sorted(samples.items()):
        metric = BY_NAME.get(name)
        if metric is None:
            continue
        result, gain = verdict(metric, pairs)
        worst = max(worst, result == "worse")
        (a1, am, a3) = _quartiles([p[0] for p in pairs])
        (b1, bm, b3) = _quartiles([p[1] for p in pairs])
        shift = f"{(bm - am) / abs(am) * 100:+7.1f}%" if am else "      - "
        print(
            f"{workload:15s} {name:36s} {metric.unit:>14s} "
            f"{am:12.5g} [{a1:9.4g},{a3:9.4g}] {bm:12.5g} [{b1:9.4g},{b3:9.4g}] "
            f"{shift} {len(pairs):3d} {result:13s} {gain}"
        )
    for workload, ((fa, na), (fb, nb)) in sorted(ops.items()):
        share_a, share_b = fa / max(na, 1), fb / max(nb, 1)
        result = "worse" if share_b > share_a else "ok"  # bound: any increase
        worst = max(worst, result == "worse")
        print(
            f"{workload:15s} {FAILED_SHARE.name:36s} {FAILED_SHARE.unit:>14s} "
            f"{f'{share_a:.6f} ({fa}/{na})':>34s} {f'{share_b:.6f} ({fb}/{nb})':>34s} "
            f"{'':8s} {'':3s} {result:13s} -"
        )
    return worst
