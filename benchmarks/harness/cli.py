"""Command line: one workload per process, or ``compare`` two result sets."""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

_STARTED = time.perf_counter()

from benchmarks.harness import HARNESS_DIR, SRC  # noqa: E402
from benchmarks.harness import metrics as declared  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        from benchmarks.harness.compare import main as compare_main

        return compare_main(argv[1:])
    args = _parser().parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"harness: no program to measure at {SRC / 'repro'}", file=sys.stderr)
        return 2
    # Defaults are what is measured: no REPRO_* knob of the caller's
    # reaches this process or the children it starts.
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return _run_every_workload(args)
    return _run_one(args)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchmarks.harness",
        description="Measure one workload (or, with no --workload, all four, "
        "untraced then traced, one process each).",
    )
    parser.add_argument("--workload", choices=[w.name for w in declared.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(declared.RUN_SECONDS))
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
        help="1: traced run, prints the per-layer metrics and writes "
        "out/trace_<workload>.json; 0 (default): end-to-end metrics",
    )
    parser.add_argument("--out", help="append the result as one JSON line to this file")
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes, for the self-test"
    )
    return parser


def _run_every_workload(args: argparse.Namespace) -> int:
    worst = 0
    for workload in declared.WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, str(HARNESS_DIR / "run.py"),
                "--workload", workload.name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            if args.out:
                command += ["--out", args.out]
            if args.smoke:
                command.append("--smoke")
            worst = max(worst, subprocess.run(command).returncode)
    return worst


def _run_one(args: argparse.Namespace) -> int:
    from benchmarks.harness import inputs, workloads

    sizes = inputs.SMOKE if args.smoke else inputs.Sizes()
    import_s = time.perf_counter() - _STARTED
    doc = workloads.execute(
        args.workload, args.seed, args.seconds, bool(args.trace), sizes, import_s
    )
    expected = declared.PER_LAYER if args.trace else declared.END_TO_END
    violations = contract_violations(doc["metrics"], expected)
    _print_report(doc, violations)
    result = {
        "correct": doc["failed"] == 0 and not violations,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {
            m.name: {"value": doc["metrics"][m.name], "unit": m.unit}
            for m in expected
            if m.name in doc["metrics"]
        },
    }
    if args.out:
        with open(args.out, "a") as handle:
            handle.write(json.dumps({**doc, "metrics": result["metrics"]}) + "\n")
    print(json.dumps(result))
    return 1 if violations else 0


def contract_violations(values: Dict[str, Any], expected: List[declared.Metric]) -> List[str]:
    """Every declared metric exactly once, well named, with a finite value."""
    problems = []
    names = [m.name for m in expected]
    for name in names:
        if not NAME_RE.match(name):
            problems.append(f"bad metric name {name!r}")
        value = values.get(name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {name} missing or not finite: {value!r}")
    problems += [f"undeclared metric {name}" for name in values if name not in names]
    return problems


def _print_report(doc: Dict[str, Any], violations: List[str]) -> None:
    print(
        f"workload {doc['workload']}  seed {doc['seed']}  "
        f"{'traced' if doc['trace'] else 'untraced'}  {doc['seconds']:g} s"
    )
    print(f"  sizes: {json.dumps(doc['info'], sort_keys=True)}")
    for name, value in doc["metrics"].items():
        metric = declared.BY_NAME.get(name)
        unit = metric.unit if metric else "?"
        print(f"  {name:44s} {value:16.6g} {unit}")
    share = doc["failed"] / doc["attempted"] if doc["attempted"] else 1.0
    print(f"  ops attempted {doc['attempted']}  failed {doc['failed']}  "
          f"ops_failed_share {share:.6f}")
    for reason in doc["failures"]:
        print(f"  FAILED: {reason}")
    for problem in violations:
        print(f"  CONTRACT: {problem}")
    print("  times are host wall time; model.* are simulated and start after spec.warmup")
    print("  cycle model unvalidated; no error figure (the repo holds no reference "
          "results); surrogate.err_p50_pct is against the exact engine")
