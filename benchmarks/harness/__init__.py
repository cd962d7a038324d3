"""Measurement spine: four named workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repository root names this package as the
repo's benchmark.  One run measures one workload::

    python3 benchmarks/harness/run.py --workload sim-sat --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``metrics.py`` and ``README.md``).  The harness only ever calls
public functions of ``repro``; nothing under ``src/`` knows it exists.
"""

from pathlib import Path

HARNESS_DIR = Path(__file__).resolve().parent
ROOT = HARNESS_DIR.parents[1]
SRC = ROOT / "src"
#: Traces and temp stores: inside the checkout, git-ignored.
OUT_DIR = HARNESS_DIR / "out"
