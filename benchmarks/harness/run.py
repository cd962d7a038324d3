#!/usr/bin/env python3
"""Entry point named by ``BENCHMARK.json``: runs from any working directory."""

import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
# Run as a script, sys.path[0] is this directory: its module names
# (``compare``, ``metrics``...) would be importable top-level and could
# shadow installed packages.  Import through the package instead.
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != _HERE]
sys.path.insert(0, str(_HERE.parents[1]))

from benchmarks.harness.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
