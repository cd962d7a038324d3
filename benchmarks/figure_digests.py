#!/usr/bin/env python
"""Print the sha256 of every experiment's ``--json`` output.

One line per experiment: ``<name> <sha256>``, for each of the eleven
``repro experiment`` names at quick params, plus ``fig2-sim`` (fig2's
quick params with ``method="sim"``, which the CLI does not expose).  A
refactor that must not move any figure number is checked by running
this on both trees and diffing the two outputs.

Usage::

    python benchmarks/figure_digests.py            # all twelve
    python benchmarks/figure_digests.py fig3 chaos # just these

Each experiment runs in a fresh ``python`` process against the ``src/``
beside this script, with the environment as given (so ``REPRO_WORKERS``
applies); ``REPRO_CACHE`` and ``REPRO_OBS`` are removed so every cell
is simulated.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: The CLI's ``experiment --json`` document, for fig2's sim method.
_FIG2_SIM = """
import dataclasses, json
from repro.experiments import fig2_deadlock_prone as fig2
from repro.utils.serialize import to_jsonable
params = dataclasses.replace(fig2.Fig2Params.quick(), method="sim")
result = fig2.run(params)
print(json.dumps({"experiment": "fig2", "params": to_jsonable(params),
                  "result": to_jsonable(result)}, indent=2, sort_keys=True))
"""


def _names():
    sys.path.insert(0, str(SRC))
    from repro.experiments import ALL_EXPERIMENTS

    return list(ALL_EXPERIMENTS) + ["fig2-sim"]


def digest(name: str) -> str:
    """sha256 of one experiment's JSON document, run in a fresh process."""
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in ("REPRO_CACHE", "REPRO_OBS")
    }
    env["PYTHONPATH"] = str(SRC)
    if name == "fig2-sim":
        argv = [sys.executable, "-c", _FIG2_SIM]
    else:
        argv = [sys.executable, "-m", "repro", "experiment", name, "--json"]
    out = subprocess.run(argv, env=env, capture_output=True, check=True).stdout
    return hashlib.sha256(out).hexdigest()


def main(argv) -> int:
    for name in argv or _names():
        print(name, digest(name), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
