"""Experiment harnesses — one module per figure/table in the evaluation.

Each module exposes ``Params.quick()`` / ``Params.full()``, ``run`` and
``report``; the benchmarks under ``benchmarks/`` drive the quick
configurations and print the same rows the paper's figures show.  A
figure's ``run`` declares its sweep as ``(key, args)`` cells and reduces
the per-key outcome lists that :func:`repro.experiments.common.sweep_cells`
returns.
"""

from repro.experiments import (
    chaos,
    fig2_deadlock_prone,
    fig3_heatmap,
    fig8_latency,
    fig9_throughput,
    fig10_energy,
    fig11_tdd_sweep,
    fig12_rodinia,
    fig13_parsec,
    table1_cost,
    topo_sweep,
)

ALL_EXPERIMENTS = {
    "fig2": fig2_deadlock_prone,
    "fig3": fig3_heatmap,
    "fig8": fig8_latency,
    "fig9": fig9_throughput,
    "fig10": fig10_energy,
    "fig11": fig11_tdd_sweep,
    "fig12": fig12_rodinia,
    "fig13": fig13_parsec,
    "table1": table1_cost,
    "topo": topo_sweep,
    "chaos": chaos,
}

__all__ = [
    "ALL_EXPERIMENTS",
    "chaos",
    "fig2_deadlock_prone",
    "fig3_heatmap",
    "fig8_latency",
    "fig9_throughput",
    "fig10_energy",
    "fig11_tdd_sweep",
    "fig12_rodinia",
    "fig13_parsec",
    "table1_cost",
    "topo_sweep",
]
