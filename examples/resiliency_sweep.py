#!/usr/bin/env python3
"""Lifetime-resiliency scenario: accumulating link failures.

Simulates a chip aging over its lifetime: links fail one batch at a
time, and after every failure the network is reconfigured.  At each
stage we measure low-load latency and saturation throughput for all
three schemes — the in-miniature version of the paper's Figs. 8 and 9.

Run:  python examples/resiliency_sweep.py
"""

import random

from repro import (
    Network,
    SimConfig,
    UniformRandomTraffic,
    make_scheme,
    mesh,
    run_with_window,
)
from repro.utils.reporting import format_table

SCHEMES = ("spanning-tree", "escape-vc", "static-bubble")


def accepted(topo, config, name, rate, seed, warmup, measure):
    """Accepted throughput (flits/node/cycle) of one offered load."""
    traffic = UniformRandomTraffic(topo, rate=rate, seed=seed)
    net = Network(topo, config, make_scheme(name), traffic, seed=seed)
    return run_with_window(net, warmup, measure).throughput_flits_node_cycle


def main() -> None:
    config = SimConfig()
    rng = random.Random(11)
    topo = mesh(8, 8)

    rows = []
    failed = 0
    for batch in (0, 4, 8, 12):
        # age the chip: fail `batch` more random links
        candidates = [l for l in topo.all_links() if topo.link_is_active(*tuple(l))]
        for link in rng.sample(candidates, batch):
            topo.deactivate_link(*tuple(link))
        failed += batch

        for name in SCHEMES:
            traffic = UniformRandomTraffic(topo, rate=0.02, seed=failed + 1)
            net = Network(topo, config, make_scheme(name), traffic, seed=failed + 1)
            low = run_with_window(net, warmup=300, measure=900)
            # Saturation throughput: the peak over an offered-load sweep.
            sat = max(
                accepted(topo, config, name, rate, failed + 1, 300, 600)
                for rate in (0.1, 0.2, 0.3)
            )
            rows.append(
                [failed, name, low.avg_latency, sat]
            )

    print(
        format_table(
            ["failed links", "scheme", "low-load latency", "saturation thr"],
            rows,
            title="Lifetime link-failure sweep on an 8x8 mesh",
        )
    )
    print(
        "\nAs failures accumulate, the spanning tree's detours hurt more\n"
        "while the recovery schemes keep minimal routes; Static Bubble\n"
        "needs no tree at all and no reserved escape VC."
    )


if __name__ == "__main__":
    main()
