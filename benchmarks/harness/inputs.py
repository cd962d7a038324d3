"""Seeded input generation: the program only ever sees these ``SimSpec``s.

Every fault seed, traffic seed, submission order and request mix is a
pure function of ``--seed``; ``SimSpec.seed`` drives both the fault
placement and the traffic stream, so one derived integer per topology
fixes both.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import List, Tuple

from repro.service.spec import SimSpec

CAMPAIGN_SCHEMES = ("static-bubble", "escape-vc", "spanning-tree")
CAMPAIGN_RATES = (0.02, 0.04, 0.06, 0.08)
#: Cells per campaign block: one topology x schemes x rates, so the
#: worker's routing-table cache serves 10 of 12 cells (minimal tables are
#: shared by static-bubble and escape-vc; spanning-tree builds up*/down*).
#: A cold build delays its own cell and the one queued behind it: a
#: third of the block, so the median job latency sits well inside the
#: warm cells and the tail inside the cold ones.
BLOCK = len(CAMPAIGN_SCHEMES) * len(CAMPAIGN_RATES)

SERVE_SCHEMES = ("static-bubble", "escape-vc")
SERVE_STORED_RATES = (0.02, 0.05, 0.08)
#: Rates asked of the surrogate lane: never in the store.
SERVE_SURROGATE_RATES = (0.03, 0.04, 0.06, 0.07)
#: Request mix: memo resubmit / result read / surrogate answer.
SERVE_MIX = (("memo", 0.5), ("read", 0.3), ("surrogate", 0.2))


@dataclass(frozen=True)
class Sizes:
    """Workload sizes; ``smoke`` shrinks every one for the self-test."""

    sim_topologies: int = 8
    #: (warmup, measure): short enough that every topology is run several
    #: times, so a per-topology median shrugs off a noisy-neighbour burst.
    sat_cycles: Tuple[int, int] = (500, 500)
    lowload_cycles: Tuple[int, int] = (500, 7000)
    cell_cycles: Tuple[int, int] = (150, 400)
    #: Side of the faulted meshes of the two service workloads.
    mesh_side: int = 8
    nonmesh_kinds: Tuple[str, ...] = (
        "torus3d:4x4x4", "circulant:64,1,8", "mesh3d:4x4x4",
    )
    serve_support_topologies: int = 4
    serve_heldout_topologies: int = 2
    store_preload_blobs: int = 4096


SMOKE = Sizes(
    sim_topologies=2,
    sat_cycles=(50, 100),
    lowload_cycles=(50, 300),
    cell_cycles=(20, 60),
    mesh_side=5,
    nonmesh_kinds=("torus3d:3x3x3", "circulant:27,1,5", "mesh3d:3x3x3"),
    serve_support_topologies=2,
    serve_heldout_topologies=1,
    store_preload_blobs=64,
)


def rng_for(seed: int, label: str) -> random.Random:
    """An independent stream per purpose (string seeding is stable)."""
    return random.Random(f"harness:{seed}:{label}")


def _spec_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def sim_specs(seed: int, workload: str, sizes: Sizes) -> List[SimSpec]:
    """The faulted 8x8 static-bubble specs of ``sim-sat`` / ``sim-lowload``."""
    rate, (warmup, measure) = {
        "sim-sat": (0.30, sizes.sat_cycles),
        "sim-lowload": (0.02, sizes.lowload_cycles),
    }[workload]
    rng = rng_for(seed, workload)
    return [
        SimSpec(
            link_faults=8,
            scheme="static-bubble",
            pattern="uniform_random",
            rate=rate,
            warmup=warmup,
            measure=measure,
            seed=_spec_seed(rng),
        )
        for _ in range(sizes.sim_topologies)
    ]


def campaign_cell(seed: int, index: int, sizes: Sizes) -> SimSpec:
    """Cell ``index`` of the endless campaign stream.

    The stream is a sequence of blocks; every block is one fresh faulted
    topology (two 8x8 meshes with 4 and 8 link faults, then one non-mesh
    generator with 4, repeating) times schemes x rates in seeded order.
    Every cell is distinct, and a run that gets further sees the same
    mix of cold and warm-table cells as one that stops early.
    """
    block, slot = divmod(index, BLOCK)
    rng = rng_for(seed, f"campaign-block-{block}")
    spec_seed = _spec_seed(rng)
    combos = [(s, r) for s in CAMPAIGN_SCHEMES for r in CAMPAIGN_RATES]
    rng.shuffle(combos)
    scheme, rate = combos[slot]
    kind = block % 3
    kinds = sizes.nonmesh_kinds
    topology = kinds[(block // 3) % len(kinds)] if kind == 2 else None
    warmup, measure = sizes.cell_cycles
    return SimSpec(
        width=sizes.mesh_side,
        height=sizes.mesh_side,
        topology=topology,
        link_faults=8 if kind == 1 else 4,
        scheme=scheme,
        rate=rate,
        warmup=warmup,
        measure=measure,
        seed=spec_seed,
    )


def serve_cells(seed: int, sizes: Sizes) -> Tuple[List[SimSpec], List[SimSpec]]:
    """``(support, heldout)`` exact cells of ``serve-warm-mix``.

    Whole topologies are held out, so the surrogate is scored on fault
    patterns it never calibrated on.
    """
    rng = rng_for(seed, "serve-preload")
    warmup, measure = sizes.cell_cycles
    groups: List[List[SimSpec]] = []
    for topo in range(sizes.serve_support_topologies + sizes.serve_heldout_topologies):
        spec_seed = _spec_seed(rng)
        groups.append(
            [
                SimSpec(
                    width=sizes.mesh_side,
                    height=sizes.mesh_side,
                    link_faults=4 if topo % 2 == 0 else 8,
                    scheme=scheme,
                    rate=rate,
                    warmup=warmup,
                    measure=measure,
                    seed=spec_seed,
                )
                for scheme in SERVE_SCHEMES
                for rate in SERVE_STORED_RATES
            ]
        )
    cut = sizes.serve_support_topologies
    return (
        [spec for group in groups[:cut] for spec in group],
        [spec for group in groups[cut:] for spec in group],
    )


def serve_request(rng: random.Random, support: List[SimSpec]) -> Tuple[str, SimSpec]:
    """Draw one ``(lane, spec)`` of the warm request mix."""
    draw = rng.random()
    spec = rng.choice(support)
    for lane, share in SERVE_MIX:
        if draw < share:
            break
        draw -= share
    if lane == "surrogate":
        spec = replace(spec, rate=rng.choice(SERVE_SURROGATE_RATES), mode="surrogate")
    return lane, spec
