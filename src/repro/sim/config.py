"""Simulation configuration (the paper's Table II, as a dataclass).

Defaults follow the paper where a choice matters for the reproduced
trends (8x8 mesh, 4 VCs/vnet/port, 1-cycle router + 1-cycle link,
128-bit flits, 1-flit control / 5-flit data packets, ``t_DD = 34``).
``vnets`` defaults to 1 rather than the paper's 3: the paper's vnets
separate coherence message classes, which are orthogonal to the
deadlock phenomena reproduced here, and a single vnet keeps the pure
Python simulator fast; every experiment can override it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class SimConfig:
    """Network and protocol parameters for one simulation."""

    width: int = 8
    height: int = 8
    #: Virtual networks (message classes) and VCs per vnet per input port.
    vnets: int = 1
    vcs_per_vnet: int = 4
    #: Packet sizes in flits (mixed traffic uses both).
    data_packet_flits: int = 5
    ctrl_packet_flits: int = 1
    #: Deadlock-detection threshold of the Static Bubble FSM (Table II).
    sb_t_dd: int = 34
    #: Robustness extensions (DESIGN.md §4): give up waiting for an
    #: unclaimed bubble after this many cycles in S_SB_ACTIVE; garbage-
    #: collect a stale IO restriction whose chain has dissolved and whose
    #: enable never arrived after this many cycles; abort a recovery whose
    #: enable keeps getting lost after this many retransmissions.
    sb_bubble_timeout: int = 128
    sb_seal_timeout: int = 256
    sb_enable_retries: int = 16
    #: Stall threshold after which the escape-VC baseline diverts a packet
    #: into the escape layer.  Unlike Static Bubble's t_DD (whose probe
    #: *verifies* a deadlock before acting, so false positives are free),
    #: a timer-based diversion is irrevocable — real designs set it well
    #: above worst-case congestion stalls.
    escape_t_detect: int = 128
    #: Maximum minimal routes stored per (src, dst) pair at the NI.
    max_minimal_routes: int = 4
    #: Per-node injection queue bound; 0 means unbounded.  A bounded queue
    #: models finite NI buffering; experiments that measure accepted
    #: throughput at saturation keep it bounded so offered load backs up.
    injection_queue_cap: int = 64

    def vcs_per_port(self) -> int:
        return self.vnets * self.vcs_per_vnet

    def validate(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("mesh dimensions must be positive")
        if self.vnets < 1 or self.vcs_per_vnet < 1:
            raise ValueError("need at least one VC per vnet")
        if self.data_packet_flits < 1 or self.ctrl_packet_flits < 1:
            raise ValueError("packet sizes must be >= 1 flit")
        if self.sb_t_dd < 1:
            raise ValueError("t_DD must be >= 1")
