"""The paper's primary contribution: placement algorithm + recovery FSM."""

from repro.core.placement import (
    bubble_count,
    covers_cycle,
    has_static_bubble,
    placement,
    placement_map,
    placement_node_ids,
)
from repro.core.turns import (
    DELTA,
    DIRECTIONS,
    PROBE_TURN_CAPACITY,
    Port,
    Turn,
    apply_turn,
    opposite,
    turn_between,
)
from repro.core.messages import MsgType, SpecialMessage, make_path_message, make_probe
from repro.core.fsm import CounterFsm, FsmState, recovery_threshold

__all__ = [
    "bubble_count",
    "covers_cycle",
    "has_static_bubble",
    "placement",
    "placement_map",
    "placement_node_ids",
    "DELTA",
    "DIRECTIONS",
    "PROBE_TURN_CAPACITY",
    "Port",
    "Turn",
    "apply_turn",
    "opposite",
    "turn_between",
    "MsgType",
    "SpecialMessage",
    "make_path_message",
    "make_probe",
    "CounterFsm",
    "FsmState",
    "recovery_threshold",
]
