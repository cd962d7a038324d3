"""The counter FSM of a static-bubble router (Fig. 5), as one table.

``TRANSITIONS`` is the whole protocol: each row maps ``(state, event,
guard)`` to ``(next state, counter rule, effect, source)``.
:meth:`repro.protocols.static_bubble.StaticBubbleScheme._fire` is its only
interpreter; a row's guard and effect name methods of that scheme, and its
source is ``paper`` or the DESIGN.md §4 deviation it implements.
:class:`CounterFsm` holds only the data the rows read and write.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, IntEnum, auto
from typing import Callable, NamedTuple, Optional, Tuple, Union

from repro.core.turns import Port, Turn


class FsmState(Enum):
    S_OFF = auto()
    S_DD = auto()
    S_DISABLE = auto()
    S_SB_ACTIVE = auto()
    S_CHECK_PROBE = auto()
    S_ENABLE = auto()


class FsmEvent(IntEnum):
    TIMEOUT = auto()  # the counter reached its threshold
    FIRST_FLIT = auto()  # a packet is resident at an idle router
    WATCH_MOVED = auto()  # the watched VC drained; another one is occupied
    WATCH_EMPTIED = auto()  # the watched VC drained; every compass VC is empty
    PROBE_BACK = auto()  # this router's own probe returned
    DISABLE_BACK = auto()
    CHECK_PROBE_BACK = auto()
    ENABLE_BACK = auto()
    LOWER_PROBE = auto()  # a lower-id sender's probe arrived
    FOREIGN_DISABLE = auto()  # a foreign disable sealed this router
    FOREIGN_ENABLE = auto()  # a foreign enable cleared this router's seal
    RECLAIMED = auto()  # the active bubble's resident drained
    UNCLAIMED = auto()  # the active bubble's chain dissolved or never claimed it
    STUCK = auto()  # the bubble's resident has not drained for sb_bubble_timeout
    RESET = auto()  # a live topology change broke the latched chain


#: States in which this router owns an in-flight recovery.
RECOVERY_STATES = (
    FsmState.S_DISABLE,
    FsmState.S_SB_ACTIVE,
    FsmState.S_CHECK_PROBE,
    FsmState.S_ENABLE,
)


class Row(NamedTuple):
    state: Union[FsmState, Tuple[FsmState, ...]]
    event: FsmEvent
    #: Scheme predicate; the first row of a ``(state, event)`` whose guard
    #: holds (``None``: always) is taken.
    guard: Optional[str]
    next: FsmState
    #: ``None`` (untouched), ``"zero"`` (count = 0), ``"t_dd"`` / ``"t_dr"``
    #: (count = 0 under that threshold) or ``"retry"`` (count = 0, one
    #: more enable retransmission).  Applied after the effect.
    counter: Optional[str]
    #: Scheme method run after the state change.
    effect: Optional[str]
    source: str


_S = FsmState
_E = FsmEvent

TRANSITIONS: Tuple[Row, ...] = (
    # -- detection ----------------------------------------------------------
    Row(_S.S_OFF,         _E.FIRST_FLIT,       None,           _S.S_DD,          "t_dd",  None,             "paper"),
    Row(_S.S_DD,          _E.WATCH_MOVED,      None,           _S.S_DD,          "t_dd",  None,             "paper"),
    Row(_S.S_DD,          _E.WATCH_EMPTIED,    None,           _S.S_OFF,         "zero",  None,             "paper"),
    Row(_S.S_DD,          _E.TIMEOUT,          None,           _S.S_DD,          "zero",  "send_probe",     "deviation 1"),
    Row(_S.S_DD,          _E.LOWER_PROBE,      None,           _S.S_DD,          None,    "drop_id_race",   "deviation 9"),
    Row(_S.S_DD,          _E.FOREIGN_DISABLE,  None,           _S.S_OFF,         "zero",  None,             "paper"),
    Row(_S.S_OFF,         _E.FOREIGN_ENABLE,   "active",       _S.S_DD,          "t_dd",  None,             "paper"),
    # -- recovery -----------------------------------------------------------
    Row(_S.S_DD,          _E.PROBE_BACK,       None,           _S.S_DISABLE,     "t_dr",  "latch",          "deviation 2"),
    Row(_S.S_DISABLE,     _E.DISABLE_BACK,     "closed",       _S.S_SB_ACTIVE,   "zero",  "activate",       "deviation 3"),
    Row(_S.S_DISABLE,     _E.DISABLE_BACK,     None,           _S.S_DISABLE,     None,    "drop_unclosed",  "deviation 3"),
    Row(_S.S_DISABLE,     _E.TIMEOUT,          None,           _S.S_ENABLE,      "zero",  "send_path",      "paper"),
    Row(_S.S_SB_ACTIVE,   _E.RECLAIMED,        None,           _S.S_CHECK_PROBE, "t_dr",  "release_bubble", "paper"),
    Row(_S.S_SB_ACTIVE,   _E.UNCLAIMED,        None,           _S.S_CHECK_PROBE, "t_dr",  "release_bubble", "deviation 7"),
    Row(_S.S_SB_ACTIVE,   _E.STUCK,            None,           _S.S_ENABLE,      "t_dr",  "send_path",      "deviation 11"),
    Row(_S.S_CHECK_PROBE, _E.CHECK_PROBE_BACK, None,           _S.S_SB_ACTIVE,   "zero",  "activate",       "paper"),
    Row(_S.S_CHECK_PROBE, _E.TIMEOUT,          None,           _S.S_ENABLE,      "zero",  "send_path",      "paper"),
    Row(_S.S_ENABLE,      _E.TIMEOUT,          "retries_left", _S.S_ENABLE,      "retry", "send_path",      "paper"),
    Row(_S.S_ENABLE,      _E.TIMEOUT,          "active",       _S.S_DD,          "t_dd",  "abort",          "deviation 7"),
    Row(_S.S_ENABLE,      _E.TIMEOUT,          None,           _S.S_OFF,         "zero",  "abort",          "deviation 7"),
    Row(_S.S_ENABLE,      _E.ENABLE_BACK,      "active",       _S.S_DD,          "t_dd",  "finish",         "paper"),
    Row(_S.S_ENABLE,      _E.ENABLE_BACK,      None,           _S.S_OFF,         "zero",  "finish",         "paper"),
    Row(RECOVERY_STATES,  _E.RESET,            "active",       _S.S_DD,          "t_dd",  "reset",          "deviation 13"),
    Row(RECOVERY_STATES,  _E.RESET,            None,           _S.S_OFF,         "zero",  "reset",          "deviation 13"),
)


def recovery_threshold(path_length: int) -> int:
    """``t_dr`` for a latched path of ``path_length`` turns.

    The loop has ``path_length + 1`` routers; each special-message hop
    costs 1 cycle of processing + 1 cycle of link traversal, so a full
    loop takes ``2 * (path_length + 1)`` cycles.  We add two cycles of
    slack so a message arriving exactly at the deadline is not raced by
    the timeout (the paper states "2x path length"; the constant offset
    does not change behaviour, only the precise retry cadence).
    """
    return 2 * (path_length + 1) + 2


@dataclass
class CounterFsm:
    """State + counter + turn buffer of one static-bubble router."""

    node: int
    t_dd: int
    state: FsmState = FsmState.S_OFF
    count: int = 0
    threshold: int = 0
    #: Latched probe path (Turn Buffer) and the ports of the local hop.
    turn_buffer: Tuple[Turn, ...] = ()
    probe_out_port: Optional[Port] = None
    probe_in_port: Optional[Port] = None
    #: Enable retransmissions so far; non-zero only in ``S_ENABLE``.
    enable_retries: int = 0
    #: Detection periods that expired (each one tries to send a probe).
    probes_sent: int = 0
    #: Observability hook: called as ``trace(fsm, old_state, new_state)``
    #: on every state transition (installed by ``Network.attach_obs``).
    trace: Optional[Callable[["CounterFsm", FsmState, FsmState], None]] = field(
        default=None, repr=False, compare=False
    )
    #: The owning scheme's set of nodes whose FSM is not in ``S_OFF`` —
    #: its per-cycle work list — kept current by :meth:`transition`.
    awake: Optional[set] = field(default=None, repr=False, compare=False)

    def transition(self, new_state: FsmState) -> None:
        """Move to ``new_state``, notifying the trace hook if installed."""
        old = self.state
        self.state = new_state
        if self.awake is not None:
            if new_state is FsmState.S_OFF:
                self.awake.discard(self.node)
            else:
                self.awake.add(self.node)
        if self.trace is not None and old is not new_state:
            self.trace(self, old, new_state)

    def in_recovery(self) -> bool:
        """True while this FSM owns an in-flight recovery operation."""
        return self.state in RECOVERY_STATES
