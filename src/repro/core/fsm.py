"""The 6-state counter FSM embedded in every static-bubble router (Fig. 5).

The FSM watches one non-empty VC at a time (round-robin) and drives
deadlock detection and recovery:

* ``S_OFF``: counter off; no VC at a non-local port is occupied.
* ``S_DD`` (deadlock detection): counting up to the configurable
  threshold ``t_dd``; timeout sends a *probe* from the output port the
  watched packet is blocked on.
* ``S_DISABLE``: the probe came back — a dependency cycle exists.  The
  recorded turn path is latched in the Turn Buffer, the threshold becomes
  ``t_dr`` (derived from the path length) and a *disable* is sent to seal
  the cycle.  Timeout (disable dropped en route) falls through to
  ``S_ENABLE`` to undo any partial sealing.
* ``S_SB_ACTIVE``: the disable returned; the static bubble is switched on
  and the counter stops.  The deadlocked ring drains forward one hop.
* ``S_CHECK_PROBE``: the bubble was re-claimed (emptied); a *check_probe*
  retraces the path to see whether the chain still exists.  If it returns,
  back to ``S_SB_ACTIVE``; on timeout, the chain is gone -> ``S_ENABLE``.
* ``S_ENABLE``: an *enable* retraces the path clearing the injection
  restrictions; when it returns (or after retrying on timeout) the FSM
  resumes watching VCs in ``S_DD`` (or ``S_OFF`` if the router is empty).

The FSM is deliberately decoupled from the router: it holds only state,
counter and the latched path, and exposes event methods that return the
action the router must perform.  The Static Bubble protocol
(:mod:`repro.protocols.static_bubble`) wires these actions to the network.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Callable, Optional, Tuple

from repro.core.turns import Port, Turn


class FsmState(Enum):
    S_OFF = auto()
    S_DD = auto()
    S_DISABLE = auto()
    S_SB_ACTIVE = auto()
    S_CHECK_PROBE = auto()
    S_ENABLE = auto()


#: States in which the counter runs (everything with a timeout).  Kept as a
#: module-level frozenset so per-cycle drivers can test membership without
#: a method call.
COUNTING_STATES = frozenset(
    (FsmState.S_DD, FsmState.S_DISABLE, FsmState.S_CHECK_PROBE, FsmState.S_ENABLE)
)


class FsmAction(Enum):
    """Action the router must take in response to an FSM event."""

    NONE = auto()
    SEND_PROBE = auto()
    SEND_DISABLE = auto()
    SEND_CHECK_PROBE = auto()
    SEND_ENABLE = auto()
    ACTIVATE_BUBBLE = auto()
    RECOVERY_DONE = auto()
    ABORT_RECOVERY = auto()


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
    #: Bound on enable retransmissions before the recovery is abandoned
    #: (robustness backstop; enables are normally forwarded unconditionally
    #: so losses are rare collisions).
    max_enable_retries: int = 16
    enable_retries: int = 0
    #: Statistics visible to the experiments.
    probes_sent: int = 0
    recoveries_completed: int = 0
    recoveries_aborted: int = 0
    #: Observability hook: called as ``trace(fsm, old_state, new_state)``
    #: on every state transition (installed by ``Network.attach_obs``).
    trace: Optional[Callable[["CounterFsm", FsmState, FsmState], None]] = field(
        default=None, repr=False, compare=False
    )
    #: The owning scheme's set of nodes whose FSM is not in ``S_OFF`` —
    #: its per-cycle work list — kept current by :meth:`transition`.
    awake: Optional[set] = field(default=None, repr=False, compare=False)

    # -- counter -----------------------------------------------------------

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

    def _restart(self, threshold: Optional[int] = None) -> None:
        self.count = 0
        if threshold is not None:
            self.threshold = threshold

    def counting(self) -> bool:
        return self.state in COUNTING_STATES

    def tick(self) -> FsmAction:
        """Advance the counter one cycle; return the timeout action if any."""
        if self.state not in COUNTING_STATES:
            return FsmAction.NONE
        self.count += 1
        if self.count < self.threshold:
            return FsmAction.NONE
        return self._on_timeout()

    def _on_timeout(self) -> FsmAction:
        if self.state == FsmState.S_DD:
            self._restart()
            self.probes_sent += 1
            return FsmAction.SEND_PROBE
        if self.state == FsmState.S_DISABLE:
            # Disable was dropped midway; undo partial injection restrictions.
            self.transition(FsmState.S_ENABLE)
            self.enable_retries = 0
            self._restart()
            return FsmAction.SEND_ENABLE
        if self.state == FsmState.S_CHECK_PROBE:
            # Chain no longer exists; clear restrictions along the path.
            self.transition(FsmState.S_ENABLE)
            self.enable_retries = 0
            self._restart()
            return FsmAction.SEND_ENABLE
        if self.state == FsmState.S_ENABLE:
            # Enable lost to a collision somewhere; retransmit (bounded).
            self.enable_retries += 1
            if self.enable_retries > self.max_enable_retries:
                return FsmAction.ABORT_RECOVERY
            self._restart()
            return FsmAction.SEND_ENABLE
        return FsmAction.NONE

    # -- VC watching -------------------------------------------------------

    def on_first_flit(self) -> None:
        """A flit arrived while the router was idle: S_OFF -> S_DD."""
        if self.state == FsmState.S_OFF:
            self.transition(FsmState.S_DD)
            self._restart(self.t_dd)

    def on_watched_vc_progress(self, any_vc_active: bool) -> None:
        """The watched VC drained (or emptied); move on or switch off.

        Only meaningful in ``S_DD``; during recovery the FSM ignores
        ordinary traffic movement.
        """
        if self.state != FsmState.S_DD:
            return
        if any_vc_active:
            self._restart(self.t_dd)
        else:
            self.transition(FsmState.S_OFF)
            self.count = 0

    # -- protocol events ---------------------------------------------------

    def on_probe_returned(
        self, turns: Tuple[Turn, ...], in_port: Port, out_port: Port
    ) -> FsmAction:
        """Own probe came back: latch path, go seal the cycle."""
        if self.state != FsmState.S_DD:
            # Late copy of a probe (e.g. a second cycle through this node
            # while a recovery is already in flight): drop, Section IV-B.
            return FsmAction.NONE
        self.turn_buffer = tuple(turns)
        self.probe_in_port = in_port
        self.probe_out_port = out_port
        self.transition(FsmState.S_DISABLE)
        self._restart(recovery_threshold(len(turns)))
        return FsmAction.SEND_DISABLE

    def on_disable_returned(self) -> FsmAction:
        if self.state != FsmState.S_DISABLE:
            return FsmAction.NONE
        self.transition(FsmState.S_SB_ACTIVE)
        self.count = 0
        return FsmAction.ACTIVATE_BUBBLE

    def on_bubble_reclaimed(self) -> FsmAction:
        if self.state != FsmState.S_SB_ACTIVE:
            return FsmAction.NONE
        self.transition(FsmState.S_CHECK_PROBE)
        self._restart(recovery_threshold(len(self.turn_buffer)))
        return FsmAction.SEND_CHECK_PROBE

    def on_bubble_stuck(self) -> FsmAction:
        """The claimed bubble's resident has not moved for the bubble
        timeout: it is wedged in a *different* dependency cycle (deadlock
        web), so this chain's hole will never circulate back.  Give the
        chain up the same way a failed check_probe does — replay an enable
        to tear the seals down, then resume detection on the web as it now
        is."""
        if self.state != FsmState.S_SB_ACTIVE:
            return FsmAction.NONE
        self.transition(FsmState.S_ENABLE)
        self.enable_retries = 0
        self._restart(recovery_threshold(len(self.turn_buffer)))
        return FsmAction.SEND_ENABLE

    def on_check_probe_returned(self) -> FsmAction:
        if self.state != FsmState.S_CHECK_PROBE:
            return FsmAction.NONE
        self.transition(FsmState.S_SB_ACTIVE)
        self.count = 0
        return FsmAction.ACTIVATE_BUBBLE

    def on_enable_returned(self, any_vc_active: bool) -> FsmAction:
        if self.state != FsmState.S_ENABLE:
            return FsmAction.NONE
        self._finish_recovery(any_vc_active)
        self.recoveries_completed += 1
        return FsmAction.RECOVERY_DONE

    def abort_recovery(self, any_vc_active: bool) -> None:
        """Give up on a recovery whose enable keeps getting lost."""
        self._finish_recovery(any_vc_active)
        self.recoveries_aborted += 1

    def reset(self, any_vc_active: bool) -> None:
        """Administrative reset (live reconfiguration).

        Used when a topology change invalidates a latched path — the
        traced chain no longer exists as wiring, so the protocol cannot
        run its normal enable teardown over it.  Unlike
        :meth:`abort_recovery` this counts neither a completed nor an
        aborted recovery: the recovery was cancelled from outside the
        protocol, not resolved by it.
        """
        self._finish_recovery(any_vc_active)

    def _finish_recovery(self, any_vc_active: bool) -> None:
        self.turn_buffer = ()
        self.probe_in_port = None
        self.probe_out_port = None
        self.enable_retries = 0
        if any_vc_active:
            self.transition(FsmState.S_DD)
            self._restart(self.t_dd)
        else:
            self.transition(FsmState.S_OFF)
            self.count = 0

    def on_foreign_disable(self) -> None:
        """Received a disable from a higher-id static bubble (Section IV-B).

        This router is now an ordinary member of someone else's sealed
        chain: the counter goes to ``S_OFF`` until the matching enable
        arrives.
        """
        if self.state == FsmState.S_DD:
            self.transition(FsmState.S_OFF)
            self.count = 0

    def on_foreign_enable(self, any_vc_active: bool) -> None:
        """The matching foreign enable arrived; resume watching VCs."""
        if self.state == FsmState.S_OFF and any_vc_active:
            self.transition(FsmState.S_DD)
            self._restart(self.t_dd)

    def in_recovery(self) -> bool:
        """True while this FSM owns an in-flight recovery operation."""
        return self.state in (
            FsmState.S_DISABLE,
            FsmState.S_SB_ACTIVE,
            FsmState.S_CHECK_PROBE,
            FsmState.S_ENABLE,
        )
