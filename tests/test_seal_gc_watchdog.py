"""Branch coverage for the Static Bubble robustness machinery.

Targets the two on-cycle sweeps that only fire on rare protocol paths:

* ``_collect_stale_seals`` — orphaned IO-seal garbage collection
  (keep-alive refresh while the chain still flows vs. expiry once it
  dissolved, and the owner-in-recovery exclusion);
* ``_sb_active_watchdog`` — an active-but-unclaimed bubble whose chain
  dissolved (freed VC at the chain input port) or that nobody claimed
  within ``sb_bubble_timeout``.
"""

from __future__ import annotations

from repro.core.fsm import FsmState
from repro.core.turns import Port, Turn
from repro.obs import Observer
from repro.obs.events import SEAL_EXPIRE, SEAL_REFRESH
from repro.verify.model import clone_network

from tests.conftest import build_2x2_ring_deadlock

E, N, W, S, L = Port.EAST, Port.NORTH, Port.WEST, Port.SOUTH, Port.LOCAL

#: A detection threshold so large the node-3 FSM never interferes.
FROZEN = 10**9


def _events(obs, kind):
    return [e for e in obs.events if e.kind == kind]


class TestCollectStaleSeals:
    def test_orphaned_seal_expires(self):
        """A seal nobody refreshes and no VC flows through is collected."""
        net, scheme = build_2x2_ring_deadlock(t_dd=FROZEN)
        net.config.sb_seal_timeout = 8
        obs = Observer(metrics=False)
        net.attach_obs(obs)
        router = net.routers[0]
        # Node 0's only resident (pid 103) sits at N wanting E; seal the
        # *other* direction so no VC ever wants the sealed output.
        router.set_io_restriction(E, N, source=3, now=net.cycle)
        for _ in range(net.config.sb_seal_timeout + 2):
            net.step()
        assert not router.is_deadlock
        expired = _events(obs, SEAL_EXPIRE)
        assert len(expired) == 1
        assert expired[0].node == 0
        assert expired[0].data["age"] >= net.config.sb_seal_timeout

    def test_flowing_chain_refreshes_keepalive(self):
        """While a VC still wants the sealed turn, the seal is re-armed."""
        net, scheme = build_2x2_ring_deadlock(t_dd=FROZEN)
        net.config.sb_seal_timeout = 8
        obs = Observer(metrics=False)
        net.attach_obs(obs)
        router = net.routers[1]
        # Node 1's resident (pid 100) is parked at W wanting N forever
        # (the ring is a true deadlock and the FSM is frozen).
        router.set_io_restriction(W, N, source=3, now=net.cycle)
        for _ in range(3 * net.config.sb_seal_timeout):
            net.step()
        assert router.is_deadlock  # still sealed
        assert len(_events(obs, SEAL_REFRESH)) >= 2
        assert not _events(obs, SEAL_EXPIRE)

    def test_owner_in_recovery_is_exempt(self):
        """The recovery-owning FSM manages its own seal; GC must not."""
        net, scheme = build_2x2_ring_deadlock(t_dd=FROZEN)
        net.config.sb_seal_timeout = 8
        router = net.routers[3]
        fsm = scheme.states[3].fsm
        fsm.transition(FsmState.S_DISABLE)
        fsm.threshold = FROZEN  # hold the FSM in-recovery indefinitely
        # Seal a turn nothing flows through: without the exemption this
        # would expire like in test_orphaned_seal_expires.
        router.set_io_restriction(W, S, source=3, now=net.cycle)
        for _ in range(3 * net.config.sb_seal_timeout):
            net.step()
        assert router.is_deadlock

    def test_seal_on_a_clone_stays_in_the_clone(self):
        """A deep copy seals into its own scheme's set, and collects it."""
        net, scheme = build_2x2_ring_deadlock(t_dd=FROZEN)
        net.config.sb_seal_timeout = 8
        clone = clone_network(net)
        router = clone.routers[0]
        router.set_io_restriction(E, N, source=3, now=clone.cycle)
        assert clone.scheme._sealed == {0}
        assert scheme._sealed == set()
        for _ in range(clone.config.sb_seal_timeout + 2):
            clone.step()
        assert not router.is_deadlock and clone.scheme._sealed == set()


def _arm_sb_active(net, scheme, in_port):
    """Drive node 3's FSM to S_SB_ACTIVE with its (unclaimed) bubble on."""
    state = scheme.states[3]
    fsm = state.fsm
    fsm.turn_buffer = (Turn.LEFT, Turn.LEFT, Turn.LEFT)
    fsm.probe_in_port = in_port
    # Node 3 sits at the (1,1) corner of the 2x2 mesh: W and S are its
    # only links, so route the retrace out of whichever is not the chain
    # input.
    fsm.probe_out_port = S if in_port == W else W
    fsm.transition(FsmState.S_SB_ACTIVE)
    fsm.count = 0
    net.routers[3].activate_bubble(in_port)
    state.bubble_active_since = net.cycle
    return state


class TestSbActiveWatchdog:
    def test_dissolved_chain_reclaims_bubble(self):
        """A free VC at the chain's input port means the chain gained
        space on its own: the bubble is reclaimed and a check_probe
        (or the enable fallback) takes over."""
        net, scheme = build_2x2_ring_deadlock(t_dd=FROZEN)
        # Chain input W: node 3's W-port VCs are empty (its resident sits
        # at S), so the "chain" dissolved before ever claiming the bubble.
        _arm_sb_active(net, scheme, in_port=W)
        net.step()
        fsm = scheme.states[3].fsm
        assert fsm.state == FsmState.S_CHECK_PROBE
        assert not net.routers[3].bubble_active
        assert net.stats.check_probes_sent == 1

    def test_unclaimed_bubble_times_out(self):
        """Chain port full but nothing claims the bubble: after
        ``sb_bubble_timeout`` the watchdog reclaims it regardless."""
        net, scheme = build_2x2_ring_deadlock(t_dd=FROZEN)
        net.config.sb_bubble_timeout = 16
        state = _arm_sb_active(net, scheme, in_port=S)  # pid 101 parked at S
        router = net.routers[3]
        fsm = state.fsm
        # Exercise the sweep directly: the upstream ring would otherwise
        # legitimately drain into the active bubble and claim it.
        now = state.bubble_active_since + net.config.sb_bubble_timeout
        scheme._sb_active_watchdog(net, router, state, now)
        assert fsm.state == FsmState.S_CHECK_PROBE
        assert not router.bubble_active

    def test_full_chain_within_timeout_keeps_waiting(self):
        net, scheme = build_2x2_ring_deadlock(t_dd=FROZEN)
        net.config.sb_bubble_timeout = 16
        state = _arm_sb_active(net, scheme, in_port=S)
        router = net.routers[3]
        fsm = state.fsm
        now = state.bubble_active_since + net.config.sb_bubble_timeout - 1
        scheme._sb_active_watchdog(net, router, state, now)
        assert fsm.state == FsmState.S_SB_ACTIVE
        assert router.bubble_active

    def test_claimed_bubble_is_left_alone_within_timeout(self):
        """A resident inside the bubble means the drain is in progress;
        the watchdog must not interrupt it before the bubble timeout."""
        net, scheme = build_2x2_ring_deadlock(t_dd=FROZEN)
        net.config.sb_bubble_timeout = 16
        state = _arm_sb_active(net, scheme, in_port=S)
        router = net.routers[3]
        router.place(router.bubble, router.input_vcs[S][0].packet, 0)  # simulate claim
        now = state.bubble_active_since + net.config.sb_bubble_timeout - 1
        scheme._sb_active_watchdog(net, router, state, now)
        assert state.fsm.state == FsmState.S_SB_ACTIVE
        assert router.bubble_active

    def test_stuck_claimed_bubble_tears_down_past_timeout(self):
        """A resident that has not drained for the full bubble timeout is
        wedged in a different cycle (deadlock web): the FSM must give the
        chain up via the enable replay — clearing the path's seals — and
        resume detection, or the seal and the recovery hang forever."""
        net, scheme = build_2x2_ring_deadlock(t_dd=FROZEN)
        net.config.sb_bubble_timeout = 16
        state = _arm_sb_active(net, scheme, in_port=S)
        router = net.routers[3]
        router.place(router.bubble, router.input_vcs[S][0].packet, 0)  # simulate claim
        now = state.bubble_active_since + net.config.sb_bubble_timeout
        scheme._sb_active_watchdog(net, router, state, now)
        assert state.fsm.state == FsmState.S_ENABLE
        assert net.stats.enables_sent == 1
        # The resident stays in the bubble (still switchable) until it can
        # drain or be relocated; it must not be lost.
        assert router.bubble.packet is not None
