"""Unit tests for the 6-state counter FSM (Fig. 5).

Each event is fired through the transition table at the static-bubble
router of the 2x2 ring deadlock (node 3: the ring enters at S and leaves
at W after three left turns), so guards and effects see a real router.
"""

from repro.core.fsm import FsmEvent as E, FsmState, recovery_threshold
from repro.core.messages import make_probe
from repro.core.turns import Port, Turn

from tests.conftest import build_2x2_ring_deadlock, fire, tick

SB = 3
RING = (Turn.LEFT, Turn.LEFT, Turn.LEFT)


def make_fsm(t_dd=5, enable_retries=None):
    net, scheme = build_2x2_ring_deadlock()
    fsm = scheme.states[SB].fsm
    fsm.t_dd = t_dd
    if enable_retries is not None:
        net.config.sb_enable_retries = enable_retries
    return net, fsm


def tick_until_timeout(net, limit=1000):
    for _ in range(limit):
        row = tick(net, SB)
        if row is not None:
            return row
    raise AssertionError("no timeout within limit")


def vacate(net):
    """Remove the ring packet parked at node 3 (its only resident)."""
    router = net.routers[SB]
    router.remove(router.input_vcs[Port.SOUTH][0])


def probe_back(net, turns=RING):
    probe = make_probe(SB, Port.WEST)._replace(turns=turns)
    return fire(net, SB, E.PROBE_BACK, probe, Port.SOUTH)


class TestDetection:
    def test_starts_off(self):
        net, fsm = make_fsm()
        assert fsm.state == FsmState.S_OFF
        assert tick(net, SB) is None

    def test_first_flit_starts_counting(self):
        net, fsm = make_fsm()
        fire(net, SB, E.FIRST_FLIT)
        assert fsm.state == FsmState.S_DD
        assert fsm.threshold == 5

    def test_timeout_sends_probe(self):
        net, fsm = make_fsm(t_dd=3)
        fire(net, SB, E.FIRST_FLIT)
        assert tick_until_timeout(net).effect == "send_probe"
        assert fsm.state == FsmState.S_DD
        assert fsm.probes_sent == 1

    def test_probe_resent_on_repeat_timeout(self):
        net, fsm = make_fsm(t_dd=3)
        fire(net, SB, E.FIRST_FLIT)
        tick_until_timeout(net)
        assert tick_until_timeout(net).effect == "send_probe"
        assert fsm.probes_sent == 2

    def test_progress_resets_counter(self):
        net, fsm = make_fsm(t_dd=5)
        fire(net, SB, E.FIRST_FLIT)
        tick(net, SB)
        tick(net, SB)
        fire(net, SB, E.WATCH_MOVED)
        assert fsm.count == 0
        assert fsm.state == FsmState.S_DD

    def test_idle_switches_off(self):
        net, fsm = make_fsm()
        fire(net, SB, E.FIRST_FLIT)
        fire(net, SB, E.WATCH_EMPTIED)
        assert fsm.state == FsmState.S_OFF


class TestRecoverySequence:
    def _to_disable(self, made):
        net, fsm = made
        fire(net, SB, E.FIRST_FLIT)
        tick_until_timeout(net)  # send_probe
        assert probe_back(net).effect == "latch"
        assert net.stats.disables_sent == 1
        return net, fsm

    def test_probe_return_latches_path(self):
        net, fsm = self._to_disable(make_fsm())
        assert fsm.state == FsmState.S_DISABLE
        assert fsm.turn_buffer == RING
        assert fsm.probe_in_port == Port.SOUTH
        assert fsm.probe_out_port == Port.WEST
        assert fsm.threshold == recovery_threshold(3)

    def test_probe_return_ignored_outside_sdd(self):
        net, fsm = self._to_disable(make_fsm())
        assert probe_back(net, ()) is None

    def test_disable_return_activates_bubble(self):
        net, fsm = self._to_disable(make_fsm())
        assert fire(net, SB, E.DISABLE_BACK).effect == "activate"
        assert fsm.state == FsmState.S_SB_ACTIVE
        assert net.routers[SB].bubble_active
        assert tick(net, SB) is None and fsm.count == 0  # counter off

    def test_reclaim_sends_check_probe(self):
        net, fsm = self._to_disable(make_fsm())
        fire(net, SB, E.DISABLE_BACK)
        assert fire(net, SB, E.RECLAIMED).next == FsmState.S_CHECK_PROBE
        assert fsm.state == FsmState.S_CHECK_PROBE
        assert net.stats.check_probes_sent == 1

    def test_check_probe_return_reactivates(self):
        net, fsm = self._to_disable(make_fsm())
        fire(net, SB, E.DISABLE_BACK)
        fire(net, SB, E.RECLAIMED)
        assert fire(net, SB, E.CHECK_PROBE_BACK).effect == "activate"
        assert fsm.state == FsmState.S_SB_ACTIVE

    def test_check_probe_timeout_sends_enable(self):
        net, fsm = self._to_disable(make_fsm())
        fire(net, SB, E.DISABLE_BACK)
        fire(net, SB, E.RECLAIMED)
        assert tick_until_timeout(net).effect == "send_path"
        assert fsm.state == FsmState.S_ENABLE
        assert net.stats.enables_sent == 1

    def test_enable_return_completes_recovery(self):
        net, fsm = self._to_disable(make_fsm())
        fire(net, SB, E.DISABLE_BACK)
        fire(net, SB, E.RECLAIMED)
        tick_until_timeout(net)  # -> S_ENABLE
        assert fire(net, SB, E.ENABLE_BACK).effect == "finish"
        assert fsm.state == FsmState.S_DD
        assert fsm.turn_buffer == ()
        assert net.stats.recoveries_completed == 1
        assert not net.routers[SB].is_deadlock

    def test_enable_return_to_off_when_idle(self):
        net, fsm = self._to_disable(make_fsm())
        fire(net, SB, E.DISABLE_BACK)
        fire(net, SB, E.RECLAIMED)
        tick_until_timeout(net)
        vacate(net)
        fire(net, SB, E.ENABLE_BACK)
        assert fsm.state == FsmState.S_OFF


class TestTimeouts:
    def test_disable_timeout_falls_to_enable(self):
        net, fsm = make_fsm()
        fire(net, SB, E.FIRST_FLIT)
        tick_until_timeout(net)
        probe_back(net)
        row = tick_until_timeout(net)
        assert (row.next, row.effect) == (FsmState.S_ENABLE, "send_path")
        assert fsm.state == FsmState.S_ENABLE

    def test_enable_retransmits_then_aborts(self):
        net, fsm = make_fsm(enable_retries=3)
        fire(net, SB, E.FIRST_FLIT)
        tick_until_timeout(net)
        probe_back(net)
        tick_until_timeout(net)  # disable timeout -> send the enable
        for _ in range(3):
            assert tick_until_timeout(net).effect == "send_path"
        vacate(net)
        assert tick_until_timeout(net).effect == "abort"
        assert fsm.state == FsmState.S_OFF
        assert net.stats.recoveries_aborted == 1
        assert net.stats.enables_sent == 4


class TestForeignEvents:
    def test_foreign_disable_parks_fsm(self):
        net, fsm = make_fsm()
        fire(net, SB, E.FIRST_FLIT)
        fire(net, SB, E.FOREIGN_DISABLE)
        assert fsm.state == FsmState.S_OFF

    def test_foreign_enable_resumes(self):
        net, fsm = make_fsm()
        fire(net, SB, E.FIRST_FLIT)
        fire(net, SB, E.FOREIGN_DISABLE)
        fire(net, SB, E.FOREIGN_ENABLE)
        assert fsm.state == FsmState.S_DD

    def test_foreign_enable_idle_stays_off(self):
        net, fsm = make_fsm()
        vacate(net)
        fire(net, SB, E.FOREIGN_ENABLE)
        assert fsm.state == FsmState.S_OFF

    def test_foreign_disable_does_not_touch_recovery(self):
        net, fsm = make_fsm()
        fire(net, SB, E.FIRST_FLIT)
        tick_until_timeout(net)
        probe_back(net)
        assert fire(net, SB, E.FOREIGN_DISABLE) is None
        assert fsm.state == FsmState.S_DISABLE


class TestRecoveryThreshold:
    def test_round_trip_bound(self):
        """t_DR covers a loop of path_length + 1 hops at 2 cycles/hop."""
        for length in (1, 5, 20, 58):
            assert recovery_threshold(length) >= 2 * (length + 1)

    def test_monotone(self):
        values = [recovery_threshold(n) for n in range(10)]
        assert values == sorted(values)


def test_in_recovery_states():
    net, fsm = make_fsm()
    assert not fsm.in_recovery()
    fire(net, SB, E.FIRST_FLIT)
    assert not fsm.in_recovery()
    for _ in range(11):
        tick(net, SB)
    probe_back(net)
    assert fsm.in_recovery()
