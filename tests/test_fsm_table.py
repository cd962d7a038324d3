"""The static-bubble transition table against the runs and the docs.

1. Every row of ``TRANSITIONS`` is taken in the tier-1 network runs — the
   Fig. 6 walkthrough, the Section IV-B corner cases, a saturated faulted
   8x8 and the ring2x2 model check — except the rows in ``ELSEWHERE``,
   each reached by the unit test named beside it.  Rows are counted by
   wrapping the dispatcher, ``StaticBubbleScheme._fire``.
2. Every ``deviation N`` tag names an entry of DESIGN.md §4's list, each
   entry lists exactly the rows tagged with it, and every test an entry
   names exists.
"""

from __future__ import annotations

import inspect
import pathlib
import re

import pytest

from repro.core.fsm import (
    RECOVERY_STATES,
    TRANSITIONS,
    FsmEvent,
    FsmState,
    recovery_threshold,
)
from repro.protocols.static_bubble import StaticBubbleScheme
from repro.service.spec import SimSpec
from repro.verify.model import check_scenario

import tests.test_protocol_corner_cases as corner_cases
from tests.conftest import build_2x2_ring_deadlock, build_fig6_walkthrough, fire

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Deviations that change whether or when a transition fires.
TRANSITION_DEVIATIONS = {1, 3, 7, 9, 11, 13}


def key(row):
    return (row.state, row.event, row.guard)


#: Rows the network runs above never take, with why and where they are.
ELSEWHERE = {
    (FsmState.S_SB_ACTIVE, FsmEvent.UNCLAIMED, None): (
        "needs a chain that dissolves before it claims the bubble, or a "
        "bubble unclaimed for sb_bubble_timeout: test_seal_gc_watchdog.py"
    ),
    (RECOVERY_STATES, FsmEvent.RESET, "active"): (
        "needs a live topology change: test_live_reconfig.py"
    ),
    (RECOVERY_STATES, FsmEvent.RESET, None): (
        "needs a live topology change at an idle owner: test_reset_to_off"
    ),
}


@pytest.fixture(scope="module")
def taken():
    """Rows taken (by key) over the tier-1 network runs."""
    seen = set()
    fire_row = StaticBubbleScheme._fire

    def recording(self, *args, **kwargs):
        row = fire_row(self, *args, **kwargs)
        if row is not None:
            seen.add(key(row))
        return row

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StaticBubbleScheme, "_fire", recording)
        net, _ = build_fig6_walkthrough()
        net.run(400)
        for name, cls in vars(corner_cases).items():
            if name.startswith("Test"):
                for method, fn in inspect.getmembers(cls, inspect.isfunction):
                    if method.startswith("test_"):
                        fn(cls())
        spec = SimSpec(width=8, height=8, link_faults=8, rate=0.3, seed=1)
        spec.build_network().run(1000)
        check_scenario("ring2x2", t_dd=1, bubble_timeout=4, seal_timeout=6)
    return seen


def test_every_row_taken_in_network_runs(taken):
    rows = {key(row) for row in TRANSITIONS}
    assert set(ELSEWHERE) <= rows
    assert rows - taken == set(ELSEWHERE)


def test_reset_to_off():
    """The idle ``RESET`` row: a broken chain at an owner with no packet."""
    net, scheme = build_2x2_ring_deadlock()
    fsm = scheme.states[3].fsm
    fsm.transition(FsmState.S_SB_ACTIVE)
    router = net.routers[3]
    router.activate_bubble(3)
    router.remove(router.input_vcs[3][0])  # the ring packet at S
    row = fire(net, 3, FsmEvent.RESET)
    assert key(row) == (RECOVERY_STATES, FsmEvent.RESET, None)
    assert fsm.state is FsmState.S_OFF and not router.bubble_active


def _ring_owner(state):
    """Node 3 of the 2x2 ring deadlock (a resident at its south port) in
    ``state``, its threshold still the latched ``t_dr`` of a 3-turn path."""
    net, scheme = build_2x2_ring_deadlock()
    fsm = scheme.states[3].fsm
    if state is not FsmState.S_OFF:
        fsm.transition(state)
    fsm.threshold = recovery_threshold(3)
    assert fsm.threshold != fsm.t_dd
    return net, fsm


def test_enable_timeout_with_resident_restarts_detection():
    """Retries exhausted while a compass VC is occupied: the abort lands
    in ``S_DD`` under ``t_dd``, not in ``S_OFF``."""
    net, fsm = _ring_owner(FsmState.S_ENABLE)
    fsm.enable_retries = net.config.sb_enable_retries
    row = fire(net, 3, FsmEvent.TIMEOUT)
    assert key(row) == (FsmState.S_ENABLE, FsmEvent.TIMEOUT, "active")
    assert fsm.state is FsmState.S_DD and fsm.threshold == fsm.t_dd


def test_foreign_enable_rearms_detection_under_t_dd():
    """An ``S_OFF`` router still holding a latched ``t_dr`` restarts
    detection with threshold ``t_dd`` when a foreign enable clears it."""
    net, fsm = _ring_owner(FsmState.S_OFF)
    row = fire(net, 3, FsmEvent.FOREIGN_ENABLE)
    assert key(row) == (FsmState.S_OFF, FsmEvent.FOREIGN_ENABLE, "active")
    assert fsm.state is FsmState.S_DD and fsm.threshold == fsm.t_dd


def test_reset_with_resident_rearms_detection_under_t_dd():
    """A ``RESET`` of a recovery owner with a resident drops the latched
    ``t_dr`` for ``t_dd``."""
    net, fsm = _ring_owner(FsmState.S_SB_ACTIVE)
    net.routers[3].activate_bubble(3)
    row = fire(net, 3, FsmEvent.RESET)
    assert key(row) == (RECOVERY_STATES, FsmEvent.RESET, "active")
    assert fsm.state is FsmState.S_DD and fsm.threshold == fsm.t_dd
    assert not net.routers[3].bubble_active


def _deviation_entries():
    """DESIGN.md §4's numbered deviation list: number -> entry text."""
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("### Protocol deviations and liveness refinements")[1]
    section = section.split("\n### ")[0]
    parts = re.split(r"^(\d+)\. ", section, flags=re.M)
    return {int(n): body for n, body in zip(parts[1::2], parts[2::2])}


def _row_name(row):
    state = "recovery" if row.state == RECOVERY_STATES else row.state.name
    return f"{state} × {row.event.name}"


def test_deviation_tags_match_design():
    entries = _deviation_entries()
    assert sorted(entries) == list(range(1, len(entries) + 1))
    tagged = {}
    for row in TRANSITIONS:
        assert row.source == "paper" or re.fullmatch(r"deviation \d+", row.source)
        if row.source != "paper":
            tagged.setdefault(int(row.source.split()[1]), set()).add(_row_name(row))
    assert set(tagged) <= set(entries)
    assert TRANSITION_DEVIATIONS <= set(tagged)
    for number, body in entries.items():
        rows = body.split("*Rows:*")[1].split("*Test")[0]
        named = set(re.findall(r"`(\w+ × \w+)`", rows))
        assert named == tagged.get(number, set()), number


def test_deviation_tests_exist():
    for number, body in _deviation_entries().items():
        refs = re.findall(r"`(tests/[\w/]+\.py)::([\w:]+)`", body)
        assert refs, number
        for path, name in refs:
            source = (ROOT / path).read_text()
            assert f"def {name.split('::')[-1]}(" in source, (number, path, name)
