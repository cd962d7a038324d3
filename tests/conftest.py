"""Shared fixtures and scenario builders for the test-suite.

The scenario builders live in :mod:`repro.sim.scenarios` (shared with
the ``repro trace`` CLI); this module re-exports them so existing tests
keep importing from ``tests.conftest``.
"""

from __future__ import annotations

import random

import pytest

from repro.core.fsm import FsmEvent, FsmState
from repro.sim.scenarios import (  # noqa: F401  (re-exported for tests)
    build_2x2_ring_deadlock,
    build_fig6_walkthrough,
    place_packet,
)
from repro.topology.mesh import mesh


def fire(net, node, event, msg=None, in_port=None):
    """Fire ``event`` at ``node``'s FSM through the transition table;
    returns the row taken (``None`` when no row applies)."""
    scheme = net.scheme
    return scheme._fire(
        net, net.routers[node], scheme.states[node], event, net.cycle, msg, in_port
    )


def tick(net, node):
    """One cycle of ``node``'s counter as ``on_cycle`` runs it; returns
    the row its timeout took, if it expired."""
    fsm = net.scheme.states[node].fsm
    if fsm.state in (FsmState.S_OFF, FsmState.S_SB_ACTIVE):
        return None
    fsm.count += 1
    if fsm.count >= fsm.threshold:
        return fire(net, node, FsmEvent.TIMEOUT)
    return None


@pytest.fixture
def mesh_4x4():
    return mesh(4, 4)


@pytest.fixture
def mesh_8x8():
    return mesh(8, 8)


@pytest.fixture
def rng():
    return random.Random(1234)
