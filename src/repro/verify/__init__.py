"""repro.verify — machine-checked deadlock-freedom certificates.

Three layers (see DESIGN.md):

* :mod:`repro.verify.cdg` — channel-dependency graphs derived from the
  real routing tables / turn rules over any (faulted) topology;
* :mod:`repro.verify.certify` — acyclicity and static-bubble cycle-cover
  certificates with serializable success/counterexample output;
* :mod:`repro.verify.model` — exhaustive state-space exploration of the
  recovery protocol on the constructed deadlock scenarios.

Entry points: ``scheme.verify(topo, config)`` on every deadlock scheme,
``Network.certify()`` on a live network, and the ``repro verify`` CLI.
"""

from repro.topology.graph import (
    bounded_cycles,
    cyclic_components,
    shortest_cycle,
    strongly_connected_components,
)
from repro.verify.cdg import (
    LAYER_ESCAPE,
    LAYER_NORMAL,
    Channel,
    ChannelDependencyGraph,
    cdg_from_next_hops,
    cdg_from_routes,
    cdg_from_tables,
    cdg_from_turns,
    describe_channel,
)
from repro.verify.certify import (
    Certificate,
    certify_acyclic,
    certify_cycle_cover,
)
from repro.verify.model import (
    ModelCheckResult,
    StateSpaceExceeded,
    canonical_state,
    check_scenario,
    is_recovered,
    restore,
    snapshot,
    successor_states,
)

__all__ = [
    "LAYER_ESCAPE",
    "LAYER_NORMAL",
    "Channel",
    "ChannelDependencyGraph",
    "cdg_from_next_hops",
    "cdg_from_routes",
    "cdg_from_tables",
    "cdg_from_turns",
    "describe_channel",
    "Certificate",
    "bounded_cycles",
    "certify_acyclic",
    "certify_cycle_cover",
    "cyclic_components",
    "shortest_cycle",
    "strongly_connected_components",
    "ModelCheckResult",
    "StateSpaceExceeded",
    "canonical_state",
    "check_scenario",
    "is_recovered",
    "restore",
    "snapshot",
    "successor_states",
]
