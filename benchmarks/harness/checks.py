"""Output checks: what makes an operation count as failed.

Each check returns ``None`` when the output is right and a one-line
reason otherwise; the caller counts a reason as one failed operation.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Iterable, Optional

from repro.service.spec import spec_identity


def canonical(payload: Any) -> str:
    """JSON text two equal payloads share (tuples and lists coincide)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def sha48(payloads: Iterable[Any]) -> int:
    """First 48 bits of the SHA-256 over ``payloads``: exact in a float."""
    digest = hashlib.sha256()
    for payload in payloads:
        digest.update(canonical(payload).encode())
    return int(digest.hexdigest()[:12], 16)


def without_execution_fields(payload: Dict[str, Any]) -> Dict[str, Any]:
    """``payload`` minus the echoed ``spec.engine`` / ``spec.mode``."""
    return dict(payload, spec=spec_identity(payload["spec"]))


def same_payload(a: Dict[str, Any], b: Dict[str, Any], what: str) -> Optional[str]:
    if canonical(without_execution_fields(a)) != canonical(
        without_execution_fields(b)
    ):
        return f"{what}: payloads differ"
    return None


def conservation(payload: Dict[str, Any]) -> Optional[str]:
    """Packet accounting visible in a result payload.

    The live-network invariant (created = ejected + dropped + resident +
    queued) is checked in the traced run, which holds the ``Network``;
    a stored payload only carries the totals checked here.
    """
    spec, result, stats = payload["spec"], payload["result"], payload["stats"]
    if stats["cycles"] != spec["warmup"] + spec["measure"]:
        return "stats.cycles != warmup + measure"
    if result["cycles"] != stats["cycles"]:
        return "result.cycles != stats.cycles"
    injected, ejected = stats["packets_injected"], stats["packets_ejected"]
    if not 0 <= ejected <= injected:
        return f"ejected {ejected} outside [0, injected {injected}]"
    if not 0 <= result["packets_ejected"] <= ejected:
        return "window ejected more packets than the whole run"
    if ejected and not stats["avg_latency"] > 0:
        return "packets ejected with zero latency"
    return None


def echoed_spec(spec_dict: Dict[str, Any], payload: Dict[str, Any]) -> Optional[str]:
    if payload.get("spec") != spec_dict:
        return "echoed spec != submitted spec"
    return None
