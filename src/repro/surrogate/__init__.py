"""``repro.surrogate`` — calibrated analytical fast lane for campaign cells.

The oracle answers a :class:`~repro.service.spec.SimSpec` in microseconds
(warm profile) instead of the seconds a cycle-accurate run costs:

* :mod:`repro.surrogate.model` — per-hop queueing model over the
  installed routing tables (serialization + pipeline + contention from
  path-overlap channel loads);
* :mod:`repro.surrogate.calibrate` — per-(topology family, scheme)
  least-squares corrections against ResultStore ground truth, persisted
  with fingerprinted provenance;
* :mod:`repro.surrogate.uncertainty` — the reported error bound
  (fit residual + distance-to-support) and the ``auto``-mode gate.

:class:`SurrogateOracle` is the facade the service and the CLI share.
Every answer carries an explicit ``error_bound`` and ``provenance``
field; every escalated exact result feeds back through
:meth:`SurrogateOracle.observe`, so the surrogate self-improves as
campaigns run.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional

from repro.obs.metrics import MetricsRegistry, proc_registry
from repro.service.spec import SimSpec
from repro.service.store import CODE_SALT, ResultStore
from repro.surrogate.calibrate import (
    CalibrationTable,
    calibrate_from_store,
    cell_key,
    sample_from_payload,
)
from repro.surrogate.model import AnalyticalModel, ModelParams, RawPrediction
from repro.surrogate.uncertainty import Uncertainty, UncertaintyGate

#: Campaign-job execution modes (``SimSpec.mode``).
MODES = ("exact", "surrogate", "auto")

#: Model identity recorded in every prediction's provenance.
MODEL_NAME = "queueing-v1"

#: Calibration table filename inside the result-store root.
CALIBRATION_FILENAME = "surrogate-calibration.json"


@dataclass
class Prediction:
    """One calibrated surrogate answer (with its honesty attached)."""

    latency: float
    throughput: float
    energy_dynamic: Optional[float]
    window_packets: float
    error_bound: Optional[float]
    uncertainty: Uncertainty
    raw: RawPrediction
    provenance: Dict[str, Any]

    def payload(self, spec: SimSpec) -> Dict[str, Any]:
        """Service-shaped result blob (mirrors ``sim_result_payload``).

        ``result`` carries the same keys a :class:`WindowResult` would,
        so clients read surrogate and exact answers identically; the
        ``surrogate`` block is the explicit marker — no ``stats`` key
        means no cycle-accurate run happened.
        """
        return {
            "spec": spec.to_dict(),
            "result": {
                "avg_latency": self.latency,
                "throughput_flits_node_cycle": self.throughput,
                "packets_ejected": int(round(self.window_packets)),
                "deadlocked": False,
                "cycles": spec.warmup + spec.measure,
            },
            "surrogate": {
                "error_bound": self.error_bound,
                "uncertainty": self.uncertainty.to_dict(),
                "metrics": {
                    "latency": self.latency,
                    "throughput": self.throughput,
                    "energy_dynamic": self.energy_dynamic,
                },
                "raw": self.raw.metrics(),
                "saturation_rate": self.raw.saturation_rate,
                "hop_bound": self.raw.hop_bound,
                "provenance": self.provenance,
            },
        }


class SurrogateOracle:
    """Calibrated predictor + uncertainty gate + feedback loop."""

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        model: Optional[AnalyticalModel] = None,
        gate: Optional[UncertaintyGate] = None,
        path: Optional[Path] = None,
        registry: Optional[MetricsRegistry] = None,
        save_every: int = 1,
    ) -> None:
        self.store = store if store is not None else ResultStore()
        self.model = model if model is not None else AnalyticalModel()
        self.gate = gate if gate is not None else UncertaintyGate()
        self.path = Path(path) if path is not None else self.store.root / CALIBRATION_FILENAME
        self.registry = registry if registry is not None else proc_registry()
        #: Persist the table every N observations (1 = write-through).
        #: A fleet of workers feeding calibration through the queue hook
        #: would otherwise rewrite the table on every completion; batch
        #: writers must call :meth:`flush` on drain.
        self.save_every = max(1, save_every)
        self._dirty = 0
        self._table: Optional[CalibrationTable] = None
        #: ``_table.fingerprint()`` (it walks every sample), kept until the
        #: table next changes: every writer drops it, under the lock.
        self._fingerprint: Optional[str] = None
        self._lock = threading.Lock()

    # -- calibration lifecycle -------------------------------------------

    @property
    def calibration(self) -> CalibrationTable:
        """Lazy: load the persisted table, else harvest the store."""
        if self._table is not None:
            return self._table  # loaded: readers need no lock
        with self._lock:
            if self._table is None:
                loaded = CalibrationTable.load(self.path)
                if loaded is None:
                    loaded = calibrate_from_store(self.store, self.model)
                    if loaded.sample_count:
                        loaded.save(self.path)
                self._table, self._fingerprint = loaded, None
            return self._table

    def calibration_fingerprint(self) -> str:
        """Provenance anchor of the table, computed once per table state."""
        fingerprint = self._fingerprint
        if fingerprint is None:
            self.calibration  # loaded
            with self._lock:  # of the table in place now, not one since replaced
                fingerprint = self._fingerprint = self._table.fingerprint()
        return fingerprint

    @property
    def known_fingerprint(self) -> Optional[str]:
        """The table's fingerprint if computed since its last change, else
        None; never computes it (an event loop compares it per request)."""
        return self._fingerprint

    def is_warm(self, spec: SimSpec) -> bool:
        """True when answering ``spec`` is arithmetic: table loaded and
        fingerprinted, profile memoized; no lock a build or save may hold."""
        return self._fingerprint is not None and self.model.is_warm(spec)

    def refresh(self) -> CalibrationTable:
        """Re-harvest the store from scratch and persist the new fit."""
        table = calibrate_from_store(self.store, self.model)
        with self._lock:
            self._table, self._fingerprint = table, None
            self._dirty = 0
        table.save(self.path)
        self.registry.counter("surrogate.recalibrated").inc()
        return table

    def flush(self) -> bool:
        """Persist pending observations; True if a write happened.

        Cheap no-op when nothing is dirty — safe to call on every drain.
        """
        with self._lock:
            if self._dirty == 0 or self._table is None:
                return False
            self._table.save(self.path)
            self._dirty = 0
        self.registry.counter("surrogate.calibration_flushed").inc()
        return True

    def observe(self, spec_dict: Dict[str, Any], payload: Dict[str, Any]) -> bool:
        """Feed one escalated/executed exact result back into the fit.

        Never raises — feedback is best-effort by design (a result that
        cannot calibrate, e.g. an unsupported pattern, is just skipped).
        """
        try:
            from repro.service.spec import spec_identity
            from repro.service.store import spec_fingerprint

            fp = spec_fingerprint(spec_identity(dict(spec_dict)))
            parsed = sample_from_payload(self.model, payload, fp)
            if parsed is None:
                return False
            key, sample = parsed
            table = self.calibration
            with self._lock:
                family, scheme = key.split("/", 1)
                table.ensure_cell(family, scheme).add(sample)
                self._fingerprint = None
                self._dirty += 1
                if self._dirty >= self.save_every:
                    table.save(self.path)
                    self._dirty = 0
            self.registry.counter("surrogate.observed").inc()
            return True
        except Exception:
            self.registry.counter("surrogate.observe_error").inc()
            return False

    def status(self) -> Dict[str, Any]:
        """Introspection blob for ``GET /surrogate`` and the CLI."""
        table = self.calibration
        return {
            "model": MODEL_NAME,
            "code_salt": CODE_SALT,
            "calibration_fingerprint": self.calibration_fingerprint(),
            "calibration_path": str(self.path),
            "max_bound": self.gate.max_bound,
            "samples": table.sample_count,
            "cells": {
                key: {
                    "samples": len(cell.samples),
                    "residual_bound": cell.residual_bound(),
                }
                for key, cell in sorted(table.cells.items())
            },
        }

    # -- prediction ------------------------------------------------------

    def _calibrated(self, raw: RawPrediction) -> Prediction:
        table = self.calibration
        cell = table.cell(raw.family, raw.scheme)
        uncertainty = self.gate.assess(cell, raw.features)
        latency = raw.latency
        throughput = raw.throughput
        energy: Optional[float] = None
        if cell is not None and cell.fits:
            lat_fit = cell.fits.get("latency")
            thr_fit = cell.fits.get("throughput")
            if lat_fit is not None and lat_fit.samples:
                latency = lat_fit.apply(raw.latency)
            if thr_fit is not None and thr_fit.samples:
                throughput = thr_fit.apply(raw.throughput)
            energy_fit = cell.fits.get("energy")
            if energy_fit is not None and energy_fit.samples:
                energy = energy_fit.apply(raw.energy_dynamic)
        # Physics floors survive calibration: latency can never beat the
        # zero-load hop+serialization bound, throughput is non-negative.
        latency = max(latency, raw.hop_bound)
        throughput = max(throughput, 0.0)
        provenance = {
            "model": MODEL_NAME,
            "code_salt": CODE_SALT,
            "calibration_fingerprint": self.calibration_fingerprint(),
            "cell": cell_key(raw.family, raw.scheme),
            "samples": uncertainty.samples,
        }
        self.registry.counter("surrogate.predictions").inc()
        return Prediction(
            latency=latency,
            throughput=throughput,
            energy_dynamic=energy,
            window_packets=raw.window_packets,
            error_bound=uncertainty.bound,
            uncertainty=uncertainty,
            raw=raw,
            provenance=provenance,
        )

    def predict(self, spec: SimSpec) -> Prediction:
        return self._calibrated(self.model.predict_spec(spec))

    # -- the fast-lane decision ------------------------------------------

    def answer(self, spec: SimSpec, mode: Optional[str] = None) -> Optional[Dict[str, Any]]:
        """Surrogate payload for ``spec``, or None to escalate.

        ``mode="surrogate"`` always answers (uncalibrated answers carry
        ``error_bound: null`` — honest, if useless); ``mode="auto"``
        answers only when the uncertainty gate passes.  Model failures
        (unsupported pattern/topology) escalate in auto mode and raise
        in forced mode.
        """
        mode = mode if mode is not None else spec.mode
        if mode not in ("surrogate", "auto"):
            return None
        try:
            prediction = self.predict(spec)
        except (ValueError, KeyError):
            self.registry.counter("surrogate.model_error").inc()
            if mode == "surrogate":
                raise
            self.registry.counter("surrogate.escalated").inc()
            return None
        if mode == "surrogate" or self.gate.answers(prediction.uncertainty):
            self.registry.counter("surrogate.answered").inc()
            return prediction.payload(spec)
        self.registry.counter("surrogate.escalated").inc()
        return None


__all__ = [
    "AnalyticalModel",
    "CalibrationTable",
    "MODES",
    "ModelParams",
    "Prediction",
    "SurrogateOracle",
    "Uncertainty",
    "UncertaintyGate",
]
