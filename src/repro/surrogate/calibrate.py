"""Calibration of the analytical model against cycle-accurate ground truth.

The raw model (:mod:`repro.surrogate.model`) is systematically wrong in
ways that are stable *within* a (topology family, scheme) cell — pipeline
constants, burstiness of Bernoulli injection, protocol overheads.  So we
fit, per cell and per metric, a least-squares linear correction

    true ~= scale * raw + offset

over every (spec, result) pair harvested from the content-addressed
:class:`~repro.service.store.ResultStore`, and record the worst relative
residual of the fit — that residual is the calibrated half of every
prediction's reported error bound (:mod:`repro.surrogate.uncertainty`
adds the distance-to-support half).

The fitted table is persisted as JSON with *fingerprinted provenance*:
the calibration fingerprint is the content address of the entire fitted
state (sample fingerprints, coefficients, residuals, code salt), so a
prediction's provenance field pins exactly which calibration produced
it, and any recalibration is observable as a fingerprint change.
Escalated exact results feed back through :meth:`CalibrationTable.observe`,
refitting just the affected cell — the surrogate self-improves as
campaigns run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.service.spec import SimSpec
from repro.service.store import CODE_SALT, ResultStore, spec_fingerprint
from repro.surrogate.model import AnalyticalModel, energy_dynamic_from_stats
from repro.utils.serialize import write_json_atomic

#: Metrics carried through calibration (energy = dynamic energy; the
#: leakage term is closed-form on both sides, see the model module).
METRICS = ("latency", "throughput", "energy")

#: Residuals are floored: a 2-sample fit with zero residual is not
#: evidence of a zero-error model, just of an underdetermined fit.
RESIDUAL_FLOOR = 0.05


def cell_key(family: str, scheme: str) -> str:
    return f"{family}/{scheme}"


@dataclass
class Sample:
    """One calibration point: raw model output vs. measured truth."""

    fingerprint: str
    features: Tuple[float, ...]
    raw: Dict[str, float]
    true: Dict[str, float]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fingerprint": self.fingerprint,
            "features": list(self.features),
            "raw": self.raw,
            "true": self.true,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Sample":
        return cls(
            fingerprint=payload["fingerprint"],
            features=tuple(payload["features"]),
            raw=dict(payload["raw"]),
            true=dict(payload["true"]),
        )


@dataclass
class LinearFit:
    """Per-metric correction ``true ~= scale * raw + offset``."""

    scale: float = 1.0
    offset: float = 0.0
    #: Worst relative residual of the fit over its samples (floored).
    residual: Optional[float] = None
    samples: int = 0

    def apply(self, raw: float) -> float:
        return self.scale * raw + self.offset

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scale": self.scale,
            "offset": self.offset,
            "residual": self.residual,
            "samples": self.samples,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "LinearFit":
        return cls(
            scale=payload.get("scale", 1.0),
            offset=payload.get("offset", 0.0),
            residual=payload.get("residual"),
            samples=payload.get("samples", 0),
        )


def _fit_metric(pairs: List[Tuple[float, float]]) -> LinearFit:
    """Least-squares 1D fit with a positive-scale constraint.

    The positive scale preserves the raw model's monotonicity (latency
    must stay monotone in offered load after correction) — a cell whose
    best fit wants a negative slope is a cell whose data is degenerate,
    and the ratio-of-means fallback is the honest answer there.
    """
    n = len(pairs)
    if n == 0:
        return LinearFit()
    xs = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    var_x = sum((x - mean_x) ** 2 for x in xs)
    scale: float
    offset: float
    if n == 1 or var_x <= 1e-12 * max(1.0, mean_x * mean_x):
        scale = mean_y / mean_x if mean_x else 1.0
        scale = min(max(scale, 1e-3), 1e3)
        offset = mean_y - scale * mean_x if n > 1 else 0.0
    else:
        cov = sum((x - mean_x) * (y - mean_y) for x, y in pairs)
        scale = cov / var_x
        if scale <= 0:
            scale = mean_y / mean_x if mean_x else 1.0
        scale = min(max(scale, 1e-3), 1e3)
        offset = mean_y - scale * mean_x
    residuals = []
    for x, y in pairs:
        denom = max(abs(y), 1e-9)
        residuals.append(abs((scale * x + offset) - y) / denom)
    residual = max(residuals) if residuals else None
    if residual is not None:
        residual = max(residual, RESIDUAL_FLOOR)
    return LinearFit(scale=scale, offset=offset, residual=residual, samples=n)


@dataclass
class CalibrationCell:
    """All samples and fits of one (topology family, scheme)."""

    key: str
    samples: List[Sample] = field(default_factory=list)
    fits: Dict[str, LinearFit] = field(default_factory=dict)

    def refit(self) -> None:
        self.fits = {}
        for metric in METRICS:
            pairs = [
                (s.raw[metric], s.true[metric])
                for s in self.samples
                if metric in s.raw and metric in s.true
            ]
            self.fits[metric] = _fit_metric(pairs)

    def add(self, sample: Sample) -> bool:
        """Insert (or replace, by fingerprint) and refit; True if new."""
        fresh = True
        for i, existing in enumerate(self.samples):
            if existing.fingerprint == sample.fingerprint:
                self.samples[i] = sample
                fresh = False
                break
        else:
            self.samples.append(sample)
        self.refit()
        return fresh

    def support(self) -> List[Tuple[float, ...]]:
        return [s.features for s in self.samples]

    def residual_bound(self, metrics: Tuple[str, ...] = ("latency", "throughput")) -> Optional[float]:
        """Worst fitted residual across the metrics that gate answers."""
        worst: Optional[float] = None
        for metric in metrics:
            fit = self.fits.get(metric)
            if fit is None or fit.residual is None:
                return None
            worst = fit.residual if worst is None else max(worst, fit.residual)
        return worst

    def to_dict(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "samples": [s.to_dict() for s in self.samples],
            "fits": {m: f.to_dict() for m, f in self.fits.items()},
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CalibrationCell":
        cell = cls(
            key=payload["key"],
            samples=[Sample.from_dict(s) for s in payload.get("samples", [])],
            fits={
                m: LinearFit.from_dict(f)
                for m, f in payload.get("fits", {}).items()
            },
        )
        if not cell.fits and cell.samples:
            cell.refit()
        return cell


class CalibrationTable:
    """Fitted corrections for every harvested (family, scheme) cell."""

    SCHEMA_VERSION = 1

    def __init__(self) -> None:
        self.cells: Dict[str, CalibrationCell] = {}
        self.code_salt = CODE_SALT

    # -- content ---------------------------------------------------------

    def cell(self, family: str, scheme: str) -> Optional[CalibrationCell]:
        return self.cells.get(cell_key(family, scheme))

    def ensure_cell(self, family: str, scheme: str) -> CalibrationCell:
        key = cell_key(family, scheme)
        if key not in self.cells:
            self.cells[key] = CalibrationCell(key)
        return self.cells[key]

    @property
    def sample_count(self) -> int:
        return sum(len(cell.samples) for cell in self.cells.values())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": self.SCHEMA_VERSION,
            "code_salt": self.code_salt,
            "cells": {k: c.to_dict() for k, c in sorted(self.cells.items())},
        }

    def fingerprint(self) -> str:
        """Content address of the fitted state — the provenance anchor."""
        return spec_fingerprint(("surrogate-calibration", self.to_dict()))

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CalibrationTable":
        table = cls()
        table.code_salt = payload.get("code_salt", CODE_SALT)
        table.cells = {
            k: CalibrationCell.from_dict(c)
            for k, c in payload.get("cells", {}).items()
        }
        return table

    # -- persistence -----------------------------------------------------

    def save(self, path: Path) -> Path:
        path = Path(path)
        write_json_atomic(path, self.to_dict(), sort_keys=True, indent=1)
        return path

    @classmethod
    def load(cls, path: Path) -> Optional["CalibrationTable"]:
        """Load from disk; None when missing, torn, or salt-mismatched.

        A salt mismatch means the simulator changed since the table was
        fitted — stale corrections are worse than recalibrating.
        """
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, ValueError):
            return None
        if payload.get("code_salt") != CODE_SALT:
            return None
        return cls.from_dict(payload)


def sample_from_payload(
    model: AnalyticalModel, payload: Dict[str, Any], fingerprint: str
) -> Optional[Tuple[str, Sample]]:
    """Turn one stored exact result into ``(cell key, Sample)``.

    Returns None for payloads that are not simulation results (campaign
    manifests, ``fan_out`` cells, surrogate answers) or whose windows
    measured nothing.
    """
    if not isinstance(payload, dict) or "surrogate" in payload:
        return None
    spec_dict = payload.get("spec")
    result = payload.get("result")
    if not isinstance(spec_dict, dict) or not isinstance(result, dict):
        return None
    try:
        spec = SimSpec.from_dict(dict(spec_dict))
    except (ValueError, TypeError):
        return None
    if not result.get("packets_ejected"):
        return None  # nothing measured; latency 0 would poison the fit
    try:
        raw = model.predict_spec(spec)
    except (ValueError, KeyError):
        return None
    true: Dict[str, float] = {
        "latency": float(result["avg_latency"]),
        "throughput": float(result["throughput_flits_node_cycle"]),
    }
    stats = payload.get("stats")
    if isinstance(stats, dict):
        energy = energy_dynamic_from_stats(stats, model.params.energy)
        if energy is not None:
            true["energy"] = energy
    raw_metrics = raw.metrics()
    if "energy" not in true:
        raw_metrics.pop("energy", None)
    sample = Sample(
        fingerprint=fingerprint,
        features=raw.features,
        raw=raw_metrics,
        true=true,
    )
    return cell_key(raw.family, raw.scheme), sample


def calibrate_from_store(
    store: ResultStore, model: Optional[AnalyticalModel] = None
) -> CalibrationTable:
    """Harvest every usable (spec, result) pair and fit the table.

    Reads :meth:`~repro.service.store.ResultStore.iter_entries` — no
    cache counters touched, corrupt blobs skipped — so calibration never
    reaches into shard internals.
    """
    model = model if model is not None else AnalyticalModel()
    table = CalibrationTable()
    for fp, payload in store.iter_entries():
        parsed = sample_from_payload(model, payload, fp)
        if parsed is None:
            continue
        key, sample = parsed
        table.cells.setdefault(key, CalibrationCell(key)).samples.append(sample)
    for cell in table.cells.values():
        cell.refit()
    return table
