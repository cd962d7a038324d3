"""Uncertainty model: when may the surrogate answer instead of simulating?

Every prediction carries an explicit relative error bound assembled from
two halves:

* the **held-in residual** of the calibration fit for the prediction's
  (topology family, scheme) cell — how wrong the corrected model was on
  the cycle-accurate samples it has seen (floored, so small fits never
  claim certainty they have not earned); and
* the **distance to calibration support** — how far the queried cell's
  feature point (load fraction, mean hops, node count) sits from the
  nearest calibrated sample, in per-dimension-normalized units.  Close
  to support the bound is the residual; extrapolation inflates it
  linearly until the gate escalates to full simulation.

``mode="auto"`` answers from the surrogate iff the bound exists and is
below :data:`UncertaintyGate.max_bound` (:data:`DEFAULT_MAX_BOUND` unless
a caller passes one); ``mode="surrogate"`` always answers but still
reports the (possibly absent) bound honestly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.surrogate.calibrate import CalibrationCell

#: Default relative-error bound below which ``auto`` answers.
DEFAULT_MAX_BOUND = 0.25
#: Relative-error inflation per unit of normalized support distance.
DEFAULT_DISTANCE_WEIGHT = 0.25


@dataclass
class Uncertainty:
    """The bound and its decomposition, attached to every prediction."""

    #: Relative error bound (None = uncalibrated cell, unbounded).
    bound: Optional[float]
    residual: Optional[float]
    distance: float
    samples: int

    def to_dict(self) -> dict:
        return {
            "bound": self.bound,
            "residual": self.residual,
            "distance": self.distance,
            "samples": self.samples,
        }


def _support_scales(support: Sequence[Tuple[float, ...]]) -> Tuple[float, ...]:
    """Per-dimension normalization: spread of the support, sanely floored.

    The floor (a quarter of the dimension's mean magnitude, or an
    absolute epsilon) keeps a single-sample or degenerate support from
    collapsing a dimension and declaring everything "at distance 0".
    """
    dims = len(support[0])
    scales = []
    for d in range(dims):
        values = [f[d] for f in support]
        spread = max(values) - min(values)
        mean_mag = sum(abs(v) for v in values) / len(values)
        scales.append(max(spread, 0.25 * mean_mag, 1e-3))
    return tuple(scales)


def support_distance(
    features: Tuple[float, ...], support: Sequence[Tuple[float, ...]]
) -> float:
    """Normalized L2 distance from ``features`` to the nearest sample."""
    if not support:
        return float("inf")
    scales = _support_scales(list(support))
    best = float("inf")
    for point in support:
        acc = 0.0
        for f, p, s in zip(features, point, scales):
            delta = (f - p) / s
            acc += delta * delta
        best = min(best, math.sqrt(acc))
    return best


class UncertaintyGate:
    """Assembles bounds and decides surrogate-vs-simulate."""

    def __init__(
        self,
        max_bound: Optional[float] = None,
        distance_weight: float = DEFAULT_DISTANCE_WEIGHT,
    ) -> None:
        self.max_bound = max_bound if max_bound is not None else DEFAULT_MAX_BOUND
        self.distance_weight = distance_weight

    def assess(
        self, cell: Optional[CalibrationCell], features: Tuple[float, ...]
    ) -> Uncertainty:
        if cell is None or not cell.samples:
            return Uncertainty(
                bound=None, residual=None, distance=float("inf"), samples=0
            )
        residual = cell.residual_bound()
        distance = support_distance(features, cell.support())
        if residual is None or math.isinf(distance):
            bound = None
        else:
            bound = residual + self.distance_weight * distance
        return Uncertainty(
            bound=bound,
            residual=residual,
            distance=distance,
            samples=len(cell.samples),
        )

    def answers(self, uncertainty: Uncertainty) -> bool:
        """True when ``auto`` mode may answer from the surrogate."""
        return uncertainty.bound is not None and uncertainty.bound <= self.max_bound
