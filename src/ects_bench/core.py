"""Domain types and the cost arithmetic used to price every decision.

A decision made at time t with prediction y_hat against truth y is priced by
a misclassification matrix plus a delay curve; the trade-off weight alpha
blends the two into the weighted price alpha * C_m + (1 - alpha) * C_d. All
types here are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Tuple

import numpy as np


class DelayCurve(Enum):
    LINEAR = "linear"
    EXPONENTIAL = "exponential"


def _check_finite(values: Sequence[float], what: str) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{what} contains non-finite value {v!r}")


@dataclass(frozen=True)
class LabeledSeries:
    """One fixed-length univariate series with its class label."""

    id: str
    values: Tuple[float, ...]
    label: int

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.values) < 2:
            raise ValueError(f"series {self.id!r}: length must be >= 2")
        if self.label < 0:
            raise ValueError(f"series {self.id!r}: negative label")
        _check_finite(self.values, f"series {self.id!r}")

    @property
    def length(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class SampledTimeline:
    """The strictly increasing decision timestamps, ending at the series length."""

    timestamps: Tuple[int, ...]
    series_length: int

    def __post_init__(self):
        object.__setattr__(self, "timestamps", tuple(int(t) for t in self.timestamps))
        ts = self.timestamps
        if not ts:
            raise ValueError("timeline must be nonempty")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("timestamps must be strictly increasing")
        if ts[0] < 1 or ts[-1] != self.series_length:
            raise ValueError("timestamps must lie in [1, T] and end at T")

    def __len__(self) -> int:
        return len(self.timestamps)

    def index_of(self, t: int) -> int:
        try:
            return self.timestamps.index(t)
        except ValueError:
            raise ValueError(f"timestamp {t} not in timeline") from None


@dataclass(frozen=True)
class CostModel:
    """Misclassification matrix + delay curve + trade-off weight alpha.

    mis_matrix is indexed [predicted][true]. The delay curve is stored
    unweighted; a decision's weighted price is alpha * C_m + (1 - alpha) * C_d.
    """

    mis_matrix: Tuple[Tuple[float, ...], ...]
    delay: DelayCurve
    alpha: float

    def __post_init__(self):
        matrix = tuple(tuple(float(c) for c in row) for row in self.mis_matrix)
        object.__setattr__(self, "mis_matrix", matrix)
        k = len(matrix)
        if k < 2 or any(len(row) != k for row in matrix):
            raise ValueError("mis_matrix must be square with K >= 2")
        for i, row in enumerate(matrix):
            if row[i] != 0.0:
                raise ValueError(f"mis_matrix diagonal entry [{i}][{i}] must be 0")
            if any(c < 0 for c in row):
                raise ValueError("mis_matrix entries must be nonnegative")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")

    @property
    def num_classes(self) -> int:
        return len(self.mis_matrix)


@dataclass(frozen=True)
class Decision:
    """Outcome of a halting policy: the predicted label and the trigger time."""

    predicted_label: int
    trigger_time: int


@dataclass(frozen=True)
class EvalRecord:
    """One priced decision: the atom of every report."""

    dataset: str
    method: str
    alpha: float
    series_id: str
    true_label: int
    predicted_label: int
    trigger_time: int
    weighted_cost: float
    misclassification_cost: float
    delay_cost: float
    oracle_time: int
    oracle_cost: float
    regret: float


def delay_cost(model: CostModel, t: int, length: int) -> float:
    """Unweighted delay cost of waiting until t on a series of the given length."""
    if not 1 <= t <= length:
        raise ValueError(f"t={t} outside [1, {length}]")
    frac = t / length
    if model.delay is DelayCurve.LINEAR:
        return frac
    return math.exp(frac * math.log(100.0))


def delay_costs(model: CostModel, timeline: SampledTimeline) -> np.ndarray:
    """Unweighted delay cost at each timeline index."""
    return np.array([delay_cost(model, t, timeline.series_length) for t in timeline.timestamps])


def misclassification_cost(model: CostModel, predicted: int, true: int) -> float:
    k = model.num_classes
    if not (0 <= predicted < k and 0 <= true < k):
        raise ValueError(f"label out of range for K={k}: predicted={predicted} true={true}")
    return model.mis_matrix[predicted][true]


def loss(model: CostModel, predicted: int, true: int, t: int, length: int) -> float:
    """Unweighted loss: misclassification plus delay."""
    return misclassification_cost(model, predicted, true) + delay_cost(model, t, length)


def standard_cost_model(num_classes: int, alpha: float) -> CostModel:
    """0/1 misclassification with linear delay; weighted loss lives in [0, 1]."""
    matrix = tuple(
        tuple(0.0 if i == j else 1.0 for j in range(num_classes)) for i in range(num_classes)
    )
    return CostModel(matrix, DelayCurve.LINEAR, alpha)


def anomaly_cost_model(alpha: float) -> CostModel:
    """Binary anomaly setting: a missed anomaly costs 100, a false alarm 1.

    Class 1 is the anomaly (minority) class; the delay curve is exponential
    with endpoint ratio 100.
    """
    matrix = ((0.0, 100.0), (1.0, 0.0))
    return CostModel(matrix, DelayCurve.EXPONENTIAL, alpha)
