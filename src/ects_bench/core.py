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


@dataclass(frozen=True, eq=False)
class SeriesSet:
    """Fixed-length univariate series with their class labels, held as
    columns: ids (n,), values (n, T) float64 and labels (n,) int64. Row i is
    series i; a set is checked once, as a whole."""

    ids: Tuple[str, ...]
    values: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        ids = tuple(self.ids)
        # C order keeps each row's reductions in the order of a 1-D series.
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if values.ndim != 2 or len(values) != len(ids) or labels.shape != (len(ids),):
            raise ValueError(f"{len(ids)} ids, values of shape {values.shape} and labels of shape "
                             f"{labels.shape} do not agree")
        if values.shape[1] < 2:
            raise ValueError("series length must be >= 2")
        for bad, what in ((~np.isfinite(values).all(axis=1), "a non-finite value"),
                          (labels < 0, "a negative label")):
            if bad.any():
                raise ValueError(f"series {ids[int(np.argmax(bad))]!r} has {what}")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def length(self) -> int:
        return self.values.shape[1]

    def take(self, index) -> "SeriesSet":
        """The series at index (an integer array), in that order."""
        index = np.asarray(index, dtype=np.int64)
        ids = tuple(map(self.ids.__getitem__, index.tolist()))
        return SeriesSet(ids, self.values[index], self.labels[index])


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
            if not all(0.0 <= c < math.inf for c in row):  # NaN fails too
                raise ValueError("mis_matrix entries must be finite and nonnegative")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")

    @property
    def num_classes(self) -> int:
        return len(self.mis_matrix)


RECORD_FIELDS = (
    "dataset", "method", "alpha", "series_id", "true_label", "predicted_label",
    "trigger_time", "weighted_cost", "misclassification_cost", "delay_cost",
    "oracle_time", "oracle_cost", "regret",
)
RECORD_TYPES = (str, str, float, str, int, int, int, float, float, float, int, float, float)
COLUMN_DTYPE = {str: object, int: np.int64, float: np.float64}
# Bytes no number in a series or records file may hold, though int() and
# float() would read them: '_' digit separators, whitespace and control
# characters, and non-ASCII bytes (digits of other scripts).
OUTSIDE_FORMAT = bytes(range(33)) + b"_" + bytes(range(128, 256))


@dataclass(frozen=True, eq=False)
class RecordTable:
    """Priced decisions, one row per (dataset, method, alpha, series): the
    atom of every report. Each field is a numpy column (str fields are object
    columns); ``text`` holds each row's records.csv line, newline included,
    and is what the records writer joins."""

    dataset: np.ndarray
    method: np.ndarray
    alpha: np.ndarray
    series_id: np.ndarray
    true_label: np.ndarray
    predicted_label: np.ndarray
    trigger_time: np.ndarray
    weighted_cost: np.ndarray
    misclassification_cost: np.ndarray
    delay_cost: np.ndarray
    oracle_time: np.ndarray
    oracle_cost: np.ndarray
    regret: np.ndarray
    text: np.ndarray

    @classmethod
    def from_columns(cls, **columns) -> "RecordTable":
        """A table from one sequence per field; the row text is formatted a
        column at a time, repr for floats and str otherwise (_column_text)."""
        cols = {
            name: np.asarray(columns[name], dtype=COLUMN_DTYPE[kind])
            for name, kind in zip(RECORD_FIELDS, RECORD_TYPES)
        }
        fields = [_column_text(cols[name], kind) for name, kind in zip(RECORD_FIELDS, RECORD_TYPES)]
        text = [",".join(row) + "\n" for row in zip(*fields)]
        return cls(**cols, text=np.array(text, dtype=object))

    @classmethod
    def concat(cls, tables: Sequence["RecordTable"]) -> "RecordTable":
        """The tables' rows in order, in one table."""
        if len(tables) < 2:
            return tables[0] if tables else cls.from_columns(**{name: () for name in RECORD_FIELDS})
        return cls(**{name: np.concatenate([getattr(t, name) for t in tables])
                      for name in RECORD_FIELDS + ("text",)})

    def __len__(self) -> int:
        return len(self.text)

    def take(self, index) -> "RecordTable":
        """The rows at index (a slice gives views) in a new table."""
        return RecordTable(**{name: getattr(self, name)[index] for name in RECORD_FIELDS + ("text",)})


def _column_text(column: np.ndarray, kind: type) -> list:
    """Each value of a record column as text: str of a str, and repr of a
    float or str of an int formatted once per distinct value, a float keyed
    by its bits (so -0.0 keeps its own repr)."""
    if kind is str:
        return list(map(str, column.tolist()))
    distinct, inverse = np.unique(column.view(np.int64), return_inverse=True)
    text = list(map(repr if kind is float else str, distinct.view(column.dtype).tolist()))
    return np.array(text, dtype=object)[inverse].tolist()


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


def sweep_base(costs: Sequence[CostModel]) -> CostModel:
    """The first of an alpha sweep's cost models, which must differ in alpha
    alone: its misclassification matrix and delay curve are every alpha's."""
    if len({(cost.mis_matrix, cost.delay) for cost in costs}) != 1:
        raise ValueError("an alpha sweep needs one or more cost models that differ in alpha alone")
    return costs[0]


def weighted_costs(alpha: float, c_m, c_d):
    """alpha * C_m + (1 - alpha) * C_d elementwise: the weighted price of
    decisions from their unweighted misclassification and delay costs."""
    return alpha * c_m + (1.0 - alpha) * c_d


TIE_MARGIN = 1e-15  # how far a value must beat the running best in earliest_min


def earliest_min(values: np.ndarray) -> np.ndarray:
    """The tie rule: per row of an (n, C) array, the index of its least value
    in a left-to-right scan where a value must beat the running best (at
    first +inf) by more than TIE_MARGIN, so ties keep the earliest. NaN
    never wins; a row with no value below +inf gives index 0.

    Every value scanned is at least the running best less TIE_MARGIN, so a
    value not below all those before it (np.fmin skips NaN) cannot win: the scan
    visits only each row's strict prefix minima, the r-th of every row at
    once."""
    before = np.full(values.shape, math.inf)  # the least non-NaN value before each column
    before[:, 1:] = values[:, :-1]
    np.fmin.accumulate(before, axis=1, out=before)
    rows, cols = np.nonzero(values < before)  # row-major, so each row's columns in order
    rank = np.arange(len(rows)) - np.searchsorted(rows, rows)  # place among its row's minima
    best, index = np.full(len(values), math.inf), np.zeros(len(values), dtype=np.int64)
    for r in range(int(rank.max(initial=-1)) + 1):
        at = rank == r
        row, col = rows[at], cols[at]
        value = values[row, col]
        better = value < best[row] - TIE_MARGIN
        best[row[better]] = value[better]
        index[row[better]] = col[better]
    return index


def quantiles(values: np.ndarray, qs: Sequence[float], axis: int) -> np.ndarray:
    """np.quantile(values, qs, axis=axis) of finite values, bit for bit, by
    numpy's default linear method: at the virtual index (n - 1) * q, the
    order statistics either side over one np.partition, blended as numpy's
    _lerp blends them (lerp_quantiles). np.quantile's first call imports
    numpy.ma."""
    arr = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    lo, hi, t = quantile_positions(arr.shape[0], qs)
    part = np.partition(arr, sorted({0, *lo.tolist(), *hi.tolist()}), axis=0)
    return lerp_quantiles(part[lo], part[hi], t.reshape(t.shape + (1,) * (arr.ndim - 1)))


def quantile_positions(n: int, qs: Sequence[float]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For n sorted values and each q of qs, the order statistics (lo, hi)
    either side of the virtual index (n - 1) * q and its weight t on hi,
    as np.quantile's linear method finds them (an index of -1 is the last)."""
    virtual = (n - 1) * np.asarray(qs, dtype=float)
    below = np.floor(virtual)
    last = virtual >= n - 1
    below[last] = -1
    lo = below.astype(np.intp)
    return lo, np.where(last, -1, lo + 1), virtual - below


def lerp_quantiles(a: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """numpy's _lerp of order statistics a and b by weight t, bit for bit."""
    diff = b - a
    out = a + diff * t
    np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
    return out


def misclassification_cost(model: CostModel, predicted: int, true: int) -> float:
    k = model.num_classes
    if not (0 <= predicted < k and 0 <= true < k):
        raise ValueError(f"label out of range for K={k}: predicted={predicted} true={true}")
    return model.mis_matrix[predicted][true]


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
