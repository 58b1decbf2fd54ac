"""Per-timestamp calibrated probabilistic classifiers over prefix features.

The prediction component is a collection of multinomial logistic models, one
per sampled timestamp, trained by full-batch gradient descent on 7 summary
features of the observed prefix, then calibrated one-vs-rest with Platt
sigmoids fitted on a held-out calibration set. The information-gain dataset
screen fits such a collection at a few prefix windows and compares their AUCs.

Every step runs once over a whole stack, and its public function is the
stacked form: series enter as (n, T) value matrices, prefix_features forms
an (L, n, d) tensor, logloss_and_grad steps the L descents as one and
fit_platt runs the L·K Platt fits as one. Each
array form keeps the bits of the per-series, per-timestamp arithmetic: a
score or a slope is one product per row (``np.matmul`` over a stack of rows;
a single GEMM or GEMV over all rows rounds differently), and every summary
is a per-row reduction along the last axis. Each prefix feature is the
numpy reduction that defines it, over each prefix of a block of
``_ROW_BLOCK`` rows, which bounds the (n, t) temporaries; as every operation
is per row, the blocks cannot change a bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import SampledTimeline, SeriesSet
from .data import Dataset, stratified_split
from .errors import ConfigError, DataError, NumericError
from .stats import per_dataset_ranks

NUM_FEATURES = 7
_ROW_BLOCK = 64
MAX_ITERS = 100_000  # descent steps per fit, so a config cannot run without end


@dataclass(frozen=True)
class ClassifierHyper:
    l2: float = 1e-3
    iters: int = 500
    lr: float = 0.1

    def __post_init__(self):
        # NaN and +inf fail too: json reads the literals NaN and Infinity.
        if not (0.0 <= self.l2 < math.inf and 0 <= self.iters <= MAX_ITERS and 0.0 < self.lr < math.inf):
            raise ConfigError(f"classifier needs finite l2 >= 0 and lr > 0, and 0 <= iters <= {MAX_ITERS}, got {self}")


def default_timeline(length: int) -> SampledTimeline:
    """Evenly sampled decision timestamps: every 5% of T, 20 at most."""
    if length < 2:
        raise ValueError("length must be >= 2")
    ts = sorted({min(max(int(round(i * length / 20)), 1), length) for i in range(1, 21)})
    return SampledTimeline(tuple(ts), length)


def prefix_features(values: np.ndarray, timestamps: Sequence[int]) -> np.ndarray:
    """(L, n, 7) summary features of the prefix values[:, :t] of each row
    of the (n, T) values at each of the increasing timestamps t: mean,
    population std, least-squares slope, min, max, last value, mean
    absolute first difference. Each is the numpy reduction that defines it,
    over each prefix of a block of _ROW_BLOCK rows; |diff| is formed once
    per block, and the std is taken from the centred prefix the slope uses,
    the one np.std forms."""
    if not 1 <= timestamps[0] <= timestamps[-1] <= values.shape[1]:
        raise ValueError(f"timestamps {list(timestamps)} outside [1, {values.shape[1]}]")
    out = np.empty((len(timestamps), len(values), NUM_FEATURES))
    for lo in range(0, len(values), _ROW_BLOCK):
        rows = slice(lo, lo + _ROW_BLOCK)
        block = values[rows]
        absdiff = np.abs(np.diff(block[:, : timestamps[-1]], axis=1))
        for j, t in enumerate(timestamps):
            prefix = block[:, :t]
            mean = prefix.mean(axis=1)
            centred = prefix - mean[:, None]
            feats = out[j, rows]
            feats[:, 0] = mean
            feats[:, 1] = np.sqrt(np.add.reduce(centred * centred, axis=1) / t)
            feats[:, 3] = prefix.min(axis=1)
            feats[:, 4] = prefix.max(axis=1)
            feats[:, 5] = prefix[:, -1]
            if t == 1:
                feats[:, 2] = feats[:, 6] = 0.0
                continue
            x = np.arange(t, dtype=float)
            xc = x - x.mean()
            # One dot per row; one GEMV over the rows rounds differently.
            feats[:, 2] = np.matmul(centred[:, None, :], xc[:, None])[:, 0, 0] / (xc @ xc)
            feats[:, 6] = absdiff[:, : t - 1].mean(axis=1)
    return out


def softmax(z: np.ndarray) -> np.ndarray:
    """Probabilities along the last (class) axis. The row max and sum run
    over class slices, K-1 elementwise ops rather than one tiny reduction
    per row, and keep its bits: a max is exact, and numpy's sum adds fewer
    than 8 terms in sequence; from 8 classes on its pairwise sum is kept."""
    e = np.exp(z - _class_fold(np.maximum, z)[..., None])
    total = _class_fold(np.add, e) if e.shape[-1] < 8 else e.sum(axis=-1)
    return e / total[..., None]


def _class_fold(op, a: np.ndarray) -> np.ndarray:
    """op folded left to right over the class slices a[..., k]."""
    out = a[..., 0]
    for k in range(1, a.shape[-1]):
        out = op(out, a[..., k])
    return out


def logloss_and_grad(
    weights: np.ndarray,
    intercepts: np.ndarray,
    X: np.ndarray,
    labels: np.ndarray,
    l2: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean multinomial log-loss with L2 on the weights (not the intercepts),
    plus its analytic gradient. Leading axes of weights (..., d, K),
    intercepts (..., K) and X (..., n, d) stack independent problems over the
    same labels (n,); the loss then has the leading shape. Each mean is
    np.mean's sum and division without its Python wrapper."""
    n = X.shape[-2]
    rows = np.arange(n)
    probs = softmax(np.matmul(X, weights) + intercepts[..., None, :])
    picked = np.maximum(probs[..., rows, labels], 1e-300)
    value = -(np.add.reduce(np.log(picked), axis=-1) / n) + 0.5 * l2 * np.add.reduce(weights**2, axis=(-2, -1))
    probs[..., rows, labels] -= 1.0  # now probs minus the one-hot labels
    grad_w = np.matmul(np.swapaxes(X, -1, -2), probs) / n + l2 * weights
    # numpy adds the rows of an axis -2 sum in sequence; a contiguous copy
    # with that axis first adds them in the same order, all classes at once.
    series_first = probs.transpose((probs.ndim - 2, *range(probs.ndim - 2), probs.ndim - 1)).copy()
    return value, grad_w, np.add.reduce(series_first, axis=0) / n


def fit_multinomial(
    X: np.ndarray, labels: np.ndarray, num_classes: int, hyper: ClassifierHyper
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full-batch gradient descent from zero initialization; deterministic.
    Leading axes of X (..., n, d) stack independent fits, run as one.

    Returns the weights (..., d, K), the intercepts (..., K) and, per fit,
    whether every loss along the way, the final loss and the final weights
    are finite.
    """
    lead, d = X.shape[:-2], X.shape[-1]
    weights = np.zeros(lead + (d, num_classes))
    intercepts = np.zeros(lead + (num_classes,))
    finite = np.ones(lead, dtype=bool)
    # A diverging fit is reported through `finite`, not by warnings.
    with np.errstate(all="ignore"):
        for _ in range(hyper.iters):
            value, grad_w, grad_b = logloss_and_grad(weights, intercepts, X, labels, hyper.l2)
            finite &= np.isfinite(value)
            weights -= hyper.lr * grad_w
            intercepts -= hyper.lr * grad_b
        value = logloss_and_grad(weights, intercepts, X, labels, hyper.l2)[0]
    finite &= np.isfinite(value) & np.isfinite(weights).all(axis=(-2, -1))
    return weights, intercepts, finite & np.isfinite(intercepts).all(axis=-1)


def fit_platt(scores: np.ndarray, targets: np.ndarray) -> Tuple[np.ndarray, Optional[Tuple[int, str]]]:
    """Fit p = 1 / (1 + exp(A * s + B)) to each row of the (P, n) scores and
    0/1 targets by up to 100 Newton steps on the log-loss, with Platt's
    smoothed targets to avoid saturation on separable scores. Returns the
    (P, 2) coefficients (A, B) and the lowest failed row with its error
    message (a non-finite Hessian determinant, A or B), or None.

    One Newton loop runs over the rows still iterating. Each row's sums run
    along the contiguous last axis, numpy's pairwise sum of a single row,
    and each row stops by its own tests, so a row's bits do not depend on
    the others."""
    n_pos = targets.sum(axis=1, dtype=float)
    n_neg = targets.shape[1] - n_pos
    t_pos = (n_pos + 1.0) / (n_pos + 2.0)
    t_neg = 1.0 / (n_neg + 2.0)
    t = np.where(targets > 0, t_pos[:, None], t_neg[:, None])
    a = np.zeros(len(scores))
    b = np.array([math.log(x) for x in ((n_neg + 1.0) / (n_pos + 1.0)).tolist()])
    failed = np.zeros(len(scores), dtype=bool)
    rows = np.arange(len(scores))  # the rows still iterating
    s = np.ascontiguousarray(scores)
    reg = 1e-9
    with np.errstate(all="ignore"):
        for _ in range(100):
            ra, rb = a[rows], b[rows]
            p = platt_apply(ra[:, None], rb[:, None], s)
            # d logloss / dz with p = sigma(-z): p - t flips sign through z.
            dz = p - t
            w = p * (1.0 - p)
            ga = -(dz * s).sum(axis=1) + reg * ra
            gb = -dz.sum(axis=1) + reg * rb
            haa = (w * s * s).sum(axis=1) + reg
            hbb = w.sum(axis=1) + reg
            hab = (w * s).sum(axis=1)
            det = haa * hbb - hab * hab
            bad = ~np.isfinite(det)
            failed[rows[bad]] = True
            step = ~bad & (det > 1e-18)
            da = (hbb * ga - hab * gb) / det
            db = (haa * gb - hab * ga) / det
            a[rows[step]] = ra[step] - da[step]
            b[rows[step]] = rb[step] - db[step]
            go = step & ~((np.abs(da) < 1e-12) & (np.abs(db) < 1e-12))
            if go.all():
                continue
            rows, s, t = rows[go], s[go], t[go]
            if not len(rows):
                break
    coefs = np.stack([a, b], axis=1)
    bad = failed | ~np.isfinite(coefs).all(axis=1)
    if not bad.any():
        return coefs, None
    first = int(np.argmax(bad))
    return coefs, (first, "non-finite Hessian in Platt calibration" if failed[first] else "non-finite Platt coefficients")


def platt_apply(a, b, scores: np.ndarray) -> np.ndarray:
    z = np.clip(a * scores + b, -500, 500)
    return 1.0 / (1.0 + np.exp(z))


@dataclass(frozen=True)
class ChronologicalClassifierCollection:
    """One calibrated linear classifier per timeline timestamp, held as
    stacks whose leading axis is the timeline index."""

    timeline: SampledTimeline
    weights: np.ndarray  # (L, d, K)
    intercepts: np.ndarray  # (L, K)
    feature_mean: np.ndarray  # (L, d)
    feature_std: np.ndarray  # (L, d)
    platt: np.ndarray  # (L, K, 2): per-class Platt (A, B)

    @property
    def num_classes(self) -> int:
        return self.intercepts.shape[1]

    def prob_trace(self, values: np.ndarray) -> np.ndarray:
        """Calibrated probability vectors of each series over the whole
        timeline, shape (n, L, K), from the (n, T) series values; row i
        depends on values[i] alone."""
        values = np.ascontiguousarray(values, dtype=float)
        T = self.timeline.series_length
        if values.ndim != 2 or values.shape[1] != T:
            raise DataError(f"series values of shape {values.shape}, expected (n, {T})")
        scores = _scores(prefix_features(values, self.timeline.timestamps), self)
        per_class = platt_apply(self.platt[:, None, :, 0], self.platt[:, None, :, 1], scores)
        total = per_class.sum(axis=-1, keepdims=True)
        usable = (total > 0) & np.isfinite(total)
        probs = np.divide(per_class, total, out=np.full_like(per_class, 1.0 / self.num_classes), where=usable)
        return np.ascontiguousarray(probs.transpose(1, 0, 2))


def _scores(features: np.ndarray, collection: ChronologicalClassifierCollection) -> np.ndarray:
    """(L, n, K) raw linear scores of the (L, n, d) prefix features under each
    timestamp's standardisation and model: the Platt sigmoids' inputs, whose
    argmax is the uncalibrated prediction."""
    z = (features - collection.feature_mean[:, None, :]) / collection.feature_std[:, None, :]
    # One (1, d) @ (d, K) product per row; one GEMM over the rows rounds differently.
    scores = np.matmul(z[:, :, None, :], collection.weights[:, None])[:, :, 0, :]
    scores += collection.intercepts[:, None, :]
    return scores


def fit_collection(
    train: SeriesSet,
    timeline: SampledTimeline,
    hyper: ClassifierHyper,
    calibration_set: SeriesSet,
) -> ChronologicalClassifierCollection:
    """Fit the per-timestamp models on train and their Platt calibrators on
    the held-out calibration set. Deterministic given the inputs. A fit that
    diverges is a NumericError naming its earliest timestamp."""
    train_labels, calib_labels = train.labels, calibration_set.labels
    num_classes = int(max(train_labels.max(), calib_labels.max())) + 1
    for part, labels in (("train", train_labels), ("calibration", calib_labels)):
        present = set(labels.tolist())
        missing = sorted(set(range(num_classes)) - present)
        if missing:
            raise DataError(f"classes {missing} absent from the {part} set")

    timestamps = timeline.timestamps
    X = prefix_features(train.values, timestamps)
    mean = X.mean(axis=1)
    std = X.std(axis=1)
    std = np.where(std < 1e-12, 1.0, std)
    weights, intercepts, finite = fit_multinomial(
        (X - mean[:, None, :]) / std[:, None, :], train_labels, num_classes, hyper
    )
    if not finite.all():
        raise NumericError(f"timestamp {timestamps[int(np.argmin(finite))]}: multinomial fit diverged")
    collection = ChronologicalClassifierCollection(
        timeline, weights, intercepts, mean, std, np.empty((len(timestamps), num_classes, 2))
    )
    calib_scores = _scores(prefix_features(calibration_set.values, timestamps), collection)
    # One row per (timestamp, class), in that order.
    rows = np.ascontiguousarray(calib_scores.transpose(0, 2, 1)).reshape(-1, len(calib_labels))
    targets = np.tile(calib_labels == np.arange(num_classes)[:, None], (len(timestamps), 1))
    coefs, failure = fit_platt(rows, targets.astype(float))
    if failure is not None:
        raise NumericError(f"timestamp {timestamps[failure[0] // num_classes]}: {failure[1]}")
    collection.platt[:] = coefs.reshape(collection.platt.shape)
    return collection


# Prefix percentage windows for the information-gain screen.
SCREEN_EARLY = (5, 10, 15, 20, 25)
SCREEN_HALF = (40, 45, 50, 55, 60)
SCREEN_FULL = (75, 80, 85, 90, 95, 100)


def _macro_ovr_auc(proba: np.ndarray, labels: np.ndarray, num_classes: int) -> float:
    """Macro one-vs-rest AUC from probability scores, rank-based with ties.
    Every class must have positives and negatives among the labels, as a
    Dataset's train labels do: K >= 2, and every class is present."""
    ranks = per_dataset_ranks(proba.T)  # (K, n): each class's scores ranked over the series
    aucs = []
    for c in range(num_classes):
        pos = labels == c
        n_pos = int(pos.sum())
        n_neg = len(labels) - n_pos
        aucs.append((ranks[c, pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
    return float(np.mean(aucs))


def information_gain_screen(dataset: Dataset, seed: int = 0):
    """Screen a dataset for information gain over time.

    Fits the per-timestamp classifier pipeline at the early / half / full
    prefix windows and compares mean one-vs-rest train AUC. Accepted iff both
    the half-window and full-window gains over the early window are strictly
    positive. Returns (auc_gain_half, auc_gain_full, accepted).
    """
    T = dataset.length
    percents = sorted(set(SCREEN_EARLY) | set(SCREEN_HALF) | set(SCREEN_FULL))
    ts_of = {p: min(max(int(round(p / 100.0 * T)), 1), T) for p in percents}
    timestamps = sorted(set(ts_of.values()))
    timeline = SampledTimeline(tuple(timestamps), T)
    calib, fit_part = stratified_split(dataset.train, 0.3, seed)
    collection = fit_collection(fit_part, timeline, ClassifierHyper(), calib)
    labels = dataset.train.labels
    traces = collection.prob_trace(dataset.train.values)
    auc_at = {
        t: _macro_ovr_auc(traces[:, j], labels, dataset.num_classes) for j, t in enumerate(timestamps)
    }

    def window_mean(window):
        return float(np.mean([auc_at[ts_of[p]] for p in window]))

    early = window_mean(SCREEN_EARLY)
    gain_half = window_mean(SCREEN_HALF) - early
    gain_full = window_mean(SCREEN_FULL) - early
    return gain_half, gain_full, (gain_half > 0.0 and gain_full > 0.0)
