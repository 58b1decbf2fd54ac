"""Per-timestamp calibrated probabilistic classifiers over prefix features.

The prediction component is a collection of multinomial logistic models, one
per sampled timestamp, trained by full-batch gradient descent on 7 summary
features of the observed prefix, then calibrated one-vs-rest with Platt
sigmoids fitted on a held-out calibration set.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .core import LabeledSeries, SampledTimeline
from .errors import ConfigError, DataError, NumericError

NUM_FEATURES = 7


@dataclass(frozen=True)
class ClassifierHyper:
    l2: float = 1e-3
    iters: int = 500
    lr: float = 0.1

    def __post_init__(self):
        if not (self.l2 >= 0.0 and self.iters >= 0 and self.lr > 0.0):  # NaN fails too
            raise ConfigError(f"classifier needs l2 >= 0, iters >= 0 and lr > 0, got {self}")


def default_timeline(length: int, count: int = 20) -> SampledTimeline:
    """Evenly sampled decision timestamps (every 5% of T by default)."""
    if length < 2:
        raise ValueError("length must be >= 2")
    ts = sorted({min(max(int(round(i * length / count)), 1), length) for i in range(1, count + 1)})
    if ts[-1] != length:
        ts.append(length)
    return SampledTimeline(tuple(ts), length)


def extract_prefix_features(values: Sequence[float], t: int) -> np.ndarray:
    """Summary features of values[:t]: mean, population std, least-squares
    slope, min, max, last value, mean absolute first difference."""
    if not 1 <= t <= len(values):
        raise ValueError(f"t={t} outside [1, {len(values)}]")
    prefix = np.asarray(values[:t], dtype=float)
    mean = prefix.mean()
    std = prefix.std()
    if t == 1:
        slope = 0.0
        madiff = 0.0
    else:
        x = np.arange(t, dtype=float)
        xc = x - x.mean()
        slope = float(xc @ (prefix - mean) / (xc @ xc))
        madiff = float(np.abs(np.diff(prefix)).mean())
    return np.array([mean, std, slope, prefix.min(), prefix.max(), prefix[-1], madiff])


def softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def logloss_and_grad(
    weights: np.ndarray,
    intercepts: np.ndarray,
    X: np.ndarray,
    labels: np.ndarray,
    l2: float,
) -> Tuple[float, np.ndarray, np.ndarray]:
    """Mean multinomial log-loss with L2 on the weights (not the intercepts),
    plus its analytic gradient."""
    n = X.shape[0]
    probs = softmax(X @ weights + intercepts)
    picked = np.clip(probs[np.arange(n), labels], 1e-300, None)
    value = float(-np.mean(np.log(picked)) + 0.5 * l2 * np.sum(weights**2))
    onehot = np.zeros_like(probs)
    onehot[np.arange(n), labels] = 1.0
    diff = probs - onehot
    grad_w = X.T @ diff / n + l2 * weights
    grad_b = diff.mean(axis=0)
    return value, grad_w, grad_b


def fit_multinomial(
    X: np.ndarray, labels: np.ndarray, num_classes: int, hyper: ClassifierHyper
) -> Tuple[np.ndarray, np.ndarray]:
    """Full-batch gradient descent from zero initialization; deterministic."""
    d = X.shape[1]
    weights = np.zeros((d, num_classes))
    intercepts = np.zeros(num_classes)
    # A diverging fit is reported by the non-finite loss check, not by warnings.
    with np.errstate(all="ignore"):
        for _ in range(hyper.iters):
            value, grad_w, grad_b = logloss_and_grad(weights, intercepts, X, labels, hyper.l2)
            if not math.isfinite(value):
                raise NumericError("non-finite loss during multinomial fit")
            weights -= hyper.lr * grad_w
            intercepts -= hyper.lr * grad_b
    return weights, intercepts


def fit_platt(scores: np.ndarray, targets: np.ndarray, iters: int = 100) -> Tuple[float, float]:
    """Fit p = 1 / (1 + exp(A * s + B)) by Newton steps on the log-loss.

    Uses Platt's smoothed targets to avoid saturation on separable scores.
    """
    n_pos = float(targets.sum())
    n_neg = float(len(targets) - n_pos)
    t_pos = (n_pos + 1.0) / (n_pos + 2.0)
    t_neg = 1.0 / (n_neg + 2.0)
    t = np.where(targets > 0, t_pos, t_neg)
    a = 0.0
    b = math.log((n_neg + 1.0) / (n_pos + 1.0))
    reg = 1e-9
    for _ in range(iters):
        z = np.clip(a * scores + b, -500, 500)
        p = 1.0 / (1.0 + np.exp(z))
        # d logloss / dz with p = sigma(-z): p - t flips sign through z.
        dz = p - t
        w = p * (1.0 - p)
        ga = float(-(dz * scores).sum()) + reg * a
        gb = float(-dz.sum()) + reg * b
        haa = float((w * scores * scores).sum()) + reg
        hbb = float(w.sum()) + reg
        hab = float((w * scores).sum())
        det = haa * hbb - hab * hab
        if det <= 1e-18:
            break
        da = (hbb * ga - hab * gb) / det
        db = (haa * gb - hab * ga) / det
        a -= da
        b -= db
        if abs(da) < 1e-12 and abs(db) < 1e-12:
            break
    return a, b


def platt_apply(a: float, b: float, scores: np.ndarray) -> np.ndarray:
    z = np.clip(a * scores + b, -500, 500)
    return 1.0 / (1.0 + np.exp(z))


@dataclass
class TimestampModel:
    weights: np.ndarray  # (d, K)
    intercepts: np.ndarray  # (K,)
    feature_mean: np.ndarray  # (d,)
    feature_std: np.ndarray  # (d,)
    platt: List[Tuple[float, float]]  # per-class (A, B)


@dataclass
class ChronologicalClassifierCollection:
    """One calibrated linear classifier per timeline timestamp."""

    timeline: SampledTimeline
    num_classes: int
    models: Dict[int, TimestampModel] = field(default_factory=dict)

    def _scores(self, values: Sequence[float], t: int) -> Tuple[TimestampModel, np.ndarray]:
        if t not in self.timeline.timestamps:
            raise ValueError(f"timestamp {t} not in timeline")
        model = self.models[t]
        feats = (extract_prefix_features(values, t) - model.feature_mean) / model.feature_std
        return model, feats @ model.weights + model.intercepts

    def predict_proba(self, values: Sequence[float], t: int, calibrated: bool = True) -> np.ndarray:
        model, scores = self._scores(values, t)
        if not calibrated:
            return softmax(scores)
        per_class = np.array(
            [platt_apply(a, b, np.array([scores[c]]))[0] for c, (a, b) in enumerate(model.platt)]
        )
        total = per_class.sum()
        if total <= 0 or not np.isfinite(total):
            return np.full(self.num_classes, 1.0 / self.num_classes)
        return per_class / total

    def prob_trace(self, series: LabeledSeries, calibrated: bool = True) -> np.ndarray:
        """Probability vectors over the whole timeline, shape (len(timeline), K)."""
        if series.length != self.timeline.series_length:
            raise DataError(
                f"series length {series.length} != timeline length {self.timeline.series_length}"
            )
        return np.stack(
            [self.predict_proba(series.values, t, calibrated) for t in self.timeline.timestamps]
        )

    def to_json(self) -> str:
        doc = {
            "timeline": list(self.timeline.timestamps),
            "series_length": self.timeline.series_length,
            "num_classes": self.num_classes,
            "models": {
                str(t): {
                    "weights": m.weights.tolist(),
                    "intercepts": m.intercepts.tolist(),
                    "feature_mean": m.feature_mean.tolist(),
                    "feature_std": m.feature_std.tolist(),
                    "platt": [list(p) for p in m.platt],
                }
                for t, m in self.models.items()
            },
        }
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "ChronologicalClassifierCollection":
        doc = json.loads(text)
        timeline = SampledTimeline(tuple(doc["timeline"]), doc["series_length"])
        coll = cls(timeline, doc["num_classes"])
        for t_str, m in doc["models"].items():
            coll.models[int(t_str)] = TimestampModel(
                weights=np.array(m["weights"]),
                intercepts=np.array(m["intercepts"]),
                feature_mean=np.array(m["feature_mean"]),
                feature_std=np.array(m["feature_std"]),
                platt=[(float(a), float(b)) for a, b in m["platt"]],
            )
        return coll


def fit_collection(
    train: Sequence[LabeledSeries],
    timeline: SampledTimeline,
    hyper: ClassifierHyper,
    calibration_set: Sequence[LabeledSeries],
) -> ChronologicalClassifierCollection:
    """Fit the per-timestamp models on train and their Platt calibrators on
    the held-out calibration set. Deterministic given the inputs."""
    train_labels = np.array([s.label for s in train])
    calib_labels = np.array([s.label for s in calibration_set])
    num_classes = int(max(train_labels.max(), calib_labels.max())) + 1
    for part, labels in (("train", train_labels), ("calibration", calib_labels)):
        present = set(labels.tolist())
        missing = sorted(set(range(num_classes)) - present)
        if missing:
            raise DataError(f"classes {missing} absent from the {part} set")

    coll = ChronologicalClassifierCollection(timeline, num_classes)
    for t in timeline.timestamps:
        X = np.stack([extract_prefix_features(s.values, t) for s in train])
        mean = X.mean(axis=0)
        std = X.std(axis=0)
        std = np.where(std < 1e-12, 1.0, std)
        Xs = (X - mean) / std
        try:
            weights, intercepts = fit_multinomial(Xs, train_labels, num_classes, hyper)
        except NumericError as exc:
            raise NumericError(f"timestamp {t}: {exc}") from None
        Xc = (np.stack([extract_prefix_features(s.values, t) for s in calibration_set]) - mean) / std
        calib_scores = Xc @ weights + intercepts
        platt = [
            fit_platt(calib_scores[:, c], (calib_labels == c).astype(float))
            for c in range(num_classes)
        ]
        coll.models[t] = TimestampModel(weights, intercepts, mean, std, platt)
    return coll
