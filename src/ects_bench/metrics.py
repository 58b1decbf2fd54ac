"""Corpus-level decision pricing: average costs, accuracy/earliness, the
optimal-stopping oracle, regret, and Pareto-front extraction."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .core import CostModel, EvalRecord, SampledTimeline, delay_costs


@dataclass(frozen=True)
class RunSummary:
    dataset: str
    method: str
    alpha: float
    avg_cost: float
    accuracy: float
    earliness: float
    mean_regret: float
    mean_trigger_index: float


def _require_nonempty(records: Sequence[EvalRecord]) -> None:
    if not records:
        raise ValueError("empty record list")


def avg_cost(records: Sequence[EvalRecord]) -> float:
    """Mean unweighted per-record cost C_m + C_d."""
    _require_nonempty(records)
    return float(np.mean([r.misclassification_cost + r.delay_cost for r in records]))


def avg_cost_alpha(records: Sequence[EvalRecord], alpha: float) -> float:
    """Mean of alpha * C_m + (1 - alpha) * C_d."""
    _require_nonempty(records)
    return float(
        np.mean([alpha * r.misclassification_cost + (1.0 - alpha) * r.delay_cost for r in records])
    )


def accuracy(records: Sequence[EvalRecord]) -> float:
    _require_nonempty(records)
    return float(np.mean([r.predicted_label == r.true_label for r in records]))


def earliness(records: Sequence[EvalRecord], series_length: int) -> float:
    """Mean normalized trigger time, denominator the true series length."""
    _require_nonempty(records)
    return float(np.mean([r.trigger_time for r in records])) / series_length


def optimal_time(
    traces: np.ndarray, labels: Sequence[int], cost: CostModel, timeline: SampledTimeline
) -> Tuple[np.ndarray, np.ndarray]:
    """Loss-minimizing decision time of each series over the sampled timeline,
    with full knowledge of its trace; traces is (n, L, K). One left-to-right
    scan over the L columns: a later index must win by more than 1e-15, so
    ties go to the earliest timestamp. Returns the times and the losses,
    shape (n,) each."""
    a = cost.alpha
    mis = np.asarray(cost.mis_matrix)[traces.argmax(axis=2), np.asarray(labels)[:, None]]
    price = a * mis + (1.0 - a) * delay_costs(cost, timeline)  # (n, L)
    best, best_index = price[:, 0], np.zeros(len(price), dtype=int)
    for i in range(1, price.shape[1]):
        better = price[:, i] < best - 1e-15
        best = np.where(better, price[:, i], best)
        best_index[better] = i
    return np.asarray(timeline.timestamps)[best_index], best


def regret(record: EvalRecord) -> float:
    """Realized weighted loss minus the oracle loss; nonnegative by the
    argmin definition of the oracle."""
    return record.weighted_cost - record.oracle_cost


def pareto_front(points: Sequence[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Non-dominated subset of (earliness, accuracy) points, input order
    preserved. A point dominates another with <= earliness and >= accuracy,
    at least one strict."""
    if not points:
        raise ValueError("empty point list")
    out = []
    for i, (e_i, a_i) in enumerate(points):
        dominated = any(
            (e_j <= e_i and a_j >= a_i and (e_j < e_i or a_j > a_i))
            for j, (e_j, a_j) in enumerate(points)
            if j != i
        )
        if not dominated:
            out.append((e_i, a_i))
    return out


def summarize(records: Sequence[EvalRecord], timeline: SampledTimeline) -> RunSummary:
    """Summary of a single (dataset, method, alpha) record group."""
    _require_nonempty(records)
    first = records[0]
    return RunSummary(
        dataset=first.dataset,
        method=first.method,
        alpha=first.alpha,
        avg_cost=float(np.mean([r.weighted_cost for r in records])),
        accuracy=accuracy(records),
        earliness=earliness(records, timeline.series_length),
        mean_regret=float(np.mean([r.regret for r in records])),
        mean_trigger_index=float(np.mean([timeline.index_of(r.trigger_time) for r in records])),
    )
