"""Corpus-level decision pricing: per-group summaries (average cost,
accuracy, earliness, regret), the optimal-stopping oracle, and Pareto-front
extraction."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .core import CostModel, RecordTable, SampledTimeline, delay_costs, earliest_min, weighted_costs


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


def optimal_time(
    traces: np.ndarray, labels: Sequence[int], cost: CostModel, timeline: SampledTimeline
) -> Tuple[np.ndarray, np.ndarray]:
    """Loss-minimizing decision time of each series over the sampled timeline,
    with full knowledge of its trace; traces is (n, L, K). Ties go to the
    earliest timestamp (core.earliest_min). Returns the times and the losses,
    shape (n,) each."""
    mis = np.asarray(cost.mis_matrix)[traces.argmax(axis=2), np.asarray(labels)[:, None]]
    price = weighted_costs(cost.alpha, mis, delay_costs(cost, timeline))  # (n, L)
    best_index = earliest_min(price)
    return np.asarray(timeline.timestamps)[best_index], price[np.arange(len(price)), best_index]


def price_records(
    dataset: str,
    method: str,
    series_ids: Sequence[str],
    true: np.ndarray,
    predicted: np.ndarray,
    index: np.ndarray,
    oracle: Tuple[np.ndarray, np.ndarray],
    cost: CostModel,
    timeline: SampledTimeline,
) -> RecordTable:
    """One (dataset, method, alpha) block of records: each series' decision
    (predicted label at timeline index) priced elementwise as
    alpha * C_m + (1 - alpha) * C_d, its regret against the oracle's
    (times, losses)."""
    n = len(series_ids)
    c_m = np.asarray(cost.mis_matrix)[predicted, true]
    c_d = delay_costs(cost, timeline)[index]
    w = weighted_costs(cost.alpha, c_m, c_d)
    oracle_times, oracle_costs = oracle
    return RecordTable.from_columns(
        dataset=[dataset] * n, method=[method] * n, alpha=np.full(n, cost.alpha), series_id=series_ids,
        true_label=true, predicted_label=predicted, trigger_time=np.asarray(timeline.timestamps)[index],
        weighted_cost=w, misclassification_cost=c_m, delay_cost=c_d, oracle_time=oracle_times,
        oracle_cost=oracle_costs, regret=w - oracle_costs,
    )


def pareto_front(points: Sequence[Tuple[float, float]]) -> List[bool]:
    """Per (earliness, accuracy) point, whether it is on the non-dominated
    front. A point dominates another with <= earliness and >= accuracy, at
    least one strict; equal points are both on the front or both off it."""
    if not points:
        raise ValueError("empty point list")
    return [
        not any(e_j <= e_i and a_j >= a_i and (e_j < e_i or a_j > a_i) for e_j, a_j in points)
        for e_i, a_i in points
    ]


def summarize(records: RecordTable, timeline: SampledTimeline) -> RunSummary:
    """Summary of one (dataset, method, alpha) group, a table whose trigger
    times lie on the timeline. Each mean is np.mean over a column of the
    group, so contiguous columns give the same pairwise sums as a list."""
    if not len(records):
        raise ValueError("empty record table")
    return RunSummary(
        dataset=records.dataset[0],
        method=records.method[0],
        alpha=float(records.alpha[0]),
        avg_cost=float(np.mean(records.weighted_cost)),
        accuracy=float(np.mean(records.predicted_label == records.true_label)),
        earliness=float(np.mean(records.trigger_time)) / timeline.series_length,
        mean_regret=float(np.mean(records.regret)),
        mean_trigger_index=float(np.mean(np.searchsorted(timeline.timestamps, records.trigger_time))),
    )
