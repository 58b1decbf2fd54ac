"""Corpus-level decision pricing: per-group summaries (average cost,
accuracy, earliness, regret), the optimal-stopping oracle, and Pareto-front
extraction."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .core import CostModel, RecordTable, SampledTimeline, delay_costs, earliest_min, sweep_base, weighted_costs


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
    methods: Sequence[str],
    series_ids: Sequence[str],
    true: np.ndarray,
    predicted: np.ndarray,
    index: np.ndarray,
    oracles: Sequence[Tuple[np.ndarray, np.ndarray]],
    costs: Sequence[CostModel],
    timeline: SampledTimeline,
) -> RecordTable:
    """The records of a dataset's (alpha, method) sweep in one table, one
    block of its series per (alpha, method) in alpha-major order: each
    series' decision (predicted (A, M, n) label at timeline index (A, M, n))
    priced elementwise as alpha * C_m + (1 - alpha) * C_d under costs[a],
    with its regret against that alpha's oracle (times, losses), oracles[a].
    costs is an alpha sweep (core.sweep_base), so one misclassification
    matrix and one delay curve price every alpha."""
    shape = A, M, n = np.shape(index)
    base = sweep_base(costs)
    alpha = np.array([c.alpha for c in costs], dtype=float)[:, None, None]
    c_m = np.asarray(base.mis_matrix)[predicted, true]
    c_d = delay_costs(base, timeline)[index]
    w = weighted_costs(alpha, c_m, c_d)
    oracle_times, oracle_costs = (np.array(part)[:, None, :] for part in zip(*oracles))  # (A, 1, n) each
    return RecordTable.from_columns(
        dataset=[dataset] * w.size, method=[m for m in methods for _ in range(n)] * A,
        alpha=np.broadcast_to(alpha, shape).ravel(), series_id=list(series_ids) * (A * M),
        true_label=np.broadcast_to(true, shape).ravel(), predicted_label=predicted.ravel(),
        trigger_time=np.asarray(timeline.timestamps)[index].ravel(), weighted_cost=w.ravel(),
        misclassification_cost=c_m.ravel(), delay_cost=c_d.ravel(),
        oracle_time=np.broadcast_to(oracle_times, shape).ravel(),
        oracle_cost=np.broadcast_to(oracle_costs, shape).ravel(), regret=(w - oracle_costs).ravel(),
    )


def pareto_front(points: Sequence[Tuple[float, float]]) -> List[bool]:
    """Per (earliness, accuracy) point, whether it is on the non-dominated
    front. A point dominates another with <= earliness and >= accuracy, at
    least one strict; equal points are both on the front or both off it.
    One (n, n) dominance matrix: entry [j, i] says whether j dominates i."""
    if len(points) == 0:
        raise ValueError("empty point list")
    e, a = np.asarray(points, dtype=float).T
    dominates = (e[:, None] <= e) & (a[:, None] >= a) & ((e[:, None] < e) | (a[:, None] > a))
    return (~dominates.any(axis=0)).tolist()


def summarize(records: RecordTable, timeline: SampledTimeline) -> RunSummary:
    """Summary of one (dataset, method, alpha) group, a table whose trigger
    times lie on the timeline."""
    if not len(records):
        raise ValueError("empty record table")
    return summarize_groups(records, [0, len(records)], timeline)[0]


def summarize_groups(records: RecordTable, bounds: Sequence[int], timeline: SampledTimeline) -> List[RunSummary]:
    """One summary per group of one dataset, group g being the rows
    bounds[g]:bounds[g + 1], all of one size, whose trigger times lie on the
    timeline. Each field's mean is taken along the rows of its (groups, size)
    block, so every group keeps the pairwise sum np.mean gives its own
    contiguous slice; the trigger indices come from one searchsorted."""
    starts = np.asarray(bounds[:-1])
    rows = slice(bounds[0], bounds[-1])
    columns = (records.weighted_cost[rows], records.predicted_label[rows] == records.true_label[rows],
               records.trigger_time[rows], records.regret[rows],
               np.searchsorted(timeline.timestamps, records.trigger_time[rows]))
    avg_cost, accuracy, trigger_time, mean_regret, mean_index = (
        column.reshape(len(starts), -1).mean(axis=1) for column in columns)
    return list(map(
        RunSummary, records.dataset[starts].tolist(), records.method[starts].tolist(),
        records.alpha[starts].tolist(), avg_cost.tolist(), accuracy.tolist(),
        (trigger_time / timeline.series_length).tolist(), mean_regret.tolist(), mean_index.tolist(),
    ))
