"""Corpus-level decision pricing: per-group summaries (average cost,
accuracy, earliness, regret), the optimal-stopping oracle, and Pareto-front
extraction."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

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
    least one strict; equal points are both on the front or both off it.
    One (n, n) dominance matrix: entry [j, i] says whether j dominates i."""
    if not points:
        raise ValueError("empty point list")
    e, a = np.asarray(points, dtype=float).T
    dominates = (e[:, None] <= e) & (a[:, None] >= a) & ((e[:, None] < e) | (a[:, None] > a))
    return (~dominates.any(axis=0)).tolist()


def summarize(records: RecordTable, timeline: SampledTimeline) -> RunSummary:
    """Summary of one (dataset, method, alpha) group, a table whose trigger
    times lie on the timeline."""
    if not len(records):
        raise ValueError("empty record table")
    return summarize_groups(records, [0], {records.dataset[0]: timeline})[0]


def summarize_groups(
    records: RecordTable, starts: Sequence[int], timelines: Dict[str, SampledTimeline]
) -> List[RunSummary]:
    """One summary per group of a table whose (dataset, method, alpha)
    groups are the contiguous row ranges that begin at starts (ascending,
    from 0); each group's trigger times lie on its dataset's timeline.

    Each mean is taken over an (groups, size) stack of the groups of one
    size, row by row, so every group keeps the pairwise sum np.mean gives
    its own contiguous column. Trigger indices come from one searchsorted
    per run of groups of one dataset."""
    starts = np.asarray(starts, dtype=np.int64)
    bounds = np.append(starts, len(records))
    datasets = records.dataset[starts].tolist()
    index = np.empty(len(records), dtype=np.int64)
    series_length = np.empty(len(starts), dtype=np.int64)
    g = 0
    for name, run in itertools.groupby(datasets):
        lo, g = g, g + sum(1 for _ in run)
        rows = slice(bounds[lo], bounds[g])
        index[rows] = np.searchsorted(timelines[name].timestamps, records.trigger_time[rows])
        series_length[lo:g] = timelines[name].series_length
    sizes = np.diff(bounds)
    columns = (records.weighted_cost, records.predicted_label == records.true_label,
               records.trigger_time, records.regret, index)
    means = np.empty((len(columns), len(starts)))
    for size in np.unique(sizes).tolist():
        which = np.flatnonzero(sizes == size)
        rows = starts[which, None] + np.arange(size)
        for out, column in zip(means, columns):
            out[which] = column[rows].mean(axis=1)
    avg_cost, accuracy, trigger_time, mean_regret, mean_index = means
    return list(map(
        RunSummary, datasets, records.method[starts].tolist(), records.alpha[starts].tolist(),
        avg_cost.tolist(), accuracy.tolist(), (trigger_time / series_length).tolist(),
        mean_regret.tolist(), mean_index.tolist(),
    ))
