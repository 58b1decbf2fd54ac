"""Corpus-level decision pricing: per-group summaries (average cost,
accuracy, earliness, regret), the optimal-stopping oracle, and Pareto-front
extraction."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

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
    for size in sorted(set(sizes.tolist())):
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
