"""Statistical comparison layer: per-dataset ranks, bootstrap confidence
intervals, the exact two-sided Wilcoxon signed-rank test with Holm
correction, and pairwise win/tie/loss comparisons."""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np


def _rank_ascending(values: Sequence[float]) -> List[float]:
    """Ranks starting at 1, ties receive the average rank."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = 0.5 * (i + j) + 1.0
        for idx in order[i : j + 1]:
            ranks[idx] = avg
        i = j + 1
    return ranks


def per_dataset_ranks(costs: Dict[str, Dict[str, float]], methods: Sequence[str]) -> Dict[str, List[float]]:
    """Rank vectors per method across datasets in dataset order;
    costs[dataset][method], lower is better (rank 1)."""
    out: Dict[str, List[float]] = {m: [] for m in methods}
    for dataset in sorted(costs):
        row = costs[dataset]
        missing = [m for m in methods if m not in row]
        if missing:
            raise ValueError(f"missing cost for {missing[0]!r} on dataset {dataset!r}")
        ranks = _rank_ascending([row[m] for m in methods])
        for m, r in zip(methods, ranks):
            out[m].append(r)
    return out


def bootstrap_mean_ci(
    values: Sequence[float], level: float = 0.9, resamples: int = 10000, seed: int = 0
) -> Tuple[float, float]:
    """Percentile interval of resampled means; deterministic given the seed."""
    if not values:
        raise ValueError("empty value list")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    arr = np.asarray(values, dtype=float)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(arr), size=(resamples, len(arr)))
    means = arr[idx].mean(axis=1)
    lo, hi = np.quantile(means, [(1.0 - level) / 2.0, (1.0 + level) / 2.0]).tolist()
    return lo, hi


def _signed_ranks(diffs: Sequence[float]) -> Tuple[List[float], List[int]]:
    nonzero = [d for d in diffs if d != 0.0]
    ranks = _rank_ascending([abs(d) for d in nonzero])
    signs = [1 if d > 0 else -1 for d in nonzero]
    return ranks, signs


def wilcoxon_signed_rank(diffs: Sequence[float]) -> Tuple[float, float]:
    """Wilcoxon signed-rank: returns (W, p), exact and two-sided for any n.

    W is the smaller of the positive/negative rank sums. Zero differences are
    dropped and tied absolute differences share their average rank. p is
    P(min(S+, S-) <= W) under random signs, from the null distribution of S+
    counted over the doubled rank sums: tie-averaged ranks are whole or half
    numbers, so each rank r leaves the table as it is or shifts it by 2r.
    Entries are multiples of 2**-n, so p is exactly count / 2**n for n <= 53.
    """
    ranks, signs = _signed_ranks(diffs)
    if not ranks:
        return 0.0, 1.0
    w_pos = sum(r for r, s in zip(ranks, signs) if s > 0)
    total = sum(ranks)
    w = min(w_pos, total - w_pos)
    doubled = [int(2 * r) for r in ranks]
    dist = np.zeros(sum(doubled) + 1)
    dist[0] = 1.0
    for d in doubled:
        dist[d:] = 0.5 * (dist[d:] + dist[:-d])
        dist[:d] *= 0.5
    s_pos = np.arange(len(dist)) / 2.0
    return w, float(dist[np.minimum(s_pos, total - s_pos) <= w + 1e-12].sum())


def holm_adjust(p_values: Sequence[float]) -> List[float]:
    """Holm step-down adjustment, returned in original order, clipped at 1."""
    m = len(p_values)
    order = sorted(range(m), key=lambda i: p_values[i])
    adjusted = [0.0] * m
    running = 0.0
    for pos, i in enumerate(order):
        running = max(running, (m - pos) * p_values[i])
        adjusted[i] = min(1.0, running)
    return adjusted


def pairwise_comparison(
    costs_a: Sequence[float], costs_b: Sequence[float]
) -> Tuple[int, int, int, float]:
    """(wins, ties, losses, p): wins counts datasets where a is cheaper."""
    if len(costs_a) != len(costs_b):
        raise ValueError(f"misaligned lists: {len(costs_a)} vs {len(costs_b)}")
    wins = sum(1 for a, b in zip(costs_a, costs_b) if a < b)
    ties = sum(1 for a, b in zip(costs_a, costs_b) if a == b)
    losses = len(costs_a) - wins - ties
    diffs = [a - b for a, b in zip(costs_a, costs_b)]
    _, p = wilcoxon_signed_rank(diffs)
    return wins, ties, losses, p
