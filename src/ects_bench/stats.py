"""Statistical comparison layer: per-dataset ranks, bootstrap confidence
intervals, the exact two-sided Wilcoxon signed-rank test with Holm
correction, and pairwise win/tie/loss comparisons."""

from __future__ import annotations

import functools
from typing import List, Sequence, Tuple

import numpy as np

from .core import lerp_quantiles, quantile_positions, quantiles


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


def per_dataset_ranks(costs: np.ndarray) -> np.ndarray:
    """The ranks of each row of a (datasets, methods) cost array: the lowest
    cost ranks 1, and tied costs share their average rank."""
    ranks = [_rank_ascending(row) for row in np.asarray(costs, dtype=float).tolist()]
    return np.array(ranks, dtype=float).reshape(np.shape(costs))


def bootstrap_mean_ci(
    values: Sequence[float], level: float = 0.9, resamples: int = 10000, seed: int = 0
) -> Tuple[float, float]:
    """Percentile interval of resampled means; deterministic given the seed."""
    lo, hi = bootstrap_mean_cis(np.asarray([values], dtype=float), [seed], level, resamples)[0].tolist()
    return lo, hi


# A row of positive multiples of 1/2 whose doubled values sum to at most this
# is counted (bootstrap_mean_cis, rule 2): its count table has at most this
# many entries past zero, and every partial sum is exact.
COUNTED_SUM_LIMIT = 1 << 16


def bootstrap_mean_cis(
    rows: np.ndarray, seeds: Sequence[int], level: float = 0.9, resamples: int = 10000
) -> np.ndarray:
    """bootstrap_mean_ci of each row of an (m, n) array, row i drawn from
    its own generator seeded with seeds[i]; returns (m, 2) (low, high), the
    bits of drawing every row and quantiling its resample means
    (core.quantiles). Rows of no values (n = 0) are a ValueError. Each row
    takes one of three rules:

    1. A row whose values are bitwise equal draws nothing: every resample is
       the row itself, so its interval is the row's mean blended with itself
       at the quantiles' positions (a row of one value is such a row). Bits,
       not ==, decide, so a row mixing -0.0 and 0.0 is drawn: the sign of a
       zero mean is the reduction's to give, not this rule's.
    2. A row of positive multiples of 1/2 (every rank row) whose doubled
       values sum to at most COUNTED_SUM_LIMIT draws its indices as rule 3
       does and sums its doubled values. They are whole numbers, so every
       partial sum is exact, here and in rule 3's sum of halves, and the
       order of the additions cannot move a bit. One bincount, cumsum and
       searchsorted over the sums find the order statistics each quantile
       reads (core.quantile_positions' last index -1 taken modulo
       resamples), and each mean is the exact sum * 0.5 / n, the division
       np.mean makes.
    3. Any other row takes the mean of each drawn resample, and the rows'
       means are quantiled in one call."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    if resamples < 1:
        raise ValueError(f"resamples must be >= 1, got {resamples}")
    rows = np.ascontiguousarray(rows, dtype=float)  # C order: a row's mean sums as a resample's does
    n = rows.shape[1]
    if n == 0:
        raise ValueError("empty value list")
    qs = [(1.0 - level) / 2.0, (1.0 + level) / 2.0]
    lo, hi, t = quantile_positions(resamples, qs)
    bits = rows.view(np.int64)
    constant = (bits == bits[:, :1]).all(axis=1)
    with np.errstate(over="ignore"):  # a double past 2**1023 doubles to inf, which no count admits
        doubled = 2.0 * rows
    counted = ((rows > 0.0) & (doubled == np.floor(doubled))).all(axis=1) & (
        doubled.max(axis=1, initial=0.0) * n <= COUNTED_SUM_LIMIT)
    out = np.empty((len(rows), 2))
    mean = rows[constant].mean(axis=1)
    out[constant] = lerp_quantiles(mean, mean, t[:, None]).T
    order = np.concatenate([lo, hi]) % resamples  # the order statistics to read, lo's then hi's
    drawn, means = [], []
    for i in np.flatnonzero(~constant).tolist():
        idx = np.random.default_rng(seeds[i]).integers(0, n, size=(resamples, n))
        if counted[i]:
            sums = np.einsum("ij->i", doubled[i].astype(np.int64).take(idx))  # each resample's sum, exact
            picked = np.searchsorted(np.cumsum(np.bincount(sums)), order, side="right") * 0.5 / n
            out[i] = lerp_quantiles(picked[: len(qs)], picked[len(qs) :], t)
        else:
            drawn.append(i)
            means.append(rows[i].take(idx).mean(axis=1))
    if drawn:
        out[drawn] = quantiles(np.array(means), qs, axis=1).T
    return out


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
    Entries are multiples of 2**-n, so p is exactly count / 2**n for n <= 53;
    for those n the order the ranks are added in cannot change a bit, and
    every call shares one table per sorted doubled-rank tuple (_null_table).
    A larger n builds its table in the ranks' own order.
    """
    ranks, signs = _signed_ranks(diffs)
    if not ranks:
        return 0.0, 1.0
    w_pos = sum(r for r, s in zip(ranks, signs) if s > 0)
    total = sum(ranks)
    w = min(w_pos, total - w_pos)
    doubled = [int(2 * r) for r in ranks]
    dist = _null_table(tuple(sorted(doubled))) if len(doubled) <= 53 else _null_distribution(doubled)
    s_pos = np.arange(len(dist)) / 2.0
    return w, float(dist[np.minimum(s_pos, total - s_pos) <= w + 1e-12].sum())


@functools.lru_cache(maxsize=1024)
def _null_table(doubled: Tuple[int, ...]) -> np.ndarray:
    """_null_distribution of sorted doubled ranks, read-only, as every call
    shares it."""
    dist = _null_distribution(doubled)
    dist.flags.writeable = False
    return dist


def _null_distribution(doubled: Sequence[int]) -> np.ndarray:
    """P(doubled S+ = k) for k = 0 .. sum(doubled) under random signs."""
    dist = np.zeros(sum(doubled) + 1)
    dist[0] = 1.0
    for d in doubled:
        dist[d:] = 0.5 * (dist[d:] + dist[:-d])
        dist[:d] *= 0.5
    return dist


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
    return pairwise_comparisons(np.asarray(costs_a, dtype=float)[:, None],
                                np.asarray(costs_b, dtype=float)[:, None])[0]


def pairwise_comparisons(costs_a: np.ndarray, costs_b: np.ndarray) -> List[Tuple[int, int, int, float]]:
    """pairwise_comparison of each column of two (datasets, pairs) cost
    arrays of one shape."""
    wins = (costs_a < costs_b).sum(axis=0).tolist()
    ties = (costs_a == costs_b).sum(axis=0).tolist()
    return [
        (w, t, len(costs_a) - w - t, wilcoxon_signed_rank(diffs)[1])
        for w, t, diffs in zip(wins, ties, (costs_a - costs_b).T.tolist())
    ]
