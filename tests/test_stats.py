import itertools
import math
import warnings

import numpy as np
import pytest

from ects_bench import stats as stats_module
from ects_bench.core import quantiles

from ects_bench.stats import (
    bootstrap_mean_ci,
    bootstrap_mean_cis,
    holm_adjust,
    pairwise_comparison,
    pairwise_comparisons,
    per_dataset_ranks,
    wilcoxon_signed_rank,
    _rank_ascending,
)


def enumeration_wilcoxon(diffs):
    """Independent brute-force oracle: enumerate every sign assignment of the
    absolute-rank vector and count tail outcomes."""
    nonzero = [d for d in diffs if d != 0.0]
    n = len(nonzero)
    if n == 0:
        return 0.0, 1.0
    ranks = _rank_ascending([abs(d) for d in nonzero])
    w_pos = sum(r for r, d in zip(ranks, nonzero) if d > 0)
    total = sum(ranks)
    w = min(w_pos, total - w_pos)
    count = 0
    for signs in itertools.product((0, 1), repeat=n):
        s_pos = sum(r for r, s in zip(ranks, signs) if s)
        if min(s_pos, total - s_pos) <= w + 1e-12:
            count += 1
    return w, count / 2**n


def mean_ranks(costs):
    """Per-method mean rank across the datasets (rows of a (datasets,
    methods) cost array), as write_reports takes it."""
    return per_dataset_ranks(np.array(costs)).mean(axis=0).tolist()


class TestMeanRanks:
    def test_consistent_ordering(self):
        costs = [
            [0.1, 0.2, 0.3],
            [0.1, 0.2, 0.3],
        ]
        assert mean_ranks(costs) == [1.0, 2.0, 3.0]

    def test_tie_average(self):
        out = mean_ranks([[0.1, 0.1, 0.3]])
        assert out[0] == out[1] == 1.5
        assert out[2] == 3.0

    def test_single_dataset(self):
        assert mean_ranks([[0.5, 0.2]]) == [2.0, 1.0]

    def test_ranks_sum_invariant(self):
        rng = np.random.default_rng(4)
        m = 4
        ranks = per_dataset_ranks(rng.random((6, m)))
        assert ranks.shape == (6, m)
        for row in ranks.tolist():
            assert sum(row) == pytest.approx(m * (m + 1) / 2)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(5)
        costs = rng.random((5, 3))
        transformed = np.exp(3.0 * costs) + 1.0
        assert np.array_equal(per_dataset_ranks(costs), per_dataset_ranks(transformed))


class TestBootstrap:
    def test_constant_list_degenerate(self):
        lo, hi = bootstrap_mean_ci([2.5, 2.5, 2.5], resamples=200, seed=0)
        assert lo == hi == 2.5

    def test_contains_sample_mean(self):
        rng = np.random.default_rng(6)
        values = rng.normal(size=40).tolist()
        lo, hi = bootstrap_mean_ci(values, seed=1, resamples=2000)
        assert lo <= np.mean(values) <= hi

    def test_deterministic(self):
        values = [1.0, 2.0, 5.0, -1.0]
        assert bootstrap_mean_ci(values, seed=9) == bootstrap_mean_ci(values, seed=9)

    def test_width_shrinks_with_sample_size(self):
        rng = np.random.default_rng(7)
        small = (1.0 + 0.5 * rng.normal(size=10)).tolist()
        large = (1.0 + 0.5 * rng.normal(size=1000)).tolist()
        lo_s, hi_s = bootstrap_mean_ci(small, seed=0, resamples=2000)
        lo_l, hi_l = bootstrap_mean_ci(large, seed=0, resamples=2000)
        assert hi_l - lo_l < hi_s - lo_s

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_mean_ci([])
        with pytest.raises(ValueError):
            bootstrap_mean_ci([1.0], level=1.0)

    @pytest.mark.parametrize("values", [[0.3], [1.0, 2.0], [0.1, 0.4, 0.4, 0.9, 2.5]])
    def test_array_equals_list(self, values):
        assert bootstrap_mean_ci(np.array(values), seed=3) == bootstrap_mean_ci(values, seed=3)

    def test_empty_array_is_an_empty_list(self):
        with pytest.raises(ValueError, match="empty value list"):
            bootstrap_mean_ci(np.array([]))

    @pytest.mark.parametrize("m", [1, 3])
    def test_zero_width_rows_are_empty_value_lists(self, m):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="empty value list"):
                bootstrap_mean_cis(np.empty((m, 0)), list(range(m)))

    @pytest.mark.parametrize("resamples", [0, -1])
    def test_resamples_below_one(self, resamples):
        with pytest.raises(ValueError, match="resamples must be >= 1"):
            bootstrap_mean_ci([1.0, 2.0], resamples=resamples)

    def test_rows_equal_one_row_calls(self):
        # Rank-like rows (as ranks.csv takes them) and rows whose means
        # depend on the order of their sums.
        rng = np.random.default_rng(11)
        rows = np.vstack([rng.integers(2, 19, size=(9, 12)) / 2.0,
                          rng.random((4, 12)) * rng.choice([1e-3, 1.0, 1e5], size=(4, 12))])
        seeds = rng.integers(0, 2**63, size=len(rows)).tolist()
        got = bootstrap_mean_cis(rows, seeds, resamples=3000)
        for row, seed, (lo, hi) in zip(rows, seeds, got.tolist()):
            assert (lo, hi) == bootstrap_mean_ci(row.tolist(), seed=seed, resamples=3000)
            # The one-row reference: the draws and quantile of one generator.
            idx = np.random.default_rng(seed).integers(0, len(row), size=(3000, len(row)))
            levels = [(1.0 - 0.9) / 2.0, (1.0 + 0.9) / 2.0]
            assert [lo, hi] == np.quantile(row[idx].mean(axis=1), levels).tolist()


def drawing_bootstrap_mean_cis(rows, seeds, level=0.9, resamples=10000):
    """bootstrap_mean_cis as it was before its per-row rules: every row
    draws its resamples and quantiles their means."""
    n = rows.shape[1]
    means = np.empty((len(rows), resamples))
    for values, seed, out in zip(rows, seeds, means):
        idx = np.random.default_rng(seed).integers(0, n, size=(resamples, n))
        out[:] = values.take(idx).mean(axis=1)
    return quantiles(means, [(1.0 - level) / 2.0, (1.0 + level) / 2.0], axis=1).T


def _mixed_stacks():
    """Stacks of rows of one length that take each of bootstrap_mean_cis'
    three rules: bitwise-constant rows (rule 1), rank rows of positive
    halves (rule 2) and everything else (rule 3), in one stack."""
    rng = np.random.default_rng(12)
    ranks = rng.integers(2, 19, size=(3, 12)) / 2.0
    inf, nan = np.inf, np.nan
    twelve = np.vstack([
        np.full((10, 12), [[3.0], [1.5], [0.1], [-0.0], [0.0], [nan], [inf], [-inf], [1e308], [5e-324]]),
        ranks,
        [0.0, -0.0] * 6,  # equal under ==, not bitwise, and can draw a -0.0 mean
        [-0.0] * 11 + [0.0],
        [inf] + [1.0] * 11,
        [inf, -inf] + [2.5] * 10,
        [nan] + [1.5] * 11,
        [0.0] + list(ranks[0, 1:]),  # halves with a zero
        [-1.5] + list(ranks[1, 1:]),  # halves with a negative
        [1e4] + list(ranks[2, 1:]),  # halves whose doubled sum passes the limit
        rng.random(12) * rng.choice([1e-3, 1.0, 1e5], size=12),
    ])
    # 2048 * 2 * 16 is COUNTED_SUM_LIMIT: the first row is counted, the second drawn.
    limit = np.vstack([[2048.0] + [0.5] * 15, [2048.5] + [0.5] * 15, [2048.0] * 16])
    pairs = np.array([[1e308, 1e308], [1e308, 5e307], [1e308, -1e308], [1e308, 0.5], [0.5, 1.0]])
    wide = np.vstack([np.full(200, 0.1), rng.integers(2, 19, size=200) / 2.0, np.full(200, 4.5)])
    return [twelve, limit, pairs, wide]


class TestOneValueRows:
    """A row of one value, and any row of bitwise-equal values, resamples to
    its own mean every time; the branch that skips its draws keeps the
    drawing path's bits, signed zeros and NaN included. So do the counted
    rank rows and the drawn rows beside it in one stack."""

    VALUES = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e308, -1e308, 1.0, 1.5, 6.5, 9.0]

    @pytest.mark.parametrize("resamples", [1, 2, 3, 10000])
    @pytest.mark.parametrize("level", [0.5, 0.9])
    def test_equals_drawing_path(self, resamples, level):
        stacks = [np.array(self.VALUES)[:, None]] + _mixed_stacks()
        # ranks.csv passes its ranks transposed, in Fortran order.
        for rows in stacks + [np.asfortranarray(rows) for rows in stacks]:
            seeds = list(range(len(rows)))
            with np.errstate(invalid="ignore", over="ignore"):
                got = bootstrap_mean_cis(rows, seeds, level, resamples)
                want = drawing_bootstrap_mean_cis(rows, seeds, level, resamples)
            assert got.tobytes() == want.tobytes()

    def test_draws_nothing(self, monkeypatch):
        def no_draws(seed):
            raise AssertionError("a one-value row drew resamples")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        lo, hi = bootstrap_mean_ci([-0.0])
        assert math.copysign(1.0, lo) == math.copysign(1.0, hi) == 1.0  # the lerp's +0.0, not the value's -0.0
        assert bootstrap_mean_ci([2.5], level=0.5) == (2.5, 2.5)

    def test_draws_once_per_varying_row(self, monkeypatch):
        drawn = []
        default_rng = np.random.default_rng

        def counting_rng(seed):
            drawn.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        for rows in _mixed_stacks():
            bits = rows.view(np.int64)
            varying = np.flatnonzero((bits != bits[:, :1]).any(axis=1)).tolist()
            drawn.clear()
            with np.errstate(invalid="ignore", over="ignore"):
                bootstrap_mean_cis(rows, list(range(100, 100 + len(rows))), resamples=50)
            assert drawn == [100 + i for i in varying]


class TestWilcoxon:
    def test_five_positive(self):
        w, p = wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0])
        assert w == 0.0
        assert p == pytest.approx(2.0 / 32.0)

    def test_symmetric_max_statistic(self):
        _, p = wilcoxon_signed_rank([1.0, -1.0, 2.0, -2.0])
        assert p == pytest.approx(1.0)

    def test_all_zero_degenerate(self):
        w, p = wilcoxon_signed_rank([0.0, 0.0, 0.0])
        assert (w, p) == (0.0, 1.0)

    def test_zero_differences_dropped(self):
        w1, p1 = wilcoxon_signed_rank([1.0, 2.0, 3.0, 0.0, 0.0])
        w2, p2 = wilcoxon_signed_rank([1.0, 2.0, 3.0])
        assert (w1, p1) == (w2, p2)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(8)
        # n = 13-15 too: p is exact for every n.
        sizes = itertools.chain((int(rng.integers(1, 11)) for _ in range(200)), (13, 14, 15))
        for n in sizes:
            diffs = np.round(rng.normal(size=n), 1).tolist()
            got = wilcoxon_signed_rank(diffs)
            want = enumeration_wilcoxon(diffs)
            assert got[0] == pytest.approx(want[0])
            assert got[1] == pytest.approx(want[1])

    def test_exact_p_on_dyadic_grid(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(1, 41))
            diffs = rng.normal(size=n).tolist()
            nonzero = sum(1 for d in diffs if d != 0.0)
            _, p = wilcoxon_signed_rank(diffs)
            assert (p * 2**nonzero) == pytest.approx(round(p * 2**nonzero), abs=1e-9)

    def test_large_n_normal_approximation_reasonable(self):
        # strongly one-sided differences should be clearly significant
        diffs = list(range(1, 21))
        _, p = wilcoxon_signed_rank([float(d) for d in diffs])
        assert p < 0.001
        # symmetric differences should not be
        sym = [float(v) for v in range(1, 11)] + [-float(v) for v in range(1, 11)]
        _, p_sym = wilcoxon_signed_rank(sym)
        assert p_sym > 0.5


    def test_cached_null_equals_enumeration(self):
        # Columns with ties and zero differences; later columns repeat the
        # sorted doubled ranks of earlier ones in another order and with
        # other signs, so they read the null table an earlier column built.
        diffs = np.array([
            [0.5, -0.5, 1.0, 0.0, -2.0, 2.0, 0.5],
            [1.0, 1.0, -1.0, 0.5, 1.0, -1.0, 0.0],
            [-2.0, 0.5, 2.0, 1.0, 0.5, 0.5, 1.0],
            [0.0, 2.0, 0.5, -2.0, 0.0, 1.0, -2.0],
            [1.5, -1.5, 0.0, 1.5, -1.5, 0.0, 1.5],
        ])
        columns = np.hstack([diffs, diffs[::-1], -diffs, diffs[[2, 0, 4, 1, 3]]])
        got = pairwise_comparisons(columns, np.zeros_like(columns))
        for column, (wins, ties, losses, p) in zip(columns.T.tolist(), got):
            assert (wins, ties, losses) == (sum(d < 0 for d in column), column.count(0.0),
                                            sum(d > 0 for d in column))
            assert p == wilcoxon_signed_rank(column)[1]
            assert p == enumeration_wilcoxon(column)[1]

    def test_shared_null_tables_cold_and_warm(self):
        # Costs whose columns share tie patterns, compared in both orders:
        # from a cold cache and from one the other order filled, every p is
        # the enumeration's.
        rng = np.random.default_rng(11)
        costs_a = np.round(rng.random((8, 12)) * 4.0) / 4.0
        costs_b = np.round(rng.random((8, 12)) * 4.0) / 4.0
        costs_b[:, 6:] = costs_b[:, :6][::-1]  # tie patterns repeat across columns
        want = {order: [enumeration_wilcoxon(column)[1] for column in (a - b).T.tolist()]
                for order, (a, b) in (("ab", (costs_a, costs_b)), ("ba", (costs_b, costs_a)))}
        for orders in (("ab", "ba"), ("ba", "ab")):
            stats_module._null_table.cache_clear()
            for order in orders:  # cold, then warm
                a, b = (costs_a, costs_b) if order == "ab" else (costs_b, costs_a)
                assert [r[3] for r in pairwise_comparisons(a, b)] == want[order], order
            assert stats_module._null_table.cache_info().hits > 0


class TestHolm:
    def test_worked_example(self):
        assert holm_adjust([0.01, 0.04]) == [0.02, 0.04]

    def test_single_unchanged(self):
        assert holm_adjust([0.3]) == [0.3]

    def test_clipping_and_monotonicity(self):
        assert holm_adjust([0.6, 0.9]) == [1.0, 1.0]

    def test_pointwise_at_least_input(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            p = rng.random(int(rng.integers(1, 8))).tolist()
            adj = holm_adjust(p)
            assert all(a >= raw - 1e-15 for a, raw in zip(adj, p))
            order = sorted(range(len(p)), key=lambda i: p[i])
            along = [adj[i] for i in order]
            assert all(b >= a for a, b in zip(along, along[1:]))


class TestPairwise:
    def test_identical_lists(self):
        wins, ties, losses, p = pairwise_comparison([1.0, 2.0], [1.0, 2.0])
        assert (wins, ties, losses) == (0, 2, 0)
        assert p == 1.0

    def test_strict_dominance(self):
        a = [0.1] * 5
        b = [0.2] * 5
        wins, ties, losses, p = pairwise_comparison(a, b)
        assert (wins, ties, losses) == (5, 0, 0)
        assert p == pytest.approx(2.0 / 32.0)

    def test_single_dataset(self):
        wins, ties, losses, p = pairwise_comparison([0.1], [0.2])
        assert (wins, ties, losses) == (1, 0, 0)
        assert p == 1.0

    def test_misaligned(self):
        with pytest.raises(ValueError):
            pairwise_comparison([1.0], [1.0, 2.0])
