import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ects_bench.core import (
    RECORD_FIELDS,
    RecordTable,
    SampledTimeline,
    anomaly_cost_model,
    delay_cost,
    misclassification_cost,
    standard_cost_model,
)
from ects_bench.metrics import (
    optimal_time,
    pareto_front,
    price_records,
    summarize,
    summarize_groups,
)

T = 20
TIMELINE = SampledTimeline(tuple(range(1, T + 1)), T)


def _records(decisions, alpha=0.5, oracle_costs=None, timeline=TIMELINE):
    """One (dataset, method, alpha) group of records priced under the
    standard binary cost model; decisions are (true, predicted, t)."""
    true, predicted, times = np.array(decisions, dtype=int).reshape(-1, 3).T
    n = len(decisions)
    oracle = (np.full(n, timeline.timestamps[-1]),
              np.zeros(n) if oracle_costs is None else np.asarray(oracle_costs, dtype=float))
    return price_records("d", ["m"], [f"s{i}" for i in range(n)], true, predicted[None, None],
                         np.searchsorted(timeline.timestamps, times)[None, None], [oracle],
                         [standard_cost_model(2, alpha)], timeline)


class TestAverages:
    def test_avg_cost_mean_of_losses(self):
        records = _records([(0, 1, 10), (0, 0, 10)])  # weighted costs 0.75 and 0.25
        assert summarize(records, TIMELINE).avg_cost == pytest.approx(0.5)

    def test_all_correct_at_deadline(self):
        records = _records([(0, 0, T)] * 4, alpha=0.0)
        assert summarize(records, TIMELINE).avg_cost == pytest.approx(1.0)

    def test_single_record(self):
        s = summarize(_records([(0, 1, 5)], alpha=0.5), TIMELINE)
        assert s.avg_cost == pytest.approx(0.5 * 1.0 + 0.5 * 0.25)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            summarize(_records([]), TIMELINE)

    def test_avg_cost_alpha_example(self):
        records = _records([(0, 0, 4), (0, 1, 20)], alpha=0.5)
        assert summarize(records, TIMELINE).avg_cost == pytest.approx(0.55)

    def test_alpha_zero_is_mean_delay(self):
        records = _records([(0, 1, 6), (0, 0, 14)], alpha=0.0)
        assert summarize(records, TIMELINE).avg_cost == pytest.approx(0.5)

    def test_standard_identity(self):
        rng = np.random.default_rng(0)
        decisions = []
        for i in range(50):
            correct = bool(rng.integers(0, 2))
            t = int(rng.integers(1, T + 1))
            decisions.append((0, 0 if correct else 1, t))
        for alpha in (0.0, 0.3, 0.5, 0.9, 1.0):
            s = summarize(_records(decisions, alpha=alpha), TIMELINE)
            rhs = alpha * (1 - s.accuracy) + (1 - alpha) * s.earliness
            assert abs(s.avg_cost - rhs) < 1e-12

    def test_alpha_linearity(self):
        decisions = [(0, 1, 4), (0, 0, 18)]
        cost = {a: summarize(_records(decisions, alpha=a), TIMELINE).avg_cost for a in (0.0, 0.5, 1.0)}
        assert abs(cost[0.5] - 0.5 * (cost[0.0] + cost[1.0])) < 1e-12

    def test_accuracy_and_earliness(self):
        s = summarize(_records([(0, 0, 10), (0, 1, 10)]), TIMELINE)
        assert s.accuracy == 0.5
        assert s.earliness == 0.5


class TestGroupedSummaries:
    TIMELINES = {"a": SampledTimeline((1, 3, 5), 5), "b": SampledTimeline((2, 4, 6, 8), 8),
                 "c": SampledTimeline(tuple(range(1, 21)), 20)}

    def _block(self, name, groups, size, seed):
        """One dataset's block of contiguous groups of one size, and its
        group bounds; costs span several magnitudes, so each group's sum
        depends on its order."""
        rng = np.random.default_rng(seed)
        n = groups * size
        times = rng.choice(self.TIMELINES[name].timestamps, size=n)
        costs = rng.random((2, n)) * rng.choice([1e-3, 1.0, 1e5], size=(2, n))
        columns = dict(
            dataset=np.array([name] * n, dtype=object), method=np.array(["m"] * n, dtype=object),
            alpha=np.arange(n) // size / groups,
            series_id=np.array([f"s{i % size}" for i in range(n)], dtype=object),
            true_label=rng.integers(0, 2, n), predicted_label=rng.integers(0, 2, n),
            trigger_time=times, weighted_cost=costs[0], misclassification_cost=np.zeros(n),
            delay_cost=np.zeros(n), oracle_time=times, oracle_cost=np.zeros(n), regret=costs[1],
        )
        assert set(columns) == set(RECORD_FIELDS)
        return RecordTable(**columns, text=np.empty(n, dtype=object)), np.arange(0, n + 1, size)

    def test_grouped_equal_per_group_reference(self):
        # Sizes that cross numpy's 128-element pairwise block; each call
        # stacks one dataset's groups of one size in one (groups, size) mean.
        for size in [1, 7, 8, 9, 128, 129, 256, 257, 60]:
            for seed, name in enumerate(sorted(self.TIMELINES)):
                timeline = self.TIMELINES[name]
                table, bounds = self._block(name, seed + 2, size, seed)
                got = summarize_groups(table, bounds, timeline)
                assert len(got) == seed + 2
                for s, lo in zip(got, bounds.tolist()):
                    group = table.take(slice(lo, lo + size))
                    assert s == summarize(group, timeline)
                    # The one-group formulas, each np.mean over the group's own slice.
                    assert (s.dataset, s.method, s.alpha) == (name, "m", float(group.alpha[0]))
                    assert s.avg_cost == float(np.mean(group.weighted_cost))
                    assert s.accuracy == float(np.mean(group.predicted_label == group.true_label))
                    assert s.earliness == float(np.mean(group.trigger_time)) / timeline.series_length
                    assert s.mean_regret == float(np.mean(group.regret))
                    assert s.mean_trigger_index == float(
                        np.mean(np.searchsorted(timeline.timestamps, group.trigger_time)))


def weighted_price(cost, predicted, true, t, length):
    a = cost.alpha
    return a * misclassification_cost(cost, predicted, true) + (1.0 - a) * delay_cost(cost, t, length)


def brute_force_oracle(trace, true, cost, timeline):
    """Reference: one series' scan, a Python price per timestamp; a later
    timestamp must win by more than 1e-15."""
    best_t, best_loss = None, None
    for i, t in enumerate(timeline.timestamps):
        value = weighted_price(cost, int(np.argmax(trace[i])), true, t, timeline.series_length)
        if best_loss is None or value < best_loss - 1e-15:
            best_t, best_loss = t, value
    return best_t, best_loss


def one_oracle(trace, true, cost, timeline):
    """optimal_time on a stack of one series."""
    times, losses = optimal_time(trace[None], (true,), cost, timeline)
    return int(times[0]), float(losses[0])


class TestOptimalTime:
    def test_always_correct_earliest(self):
        timeline = SampledTimeline(tuple(range(1, 11)), 10)
        trace = np.tile([0.9, 0.1], (10, 1))
        cost = standard_cost_model(2, 0.5)
        t_star, loss = one_oracle(trace, 0, cost, timeline)
        assert t_star == 1
        assert loss == pytest.approx(0.05)

    def test_switch_at_six(self):
        timeline = SampledTimeline(tuple(range(1, 11)), 10)
        trace = np.array([[0.2, 0.8]] * 5 + [[0.8, 0.2]] * 5)
        cost = standard_cost_model(2, 0.5)
        t_star, loss = one_oracle(trace, 0, cost, timeline)
        assert t_star == 6
        assert loss == pytest.approx(0.3)

    def test_always_wrong_earliest(self):
        timeline = SampledTimeline(tuple(range(1, 11)), 10)
        trace = np.tile([0.1, 0.9], (10, 1))
        cost = standard_cost_model(2, 0.5)
        t_star, _ = one_oracle(trace, 0, cost, timeline)
        assert t_star == 1

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            L = int(rng.integers(2, 21))
            T = int(rng.integers(L, 3 * L + 1))
            ts = sorted(rng.choice(np.arange(1, T), size=L - 1, replace=False).tolist()) + [T]
            timeline = SampledTimeline(tuple(ts), T)
            K = int(rng.integers(2, 4))
            raw = rng.random((L, K))
            trace = raw / raw.sum(axis=1, keepdims=True)
            true = int(rng.integers(0, K))
            alpha = float(rng.random())
            cost = standard_cost_model(K, alpha)
            t_star, loss = one_oracle(trace, true, cost, timeline)
            losses = [
                weighted_price(cost, int(np.argmax(trace[i])), true, t, T)
                for i, t in enumerate(timeline.timestamps)
            ]
            best = min(losses)
            assert loss == pytest.approx(best, abs=1e-12)
            assert t_star == timeline.timestamps[int(np.argmin(losses))]

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 12),
        L=st.integers(1, 12),
        extra=st.integers(0, 30),
        anomaly=st.booleans(),
        K=st.integers(2, 4),
        alpha=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stack_equals_per_series_scan(self, n, L, extra, anomaly, K, alpha, seed):
        rng = np.random.default_rng(seed)
        T = L + extra
        ts = sorted(rng.choice(np.arange(1, T), size=L - 1, replace=False).tolist()) + [T]
        timeline = SampledTimeline(tuple(ts), T)
        if anomaly:
            K, cost = 2, anomaly_cost_model(alpha)
        else:
            cost = standard_cost_model(K, alpha)
        # Few distinct values: argmax ties within a vector, price ties across time.
        traces = rng.integers(0, 3, size=(n, L, K)).astype(float) + 1.0
        traces /= traces.sum(axis=2, keepdims=True)
        labels = tuple(int(v) for v in rng.integers(0, K, size=n))
        times, losses = optimal_time(traces, labels, cost, timeline)
        assert times.shape == losses.shape == (n,)
        for i in range(n):
            assert (times[i], losses[i]) == brute_force_oracle(traces[i], labels[i], cost, timeline)


class TestRegret:
    def test_zero_at_oracle(self):
        records = _records([(0, 0, 10)], alpha=0.5, oracle_costs=[0.25])
        assert records.regret[0] == pytest.approx(0.0)
        assert summarize(records, TIMELINE).mean_regret == pytest.approx(0.0)

    def test_matches_weighted_minus_oracle(self):
        records = _records([(0, 1, 20)], alpha=0.5, oracle_costs=[0.3])
        assert records.regret[0] == pytest.approx(1.0 - 0.3)
        assert summarize(records, TIMELINE).mean_regret == pytest.approx(1.0 - 0.3)


class TestParetoFront:
    def test_single_dominator(self):
        pts = [(0.2, 0.9), (0.3, 0.8), (0.1, 0.95)]
        assert pareto_front(pts) == [False, False, True]

    def test_incomparable_kept(self):
        pts = [(0.1, 0.8), (0.5, 0.95)]
        assert pareto_front(pts) == [True, True]

    def test_duplicates_retained(self):
        pts = [(0.2, 0.9), (0.2, 0.9)]
        assert pareto_front(pts) == [True, True]

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            pareto_front([])

    @pytest.mark.parametrize("pts", [[(0.2, 0.9)], [(0.2, 0.9), (0.3, 0.8), (0.1, 0.95)], [(0.2, 0.9), (0.2, 0.9)]])
    def test_array_equals_list(self, pts):
        assert pareto_front(np.array(pts)) == pareto_front(pts)

    def test_empty_array_is_an_empty_list(self):
        with pytest.raises(ValueError, match="empty point list"):
            pareto_front(np.empty((0, 2)))

    @given(st.lists(st.tuples(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.sampled_from([0.0, 0.5, 1.0])),
                    min_size=1, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_matrix_equals_brute_force_with_ties(self, pts):
        # A coarse grid gives duplicate points and ties on either axis.
        want = [
            not any(e_j <= e_i and a_j >= a_i and (e_j < e_i or a_j > a_i) for e_j, a_j in pts)
            for e_i, a_i in pts
        ]
        assert pareto_front(pts) == want

    @given(
        st.lists(
            st.tuples(st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False)),
            min_size=1,
            max_size=25,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_front_is_antichain(self, pts):
        on_front = pareto_front(pts)
        assert len(on_front) == len(pts)
        front = [p for p, on in zip(pts, on_front) if on]
        assert front
        for i, (e_i, a_i) in enumerate(front):
            for j, (e_j, a_j) in enumerate(front):
                if i == j:
                    continue
                strictly_dominates = e_j <= e_i and a_j >= a_i and (e_j < e_i or a_j > a_i)
                assert not strictly_dominates


def test_summarize_fields():
    timeline = SampledTimeline((5, 10), 10)
    records = _records([(0, 0, 5), (0, 1, 10)], timeline=timeline)
    s = summarize(records, timeline)
    assert (s.dataset, s.method, s.alpha) == ("d", "m", 0.5)
    assert s.accuracy == 0.5
    assert s.earliness == pytest.approx(0.75)
    assert s.mean_trigger_index == pytest.approx(0.5)
    assert s.avg_cost == pytest.approx(np.mean([0.25, 1.0]))
