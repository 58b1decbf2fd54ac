import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ects_bench.core import (
    EvalRecord,
    SampledTimeline,
    anomaly_cost_model,
    delay_cost,
    misclassification_cost,
    standard_cost_model,
)
from ects_bench.metrics import (
    accuracy,
    avg_cost,
    avg_cost_alpha,
    earliness,
    optimal_time,
    pareto_front,
    regret,
    summarize,
)


def _record(true=0, predicted=0, t=10, c_m=0.0, c_d=0.5, alpha=0.5, oracle_cost=0.0):
    w = alpha * c_m + (1 - alpha) * c_d
    return EvalRecord(
        dataset="d", method="m", alpha=alpha, series_id="s",
        true_label=true, predicted_label=predicted, trigger_time=t,
        weighted_cost=w, misclassification_cost=c_m, delay_cost=c_d,
        oracle_time=t, oracle_cost=oracle_cost, regret=w - oracle_cost,
    )


class TestAverages:
    def test_avg_cost_mean_of_losses(self):
        records = [_record(c_m=1.0, c_d=0.5), _record(c_m=0.0, c_d=0.5)]
        assert avg_cost(records) == pytest.approx(1.0)

    def test_all_correct_at_deadline(self):
        records = [_record(c_m=0.0, c_d=1.0) for _ in range(4)]
        assert avg_cost(records) == pytest.approx(1.0)

    def test_single_record(self):
        assert avg_cost([_record(c_m=1.0, c_d=0.25)]) == pytest.approx(1.25)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            avg_cost([])
        with pytest.raises(ValueError):
            avg_cost_alpha([], 0.5)
        with pytest.raises(ValueError):
            accuracy([])

    def test_avg_cost_alpha_example(self):
        records = [_record(c_m=0.0, c_d=0.2), _record(c_m=1.0, c_d=1.0)]
        assert avg_cost_alpha(records, 0.5) == pytest.approx(0.55)

    def test_alpha_zero_is_mean_delay(self):
        records = [_record(c_m=1.0, c_d=0.3), _record(c_m=0.0, c_d=0.7)]
        assert avg_cost_alpha(records, 0.0) == pytest.approx(0.5)

    def test_standard_identity(self):
        rng = np.random.default_rng(0)
        T = 20
        records = []
        for i in range(50):
            correct = bool(rng.integers(0, 2))
            t = int(rng.integers(1, T + 1))
            records.append(
                _record(true=0, predicted=0 if correct else 1,
                        t=t, c_m=0.0 if correct else 1.0, c_d=t / T)
            )
        for alpha in (0.0, 0.3, 0.5, 0.9, 1.0):
            lhs = avg_cost_alpha(records, alpha)
            rhs = alpha * (1 - accuracy(records)) + (1 - alpha) * earliness(records, T)
            assert abs(lhs - rhs) < 1e-12

    def test_alpha_linearity(self):
        records = [_record(c_m=1.0, c_d=0.2), _record(c_m=0.0, c_d=0.9)]
        mid = avg_cost_alpha(records, 0.5)
        ends = 0.5 * (avg_cost_alpha(records, 0.0) + avg_cost_alpha(records, 1.0))
        assert abs(mid - ends) < 1e-12

    def test_accuracy_and_earliness(self):
        records = [_record(predicted=0, true=0, t=10), _record(predicted=1, true=0, t=10)]
        assert accuracy(records) == 0.5
        assert earliness(records, 20) == 0.5


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
        r = _record(c_m=0.0, c_d=0.5, oracle_cost=0.25)
        assert regret(r) == pytest.approx(0.0)

    def test_matches_weighted_minus_oracle(self):
        r = _record(c_m=1.0, c_d=1.0, alpha=0.5, oracle_cost=0.3)
        assert regret(r) == pytest.approx(1.0 - 0.3)


class TestParetoFront:
    def test_single_dominator(self):
        pts = [(0.2, 0.9), (0.3, 0.8), (0.1, 0.95)]
        assert pareto_front(pts) == [(0.1, 0.95)]

    def test_incomparable_kept(self):
        pts = [(0.1, 0.8), (0.5, 0.95)]
        assert pareto_front(pts) == pts

    def test_duplicates_retained(self):
        pts = [(0.2, 0.9), (0.2, 0.9)]
        assert pareto_front(pts) == pts

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            pareto_front([])

    @given(
        st.lists(
            st.tuples(st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False)),
            min_size=1,
            max_size=25,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_front_is_antichain(self, pts):
        front = pareto_front(pts)
        assert front
        for i, (e_i, a_i) in enumerate(front):
            for j, (e_j, a_j) in enumerate(front):
                if i == j:
                    continue
                strictly_dominates = e_j <= e_i and a_j >= a_i and (e_j < e_i or a_j > a_i)
                assert not strictly_dominates


def test_summarize_fields():
    timeline = SampledTimeline((5, 10), 10)
    records = [
        _record(predicted=0, true=0, t=5, c_m=0.0, c_d=0.5),
        _record(predicted=1, true=0, t=10, c_m=1.0, c_d=1.0),
    ]
    s = summarize(records, timeline)
    assert s.accuracy == 0.5
    assert s.earliness == pytest.approx(0.75)
    assert s.mean_trigger_index == pytest.approx(0.5)
    assert s.avg_cost == pytest.approx(np.mean([0.25, 1.0]))
