import itertools
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ects_bench import trigger as trigger_module
from ects_bench.core import (
    CostModel, DelayCurve, SampledTimeline, delay_costs, earliest_min, quantiles, standard_cost_model,
    weighted_costs,
)
from ects_bench.errors import DataError
from ects_bench.trigger import (
    AlapTrigger,
    AsapTrigger,
    CALIMERA_RIDGE,
    CalimeraTrigger,
    EconomyTrigger,
    EcecTrigger,
    METHODS,
    PROBA_GRID,
    ProbaThresholdTrigger,
    STOPPING_RULE_GRID,
    StoppingRuleTrigger,
    TriggerTrainSet,
    _build_economy,
    _calimera_systems,
    _ecec_confidences,
    _ecec_precisions,
    _expected_mis,
    _expected_mis_paths,
    _groups,
    _halt_tables,
    _median_pairwise_distance,
    _rbf_kernel,
    _sq_distances,
    _stopping_rule_halts,
    backward_min_costs,
    first_halts,
    fit_alap,
    fit_asap,
    fit_calimera,
    fit_ecec,
    fit_economy,
    fit_methods,
    fit_proba_threshold,
    fit_stopping_rule,
    make_myopic,
    simulate_online,
    trigger_stats,
)

TESTS = os.path.dirname(os.path.abspath(__file__))


def random_train_set(seed=0, n=12, L=5, K=2, T=10):
    rng = np.random.default_rng(seed)
    ts = tuple(sorted(rng.choice(np.arange(1, T), size=L - 1, replace=False).tolist()) + [T])
    timeline = SampledTimeline(ts, T)
    raw = rng.random((n, L, K))
    traces = raw / raw.sum(axis=2, keepdims=True)
    labels = rng.integers(0, K, size=n)
    return TriggerTrainSet(traces, labels, timeline)


def first_step_halts(model, p_t):
    """A one-alpha sweep's decision at timeline index 0 for one probability
    vector: halts on a stack of one series observed for one timestamp."""
    return bool(model.halts(trigger_stats(np.array([[p_t]], dtype=float)))[0, 0, 0, 0])


def trigger_times(model, trace, myopic=False):
    """Each alpha's trigger time in the online replay of one trace."""
    return [time for _, time in simulate_online(model, trace, myopic)]


def confident_correct_train_set(n=8, L=4, T=8):
    """Every trace is maximally confident in the true class from the start."""
    timeline = SampledTimeline(tuple(range(T - L + 1, T + 1)), T)
    traces = []
    labels = []
    for i in range(n):
        label = i % 2
        vec = np.array([0.95, 0.05]) if label == 0 else np.array([0.05, 0.95])
        traces.append(np.tile(vec, (L, 1)))
        labels.append(label)
    return TriggerTrainSet(np.array(traces), np.array(labels), timeline)


class TestBaselines:
    def test_asap_halts_immediately(self):
        train = random_train_set()
        model = AsapTrigger(train.timeline, 2)
        for trace in train.traces:
            assert trigger_times(model, trace) == [train.timeline.timestamps[0]] * 2

    def test_alap_waits_until_deadline(self):
        train = random_train_set()
        model = AlapTrigger(train.timeline, 2)
        for trace in train.traces:
            for label, time in simulate_online(model, trace):
                assert time == train.timeline.timestamps[-1]
                assert label == int(np.argmax(trace[-1]))

    def test_forced_halt_at_last_index(self):
        train = random_train_set()
        model = AlapTrigger(train.timeline, 1)
        assert model.halts(trigger_stats(train.traces[:1]))[0, :, 0, -1].tolist() == [True]

    def test_index_out_of_range(self):
        """A trace shorter than the timeline would leave its last indices
        unanswered, and a longer one is not on it: both are errors."""
        train = random_train_set()
        model = AsapTrigger(train.timeline, 1)
        trace = train.traces[0]
        for off_timeline in (trace[:-1], trace[:0], np.vstack([trace, trace[-1:]])):
            with pytest.raises(ValueError, match="a trace of"):
                simulate_online(model, off_timeline)
        assert simulate_online(model, trace) == [(int(np.argmax(trace[0])), train.timeline.timestamps[0])]


class TestProbaThreshold:
    def test_decide_examples(self):
        def decide_proba_threshold(p_t, theta):
            return first_step_halts(ProbaThresholdTrigger(SampledTimeline((1, 2), 2), [theta]), p_t)

        assert decide_proba_threshold(np.array([0.8, 0.2]), 0.7) is True
        assert decide_proba_threshold(np.array([0.6, 0.4]), 0.7) is False
        assert decide_proba_threshold(np.array([0.5, 0.5]), 1.0 / 40.0) is True

    def test_lowest_grid_point_equals_asap_binary(self):
        train = random_train_set(seed=1, K=2)
        asap = AsapTrigger(train.timeline, 1)
        thin = ProbaThresholdTrigger(train.timeline, [1.0 / 40.0])
        for trace in train.traces:
            assert trigger_times(thin, trace) == trigger_times(asap, trace)

    def test_theta_one_equals_alap_without_certainty(self):
        train = random_train_set(seed=2, K=3)
        full = ProbaThresholdTrigger(train.timeline, [1.0])
        alap = AlapTrigger(train.timeline, 1)
        for trace in train.traces:
            if np.max(trace) < 1.0:
                assert trigger_times(full, trace) == trigger_times(alap, trace)

    def test_theta_validation(self):
        train = random_train_set()
        for thetas in ([0.0], [1.5], [0.5, 1.5]):
            with pytest.raises(ValueError):
                ProbaThresholdTrigger(train.timeline, thetas)

    def test_fit_halts_first_on_confident_traces(self):
        train = confident_correct_train_set()
        cost = standard_cost_model(2, 0.5)
        model = fit_proba_threshold(train, [cost])
        for trace in train.traces:
            assert trigger_times(model, trace) == [train.timeline.timestamps[0]]

    def test_fit_pure_delay_prefers_earliest(self):
        train = random_train_set(seed=3, K=2)
        model = fit_proba_threshold(train, [standard_cost_model(2, 0.0)])
        for trace in train.traces:
            assert trigger_times(model, trace) == [train.timeline.timestamps[0]]

    def test_fit_tie_break_smallest_theta(self):
        # maximally confident traces: every theta halts immediately, equal cost
        train = confident_correct_train_set()
        train = TriggerTrainSet(
            np.tile([1.0, 0.0], (len(train.traces), len(train.timeline), 1)),
            train.labels,
            train.timeline,
        )
        model = fit_proba_threshold(train, [standard_cost_model(2, 0.5)])
        assert model.thetas.tolist() == [PROBA_GRID[0]]

    def test_fit_deterministic(self):
        train = random_train_set(seed=4)
        cost = standard_cost_model(2, 0.4)
        assert np.array_equal(fit_proba_threshold(train, [cost]).thetas, fit_proba_threshold(train, [cost]).thetas)


class TestStoppingRule:
    def test_decide_examples(self):
        def decide_stopping_rule(p_t, t, length, gamma):
            model = StoppingRuleTrigger(SampledTimeline((t, length), length), [gamma])
            return first_step_halts(model, p_t)

        # p_t gives (p1, p2): (0.5, 0.1), (0.5, 0.1) and (0.5, 0.0).
        assert decide_stopping_rule([0.5, 0.4, 0.1], 3, 10, (0.0, 0.0, 1.0)) is True
        assert decide_stopping_rule([0.5, 0.4, 0.1], 3, 10, (0.0, 0.0, -1.0)) is False
        assert decide_stopping_rule([0.5, 0.5], 6, 10, (1.0, 0.0, -1.0)) is False

    def test_time_only_gammas_match_baselines(self):
        train = random_train_set(seed=5, K=3)
        asap = AsapTrigger(train.timeline, 1)
        alap = AlapTrigger(train.timeline, 1)
        as_asap = StoppingRuleTrigger(train.timeline, [(0.0, 0.0, 1.0)])
        as_alap = StoppingRuleTrigger(train.timeline, [(0.0, 0.0, -1.0)])
        for trace in train.traces:
            assert trigger_times(as_asap, trace) == trigger_times(asap, trace)
            assert trigger_times(as_alap, trace) == trigger_times(alap, trace)

    def test_fit_pure_delay_halts_first(self):
        train = random_train_set(seed=6)
        model = fit_stopping_rule(train, [standard_cost_model(2, 0.0)])
        for trace in train.traces:
            assert trigger_times(model, trace) == [train.timeline.timestamps[0]]

    def test_fit_tie_break_lexicographic(self):
        # single-timestamp timeline: every gamma is forced to the same decision
        timeline = SampledTimeline((5,), 5)
        traces = np.tile([0.7, 0.3], (4, 1, 1))
        train = TriggerTrainSet(traces, np.array([0, 0, 1, 1]), timeline)
        model = fit_stopping_rule(train, [standard_cost_model(2, 0.5)])
        assert model.gammas.tolist() == [[-1.0, -1.0, -1.0]]

    def test_fit_deterministic(self):
        train = random_train_set(seed=7)
        cost = standard_cost_model(2, 0.6)
        assert np.array_equal(fit_stopping_rule(train, [cost]).gammas, fit_stopping_rule(train, [cost]).gammas)


def hand_economy_train_set():
    """10 binary traces over timeline (1, 2): 4 of 10 wrong at the first
    timestamp, 1 of 10 wrong at the second."""
    timeline = SampledTimeline((1, 2), 2)
    right = {0: np.array([0.9, 0.1]), 1: np.array([0.1, 0.9])}
    wrong = {0: np.array([0.1, 0.9]), 1: np.array([0.9, 0.1])}
    traces = []
    labels = []
    for i in range(10):
        label = i % 2
        first = wrong[label] if i < 4 else right[label]
        second = wrong[label] if i == 0 else right[label]
        traces.append(np.stack([first, second]))
        labels.append(label)
    return TriggerTrainSet(np.array(traces), np.array(labels), timeline)


def economy_priced(train, cost, k, smoothing=1.0):
    """The (L, k, L) expected weighted cost, under cost's alpha, of halting
    at tau >= j from group g at j, that a k-bin economy model halts by."""
    return weighted_costs(cost.alpha, _build_economy(train, cost, k, smoothing).mis_paths,
                          delay_costs(cost, train.timeline))


def assert_economy_halts_are_reference(model, train, costs, stats, smoothing=1.0):
    """Each alpha's halts, at both horizons, are reference_economy_halts of
    its k's priced table."""
    halts = model.halts(stats, (False, True))
    for a, cost in enumerate(costs):
        priced = economy_priced(train, cost, model.ks[a], smoothing)
        groups = _groups(model.bin_edges[a], stats.maxp)
        for h, myopic in enumerate((False, True)):
            assert np.array_equal(halts[h, a], reference_economy_halts(priced, groups, myopic)), (a, myopic)


class TestEconomy:
    def test_hand_counts_k1(self):
        train = hand_economy_train_set()
        cost = standard_cost_model(2, 0.5)
        model = fit_economy(train, [cost], k_grid=(1,), smoothing=0.0)
        costs = economy_priced(train, cost, 1, smoothing=0.0)[0, 0, 0:]
        np.testing.assert_allclose(costs, [0.45, 0.55], atol=1e-9)
        assert first_step_halts(model, train.traces[0][0]) is True
        assert_economy_halts_are_reference(model, train, [cost], train.stats, smoothing=0.0)

    def test_k1_reduces_to_empirical_error_rate(self):
        train = random_train_set(seed=8, n=20, L=4, K=2)
        alpha = 0.3
        cost = standard_cost_model(2, alpha)
        model = fit_economy(train, [cost], k_grid=(1,), smoothing=0.0)
        priced = economy_priced(train, cost, 1, smoothing=0.0)
        P, labels = train.traces, train.labels
        pred = P.argmax(axis=2)
        T = train.timeline.series_length
        for j, t in enumerate(train.timeline.timestamps):
            err = float(np.mean(pred[:, j] != labels))
            expected = alpha * err + (1 - alpha) * (t / T)
            assert priced[j, 0, j:][0] == pytest.approx(expected, abs=1e-9)
        assert_economy_halts_are_reference(model, train, [cost], train.stats, smoothing=0.0)

    def test_transition_rows_sum_to_one(self):
        train = random_train_set(seed=9, n=30, L=5, K=3)
        tables = _build_economy(train, standard_cost_model(3, 0.5), 3, 1.0)
        assert np.allclose(tables.transitions.sum(axis=2), 1.0, atol=1e-9)

    def test_reach_vectors_stay_distributions(self):
        train = random_train_set(seed=10, n=30, L=5, K=2)
        tables = _build_economy(train, standard_cost_model(2, 0.5), 2, 1.0)
        reach = np.zeros(2)
        reach[1] = 1.0
        for step in tables.transitions:
            reach = reach @ step
            assert np.all(reach >= -1e-12)
            assert reach.sum() == pytest.approx(1.0, abs=1e-9)

    def test_first_entry_is_immediate_group_cost(self):
        train = random_train_set(seed=11, n=24, L=4, K=2)
        alpha = 0.5
        cost = standard_cost_model(2, alpha)
        model = fit_economy(train, [cost], k_grid=(2,))
        priced = economy_priced(train, cost, 2)
        mis_paths = _build_economy(train, cost, 2, 1.0).mis_paths
        d = train.timeline.timestamps
        T = train.timeline.series_length
        for j in range(len(train.timeline)):
            for g in range(model.ks[0]):
                first = priced[j, g, j:][0]
                immediate = alpha * mis_paths[j, g, j] + (1 - alpha) * (d[j] / T)
                assert first == pytest.approx(immediate, abs=1e-12)
        assert_economy_halts_are_reference(model, train, [cost], train.stats)

    def test_zero_matrix_costs_increase_with_delay(self):
        train = random_train_set(seed=12, n=20, L=5, K=2)
        zero = CostModel(((0.0, 0.0), (0.0, 0.0)), DelayCurve.LINEAR, 0.5)
        model = fit_economy(train, [zero], k_grid=(2,))
        costs = economy_priced(train, zero, 2)[0, 0, 0:]
        assert all(b > a for a, b in zip(costs, costs[1:]))
        d = np.array(train.timeline.timestamps) / train.timeline.series_length
        np.testing.assert_allclose(costs, 0.5 * d, atol=1e-12)
        assert_economy_halts_are_reference(model, train, [zero], train.stats)

    def test_zero_smoothing_absent_class_adds_nothing(self):
        # At smoothing 0 some (timestamp, group) cells lack a class, whose
        # p(predicted | y) would be 0/0: each cell's immediate cost is its
        # rows' mean misclassification cost.
        train = random_train_set(seed=1, n=30, L=5, K=3)
        cost = standard_cost_model(3, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit_economy(train, [cost], k_grid=(4,), smoothing=0.0)
            tables = _build_economy(train, cost, 4, 0.0)
        assert np.isfinite(tables.mis_paths).all()
        mis = np.asarray(cost.mis_matrix)[train.stats.pred, train.labels[:, None]]  # (n, L)
        for j in range(len(train.timeline)):
            for g in range(4):
                rows = tables.groups[:, j] == g
                assert tables.mis_paths[j, g, j] == pytest.approx(mis[rows, j].mean(), abs=1e-12)

    def test_all_infeasible_k_errors(self):
        train = random_train_set(seed=13, n=6, L=3, K=2)
        with pytest.raises(DataError, match="no feasible k"):
            fit_economy(train, [standard_cost_model(2, 0.5)], k_grid=(50,))

    def test_fit_deterministic(self):
        train = random_train_set(seed=14, n=25)
        cost = standard_cost_model(2, 0.5)
        a = fit_economy(train, [cost])
        b = fit_economy(train, [cost])
        assert a.ks == b.ks
        np.testing.assert_array_equal(a.bin_edges[0], b.bin_edges[0])
        np.testing.assert_array_equal(a.tables[0], b.tables[0])
        assert_economy_halts_are_reference(a, train, [cost], train.stats)

    def test_model_is_its_halt_tables(self, monkeypatch):
        """A fitted sweep keeps each alpha's k, edges and halt tables alone,
        and its halts price nothing: they only look the tables up."""
        train = random_train_set(seed=15, n=30, L=5, K=3)
        costs = [standard_cost_model(3, alpha) for alpha in (0.0, 0.3, 1.0)]
        model = fit_economy(train, costs)
        assert sorted(vars(model)) == ["bin_edges", "ks", "tables", "timeline"]
        for a, cost in enumerate(costs):
            np.testing.assert_array_equal(model.bin_edges[a], _build_economy(train, cost, model.ks[a], 1.0).bin_edges)
            assert model.tables[a].shape == (2, len(train.timeline), model.ks[a])

        want = [[reference_economy_halts(economy_priced(train, cost, model.ks[a]),
                                         _groups(model.bin_edges[a], train.stats.maxp), myopic)
                 for a, cost in enumerate(costs)] for myopic in (False, True)]

        def priced(*args, **kwargs):
            raise AssertionError("halts priced a cost")

        for name in ("weighted_costs", "backward_min_costs", "delay_costs"):
            monkeypatch.setattr(trigger_module, name, priced)
        assert np.array_equal(model.halts(train.stats, (False, True)), np.array(want))

    def test_sweep_groups_train_once_per_k_and_builds_one_model(self, monkeypatch):
        train = random_train_set(seed=16, n=60, L=6, K=3)
        costs = [standard_cost_model(3, alpha / 10) for alpha in range(11)]
        k_grid = tuple(range(1, 21))
        assert all(_build_economy(train, costs[0], k, 1.0) is not None for k in k_grid)
        train_groups, built, priced_alphas = [], [], []

        def groups_spy(bin_edges, maxp):
            train_groups.append(maxp is train.stats.maxp)
            return _groups(bin_edges, maxp)

        def tables_spy(priced):
            priced_alphas.append(len(priced))
            return _halt_tables(priced)

        class Counted(EconomyTrigger):
            def __init__(self, *args, **kwargs):
                built.append(args[1])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(trigger_module, "_groups", groups_spy)
        monkeypatch.setattr(trigger_module, "EconomyTrigger", Counted)
        monkeypatch.setattr(trigger_module, "_halt_tables", tables_spy)
        model = fit_economy(train, costs, k_grid=k_grid)
        assert train_groups.count(True) == len(k_grid) == len(train_groups)
        assert priced_alphas == [len(costs)] * len(k_grid)  # each k's halt tables, every alpha's, derived once
        model.halts(train.stats, (False, True))
        assert len(priced_alphas) == len(k_grid) and len(train_groups) == len(k_grid) + len(set(model.ks))
        assert [tuple(ks) for ks in built] == [model.ks] and len(model.ks) == len(costs)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), L=st.integers(1, 25), k=st.integers(1, 20),
           coarse=st.booleans())
    def test_tables_equal_their_loops(self, seed, L, k, coarse):
        """Each economy table is bit for bit the per-column or per-(j, tau)
        loop it replaced."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        maxp = rng.integers(1, 5, size=(n, L)) / 4.0 if coarse else rng.random((n, L))
        qs = [i / k for i in range(1, k)]
        edges = np.quantile(maxp, qs, axis=0).T
        loop_edges = [np.quantile(maxp[:, j], qs) for j in range(L)]
        assert np.array_equal(edges, np.array(loop_edges).reshape(L, k - 1))
        loop_groups = [np.searchsorted(loop_edges[j], maxp[:, j], side="right") for j in range(L)]
        assert np.array_equal(_groups(edges, maxp), np.stack(loop_groups, axis=1))

        mis = rng.random((L, k))
        counts = rng.integers(0, 9, size=(L - 1, k, k)) + 1.0
        transitions = counts / counts.sum(axis=2, keepdims=True)
        loop_paths = np.zeros((L, k, L))
        for j in range(L):
            reach = np.eye(k)[:, None, :]
            for tau in range(j, L):
                loop_paths[j, :, tau] = np.matmul(reach, mis[tau][:, None])[:, 0, 0]
                if tau < L - 1:
                    reach = np.matmul(reach, transitions[tau])
        assert np.array_equal(_expected_mis_paths(mis, transitions), loop_paths)

    @pytest.mark.parametrize("seed,K", [(30, 2), (31, 3)])
    def test_state_halt_table_equals_online_decision(self, seed, K):
        train = random_train_set(seed=seed, n=40, L=6, K=K)
        L = len(train.timeline)
        for alpha in [round(0.1 * i, 1) for i in range(11)]:
            cost = standard_cost_model(K, alpha)
            for k in range(1, 6):
                tables = _build_economy(train, cost, k, 1.0)
                if tables is None:
                    continue
                priced = weighted_costs(alpha, tables.mis_paths, delay_costs(cost, train.timeline))
                every_group = np.tile(np.arange(k)[:, None], (1, L))  # row g: group g at every index
                full, myopic = _halt_tables(priced).swapaxes(-1, -2)  # each (k, L)
                for m, table in ((False, full), (True, myopic)):
                    assert np.array_equal(table, reference_economy_halts(priced, every_group, m))
                for j in range(L - 1):
                    for g in range(k):
                        costs = priced[j, g, j:]
                        assert full[g, j] == (costs[0] <= costs[1:].min())
                        assert myopic[g, j] == (costs[0] <= costs[1])
                assert full[:, -1].all() and myopic[:, -1].all()


def reference_halt_outcomes(train, cost, candidate_halts):
    """The grid fits' outcomes as they were: one (n, L) halts array per
    candidate, read at its first halt."""
    first = np.array([halts.argmax(axis=1) for halts in candidate_halts])
    pred = train.stats.pred[np.arange(len(train.labels)), first]
    return np.asarray(cost.mis_matrix)[pred, train.labels], delay_costs(cost, train.timeline)[first]


def reference_grid_means(train, costs, models):
    """The (alphas, candidates) mean matrix from one model per candidate."""
    outcomes = reference_halt_outcomes(train, costs[0], (model.halts(train.stats)[0, 0] for model in models))
    return np.array([weighted_costs(cost.alpha, *outcomes).mean(axis=1) for cost in costs])


def capture_mean_costs(monkeypatch):
    """Spy on the fits' (first halts, mean matrix) pairs."""
    seen, mean_costs = [], trigger_module._mean_costs

    def spy(train, costs, first):
        seen.append((first, mean_costs(train, costs, first)))
        return seen[-1][1]

    monkeypatch.setattr(trigger_module, "_mean_costs", spy)
    return seen


GRID_FITS = {  # fit, grid, and the sweep of some grid points
    "proba_threshold": (fit_proba_threshold, PROBA_GRID,
                        lambda train, points: ProbaThresholdTrigger(train.timeline, points)),
    "stopping_rule": (fit_stopping_rule, STOPPING_RULE_GRID,
                      lambda train, points: StoppingRuleTrigger(train.timeline, points)),
    "ecec": (fit_ecec, PROBA_GRID, lambda train, points: EcecTrigger(
        train.timeline, _ecec_precisions(train.stats.pred, train.labels, train.traces.shape[2]), points)),
}


class TestStackedGrids:
    """A grid fit reads every candidate's first halts from the halts of
    sweeps whose alphas are bounded blocks of candidates; each candidate's
    first halts, the mean matrix and the winners equal those of one model
    per candidate."""

    @pytest.mark.parametrize("name", sorted(GRID_FITS))
    @pytest.mark.parametrize("seed,n,L,K,block", [
        (40, 37, 7, 3, 8000),  # 30 candidates a block: neither grid a multiple
        (41, 23, 9, 2, 1),  # one candidate a block
        (42, 61, 12, 4, None),  # the default block
    ])
    def test_candidates_equal_per_candidate_models(self, monkeypatch, name, seed, n, L, K, block):
        fit, grid, make = GRID_FITS[name]
        if block is not None:
            monkeypatch.setattr(trigger_module, "_BLOCK_ELEMENTS", block)
        train = random_train_set(seed=seed, n=n, L=L, K=K, T=3 * L)
        costs = [standard_cost_model(K, round(0.1 * i, 1)) for i in range(11)]
        seen = capture_mean_costs(monkeypatch)
        model = fit(train, costs)
        (first, means), = seen
        per_candidate = [make(train, [point]) for point in grid]
        want_first = np.array([model.halts(train.stats)[0, 0].argmax(axis=1) for model in per_candidate])
        assert first.shape == (len(grid), n) and np.array_equal(first, want_first)
        assert means.tobytes() == reference_grid_means(train, costs, per_candidate).tobytes()
        np.testing.assert_equal(vars(model), vars(make(train, [grid[i] for i in earliest_min(means).tolist()])))

    def test_stopping_rule_pairs_then_time(self):
        """The rule over (C, 3) gammas forms each candidate's halts as the
        one-gamma sum g1 * maxp + g2 * p2 + g3 * t/T forms them, in that order."""
        train = random_train_set(seed=43, n=19, L=6, K=3)
        halts = _stopping_rule_halts(train.stats, train.timeline, np.array(STOPPING_RULE_GRID))
        tt = np.array(train.timeline.timestamps) / train.timeline.series_length
        assert halts.shape == (len(STOPPING_RULE_GRID),) + train.stats.maxp.shape
        for (g1, g2, g3), h in zip(STOPPING_RULE_GRID, halts):
            assert np.array_equal(h, g1 * train.stats.maxp + g2 * train.stats.p2 + g3 * tt > 0.0)


def reference_build_economy(train, cost, k, smoothing):
    """_build_economy with its counts made by np.add.at."""
    P, pred, maxp = train.stats[:3]
    _, L, K = P.shape
    bin_edges = quantiles(maxp, [i / k for i in range(1, k)], axis=0).T
    groups = _groups(bin_edges, maxp)
    j = np.arange(L)[None, :]
    present = np.zeros((L, k), dtype=bool)
    present[j, groups] = True
    if not present.all():
        return None
    counts = np.zeros((L - 1, k, k))
    np.add.at(counts, (j[:, :-1], groups[:, :-1], groups[:, 1:]), 1.0)
    counts += smoothing
    row_sums = counts.sum(axis=2, keepdims=True)
    if np.any(row_sums == 0):
        return None
    transitions = counts / row_sums
    class_counts = np.zeros((L, k, K))
    np.add.at(class_counts, (j, groups, train.labels[:, None]), 1.0)
    confusion_counts = np.zeros((L, k, K, K))
    np.add.at(confusion_counts, (j, groups, train.labels[:, None], pred), 1.0)
    mis_paths = _expected_mis_paths(_expected_mis(class_counts, confusion_counts, cost, smoothing), transitions)
    return bin_edges, groups, transitions, mis_paths


def reference_economy_halts(priced, groups, myopic=False):
    """The (n, m) halts of series in groups (n, m) under one priced (L, k, L)
    table: halt at index j in group g when halting now costs no more than
    the best later halt (the next, if myopic), and always at the last index."""
    j = np.arange(priced.shape[0])
    table = priced[j, :, j] <= backward_min_costs(priced, myopic)[j, :, j]
    table[-1] = True
    return table[np.arange(groups.shape[1]), groups]


class TestStackedEconomy:
    """Economy prices every alpha of a k in one table, reads its halt tables
    from it, and counts with np.bincount; each keeps the bits of the
    per-alpha and np.add.at forms."""

    @pytest.mark.parametrize("seed,n,L,K,smoothing", [(50, 40, 6, 3, 1.0), (51, 90, 11, 2, 0.0), (52, 7, 1, 3, 1.0)])
    def test_tables_equal_add_at_counts(self, seed, n, L, K, smoothing):
        train = random_train_set(seed=seed, n=n, L=L, K=K, T=3 * L)
        cost = standard_cost_model(K, 0.5)
        for k in range(1, 9):
            got, want = _build_economy(train, cost, k, smoothing), reference_build_economy(train, cost, k, smoothing)
            assert (got is None) == (want is None)
            if got is not None:
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("myopic", [False, True])
    def test_stacked_halts_equal_per_alpha_halts(self, myopic):
        train = random_train_set(seed=53, n=45, L=8, K=3)
        costs = [standard_cost_model(3, round(0.1 * i, 1)) for i in range(11)]
        delays = delay_costs(costs[0], train.timeline)
        alphas = np.array([cost.alpha for cost in costs])[:, None, None, None]
        tables = _build_economy(train, costs[0], 4, 1.0)
        stacked = _halt_tables(weighted_costs(alphas, tables.mis_paths, delays))[:, int(myopic)]  # (alphas, L, k)
        j = np.arange(len(train.timeline))
        for cost, table in zip(costs, stacked):
            priced = weighted_costs(cost.alpha, tables.mis_paths, delays)
            got = table[j, tables.groups]
            assert np.array_equal(got, reference_economy_halts(priced, tables.groups, myopic))
            assert np.array_equal(got[:, :5], reference_economy_halts(priced, tables.groups[:, :5], myopic))

    def test_means_equal_per_alpha_loop(self, monkeypatch):
        train = random_train_set(seed=54, n=60, L=9, K=3)
        costs = [standard_cost_model(3, round(0.1 * i, 1)) for i in range(11)]
        seen = capture_mean_costs(monkeypatch)
        model = fit_economy(train, costs)
        (first, means), = seen
        base = costs[0]
        feasible = [t for k in range(1, 21) if (t := _build_economy(train, base, k, 1.0)) is not None]
        delays = delay_costs(base, train.timeline)
        want = []
        for cost in costs:  # the loop it replaced: one priced table per (alpha, k)
            halts = (reference_economy_halts(weighted_costs(cost.alpha, t.mis_paths, delays), t.groups)
                     for t in feasible)
            want.append(weighted_costs(cost.alpha, *reference_halt_outcomes(train, cost, halts)).mean(axis=1))
        assert first.shape == (len(costs), len(feasible), 60)
        assert means.tobytes() == np.array(want).tobytes()
        assert list(model.ks) == [
            [k for k in range(1, 21) if _build_economy(train, base, k, 1.0) is not None][i]
            for i in earliest_min(np.array(want)).tolist()
        ]


def test_train_set_checks_its_shapes():
    timeline = SampledTimeline((1, 2), 2)
    traces = np.full((3, 2, 2), 0.5)
    with pytest.raises(DataError, match="do not agree"):
        TriggerTrainSet(traces, np.array([0, 1]), timeline)
    with pytest.raises(DataError, match="empty trigger train set"):
        TriggerTrainSet(traces[:0], np.array([], dtype=int), timeline)
    with pytest.raises(DataError, match="trace length differs"):
        TriggerTrainSet(traces[:, :1], np.array([0, 1, 0]), timeline)
    for value in (np.nan, np.inf):
        bad = traces.copy()
        bad[1:, 1, 0] = value
        with pytest.raises(DataError, match="^trigger train series 1 has a non-finite probability$"):
            TriggerTrainSet(bad, np.array([0, 1, 0]), timeline)
    for label in (2, -1):
        with pytest.raises(DataError, match=r"^trigger train series 2 has a label outside \[0, 2\)$"):
            TriggerTrainSet(traces, np.array([0, 1, label]), timeline)


SWEEP_FITS = [fit_asap, fit_alap, fit_proba_threshold, fit_stopping_rule, fit_economy, fit_ecec, fit_calimera]
PER_ALPHA = ("thetas", "gammas", "ks", "bin_edges", "tables", "duals")  # a sweep's attributes with an alpha axis


class TestFitState:
    """A sweep builds its alpha-free state once and shares it across its
    alphas; each alpha must answer as a one-alpha sweep, whose state is
    built fresh, does."""

    @pytest.mark.parametrize("fit", SWEEP_FITS)
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        L=st.integers(1, 6),
        K=st.sampled_from((2, 3)),
        alphas=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=4),
        coarse=st.booleans(),
    )
    @example(seed=32, L=5, K=3, alphas=[round(0.1 * i, 1) for i in range(11)], coarse=False)
    def test_shared_state_fits_equal_fresh_fits(self, fit, seed, L, K, alphas, coarse):
        rng = np.random.default_rng(seed)
        train = random_train_set(seed=seed, n=int(rng.integers(4, 25)), L=L, K=K)
        stats = trigger_stats(random_traces(rng, 7, L, K, coarse))
        costs = [standard_cost_model(K, alpha) for alpha in alphas]
        horizons = (False, True) if fit in (fit_economy, fit_calimera) else (False,)
        swept = fit(train, costs)
        halts = swept.halts(stats, horizons)
        assert halts.shape == (len(horizons), len(costs), 7, L)
        for a, cost in enumerate(costs):
            fresh = fit(train, [cost])
            for name, value in vars(swept).items():  # everything alpha a chose and halts by
                want = getattr(fresh, name)
                if name == "size":
                    assert (value, want) == (len(costs), 1)
                elif name in PER_ALPHA:
                    np.testing.assert_equal(value[a], want[0])
                else:
                    np.testing.assert_equal(value, want)
            for h, myopic in enumerate(horizons):
                assert np.array_equal(halts[h, a], fresh.halts(stats, (myopic,))[0, 0]), (a, myopic)

    @pytest.mark.parametrize("fit", SWEEP_FITS)
    def test_sweep_must_differ_in_alpha_alone(self, fit):
        train = random_train_set(seed=34, n=20, L=4, K=2)
        half = standard_cost_model(2, 0.5)
        other_matrix = CostModel(((0.0, 2.0), (1.0, 0.0)), DelayCurve.LINEAR, 0.3)
        other_delay = CostModel(half.mis_matrix, DelayCurve.EXPONENTIAL, 0.3)
        for costs in ([half, other_matrix], [half, other_delay], []):
            with pytest.raises(ValueError, match="differ in alpha alone"):
                fit(train, costs)


class TestEcec:
    def test_confidence_examples(self):
        prec = np.array([[0.9, 0.9], [0.8, 0.8]])
        votes = {0: [0.9, 0.1], 1: [0.1, 0.9]}

        def confidence(pred_sequence):
            """Confidence at the last step of one trace with these argmaxes."""
            P = np.array([[votes[p] for p in pred_sequence]])
            return _ecec_confidences(prec, trigger_stats(P).pred)[0, -1]

        assert confidence([0]) == pytest.approx(0.9)
        assert confidence([1, 1]) == pytest.approx(0.98)
        assert confidence([0, 1]) == pytest.approx(0.8)

    def test_unseen_class_precision_half(self):
        train = confident_correct_train_set()
        model = fit_ecec(train, [standard_cost_model(2, 0.5)])
        # fabricate a prediction column where class 1 never appears
        pred = np.zeros((6, 3), dtype=int)
        labels = np.zeros(6, dtype=int)
        from ects_bench.trigger import _ecec_precisions

        prec = _ecec_precisions(pred, labels, 2)
        assert np.all(prec[:, 1] == 0.5)
        assert np.all(prec[:, 0] == 7.0 / 8.0)

    def test_gamma_in_grid(self):
        train = random_train_set(seed=15, n=20)
        model = fit_ecec(train, [standard_cost_model(2, 0.5)])
        assert model.gammas[0] in PROBA_GRID

    def test_fit_deterministic(self):
        train = random_train_set(seed=16, n=20)
        cost = standard_cost_model(2, 0.5)
        a = fit_ecec(train, [cost])
        b = fit_ecec(train, [cost])
        np.testing.assert_array_equal(a.gammas, b.gammas)
        np.testing.assert_array_equal(a.precisions, b.precisions)

    def test_policy_halts_on_confident_history(self):
        train = confident_correct_train_set()
        model = fit_ecec(train, [standard_cost_model(2, 0.5)])
        for trace in train.traces:
            [(_, time)] = simulate_online(model, trace)
            assert time in train.timeline.timestamps


class TestCalimera:
    def test_backward_min_example(self):
        out = backward_min_costs(np.array([0.8, 0.3]))
        assert out[0] == pytest.approx(0.3)
        assert np.isinf(out[1])

    def test_backward_min_exhaustive(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            L = int(rng.integers(1, 7))
            costs = rng.random(L)
            for myopic in (False, True):
                out = backward_min_costs(costs, myopic)
                for tau in range(L):
                    future = costs[tau + 1 : tau + 2] if myopic else costs[tau + 1 :]
                    want = future.min() if future.size else np.inf
                    assert out[tau] == want

    def test_single_point_closed_form(self):
        timeline = SampledTimeline((1, 2), 2)
        trace = np.array([[0.3, 0.7], [0.8, 0.2]])
        train = TriggerTrainSet(trace[None], np.array([0]), timeline)
        alpha = 0.5
        cost = standard_cost_model(2, alpha)
        lam = CALIMERA_RIDGE
        model = fit_calimera(train, [cost])
        # realized costs: wrong at t=1 (pred 1), right at t=2 (pred 0)
        c0 = alpha * 1.0 + (1 - alpha) * 0.5
        c1 = alpha * 0.0 + (1 - alpha) * 1.0
        target = c0 - c1
        got = model.predicted_deltas(trigger_stats(trace[None]))[0, 0, 0, 0]
        assert got == pytest.approx(target / (1.0 + lam), abs=1e-9)

    def test_decide_rule(self):
        train = random_train_set(seed=18, n=15, L=4)
        model = fit_calimera(train, [standard_cost_model(2, 0.5)])

        class Stub(CalimeraTrigger):
            def __init__(self, base, delta):
                super().__init__(base.timeline, base.inputs, base.bandwidths, base.duals)
                self._delta = delta

            def predicted_deltas(self, stats, myopic=(False,)):
                return np.full((len(myopic), 1) + stats.pred.shape, self._delta)

        waiting = Stub(model, 0.5)
        halting = Stub(model, -0.1)
        assert first_step_halts(waiting, train.traces[0][0]) is False
        assert first_step_halts(halting, train.traces[0][0]) is True
        # forced at last index regardless of prediction
        assert waiting.halts(trigger_stats(train.traces[:1]))[0, :, 0, -1].tolist() == [True]

    def test_stacked_deltas_equal_per_alpha_mat_vecs(self):
        """Each (horizon, alpha) block of the deltas is, bit for bit, its own
        kernel mat-vec: the kernel block at each index is built once and
        multiplied by every alpha's duals in one stacked product."""
        costs = [standard_cost_model(2, alpha) for alpha in (0.0, 0.3, 0.8)]
        for n_test, n, L in itertools.product((1, 2, 7), (1, 12), (1, 2, 5)):
            train = random_train_set(seed=n_test + n + L, n=n, L=L)
            model = fit_calimera(train, costs)
            P = random_traces(np.random.default_rng(n_test), n_test, L, 2, coarse=False)
            got = model.predicted_deltas(trigger_stats(P), (True, False))
            assert got.shape == (2, len(costs), n_test, L) and (got[..., -1] == -np.inf).all()
            for j in range(L - 1):
                kernel = _rbf_kernel(_sq_distances(P[:, j], model.inputs[j]), float(model.bandwidths[j]))
                for (h, row), a in itertools.product(enumerate((1, 0)), range(len(costs))):
                    assert np.array_equal(got[h, a, :, j], kernel @ model.duals[a, j, row]), (n_test, n, L, j)

    def test_fit_deterministic(self):
        train = random_train_set(seed=19, n=15, L=4)
        cost = standard_cost_model(2, 0.5)
        a = fit_calimera(train, [cost])
        b = fit_calimera(train, [cost])
        for name in ("inputs", "bandwidths", "duals"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    @pytest.mark.parametrize("L, alphas", [(1, (0.5,)), (2, (0.5,)), (2, (0.0, 1.0)), (5, (0.0, 0.3, 0.5, 0.9, 1.0))])
    def test_duals_equal_one_solve_per_system(self, L, alphas):
        """The stacked solve gives, bit for bit, each (alpha, timestamp)
        system gram + CALIMERA_RIDGE * I solved alone against that alpha's
        full and myopic targets as two columns, and the duals solve it."""
        train = random_train_set(seed=25, n=12, L=L, K=3)
        ridge = CALIMERA_RIDGE
        costs = [standard_cost_model(3, alpha) for alpha in alphas]
        model = fit_calimera(train, costs)
        inputs, bandwidths, systems = _calimera_systems(train)
        mis = np.asarray(costs[0].mis_matrix)[train.stats.pred, train.labels[:, None]]
        delays = delay_costs(costs[0], train.timeline)
        assert sorted(vars(model)) == ["bandwidths", "duals", "inputs", "timeline"]
        assert model.duals.shape == (len(costs), L - 1, 2, len(train.labels)) and model.duals.flags.c_contiguous
        for j in range(L - 1):
            kernel = _rbf_kernel(_sq_distances(inputs[j], inputs[j]), float(bandwidths[j]))
            assert np.array_equal(systems[j], kernel + ridge * np.eye(len(train.labels)))
        for a, cost in enumerate(costs):
            realized = weighted_costs(cost.alpha, mis, delays)
            targets = np.stack([realized - backward_min_costs(realized, myopic) for myopic in (False, True)], axis=-1)
            for j in range(L - 1):
                want = np.linalg.solve(systems[j], targets[:, j])  # (n, 2): full and myopic columns
                assert np.array_equal(model.duals[a, j], want.T), (a, j)
                np.testing.assert_allclose(systems[j] @ model.duals[a, j].T, targets[:, j], rtol=0, atol=1e-9)

    @pytest.mark.parametrize("K", [2, 3, 6])
    def test_constant_time_input_moves_no_bit(self, K):
        """Calimera regresses on the probability vectors alone. A t/T input
        is one value for every train and test row of a timestamp's model, so
        it adds exactly 0.0 to each squared distance: a reference fit with
        that column appended has the same duals and predicted deltas, bit for
        bit. (At K = 7 mod 8 the extra term regroups numpy's pairwise sum.)"""
        L, alphas = 5, (0.0, 0.4, 1.0)
        train = random_train_set(seed=30 + K, n=25, L=L, K=K)
        costs = [standard_cost_model(K, alpha) for alpha in alphas]
        model = fit_calimera(train, costs)
        P = random_traces(np.random.default_rng(K), 9, L, K, coarse=False)
        got = model.predicted_deltas(trigger_stats(P), (False, True))
        timeline, n = train.timeline, len(train.labels)

        def with_time(P_j, j):
            return np.concatenate([P_j, np.full((len(P_j), 1), timeline.timestamps[j] / timeline.series_length)], axis=1)

        mis = np.asarray(costs[0].mis_matrix)[train.stats.pred, train.labels[:, None]]
        for j in range(L - 1):
            X = with_time(train.traces[:, j], j)
            sq = _sq_distances(X, X)
            bandwidth = _median_pairwise_distance(sq)
            assert model.bandwidths[j] == bandwidth
            system = _rbf_kernel(sq, bandwidth) + CALIMERA_RIDGE * np.eye(n)
            kernel = _rbf_kernel(_sq_distances(with_time(P[:, j], j), X), bandwidth)
            for a, cost in enumerate(costs):
                realized = weighted_costs(cost.alpha, mis, delay_costs(cost, timeline))
                targets = np.stack([realized - backward_min_costs(realized, m) for m in (False, True)], axis=-1)
                duals = np.ascontiguousarray(np.linalg.solve(system, targets[:, j]).T)  # (2, n)
                assert np.array_equal(model.duals[a, j], duals), (a, j)
                for h in (0, 1):
                    assert np.array_equal(got[h, a, :, j], kernel @ duals[h]), (a, j, h)

    @pytest.mark.parametrize("blas_threads", [None, "1"], ids=["default-blas-threads", "one-blas-thread"])
    def test_sweep_equals_one_alpha_fits_at_realistic_size(self, blas_threads):
        """At n = 540 (a 300-per-class dataset's trigger partition) each alpha
        of an 11-alpha sweep keeps a one-alpha fit's duals, deltas and halts
        bit for bit, so a sweep's output does not depend on its alpha grid.
        Also with single-threaded BLAS, as perfbench runs it: there one
        (n, 2A) solve per timestamp moves the duals' bits, which it need not
        do with more BLAS threads."""
        if blas_threads is None:
            assert one_alpha_mismatches() == []
            return
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads, OMP_NUM_THREADS=blas_threads)
        script = f"import sys; sys.path.insert(0, {TESTS!r}); import test_trigger as t; print(t.one_alpha_mismatches())"
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def one_alpha_mismatches():
    """The (alpha index, array) pairs at which an 11-alpha calimera sweep at
    n = 540, L = 4 and K = 3 differs from a one-alpha fit in its duals, its
    predicted deltas or its halts, at both horizons."""
    train = random_train_set(seed=26, n=540, L=4, K=3)
    costs = [standard_cost_model(3, alpha / 10) for alpha in range(11)]
    stats = trigger_stats(random_traces(np.random.default_rng(27), 60, 4, 3, coarse=False))
    swept = fit_calimera(train, costs)
    deltas, halts = swept.predicted_deltas(stats, (False, True)), swept.halts(stats, (False, True))
    mismatches = []
    for a, cost in enumerate(costs):
        fresh = fit_calimera(train, [cost])
        for name, got, want in (
            ("duals", swept.duals[a], fresh.duals[0]),
            ("deltas", deltas[:, a], fresh.predicted_deltas(stats, (False, True))[:, 0]),
            ("halts", halts[:, a], fresh.halts(stats, (False, True))[:, 0]),
        ):
            if not np.array_equal(got, want):
                mismatches.append((a, name))
    return mismatches


def crafted_cost_paths(path, k):
    """Priced (L, k, L) economy costs whose every group, seen at index j,
    expects path[j:]."""
    L = len(path)
    costs = np.zeros((L, k, L))
    for j in range(L):
        costs[j, :, j:] = path[j:]
    return costs


def assert_crafted_halts_are_reference(model, priced, stats):
    """A one-alpha model built from priced's halt tables halts, at both
    horizons, as reference_economy_halts of priced."""
    groups = _groups(model.bin_edges[0], stats.maxp)
    for h, myopic in enumerate((False, True)):
        assert np.array_equal(model.halts(stats, (myopic,))[0, 0], reference_economy_halts(priced, groups, myopic))


class TestMyopic:
    def test_economy_rule_difference(self):
        train = random_train_set(seed=20, n=20, L=3)
        base = fit_economy(train, [standard_cost_model(2, 0.5)], k_grid=(1,))
        priced = crafted_cost_paths([0.5, 0.6, 0.1], 1)
        fixed = EconomyTrigger(base.timeline, base.ks, base.bin_edges, [_halt_tables(priced)])
        assert make_myopic(fixed) is fixed
        stats = trigger_stats(train.traces[:1, :1])
        assert fixed.halts(stats, (False,))[0, :, 0, 0].tolist() == [False]  # future min 0.1 beats 0.5
        assert fixed.halts(stats, (True,))[0, :, 0, 0].tolist() == [True]  # 0.5 <= 0.6
        assert_crafted_halts_are_reference(fixed, priced, train.stats)

    def test_economy_decreasing_costs_both_wait(self):
        train = random_train_set(seed=21, n=20, L=3)
        base = fit_economy(train, [standard_cost_model(2, 0.5)], k_grid=(1,))
        priced = crafted_cost_paths([0.9, 0.5, 0.2], 1)
        model = EconomyTrigger(base.timeline, base.ks, base.bin_edges, [_halt_tables(priced)])
        stats = trigger_stats(train.traces[:1, :1])
        assert model.halts(stats, (False,))[0, :, 0, 0].tolist() == [False]
        assert model.halts(stats, (True,))[0, :, 0, 0].tolist() == [False]
        assert_crafted_halts_are_reference(model, priced, train.stats)

    def test_calimera_myopic_uses_next_step_target(self):
        timeline = SampledTimeline((1, 2, 3), 3)
        rng = np.random.default_rng(22)
        traces = []
        labels = []
        for i in range(10):
            raw = rng.random((3, 2))
            traces.append(raw / raw.sum(axis=1, keepdims=True))
            labels.append(i % 2)
        train = TriggerTrainSet(np.array(traces), np.array(labels), timeline)
        cost = standard_cost_model(2, 0.5)
        model = fit_calimera(train, [cost])
        assert make_myopic(model) is model
        # duals differ only where backward-min differs from the next cost;
        # at the second-to-last step they coincide by construction
        np.testing.assert_allclose(
            model.duals[0, -1, 0], model.duals[0, -1, 1], atol=1e-12
        )

    def test_rejects_other_variants(self):
        train = random_train_set(seed=23)
        asap = AsapTrigger(train.timeline, 1)
        with pytest.raises(ValueError, match="AsapTrigger"):
            make_myopic(asap)
        with pytest.raises(ValueError, match="AsapTrigger"):
            asap.halts(train.stats, (False, True))
        with pytest.raises(ValueError, match="ProbaThresholdTrigger"):
            simulate_online(ProbaThresholdTrigger(train.timeline, [0.5]), train.traces[0], myopic=True)


class TestFitMethods:
    def test_each_base_fitted_once_and_myopic_derived(self, monkeypatch):
        train = random_train_set(seed=24, n=20, L=5, K=3)
        costs = [standard_cost_model(3, alpha) for alpha in (0.0, 0.4, 1.0)]
        calls = []

        def counted(base, fit):
            def wrapped(train, costs):
                calls.append(base)
                return fit(train, costs)
            return wrapped

        # Rebinding the module attributes is seen, as perfbench's tracer needs.
        for base in METHODS[:7]:  # the base methods
            monkeypatch.setattr(trigger_module, f"fit_{base}", counted(base, getattr(trigger_module, f"fit_{base}")))
        methods = ("calimera_myopic",) + METHODS
        fitted = fit_methods(methods, train, costs)
        assert list(fitted) == list(dict.fromkeys(methods))
        assert calls == ["calimera", "asap", "alap", "proba_threshold", "stopping_rule", "economy", "ecec"]
        for method, base in (("economy_myopic", "economy"), ("calimera_myopic", "calimera")):
            assert fitted[method] is fitted[base]

        calls.clear()
        alone = fit_methods(("economy_myopic",), train, costs)
        assert calls == ["economy"] and list(alone) == ["economy_myopic"]
        assert isinstance(alone["economy_myopic"], EconomyTrigger)
        stats = trigger_stats(random_traces(np.random.default_rng(25), 4, 5, 3, coarse=True))
        want = alone["economy_myopic"].halts(stats, (True,))[0].argmax(axis=-1)
        assert np.array_equal(first_halts(alone, stats), want[:, None])


def random_traces(rng, n, L, K, coarse):
    """n random (L, K) traces; coarse ones come from a few integer weights,
    so ties in the max probability are common."""
    raw = rng.integers(1, 4, size=(n, L, K)).astype(float) if coarse else rng.random((n, L, K))
    return raw / raw.sum(axis=2, keepdims=True)


class TestOnlineContract:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        L=st.integers(1, 5),
        K=st.sampled_from((2, 3)),
        alphas=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
        coarse=st.booleans(),
    )
    def test_halts_match_online_replay_and_are_causal(self, seed, L, K, alphas, coarse):
        """Every method's first halts, each alpha and the myopic methods'
        horizon too, are the online replay's, and no halt reads a later
        column."""
        rng = np.random.default_rng(seed)
        train = random_train_set(seed=seed, n=int(rng.integers(4, 17)), L=L, K=K)
        costs = [standard_cost_model(K, alpha) for alpha in alphas]
        P = random_traces(rng, 6, L, K, coarse)
        stats = trigger_stats(P)
        fitted = fit_methods(METHODS, train, costs)
        first = first_halts(fitted, stats)
        assert first.shape == (len(costs), len(METHODS), 6)
        for column, (method, model) in enumerate(fitted.items()):
            myopic = method.endswith("_myopic")
            halts = model.halts(stats, (myopic,))[0]
            assert halts.shape == (len(costs), 6, L) and halts[..., -1].all(), method
            assert np.array_equal(first[:, column], halts.argmax(axis=-1)), method
            for row, trace in enumerate(P):
                online = simulate_online(model, trace, myopic)
                got = [(int(stats.pred[row, i]), train.timeline.timestamps[i]) for i in first[:, column, row]]
                assert got == online, (method, row)
            for i in range(L - 1):
                future = P.copy()
                future[:, i + 1 :] = random_traces(rng, 6, L - i - 1, K, coarse)
                changed = model.halts(trigger_stats(future), (myopic,))[0]
                assert np.array_equal(changed[..., : i + 1], halts[..., : i + 1]), (method, i)


@pytest.mark.parametrize("n", range(2, 10))
def test_median_pairwise_distance_equals_numpy_median(n):
    rng = np.random.default_rng(n)
    points = np.round(rng.random((n, 3)) * 4.0) / 4.0  # repeated distances
    sq = trigger_module._sq_distances(points, points)
    want = float(np.median(np.sqrt(sq[np.triu_indices(n, k=1)])))
    assert trigger_module._median_pairwise_distance(sq) == (want if want > 1e-12 else 1.0)
