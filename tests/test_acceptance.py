"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The synthetic benchmark shared by several criteria is 3 generated datasets
(3 classes, T=15, 100 train / 100 test per class, noise_std=0.3, seeds 1-3)
run over all 9 methods and the full 11-point alpha grid.
"""

import itertools
import os
import time
from collections import defaultdict

import numpy as np
import pytest

from conftest import record_acceptance
from ects_bench import bench, report
from ects_bench.classify import logloss_and_grad
from ects_bench.core import (
    SampledTimeline,
    delay_cost,
    delay_costs,
    misclassification_cost,
    standard_cost_model,
    weighted_costs,
)
from ects_bench.data import generate_synthetic, save_dataset
from ects_bench.metrics import optimal_time
from ects_bench.stats import (
    _rank_ascending,
    bootstrap_mean_ci,
    holm_adjust,
    wilcoxon_signed_rank,
)
from ects_bench.trigger import (
    AlapTrigger,
    AsapTrigger,
    CALIMERA_RIDGE,
    ProbaThresholdTrigger,
    StoppingRuleTrigger,
    TriggerTrainSet,
    _build_economy,
    backward_min_costs,
    fit_calimera,
    fit_economy,
    simulate_online,
    trigger_stats,
)

SYNTH_SEEDS = (1, 2, 3)
CORE_METHODS = (
    "asap", "alap", "proba_threshold", "stopping_rule", "economy", "ecec", "calimera",
)
ALL_METHODS = CORE_METHODS + ("economy_myopic", "calimera_myopic")


@pytest.fixture(scope="session")
def synth_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth-benchmark")
    manifests = []
    for seed in SYNTH_SEEDS:
        ds = generate_synthetic(15, 100, 100, 0.3, seed=seed, name=f"synthetic-{seed}")
        out = os.path.join(str(root), f"ds{seed}")
        save_dataset(ds, out)
        manifests.append(os.path.join(out, "manifest.json"))
    config = bench.BenchConfig(
        datasets=tuple(manifests),
        methods=ALL_METHODS,
        output_dir=os.path.join(str(root), "out"),
    )
    start = time.perf_counter()
    bundle = bench.run_benchmark(config)
    elapsed = time.perf_counter() - start
    return config, bundle, elapsed


def _mean_costs_by_method(bundle, alpha):
    per_method = defaultdict(list)
    for s in bundle.summaries:
        if s.alpha == alpha:
            per_method[s.method].append(s.avg_cost)
    return {m: float(np.mean(v)) for m, v in per_method.items()}


def test_criterion_01_baseline_identities(synth_run):
    _, bundle, _ = synth_run
    by_dataset = defaultdict(dict)
    for s in bundle.summaries:
        if s.alpha == 0.0:
            by_dataset[s.dataset][s.method] = s.avg_cost
    asap_minimal = all(
        row["asap"] <= min(row.values()) + 1e-12 for row in by_dataset.values()
    )
    identity_holds = all(
        abs(s.avg_cost - (s.alpha * (1 - s.accuracy) + (1 - s.alpha) * s.earliness)) < 1e-12
        for s in bundle.summaries
    )
    ok = asap_minimal and identity_holds
    record_acceptance(
        1, "asap minimal at alpha=0 and weighted-cost identity", ok,
        f"asap_minimal={asap_minimal} identity={identity_holds}",
    )
    assert ok


def test_criterion_02_trigger_equivalences():
    rng = np.random.default_rng(0)
    timeline = SampledTimeline(tuple(range(2, 21, 2)), 20)
    asap = AsapTrigger(timeline, 1)
    alap = AlapTrigger(timeline, 1)
    low_theta = ProbaThresholdTrigger(timeline, [1.0 / 40.0])
    time_up = StoppingRuleTrigger(timeline, [(0.0, 0.0, 1.0)])
    time_down = StoppingRuleTrigger(timeline, [(0.0, 0.0, -1.0)])
    ok = True
    for _ in range(100):
        raw = rng.random((len(timeline), 2))
        trace = raw / raw.sum(axis=1, keepdims=True)
        t_asap, t_alap, t_low, t_up, t_down = (
            [time for _, time in simulate_online(model, trace)]
            for model in (asap, alap, low_theta, time_up, time_down)
        )
        ok &= t_low == t_asap and t_up == t_asap and t_down == t_alap
    record_acceptance(2, "threshold/stopping-rule baselines equal asap and alap", bool(ok))
    assert ok


def test_criterion_03_oracle_soundness(synth_run):
    _, bundle, _ = synth_run
    min_regret = float(bundle.records.regret.min())
    regret_ok = min_regret >= -1e-12

    rng = np.random.default_rng(1)
    enumeration_ok = True
    for _ in range(1000):
        L = int(rng.integers(2, 21))
        T = int(rng.integers(L, 2 * L + 5))
        ts = sorted(rng.choice(np.arange(1, T), size=L - 1, replace=False).tolist()) + [T]
        timeline = SampledTimeline(tuple(ts), T)
        K = int(rng.integers(2, 5))
        raw = rng.random((L, K))
        trace = raw / raw.sum(axis=1, keepdims=True)
        true = int(rng.integers(0, K))
        cost = standard_cost_model(K, float(rng.random()))
        times, oracle_losses = optimal_time(trace[None], (true,), cost, timeline)
        t_star, loss = times[0], oracle_losses[0]
        a = cost.alpha
        losses = [
            a * misclassification_cost(cost, int(np.argmax(trace[i])), true)
            + (1.0 - a) * delay_cost(cost, t, T)
            for i, t in enumerate(timeline.timestamps)
        ]
        best_idx = int(np.argmin(losses))
        enumeration_ok &= abs(loss - losses[best_idx]) < 1e-12
        enumeration_ok &= t_star == timeline.timestamps[best_idx]
    ok = regret_ok and bool(enumeration_ok)
    record_acceptance(
        3, "regret nonnegative and optimal time matches enumeration", ok,
        f"min_regret={min_regret:.2e}",
    )
    assert ok


def test_criterion_04_expected_cost_hand_computation():
    timeline = SampledTimeline((1, 2), 2)
    right = {0: np.array([0.9, 0.1]), 1: np.array([0.1, 0.9])}
    wrong = {0: np.array([0.1, 0.9]), 1: np.array([0.9, 0.1])}
    traces, labels = [], []
    for i in range(10):
        label = i % 2
        first = wrong[label] if i < 4 else right[label]
        second = wrong[label] if i == 0 else right[label]
        traces.append(np.stack([first, second]))
        labels.append(label)
    train = TriggerTrainSet(np.array(traces), np.array(labels), timeline)
    cost = standard_cost_model(2, 0.5)
    model = fit_economy(train, [cost], k_grid=(1,), smoothing=0.0)
    costs = weighted_costs(0.5, _build_economy(train, cost, 1, 0.0).mis_paths, delay_costs(cost, timeline))[0, 0, 0:]
    # One group: every series halts at once at both horizons, as 0.45 <= 0.55.
    ok = bool(np.allclose(costs, [0.45, 0.55], atol=1e-9)) and bool(model.halts(train.stats, (False, True))[..., 0].all())
    record_acceptance(
        4, "single-group expected costs equal hand counts", ok,
        f"costs=({costs[0]:.6f}, {costs[1]:.6f})",
    )
    assert ok


def test_criterion_05_cost_difference_targets():
    rng = np.random.default_rng(2)
    backward_ok = True
    for _ in range(500):
        L = int(rng.integers(1, 7))
        costs = rng.random(L)
        got = backward_min_costs(costs)
        for tau in range(L):
            future = costs[tau + 1 :]
            want = future.min() if future.size else np.inf
            backward_ok &= got[tau] == want

    timeline = SampledTimeline((1, 2), 2)
    trace = np.array([[0.3, 0.7], [0.8, 0.2]])
    train = TriggerTrainSet(trace[None], np.array([0]), timeline)
    lam = CALIMERA_RIDGE
    model = fit_calimera(train, [standard_cost_model(2, 0.5)])
    # wrong at t=1, right at t=2 under alpha=0.5 linear delay
    target = (0.5 * 1.0 + 0.5 * 0.5) - (0.5 * 1.0)
    predicted = model.predicted_deltas(trigger_stats(trace[None]))[0, 0, 0, 0]
    closed_form_ok = abs(predicted - target / (1.0 + lam)) < 1e-9
    ok = bool(backward_ok) and closed_form_ok
    record_acceptance(
        5, "backward targets exact and single-point ridge closed form", ok,
        f"predicted={predicted:.6f} expected={target / (1.0 + lam):.6f}",
    )
    assert ok


def test_criterion_06_statistics():
    rng = np.random.default_rng(3)
    wilcoxon_ok = True
    for _ in range(200):
        n = int(rng.integers(1, 11))
        diffs = np.round(rng.normal(size=n), 1).tolist()
        nonzero = [d for d in diffs if d != 0.0]
        w_got, p_got = wilcoxon_signed_rank(diffs)
        if not nonzero:
            wilcoxon_ok &= (w_got, p_got) == (0.0, 1.0)
            continue
        ranks = _rank_ascending([abs(d) for d in nonzero])
        total = sum(ranks)
        w_pos = sum(r for r, d in zip(ranks, nonzero) if d > 0)
        w = min(w_pos, total - w_pos)
        count = sum(
            1
            for signs in itertools.product((0, 1), repeat=len(nonzero))
            if min(
                s := sum(r for r, bit in zip(ranks, signs) if bit), total - s
            ) <= w + 1e-12
        )
        wilcoxon_ok &= abs(w_got - w) < 1e-12
        wilcoxon_ok &= abs(p_got - count / 2 ** len(nonzero)) < 1e-12

    holm_ok = holm_adjust([0.01, 0.04]) == [0.02, 0.04]
    lo, hi = bootstrap_mean_ci([3.0, 3.0, 3.0, 3.0], resamples=500, seed=0)
    bootstrap_ok = lo == hi == 3.0
    ok = bool(wilcoxon_ok) and holm_ok and bootstrap_ok
    record_acceptance(
        6, "wilcoxon enumeration, holm worked example, degenerate bootstrap", ok,
        f"wilcoxon={bool(wilcoxon_ok)} holm={holm_ok} bootstrap={bootstrap_ok}",
    )
    assert ok


def test_criterion_07_cost_informed_triggers_beat_baselines(synth_run):
    _, bundle, elapsed = synth_run
    runtime_ok = elapsed < 300.0

    mid = _mean_costs_by_method(bundle, 0.5)
    baseline = min(mid["asap"], mid["alap"])
    tuned = ("proba_threshold", "stopping_rule", "economy", "calimera")
    mid_ok = all(mid[m] <= baseline + 0.02 for m in tuned)

    zero = _mean_costs_by_method(bundle, 0.0)
    asap_unbeaten = all(zero["asap"] <= zero[m] + 1e-12 for m in CORE_METHODS)

    r = bundle.records
    mean_mis = {}  # per method, in the records' (sorted) order
    for m in sorted(CORE_METHODS):
        rows = (r.alpha == 1.0) & (r.method == m)
        mean_mis[m] = float(np.mean([np.mean(r.misclassification_cost[rows & (r.dataset == d)])
                                     for d in sorted(set(r.dataset[rows].tolist()))]))
    best_method = min(mean_mis, key=mean_mis.get)
    best = mean_mis[best_method]
    alap_gap = mean_mis["alap"] - best
    alap_ok = alap_gap <= 0.02

    ok = runtime_ok and mid_ok and asap_unbeaten and alap_ok
    record_acceptance(
        7, "tuned triggers beat baselines across the alpha sweep", ok,
        f"mid_alpha={mid_ok} asap_unbeaten={asap_unbeaten} "
        f"alap_gap_at_alpha1={alap_gap:.4f} (alap_mis={mean_mis['alap']:.4f} "
        f"best={best_method} best_mis={best:.4f}) runtime={elapsed:.1f}s",
    )
    assert ok


def test_criterion_08_myopic_variants_never_materially_win(synth_run):
    _, bundle, _ = synth_run
    ok = True
    gaps = []
    for alpha in (0.7, 0.8, 0.9):
        costs = _mean_costs_by_method(bundle, alpha)
        for base in ("economy", "calimera"):
            gap = costs[f"{base}_myopic"] - costs[base]
            gaps.append(f"{base}@{alpha}={gap:+.4f}")
            ok &= gap >= -0.005
    record_acceptance(8, "horizon-1 ablation never materially wins", bool(ok), " ".join(gaps))
    assert ok


def test_criterion_09_byte_identical_reruns(tmp_path_factory):
    root = tmp_path_factory.mktemp("determinism")
    ds = generate_synthetic(12, 12, 5, 0.3, seed=4, name="det")
    ds_dir = os.path.join(str(root), "ds")
    save_dataset(ds, ds_dir)
    config = bench.BenchConfig(
        datasets=(os.path.join(ds_dir, "manifest.json"),),
        methods=("asap", "proba_threshold", "economy"),
        alpha_grid=(0.0, 0.5, 1.0),
        output_dir=os.path.join(str(root), "unused"),
    )
    dirs = [os.path.join(str(root), d) for d in ("run-a", "run-b")]
    for d in dirs:
        report.write_reports(bench.run_benchmark(config), d, emit_svg=True)
    ok = sorted(os.listdir(dirs[0])) == sorted(os.listdir(dirs[1]))
    for name in sorted(os.listdir(dirs[0])):
        with open(os.path.join(dirs[0], name), "rb") as fh:
            a = fh.read()
        with open(os.path.join(dirs[1], name), "rb") as fh:
            b = fh.read()
        ok &= a == b
    record_acceptance(9, "rerun of the same config is byte-identical", bool(ok))
    assert ok


def test_criterion_10_gradient_check():
    rng = np.random.default_rng(5)
    ok = True
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 12))
        d = int(rng.integers(1, 6))
        k = int(rng.integers(2, 5))
        X = rng.normal(size=(n, d))
        labels = rng.integers(0, k, size=n)
        W = rng.normal(scale=0.5, size=(d, k))
        b = rng.normal(scale=0.5, size=k)
        l2 = float(rng.uniform(0.0, 0.1))
        _, gw, gb = logloss_and_grad(W, b, X, labels, l2)
        eps = 1e-6
        for arr, grad in ((W, gw), (b, gb)):
            it = np.nditer(arr, flags=["multi_index"])
            for _v in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + eps
                up, _, _ = logloss_and_grad(W, b, X, labels, l2)
                arr[idx] = orig - eps
                down, _, _ = logloss_and_grad(W, b, X, labels, l2)
                arr[idx] = orig
                fd = (up - down) / (2 * eps)
                rel = abs(fd - grad[idx]) / max(abs(fd), abs(grad[idx]), 1e-8)
                worst = max(worst, rel)
                ok &= rel < 1e-5
    record_acceptance(10, "analytic gradient matches finite differences", bool(ok),
                      f"worst_rel_err={worst:.2e}")
    assert ok
