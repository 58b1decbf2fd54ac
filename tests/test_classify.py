import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from ects_bench import classify as classify_module
from ects_bench.classify import (
    ClassifierHyper,
    _scores,
    default_timeline,
    fit_collection,
    fit_multinomial,
    fit_platt,
    logloss_and_grad,
    platt_apply,
    prefix_features,
    softmax,
)
from ects_bench.core import SeriesSet
from ects_bench.data import generate_synthetic, stratified_split
from ects_bench.errors import DataError, NumericError


class TestDefaultTimeline:
    def test_every_five_percent(self):
        tl = default_timeline(100)
        assert tl.timestamps == tuple(range(5, 101, 5))

    def test_short_series_collapses_to_all_integers(self):
        assert default_timeline(10).timestamps == tuple(range(1, 11))

    def test_length_two(self):
        assert default_timeline(2).timestamps == (1, 2)

    def test_always_ends_at_length(self):
        for T in (2, 3, 7, 15, 23, 100, 137):
            tl = default_timeline(T)
            assert tl.timestamps[-1] == T
            assert all(1 <= t <= T for t in tl.timestamps)


def scalar_prefix_features(prefix):
    """Reference: the features of one 1-D prefix, one numpy call per value."""
    mean = prefix.mean()
    if len(prefix) == 1:
        slope = madiff = 0.0
    else:
        x = np.arange(len(prefix), dtype=float)
        xc = x - x.mean()
        slope = xc @ (prefix - mean) / (xc @ xc)
        madiff = np.abs(np.diff(prefix)).mean()
    return np.array([mean, prefix.std(), slope, prefix.min(), prefix.max(), prefix[-1], madiff])


class TestPrefixFeatures:
    def test_constant_prefix(self):
        feats = prefix_features(np.array([[1.0, 1.0, 1.0]]), [3])[0, 0]
        np.testing.assert_allclose(feats, [1, 0, 0, 1, 1, 1, 0], atol=1e-12)

    def test_ramp_prefix(self):
        feats = prefix_features(np.array([[0.0, 1.0, 2.0]]), [3])[0, 0]
        np.testing.assert_allclose(
            feats, [1.0, np.sqrt(2.0 / 3.0), 1.0, 0.0, 2.0, 2.0, 1.0], atol=1e-9
        )

    def test_single_point_conventions(self):
        feats = prefix_features(np.array([[5.0, 7.0]]), [1])[0, 0]
        assert feats[2] == 0.0  # slope
        assert feats[6] == 0.0  # mean abs diff

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            prefix_features(np.array([[1.0, 2.0]]), [3])
        with pytest.raises(ValueError):
            prefix_features(np.array([[1.0, 2.0]]), [0])

    def test_rows_equal_scalar_reference(self):
        rng = np.random.default_rng(4)
        values = rng.normal(scale=50.0, size=(40, 300))
        for t in (1, 2, 3, 17, 128, 129, 300):
            got = prefix_features(values, [t])[0]
            want = np.stack([scalar_prefix_features(row[:t]) for row in values])
            np.testing.assert_array_equal(got, want)


class TestFeatureStack:
    """prefix_features over many timestamps (one |diff| per 64-row block,
    the std from the slope's centred prefix) keeps the bits of one
    prefix_features call per timestamp."""

    @pytest.mark.parametrize("length", [2, 3, 9, 64, 65, 129, 300])
    def test_equals_stacked_prefix_features(self, length):
        rng = np.random.default_rng(length)
        for n in (1, 63, 64, 65, 130):
            values = np.ascontiguousarray(rng.normal(scale=30.0, size=(n, length)) + 5.0)
            some = sorted(set(rng.integers(1, length + 1, size=5).tolist()) | {1, length})
            for timestamps in (some, range(1, length + 1), default_timeline(length).timestamps):
                want = np.stack([prefix_features(values, [t])[0] for t in timestamps])
                got = prefix_features(values, list(timestamps))
                assert got.tobytes() == want.tobytes(), (n, length, list(timestamps)[:5])

    def test_signed_zero_min_and_max_as_numpy_reduces_them(self):
        # Which of 0.0 and -0.0 a min returns depends on numpy's reduction
        # order; each prefix's min and max keep np.min's and np.max's bits.
        rng = np.random.default_rng(12)
        values = np.ascontiguousarray(rng.choice([0.0, -0.0, 1.0, -1.0], size=(70, 40)))
        values[:, :3] = rng.choice([0.0, -0.0], size=(70, 3))
        timestamps = list(range(1, 41))
        got = prefix_features(values, timestamps)
        for j, t in enumerate(timestamps):
            assert got[j, :, 3].tobytes() == values[:, :t].min(axis=1).tobytes()
            assert got[j, :, 4].tobytes() == values[:, :t].max(axis=1).tobytes()


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(3, 10))
            d = int(rng.integers(1, 5))
            k = int(rng.integers(2, 4))
            X = rng.normal(size=(n, d))
            labels = rng.integers(0, k, size=n)
            labels[: k] = np.arange(k) % k
            W = rng.normal(scale=0.5, size=(d, k))
            b = rng.normal(scale=0.5, size=k)
            l2 = float(rng.uniform(0, 0.1))
            _, gw, gb = logloss_and_grad(W, b, X, labels, l2)
            eps = 1e-6
            for arr, grad in ((W, gw), (b, gb)):
                it = np.nditer(arr, flags=["multi_index"])
                for _val in it:
                    idx = it.multi_index
                    orig = arr[idx]
                    arr[idx] = orig + eps
                    up, _, _ = logloss_and_grad(W, b, X, labels, l2)
                    arr[idx] = orig - eps
                    down, _, _ = logloss_and_grad(W, b, X, labels, l2)
                    arr[idx] = orig
                    fd = (up - down) / (2 * eps)
                    denom = max(abs(fd), abs(grad[idx]), 1e-8)
                    assert abs(fd - grad[idx]) / denom < 1e-5

    def test_zero_weights_uniform_loss(self):
        X = np.zeros((4, 3))
        labels = np.array([0, 1, 0, 1])
        value, _, _ = logloss_and_grad(np.zeros((3, 2)), np.zeros(2), X, labels, 0.0)
        assert value == pytest.approx(np.log(2.0))


def reference_softmax(z):
    """The descent's softmax as numpy reductions over the class axis."""
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def reference_logloss_and_grad(weights, intercepts, X, labels, l2):
    """logloss_and_grad with a one-hot array and per-call setup."""
    n = X.shape[-2]
    rows = np.arange(n)
    probs = reference_softmax(np.matmul(X, weights) + intercepts[..., None, :])
    picked = np.clip(probs[..., rows, labels], 1e-300, None)
    value = -np.mean(np.log(picked), axis=-1) + 0.5 * l2 * np.sum(weights**2, axis=(-2, -1))
    onehot = np.zeros_like(probs)
    onehot[..., rows, labels] = 1.0
    diff = probs - onehot
    grad_w = np.matmul(np.swapaxes(X, -1, -2), diff) / n + l2 * weights
    grad_b = diff.mean(axis=-2)
    return value, grad_w, grad_b


def reference_fit(X, labels, num_classes, hyper):
    """fit_multinomial's descent on the reference step."""
    lead, d = X.shape[:-2], X.shape[-1]
    weights = np.zeros(lead + (d, num_classes))
    intercepts = np.zeros(lead + (num_classes,))
    finite = np.ones(lead, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(hyper.iters):
            value, grad_w, grad_b = reference_logloss_and_grad(weights, intercepts, X, labels, hyper.l2)
            finite &= np.isfinite(value)
            weights -= hyper.lr * grad_w
            intercepts -= hyper.lr * grad_b
        value = reference_logloss_and_grad(weights, intercepts, X, labels, hyper.l2)[0]
    finite &= np.isfinite(value) & np.isfinite(weights).all(axis=(-2, -1))
    return weights, intercepts, finite & np.isfinite(intercepts).all(axis=-1)


class TestDescentStepBits:
    """The class-slice softmax and the hoisted descent step keep the bits of
    the reductions over the class axis, on both sides of numpy's switch
    from a sequential to a pairwise sum at 8 terms."""

    @pytest.mark.parametrize("k", range(2, 13))
    def test_softmax_and_step_equal_reference(self, k):
        rng = np.random.default_rng(k)
        for lead in ((), (3,), (2, 2)):
            z = rng.normal(scale=20.0, size=lead + (17, k))
            assert softmax(z).tobytes() == reference_softmax(z).tobytes()
            X = rng.normal(size=lead + (17, 5))
            labels = rng.integers(0, k, size=17)
            W = rng.normal(size=lead + (5, k))
            b = rng.normal(size=lead + (k,))
            for got, want in zip(logloss_and_grad(W, b, X, labels, 0.01),
                                 reference_logloss_and_grad(W, b, X, labels, 0.01)):
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("k", range(2, 13))
    @pytest.mark.parametrize("iters", [0, 1, 50])
    def test_fit_equals_reference(self, k, iters):
        rng = np.random.default_rng(100 + k)
        X = rng.normal(size=(4, 3 * k, 7))
        labels = np.arange(3 * k) % k
        for x in (X, X[0]):
            got = fit_multinomial(x, labels, k, ClassifierHyper(iters=iters))
            want = reference_fit(x, labels, k, ClassifierHyper(iters=iters))
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("k", [3, 9])
    @pytest.mark.parametrize("iters", [1, 50])
    def test_divergence_flags_equal_reference(self, k, iters):
        rng = np.random.default_rng(200 + k)
        X = rng.normal(size=(3, 30, 4))
        X[1] *= 1e3
        labels = np.arange(30) % k
        hyper = ClassifierHyper(lr=1e300, iters=iters)
        got = fit_multinomial(X, labels, k, hyper)
        want = reference_fit(X, labels, k, hyper)
        assert got[2].tolist() == want[2].tolist() and not got[2].any()
        # A diverged fit is a NumericError, so only its NaN payloads may differ.
        for g, w in zip(got[:2], want[:2]):
            np.testing.assert_array_equal(g, w)


class TestFitMultinomial:
    def test_l2_shrinks_weight_norm(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 3))
        labels = (X[:, 0] + 0.2 * rng.normal(size=40) > 0).astype(int)
        norms = []
        for l2 in (1e-4, 1e-2, 1.0):
            w, _, finite = fit_multinomial(X, labels, 2, ClassifierHyper(l2=l2, iters=800, lr=0.2))
            assert finite
            norms.append(float(np.sum(w**2)))
        assert norms[0] >= norms[1] >= norms[2]

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(20, 3))
        labels = rng.integers(0, 2, size=20)
        labels[:2] = [0, 1]
        w1, b1, _ = fit_multinomial(X, labels, 2, ClassifierHyper())
        w2, b2, _ = fit_multinomial(X, labels, 2, ClassifierHyper())
        np.testing.assert_array_equal(w1, w2)
        np.testing.assert_array_equal(b1, b2)

    def test_stacked_fits_equal_single_fits(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(4, 30, 5))
        labels = rng.integers(0, 3, size=30)
        W, b, finite = fit_multinomial(X, labels, 3, ClassifierHyper(iters=50))
        assert finite.tolist() == [True] * 4
        for j in range(4):
            w1, b1, _ = fit_multinomial(X[j], labels, 3, ClassifierHyper(iters=50))
            np.testing.assert_array_equal(W[j], w1)
            np.testing.assert_array_equal(b[j], b1)

    def test_divergence_after_last_step_reported(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(2, 30, 4))
        X[1] *= 1e3
        labels = rng.integers(0, 3, size=30)
        labels[:3] = [0, 1, 2]
        # One huge step: every loss before it is finite, the weights after it
        # are finite but absurd, and the final loss is not.
        _, _, finite = fit_multinomial(X, labels, 3, ClassifierHyper(lr=1e300, iters=1))
        assert finite.tolist() == [False, False]
        _, _, finite = fit_multinomial(X, labels, 3, ClassifierHyper(lr=1e300, iters=0))
        assert finite.tolist() == [True, True]


class TestPlatt:
    def test_separable_scores_ordered(self):
        scores = np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0])
        targets = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        [(a, b)] = fit_platt(scores[None], targets[None])[0].tolist()
        p_hi = platt_apply(a, b, np.array([1.0]))[0]
        p_lo = platt_apply(a, b, np.array([-1.0]))[0]
        assert p_hi > 0.5 > p_lo

    def test_outputs_are_probabilities(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=30)
        targets = (scores + rng.normal(scale=0.5, size=30) > 0).astype(float)
        [(a, b)] = fit_platt(scores[None], targets[None])[0].tolist()
        p = platt_apply(a, b, scores)
        assert np.all(p >= 0.0) and np.all(p <= 1.0)


def reference_fit_platt(scores, targets, failed_at=None):
    """fit_platt as one Newton loop per problem; failed_at, if given, gets
    the step at which a non-finite Hessian stops it."""
    n_pos = float(targets.sum())
    n_neg = float(len(targets) - n_pos)
    t_pos = (n_pos + 1.0) / (n_pos + 2.0)
    t_neg = 1.0 / (n_neg + 2.0)
    t = np.where(targets > 0, t_pos, t_neg)
    a = 0.0
    b = math.log((n_neg + 1.0) / (n_pos + 1.0))
    reg = 1e-9
    with np.errstate(all="ignore"):
        for step in range(100):
            p = platt_apply(a, b, scores)
            dz = p - t
            w = p * (1.0 - p)
            ga = float(-(dz * scores).sum()) + reg * a
            gb = float(-dz.sum()) + reg * b
            haa = float((w * scores * scores).sum()) + reg
            hbb = float(w.sum()) + reg
            hab = float((w * scores).sum())
            det = haa * hbb - hab * hab
            if not math.isfinite(det):
                if failed_at is not None:
                    failed_at.append(step)
                raise NumericError("non-finite Hessian in Platt calibration")
            if det <= 1e-18:
                break
            da = (hbb * ga - hab * gb) / det
            db = (haa * gb - hab * ga) / det
            a -= da
            b -= db
            if abs(da) < 1e-12 and abs(db) < 1e-12:
                break
    if not (math.isfinite(a) and math.isfinite(b)):
        raise NumericError("non-finite Platt coefficients")
    return a, b


# Scores whose Hessian turns non-finite at the third Newton step, under
# targets (1, 1, 1, 1, 0); scores near 1e300 fail at the first.
LATE_FAILING_SCORES = [6.40243593e20, -1.06412462e37, 1.50337818e147, -2.17332704e11, 2.90817792e154]


def platt_problems(rng, n):
    """(scores, targets) rows of one length n: separable, constant,
    one-sided, noisy and widely scaled scores."""
    noisy = rng.normal(size=n)
    targets = (noisy + rng.normal(scale=0.5, size=n) > 0).astype(float)
    order = np.sign(noisy)
    return [
        (noisy, targets),
        (order * 3.0, (order > 0).astype(float)),  # separable
        (np.full(n, 0.7), targets),  # constant
        (noisy, np.zeros(n)), (noisy, np.ones(n)),  # one-sided
        (noisy * 1e6, targets), (noisy * 1e-9, targets),
        (np.round(noisy), targets),
    ]


class TestStackedPlatt:
    """Every (timestamp, class) Platt fit runs in one Newton loop; each
    row keeps the bits of its own one-problem loop."""

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 33, 200])
    def test_rows_equal_per_problem_loop(self, n):
        rng = np.random.default_rng(n)
        problems = platt_problems(rng, n)
        scores = np.array([s for s, _ in problems])
        targets = np.array([t for _, t in problems])
        coefs, failure = fit_platt(scores, targets)
        assert failure is None
        for (s, t), row in zip(problems, coefs):
            want = reference_fit_platt(s, t)
            assert row.tolist() == list(want)
            assert fit_platt(s[None], t[None])[0][0].tolist() == list(want)

    def test_collection_equals_per_problem_loop(self, fitted):
        _, _, calib, timeline, coll = fitted
        scores = _scores(prefix_features(calib.values, timeline.timestamps), coll)
        for j in range(len(timeline)):
            for c in range(coll.num_classes):
                want = reference_fit_platt(scores[j, :, c], (calib.labels == c).astype(float))
                assert coll.platt[j, c].tolist() == list(want)

    def test_one_problem_errors_as_before(self):
        targets = np.array([1.0, 1.0, 1.0, 1.0, 0.0])
        late = np.array(LATE_FAILING_SCORES)
        failed_at = []
        with pytest.raises(NumericError, match="non-finite Hessian in Platt calibration"):
            reference_fit_platt(late, targets, failed_at)
        assert failed_at == [2]
        assert fit_platt(late[None], targets[None])[1] == (0, "non-finite Hessian in Platt calibration")

    def test_failure_names_the_earliest_timestamp(self, monkeypatch):
        """The lowest failing (timestamp, class) names the error, although
        a later timestamp fails at an earlier Newton step."""
        rng = np.random.default_rng(5)
        timeline = default_timeline(12)
        train = SeriesSet(tuple(f"f{i}" for i in range(12)), rng.normal(size=(12, 12)), np.arange(12) % 2)
        calib = SeriesSet(tuple(f"c{i}" for i in range(5)), rng.normal(size=(5, 12)), np.array([0, 0, 0, 0, 1]))
        early, late = 2, len(timeline) - 2
        crafted = np.zeros((len(timeline), 5, 2))
        crafted[early, :, 0] = LATE_FAILING_SCORES  # class 0's targets are (1, 1, 1, 1, 0)
        crafted[late, :, 1] = [0.0, 0.0, 0.0, 0.0, 1e300]
        failed_at = []
        for j, c in ((early, 0), (late, 1)):
            with pytest.raises(NumericError):
                reference_fit_platt(crafted[j, :, c], (calib.labels == c).astype(float), failed_at)
        assert failed_at == [2, 0]
        monkeypatch.setattr(classify_module, "_scores", lambda features, collection: crafted)
        with pytest.raises(NumericError, match=f"^timestamp {timeline.timestamps[early]}: non-finite Hessian"):
            fit_collection(train, timeline, ClassifierHyper(iters=1), calib)


@pytest.fixture(scope="module")
def fitted():
    ds = generate_synthetic(15, 20, 5, 0.0, seed=0)
    calib, fit_part = stratified_split(ds.train, 0.3, seed=0)
    timeline = default_timeline(15)
    coll = fit_collection(fit_part, timeline, ClassifierHyper(), calib)
    return ds, fit_part, calib, timeline, coll


class TestCollection:
    def test_noiseless_training_accuracy(self, fitted):
        ds, fit_part, _, timeline, coll = fitted
        predicted = coll.prob_trace(fit_part.values)[:, -1].argmax(axis=1)
        assert predicted.tolist() == fit_part.labels.tolist()

    def test_probabilities_sum_to_one(self, fitted):
        ds, _, _, timeline, coll = fitted
        P = coll.prob_trace(ds.test.values[:3])
        assert P.shape == (3, len(timeline), 3)
        assert np.all(P >= 0.0)
        assert np.all(np.abs(P.sum(axis=2) - 1.0) < 1e-9)

    def test_trace_shape_and_determinism(self, fitted):
        ds, _, _, timeline, coll = fitted
        trace1 = coll.prob_trace(ds.test.values[:1])
        trace2 = coll.prob_trace(ds.test.values[:1])
        assert trace1.shape == (1, len(timeline), 3)
        np.testing.assert_array_equal(trace1, trace2)

    def test_wrong_length_series_rejected(self, fitted):
        ds, _, _, timeline, coll = fitted
        with pytest.raises(DataError, match=r"shape \(2, 14\), expected \(n, 15\)"):
            coll.prob_trace(ds.test.values[:2, :-1])
        with pytest.raises(DataError, match=r"shape \(15,\), expected \(n, 15\)"):
            coll.prob_trace(ds.test.values[0])

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 150), seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.1, 1.0, 1e3]))
    def test_rows_independent_of_the_stack(self, fitted, n, seed, scale):
        _, _, _, timeline, coll = fitted
        rng = np.random.default_rng(seed)
        values = rng.normal(scale=scale, size=(n, timeline.series_length))
        P = coll.prob_trace(values)
        for i in range(n):
            np.testing.assert_array_equal(P[i], coll.prob_trace(values[i : i + 1])[0])

    def test_refit_identical(self, fitted):
        ds, fit_part, calib, timeline, coll = fitted
        again = fit_collection(fit_part, timeline, ClassifierHyper(), calib)
        np.testing.assert_array_equal(coll.weights, again.weights)
        np.testing.assert_array_equal(coll.platt, again.platt)

    def test_standardization_uses_train_only(self, fitted):
        ds, fit_part, calib, timeline, coll = fitted
        # A perturbed test set cannot change the fitted model.
        again = fit_collection(fit_part, timeline, ClassifierHyper(), calib)
        _ = ds.test.values  # test set never enters fit_collection
        np.testing.assert_array_equal(coll.feature_mean, again.feature_mean)

    def test_missing_class_error(self, fitted):
        ds, fit_part, calib, timeline, _ = fitted
        only_two = fit_part.take(np.flatnonzero(fit_part.labels != 2))
        with pytest.raises(DataError, match=r"classes \[2\]"):
            fit_collection(only_two, timeline, ClassifierHyper(), calib)

    def test_uncalibrated_zero_iters_uniform(self, fitted):
        ds, fit_part, calib, timeline, _ = fitted
        coll = fit_collection(fit_part, timeline, ClassifierHyper(iters=0), calib)
        scores = _scores(prefix_features(ds.test.values[:1], timeline.timestamps), coll)
        assert scores.shape == (len(timeline), 1, 3) and not scores.any()  # so the raw softmax is uniform

    def test_divergence_names_the_earliest_timestamp(self, fitted):
        ds, fit_part, calib, timeline, _ = fitted
        with pytest.raises(NumericError, match=f"timestamp {timeline.timestamps[0]}: "):
            fit_collection(fit_part, timeline, ClassifierHyper(lr=1e300, iters=1), calib)


def test_softmax_shift_invariant():
    z = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(softmax(z), softmax(z + 100.0), atol=1e-12)
    assert softmax(np.zeros(4)).tolist() == [0.25] * 4
