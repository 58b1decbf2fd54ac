import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ects_bench.core import (
    RECORD_FIELDS,
    RECORD_TYPES,
    CostModel,
    DelayCurve,
    RecordTable,
    SampledTimeline,
    SeriesSet,
    anomaly_cost_model,
    delay_cost,
    earliest_min,
    misclassification_cost,
    quantiles,
    standard_cost_model,
)
from ects_bench.metrics import price_records


def test_delay_cost_linear_endpoint():
    model = standard_cost_model(2, 0.5)
    assert delay_cost(model, 100, 100) == 1.0


def test_delay_cost_exponential_midpoint():
    # exp(0.5 * ln 100) = 10, the unweighted curve value at t = T/2
    model = anomaly_cost_model(0.5)
    assert delay_cost(model, 50, 100) == pytest.approx(10.0, abs=1e-12)


def test_delay_cost_exponential_origin_limit():
    model = anomaly_cost_model(0.3)
    assert math.exp((1 / 10000) * math.log(100)) == pytest.approx(
        delay_cost(model, 1, 10000), abs=1e-12
    )
    # endpoint ratio is exactly 100
    assert delay_cost(model, 100, 100) / math.exp(0.0) == pytest.approx(100.0, abs=1e-9)


def test_delay_cost_out_of_range():
    model = standard_cost_model(2, 0.5)
    with pytest.raises(ValueError):
        delay_cost(model, 0, 10)
    with pytest.raises(ValueError):
        delay_cost(model, 11, 10)


def test_misclassification_cost_balanced():
    model = standard_cost_model(3, 0.5)
    assert misclassification_cost(model, 1, 1) == 0.0
    assert misclassification_cost(model, 1, 2) == 1.0


def test_misclassification_cost_anomaly():
    model = anomaly_cost_model(0.5)
    assert misclassification_cost(model, 0, 1) == 100.0  # missed anomaly
    assert misclassification_cost(model, 1, 0) == 1.0  # false alarm


def test_misclassification_cost_index_error():
    model = standard_cost_model(2, 0.5)
    with pytest.raises(ValueError):
        misclassification_cost(model, 2, 0)


def _unweighted_losses(model, predicted, true, t, length):
    """C_m + C_d of each decision, read from the records price_records makes."""
    timeline = SampledTimeline(tuple(range(1, length + 1)), length)
    n = len(predicted)
    r = price_records("d", ["m"], [f"s{i}" for i in range(n)], np.array(true), np.array([[predicted]]),
                      np.array([[t]]) - 1, [(np.full(n, length), np.zeros(n))], [model], timeline)
    return r.misclassification_cost + r.delay_cost, r.weighted_cost


def test_loss_examples():
    std = standard_cost_model(2, 0.5)
    losses, _ = _unweighted_losses(std, [0, 1], [1, 1], [50, 100], 100)
    assert losses.tolist() == pytest.approx([1.5, 1.0])
    anomaly = anomaly_cost_model(0.5)
    losses, _ = _unweighted_losses(anomaly, [0], [1], [100], 100)
    assert losses.tolist() == pytest.approx([200.0])


@pytest.mark.parametrize("curve_model", [standard_cost_model(2, 0.5), anomaly_cost_model(0.5)])
def test_delay_cost_non_decreasing(curve_model):
    values = [delay_cost(curve_model, t, 50) for t in range(1, 51)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_loss_equals_scaled_weighted_loss_at_half():
    model = standard_cost_model(2, 0.5)
    for predicted, true in ((0, 0), (0, 1)):
        for t in (1, 10, 20):
            weighted = 0.5 * misclassification_cost(model, predicted, true) + 0.5 * delay_cost(
                model, t, 20
            )
            loss, priced = _unweighted_losses(model, [predicted], [true], [t], 20)
            assert priced[0] == weighted
            assert loss[0] == pytest.approx(2.0 * weighted, abs=1e-12)


def test_exponential_endpoint_ratio():
    model = anomaly_cost_model(0.2)
    # curve value extrapolated to t=0 is exp(0) = 1
    assert delay_cost(model, 100, 100) / 1.0 == pytest.approx(100.0, abs=1e-9)


def test_cost_model_validation():
    with pytest.raises(ValueError):
        CostModel(((1.0, 1.0), (1.0, 0.0)), DelayCurve.LINEAR, 0.5)  # nonzero diagonal
    with pytest.raises(ValueError):
        CostModel(((0.0, -1.0), (1.0, 0.0)), DelayCurve.LINEAR, 0.5)
    with pytest.raises(ValueError):
        CostModel(((0.0, 1.0), (1.0, 0.0)), DelayCurve.LINEAR, 1.5)
    for entry in (float("nan"), float("inf")):  # economy would price 0 * inf as NaN
        with pytest.raises(ValueError, match="must be finite and nonnegative"):
            CostModel(((0.0, entry), (1.0, 0.0)), DelayCurve.LINEAR, 0.5)


def test_series_set_validation():
    with pytest.raises(ValueError, match="length must be >= 2"):
        SeriesSet(("x",), [[1.0]], [0])
    with pytest.raises(ValueError, match="'y' has a non-finite value"):
        SeriesSet(("x", "y"), [[1.0, 2.0], [1.0, float("nan")]], [0, 0])
    with pytest.raises(ValueError, match="'x' has a negative label"):
        SeriesSet(("x",), [[1.0, 2.0]], [-1])
    with pytest.raises(ValueError, match="do not agree"):
        SeriesSet(("x", "y"), [[1.0, 2.0]], [0])
    with pytest.raises(ValueError, match="do not agree"):
        SeriesSet(("x",), [1.0, 2.0], [0])



def test_timeline_validation():
    with pytest.raises(ValueError):
        SampledTimeline((1, 1, 3), 3)
    with pytest.raises(ValueError):
        SampledTimeline((1, 2), 3)  # does not end at T
    with pytest.raises(ValueError):
        SampledTimeline((), 3)


def scalar_earliest_min(row):
    """The candidate selection scan earliest_min replaced: a later entry
    must beat the running best by more than 1e-15."""
    best, best_cost = None, math.inf
    for idx, c in enumerate(row):
        if c < best_cost - 1e-15:
            best, best_cost = idx, c
    return best


# Few distinct bases, so exact ties are common, and offsets on both sides
# of the 1e-15 margin (1e-16 apart rounds to one ulp at 0.5 and 1.0).
TIE_VALUES = st.builds(
    lambda base, offset: base + offset,
    st.sampled_from((0.0, 0.25, 0.5, 1.0, 0.30000000000000004)),
    st.sampled_from((0.0, 1e-16, -1e-16, 1e-15, -1e-15, -2e-15, -1e-14)),
) | st.floats(0.0, 2.0)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda c: st.lists(st.lists(TIE_VALUES, min_size=c, max_size=c), min_size=1, max_size=6)
))
def test_earliest_min_equals_scalar_scan(rows):
    assert earliest_min(np.array(rows)).tolist() == [scalar_earliest_min(row) for row in rows]


def column_scan_earliest_min(values):
    """The column-by-column scan the prefix-minimum scan replaced; it starts
    from the first column, so a row whose first value is NaN kept index 0."""
    best, index = values[:, 0], np.zeros(len(values), dtype=np.int64)
    for i in range(1, values.shape[1]):
        better = values[:, i] < best - 1e-15
        best = np.where(better, values[:, i], best)
        index[better] = i
    return index


def long_tie_rows(rng, cols):
    """Rows of up to 1,000 columns: plateaus and staircases within +-1e-15,
    NaN at the first and later columns, and +-inf."""
    bases = np.array([0.0, 0.25, 0.5, 1.0, 0.30000000000000004])
    offsets = np.array([0.0, 1e-16, -1e-16, 5e-16, -5e-16, 1e-15, -1e-15, -2e-15, -1e-14])
    plateau = rng.choice(bases, size=(4, cols)) + rng.choice(offsets, size=(4, cols))
    staircase = 1.0 - np.cumsum(rng.choice(offsets[offsets >= 0], size=(3, cols)), axis=1)
    uniform = rng.random((2, cols))
    rows = np.vstack([plateau, staircase, uniform, plateau[:2] + uniform[:1] * 1e-14])
    special = rng.random(rows.shape) < 0.03
    rows[special] = rng.choice([math.nan, math.inf, -math.inf], size=int(special.sum()))
    rows[::4, 0] = math.nan
    rows[1::4, 0] = math.inf
    return rows


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), cols=st.integers(1, 1000))
def test_earliest_min_equals_scalar_scan_on_long_rows(seed, cols):
    rows = long_tie_rows(np.random.default_rng(seed), cols)
    want = [scalar_earliest_min(row) for row in rows.tolist()]
    assert earliest_min(rows).tolist() == [0 if w is None else w for w in want]
    # Where the first value is not NaN, the column scan it replaced agrees.
    keep = ~np.isnan(rows[:, 0])
    assert earliest_min(rows[keep]).tolist() == column_scan_earliest_min(rows[keep]).tolist()


def test_earliest_min_nan_never_wins():
    rows = np.array([[math.nan, 2.0, 1.0], [math.nan, math.nan, math.nan], [math.inf, math.inf, math.inf],
                     [1.0, math.nan, 0.5], [math.nan, -math.inf, -math.inf]])
    assert earliest_min(rows).tolist() == [2, 0, 0, 2, 1]
    assert earliest_min(np.zeros((0, 4))).tolist() == [] and earliest_min(np.ones((2, 1))).tolist() == [0, 0]


def test_record_text_is_each_values_repr_or_str():
    # Repeated values are formatted once; a float is keyed by its bits, so
    # -0.0 and 0.0 keep their own text.
    floats = [-0.0, 0.0, 5e-324, 0.1 + 0.2, 1e16, 0.3, 0.1 + 0.2, -0.0, 1e16, 0.0]
    n = len(floats)
    columns = {}
    for k, (name, kind) in enumerate(zip(RECORD_FIELDS, RECORD_TYPES)):
        if kind is float:
            columns[name] = floats[k:] + floats[:k]
        elif kind is int:
            columns[name] = [(i * k) % 3 for i in range(n)]
        else:
            columns[name] = [f"{name}-{i % (k + 1)}" for i in range(n)]
    table = RecordTable.from_columns(**columns)
    want = [",".join(repr(columns[name][i]) if kind is float else str(columns[name][i])
                     for name, kind in zip(RECORD_FIELDS, RECORD_TYPES)) + "\n" for i in range(n)]
    assert table.text.tolist() == want


def test_empty_record_table():
    table = RecordTable.from_columns(**{name: () for name in RECORD_FIELDS})
    assert len(table) == 0 and table.text.tolist() == []


@pytest.mark.parametrize("axis", [0, 1])
def test_quantiles_equal_numpy_quantile(axis):
    rng = np.random.default_rng(axis)
    for case in range(300):
        shape = (int(rng.integers(1, 30)), int(rng.integers(1, 5)))
        values = rng.random(shape)
        if case % 2:
            values = np.round(values * 3.0) / 3.0  # ties
        k = int(rng.integers(1, 12))
        for qs in ([i / k for i in range(1, k)], [0.05, 0.95], [0.0, 0.5, 1.0]):
            got = quantiles(values, qs, axis=axis)
            want = np.quantile(values, qs, axis=axis)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
