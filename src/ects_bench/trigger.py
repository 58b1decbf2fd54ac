"""Halting policies over probability traces.

A trace is an (L, K) array of calibrated class-probability vectors, one per
timeline timestamp. Each policy is defined once, as ``halts(stats)`` over a
stack of n traces observed up to m <= L timestamps (``trigger_stats``):
column j is the halt-or-wait answer at timeline index j, it reads nothing
after column j, and every model halts at the final index. A series'
decision is the first halt in its row, read at that index's argmax label.
``simulate_online`` replays the same definition one prefix at a time, as
the online process would; it is the reference the tests hold the stacked
decisions to.

Implemented policies: the Asap/Alap baselines, a max-probability threshold,
a linear stopping rule over (p1, p2, t/T), an expected-cost Markov-chain
model over equal-frequency confidence bins, a precision-sequence confidence
rule, and a cost-difference kernel-ridge regressor. The two expected-cost
policies have myopic (horizon-1) variants. METHODS names them all.

Each base method has one sweep fit, fit_<name>(train, costs), over the
trigger partition and an alpha sweep: cost models that differ in alpha
alone. It returns one model, the sweep: its per-alpha parameters have a
leading alpha axis, and its halts answer every alpha, for each horizon
asked, in one call. fit_methods runs the fits a method list needs, and
first_halts asks each sweep once. In a tuned fit, the state that does not
depend on alpha (every grid candidate's first halts, economy's groups,
transitions and expected misclassification paths, ecec's precisions, kernel
systems) is a local of that one call, so a sweep builds it once.
Each alpha then adds only the cost arithmetic; the oracle's tie rule
(core.earliest_min) picks every alpha's parameters at once. A grid rule is
written once, in its model's _rule, over that sweep's A parameters: the
grid fits (_fit_grid) ask a sweep whose alphas are a block of grid
candidates for its halts, block by block, each block at most
_BLOCK_ELEMENTS halts, and read every candidate's first halt from them.
Economy prices every alpha of one k in one table, from which it reads each
alpha's (horizon, timestamp, group) halt table once; its halts look it up.
Economy's halt tables and calimera's targets share one horizon rule,
backward_min_costs: the best later halt, or the next if myopic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .core import CostModel, SampledTimeline, delay_costs, earliest_min, quantiles, sweep_base, weighted_costs
from .errors import DataError

# Every method the harness runs; a *_myopic method is its base method's horizon-1 variant.
METHODS = (
    "asap", "alap", "proba_threshold", "stopping_rule", "economy", "ecec", "calimera",
    "economy_myopic", "calimera_myopic",
)
PROBA_GRID = tuple((i + 1) / 40.0 for i in range(40))  # 1/40 .. 1
STOPPING_RULE_GRID = tuple(itertools.product(np.linspace(-1.0, 1.0, 10), repeat=3))  # 10^3 gammas
_BLOCK_ELEMENTS = 1 << 16  # halts per block of grid candidates, which bounds the temporaries
CALIMERA_RIDGE = 1e-2  # calimera's kernel systems are gram + CALIMERA_RIDGE * I


class TraceStats(NamedTuple):
    """Stacked traces P (n, m, K) and what the policies read from them, per
    (series, timeline index): argmax class, max probability, top-2 margin."""

    P: np.ndarray
    pred: np.ndarray
    maxp: np.ndarray
    p2: np.ndarray


def trigger_stats(P: np.ndarray) -> TraceStats:
    """The policies' inputs for a stack of traces P (n, m, K), m <= L."""
    top2 = -np.partition(-P, 1, axis=2)[:, :, :2]
    return TraceStats(P, P.argmax(axis=2), top2[:, :, 0], top2[:, :, 0] - top2[:, :, 1])


@dataclass(frozen=True, eq=False)
class TriggerTrainSet:
    """Probability traces (n, L, K) plus true labels (n,) for the trigger
    partition, and the policies' inputs read from the traces once."""

    traces: np.ndarray
    labels: np.ndarray
    timeline: SampledTimeline
    stats: TraceStats = field(init=False, repr=False)

    def __post_init__(self):
        traces = np.asarray(self.traces, dtype=float)
        labels = np.asarray(self.labels, dtype=np.int64)
        if traces.ndim != 3 or labels.shape != traces.shape[:1]:
            raise DataError(f"traces of shape {traces.shape} and labels of shape {labels.shape} do not agree")
        if not len(labels):
            raise DataError("empty trigger train set")
        if traces.shape[1] != len(self.timeline):
            raise DataError("trace length differs from timeline length")
        finite = np.isfinite(traces).all(axis=(1, 2))
        if not finite.all():
            raise DataError(f"trigger train series {int(np.argmin(finite))} has a non-finite probability")
        K = traces.shape[2]
        outside = (labels < 0) | (labels >= K)
        if outside.any():
            raise DataError(f"trigger train series {int(np.argmax(outside))} has a label outside [0, {K})")
        object.__setattr__(self, "traces", traces)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "stats", trigger_stats(traces))


class TriggerModel:
    """A fitted sweep: one halting policy per alpha, A in all, its parameters
    stacked on a leading alpha axis. A policy without a horizon defines
    _rule(stats), its (A, n, m) halts; economy and calimera define _halts."""

    def __init__(self, timeline: SampledTimeline):
        self.timeline = timeline

    def halts(self, stats: TraceStats, myopic: Sequence[bool] = (False,)) -> np.ndarray:
        """(H, A, n, m) bool: for each horizon asked (True = the myopic one)
        and each alpha, True = halt at timeline index j. Forced halt at the
        last timeline index."""
        h = self._halts(stats, tuple(myopic))
        if h.shape[-1] == len(self.timeline):
            h[..., -1] = True
        return h

    def _halts(self, stats: TraceStats, myopic: Tuple[bool, ...]) -> np.ndarray:
        """The policies as a new (H, A, n, m) array; column j reads columns
        0..j only. A policy without a horizon has the full one alone."""
        if any(myopic):
            make_myopic(self)  # raises: this policy has no myopic horizon
        return np.stack([self._rule(stats)] * len(myopic))


def simulate_online(model: TriggerModel, trace: np.ndarray, myopic: bool = False) -> List[Tuple[int, int]]:
    """Replay the online process on one (L, K) trace: at each index, the
    halts of the trace's prefix up to it alone, and return each alpha's
    first halt's (argmax label, timestamp)."""
    timeline = model.timeline
    if len(trace) != len(timeline):
        raise ValueError(f"a trace of {len(trace)} steps on a timeline of {len(timeline)}")
    halted = [model.halts(trigger_stats(trace[None, : i + 1]), (myopic,))[0, :, 0, i] for i in range(len(timeline))]
    # The forced halt at the last index gives every alpha a first halt.
    return [(int(np.argmax(trace[i])), timeline.timestamps[i]) for i in np.argmax(halted, axis=0).tolist()]


class AsapTrigger(TriggerModel):
    """Halts at the first index under each of a sweep's size alphas."""

    def __init__(self, timeline, size: int):
        super().__init__(timeline)
        self.size = size

    def _rule(self, stats):
        return np.ones((self.size,) + stats.pred.shape, dtype=bool)


class AlapTrigger(AsapTrigger):
    """Waits for the last index under each of a sweep's size alphas."""

    def _rule(self, stats):
        return np.zeros((self.size,) + stats.pred.shape, dtype=bool)


def fit_asap(train: TriggerTrainSet, costs: Sequence[CostModel]) -> AsapTrigger:
    sweep_base(costs)
    return AsapTrigger(train.timeline, len(costs))


def fit_alap(train: TriggerTrainSet, costs: Sequence[CostModel]) -> AlapTrigger:
    sweep_base(costs)
    return AlapTrigger(train.timeline, len(costs))


def _stopping_rule_halts(stats: TraceStats, timeline: SampledTimeline, gammas: np.ndarray) -> np.ndarray:
    """(C, n, m) halts of the stopping rule g1 * maxp + g2 * p2 + g3 * t/T
    > 0 at each (g1, g2, g3) of gammas (C, 3), in that sum's order."""
    tt = np.array(timeline.timestamps[: stats.maxp.shape[1]]) / timeline.series_length
    g1, g2, g3 = (column[:, None, None] for column in gammas.T)
    return g1 * stats.maxp + g2 * stats.p2 + g3 * tt > 0.0


class ProbaThresholdTrigger(TriggerModel):
    def __init__(self, timeline, thetas):
        super().__init__(timeline)
        thetas = np.asarray(thetas, dtype=float)
        if not np.all((0.0 < thetas) & (thetas <= 1.0)):
            raise ValueError(f"each theta must be in (0, 1], got {thetas.tolist()}")
        self.thetas = thetas  # (A,)

    def _rule(self, stats):
        return stats.maxp >= self.thetas[:, None, None]


class StoppingRuleTrigger(TriggerModel):
    def __init__(self, timeline, gammas):
        super().__init__(timeline)
        self.gammas = np.asarray(gammas, dtype=float)  # (A, 3): each alpha's (g1, g2, g3)

    def _rule(self, stats):
        return _stopping_rule_halts(stats, self.timeline, self.gammas)


# ---------------------------------------------------------------------------
# Policy simulation shared by the grid searches.
# ---------------------------------------------------------------------------


def _mean_costs(train: TriggerTrainSet, costs: Sequence[CostModel], first: np.ndarray) -> np.ndarray:
    """(cost models, candidates) empirical mean weighted cost on the train
    set of each candidate's first halts first: (candidates, n), one set for
    the whole sweep, or (cost models, candidates, n)."""
    base, shape = costs[0], (len(costs),) + first.shape[-2:]
    pred = train.stats.pred[np.arange(len(train.labels)), first]
    c_m = np.broadcast_to(np.asarray(base.mis_matrix)[pred, train.labels], shape)
    c_d = np.broadcast_to(delay_costs(base, train.timeline)[first], shape)
    # Row means along the contiguous last axis: each row's pairwise sum, as np.mean(row).
    return np.array([weighted_costs(cost.alpha, m, d).mean(axis=1) for cost, m, d in zip(costs, c_m, c_d)])


def _fit_grid(
    train: TriggerTrainSet, costs: Sequence[CostModel], grid: np.ndarray, make: Callable[[np.ndarray], TriggerModel],
) -> TriggerModel:
    """make(points) of the grid points that, per cost model, have the least
    empirical mean weighted cost on the train set; ties go to the earlier
    point. make(block) is the sweep whose alphas are a block of grid points:
    each point's first halts are read from the halts of consecutive blocks,
    each of at most _BLOCK_ELEMENTS halts, or one point."""
    sweep_base(costs)
    step = max(1, _BLOCK_ELEMENTS // train.stats.maxp.size)
    first = [make(grid[lo : lo + step]).halts(train.stats)[0].argmax(axis=-1) for lo in range(0, len(grid), step)]
    return make(grid[earliest_min(_mean_costs(train, costs, np.concatenate(first)))])


def fit_proba_threshold(train: TriggerTrainSet, costs: Sequence[CostModel]) -> ProbaThresholdTrigger:
    """Pick theta from the 40-point grid; ties go to the smaller theta."""
    return _fit_grid(train, costs, np.array(PROBA_GRID), partial(ProbaThresholdTrigger, train.timeline))


def fit_stopping_rule(train: TriggerTrainSet, costs: Sequence[CostModel]) -> StoppingRuleTrigger:
    """Exhaustive 10x10x10 grid over gamma; ties go to the lexicographically
    smallest vector."""
    return _fit_grid(train, costs, np.array(STOPPING_RULE_GRID), partial(StoppingRuleTrigger, train.timeline))


# ---------------------------------------------------------------------------
# Expected-cost model over equal-frequency confidence bins with Markov
# transitions between consecutive timestamps.
# ---------------------------------------------------------------------------


class EconomyTrigger(TriggerModel):
    def __init__(self, timeline, ks: Sequence[int], bin_edges: Sequence[np.ndarray], tables: Sequence[np.ndarray]):
        super().__init__(timeline)
        # Per alpha: its k, its k's (L, k-1) interior edges per timestamp, and
        # its (2, L, k) full (row 0) and myopic (row 1) halt tables (_halt_tables).
        self.ks = tuple(ks)
        self.bin_edges = tuple(bin_edges)
        self.tables = tuple(tables)

    def _halts(self, stats, myopic):
        """A series halts as its alpha's table does at its group; the alphas that chose one k share its groups."""
        groups = {k: _groups(edges, stats.maxp) for k, edges in dict(zip(self.ks, self.bin_edges)).items()}
        j = np.arange(stats.maxp.shape[1])
        return np.array([[table[int(h)][j, groups[k]] for k, table in zip(self.ks, self.tables)] for h in myopic])


class _EconomyTables(NamedTuple):
    """One k's alpha-free economy state on the trigger partition."""

    bin_edges: np.ndarray  # (L, k-1): interior edges per timestamp
    groups: np.ndarray  # (n, L): the partition's group per timestamp
    transitions: np.ndarray  # (L-1, k, k), rows normalized
    mis_paths: np.ndarray  # (L, k, L), see _expected_mis_paths


def _expected_mis(cc: np.ndarray, conf: np.ndarray, cost: CostModel, s: float) -> np.ndarray:
    """Expected unweighted misclassification cost per (timestamp, group) from
    the (L, k, K) class counts cc and (L, k, K true, K predicted) confusion
    counts conf, smoothed by s: the sum over true classes y, in order, of
    p(y) times the dot of p(predicted | y) with the cost column of y; a
    class absent from a cell (at s = 0) adds 0."""
    K = cc.shape[2]
    mis_matrix = np.asarray(cost.mis_matrix)  # [predicted][true]
    p_y = (cc + s) / (cc.sum(axis=2, keepdims=True) + s * K)  # (L, k, K)
    per_class = conf.sum(axis=3, keepdims=True) + s * K
    p_pred = np.divide(conf + s, per_class, out=np.zeros(conf.shape), where=per_class > 0)  # (L, k, K, K)
    out = np.zeros(cc.shape[:2])
    for y in range(K):
        # One dot per (timestamp, group), as for a single row.
        out += p_y[:, :, y] * np.matmul(p_pred[:, :, y, None, :], mis_matrix[:, y, None])[:, :, 0, 0]
    return out


def _expected_mis_paths(mis: np.ndarray, transitions: np.ndarray) -> np.ndarray:
    """M[j, g, tau]: expected unweighted misclassification cost of halting
    at tau from group g at index j (zero for tau < j), carrying the group
    distribution along the transitions. Does not depend on alpha."""
    L, k = mis.shape
    out = np.zeros((L, k, L))
    reach = np.broadcast_to(np.eye(k)[:, None, :], (L, k, 1, k))  # per start j, one row per group
    for d in range(L):  # horizon distance: tau = j + d for every start j < L - d
        j = np.arange(L - d)
        # One product per row; a single GEMV or GEMM rounds differently.
        out[j, :, j + d] = np.matmul(reach, mis[d:, None, :, None])[:, :, 0, 0]
        reach = np.matmul(reach[: L - d - 1], transitions[d:, None])
    return out


def _groups(bin_edges: np.ndarray, maxp: np.ndarray) -> np.ndarray:
    """(n, m) confidence group of each max probability: the number of its
    timestamp's interior bin edges (L, k-1) at or below it, in the least
    integer type that holds k - 1 (fit_economy makes one per k)."""
    below = bin_edges[None, : maxp.shape[1]] <= maxp[:, :, None]
    return below.sum(axis=2, dtype=np.min_scalar_type(bin_edges.shape[1]))


def _halt_tables(priced: np.ndarray) -> np.ndarray:
    """(..., 2, L, k) halt tables of priced (..., L, k, L) costs: True at
    [h, j, g] when halting at index j from group g costs no more than the
    best later halt (h = 0) or the next one (h = 1, myopic), both by
    backward_min_costs. At the last index both are +inf and the priced costs
    are finite, so the tables halt there."""
    now = np.diagonal(priced, axis1=-3, axis2=-1)  # (..., k, L): priced[..., j, g, j]
    return np.stack([now <= np.diagonal(backward_min_costs(priced, myopic), axis1=-3, axis2=-1)
                     for myopic in (False, True)], axis=-3).swapaxes(-1, -2)


def _build_economy(train: TriggerTrainSet, cost: CostModel, k: int, smoothing: float) -> Optional[_EconomyTables]:
    """The k-bin tables, which depend on cost's matrix but not its alpha;
    None if some bin is empty at some timestamp."""
    P, pred, maxp = train.stats[:3]
    _, L, K = P.shape
    bin_edges = quantiles(maxp, [i / k for i in range(1, k)], axis=0).T  # (L, k-1)
    groups = _groups(bin_edges, maxp)
    cell = np.arange(L) * k + groups  # (n, L): each series' (timestamp, group) cell
    # Counts are whole numbers plus the smoothing, so they and their sums are exact.
    class_cell = cell * K + train.labels[:, None]
    class_counts = np.bincount(class_cell.ravel(), minlength=L * k * K).reshape(L, k, K)
    if not class_counts.any(axis=2).all():
        return None
    steps = (cell[:, :-1] * k + groups[:, 1:]).ravel()
    counts = np.bincount(steps, minlength=(L - 1) * k * k).reshape(L - 1, k, k) + smoothing
    transitions = counts / counts.sum(axis=2, keepdims=True)
    confusion_counts = np.bincount((class_cell * K + pred).ravel(), minlength=L * k * K * K).reshape(L, k, K, K)
    mis_paths = _expected_mis_paths(_expected_mis(class_counts, confusion_counts, cost, smoothing), transitions)
    return _EconomyTables(bin_edges, groups, transitions, mis_paths)


def fit_economy(
    train: TriggerTrainSet,
    costs: Sequence[CostModel],
    k_grid: Sequence[int] = tuple(range(1, 21)),
    smoothing: float = 1.0,
) -> EconomyTrigger:
    """Per cost model, select k by empirical mean weighted cost of the
    induced policy on the trigger train set; infeasible k (empty bin) are
    skipped; ties favor the smaller k. Each feasible k's tables are built
    once per sweep and priced for every alpha at once into its halt tables;
    only each alpha's winning k, edges and halt tables are kept."""
    base = sweep_base(costs)
    delays = delay_costs(base, train.timeline)
    alphas = np.array([cost.alpha for cost in costs])[:, None, None, None]
    # Per feasible k: k, edges, every alpha's (2, L, k) halt tables, and the train partition's groups.
    feasible = [(k, t.bin_edges, _halt_tables(weighted_costs(alphas, t.mis_paths, delays)), t.groups)
                for k in k_grid if (t := _build_economy(train, base, k, smoothing)) is not None]
    if not feasible:
        raise DataError("no feasible k for the confidence partition")
    j = np.arange(len(train.timeline))
    first = np.stack([tables[:, 0, j, groups].argmax(axis=-1) for _, _, tables, groups in feasible], axis=1)
    winners = earliest_min(_mean_costs(train, costs, first)).tolist()
    ks, edges, tables, _ = zip(*(feasible[i] for i in winners))
    return EconomyTrigger(train.timeline, ks, edges, [table[a] for a, table in enumerate(tables)])


# ---------------------------------------------------------------------------
# Precision-sequence confidence rule.
# ---------------------------------------------------------------------------


class EcecTrigger(TriggerModel):
    def __init__(self, timeline, precisions: np.ndarray, gammas):
        super().__init__(timeline)
        gammas = np.asarray(gammas, dtype=float)
        if not np.all((0.0 <= gammas) & (gammas <= 1.0)):
            raise ValueError(f"each gamma must be in [0, 1], got {gammas.tolist()}")
        self.precisions = precisions  # (L, K), shared by every alpha
        self.gammas = gammas  # (A,)

    def _rule(self, stats):
        return _ecec_confidences(self.precisions, stats.pred) >= self.gammas[:, None, None]


def _ecec_confidences(precisions: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """(n, m) from predictions pred (n, m) and precisions (L, K): 1 - the
    product, over the steps so far that predicted the current class, of
    (1 - that step's precision for it). Does not depend on gamma."""
    prec = precisions[: pred.shape[1]]
    conf = np.empty(pred.shape)
    for c in range(prec.shape[1]):
        agree = pred == c
        # Sequential products; a factor of 1.0 on other classes is exact.
        running = np.multiply.accumulate(np.where(agree, 1.0 - prec[:, c], 1.0), axis=1)
        conf[agree] = 1.0 - running[agree]
    return conf


def _ecec_precisions(pred: np.ndarray, labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Add-one smoothed per-(timestamp, class) precision on the train set."""
    predicted = pred[:, :, None] == np.arange(num_classes)  # (n, L, K)
    correct = predicted & (labels[:, None, None] == np.arange(num_classes))
    return (correct.sum(axis=0) + 1.0) / (predicted.sum(axis=0) + 2.0)


def fit_ecec(train: TriggerTrainSet, costs: Sequence[CostModel]) -> EcecTrigger:
    """Tune the confidence threshold on the 40-point grid; ties go to the
    smaller gamma."""
    prec = _ecec_precisions(train.stats.pred, train.labels, train.traces.shape[2])
    return _fit_grid(train, costs, np.array(PROBA_GRID), partial(EcecTrigger, train.timeline, prec))


# ---------------------------------------------------------------------------
# Cost-difference kernel-ridge regression.
# ---------------------------------------------------------------------------


def backward_min_costs(costs: np.ndarray, myopic: bool = False) -> np.ndarray:
    """The horizon rule: b[..., tau] = min over tau' > tau of costs[..., tau']
    (the best later halt), or costs[..., tau + 1] if myopic (the next halt);
    +inf at the last index in both cases. Works along the last axis."""
    costs = np.asarray(costs, dtype=float)
    out = np.full(costs.shape, math.inf)
    out[..., :-1] = costs[..., 1:] if myopic else np.minimum.accumulate(costs[..., :0:-1], axis=-1)[..., ::-1]
    return out


def _sq_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(len(A), len(B)) squared Euclidean distances between the rows."""
    return ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)


def _rbf_kernel(sq: np.ndarray, bandwidth: float) -> np.ndarray:
    return np.exp(-sq / (2.0 * bandwidth**2))


def _median_pairwise_distance(sq: np.ndarray) -> float:
    """Median distance over the distinct pairs of squared distances sq (n, n); 1.0 if none or tiny."""
    n = sq.shape[0]
    if n < 2:
        return 1.0
    d = np.sqrt(sq[np.triu_indices(n, k=1)])
    # np.median's arithmetic, the mean of the middle pair (one value twice if
    # len(d) is odd), without the numpy.ma import np.median makes.
    lo, hi = (len(d) - 1) // 2, len(d) // 2
    part = np.partition(d, [lo, hi])
    med = float(part[lo] + part[hi]) / 2
    return med if med > 1e-12 else 1.0


class CalimeraTrigger(TriggerModel):
    def __init__(self, timeline, inputs, bandwidths, duals):
        super().__init__(timeline)
        self.inputs = inputs  # (L-1, n, K): the train probability vectors per non-final index, a view of the traces
        self.bandwidths = bandwidths  # (L-1,)
        self.duals = duals  # (A, L-1, 2, n): dual weights of the full (row 0) and myopic (row 1) targets

    def predicted_deltas(self, stats: TraceStats, myopic: Sequence[bool] = (False,)) -> np.ndarray:
        """(H, A, n, m): per horizon asked and alpha, the regressed cost of
        halting now minus that of the best later halt (the next one, if
        myopic); -inf at the last index, which has no later halt (as in
        backward_min_costs). Each index's kernel block is built once for
        every (horizon, alpha)."""
        rows = [int(horizon) for horizon in myopic]
        out = np.full((len(rows), len(self.duals)) + stats.pred.shape, -math.inf)
        for j in range(min(out.shape[-1], len(self.bandwidths))):
            kernel = _rbf_kernel(_sq_distances(stats.P[:, j], self.inputs[j]), float(self.bandwidths[j]))
            # One stacked (n_test, n) @ (n, 1) product per (alpha, horizon) keeps each mat-vec's bits;
            # a single product over every alpha's duals rounds differently.
            out[..., j] = np.matmul(kernel, self.duals[:, j, rows, :, None])[..., 0].swapaxes(0, 1)
        return out

    def _halts(self, stats, myopic):
        return self.predicted_deltas(stats, myopic) <= 0.0


def _calimera_systems(train: TriggerTrainSet) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked over the non-final timestamps j: the inputs X (L-1, n, K), a
    view of the probability vectors P[:, j], the RBF bandwidths (L-1,) (the
    median pairwise distance of X[j]) and the kernel systems (L-1, n, n)
    gram + CALIMERA_RIDGE * I. None of it depends on alpha."""
    inputs = train.traces[:, :-1].swapaxes(0, 1)
    n = inputs.shape[1]
    bandwidths, systems = np.empty(len(inputs)), np.empty((len(inputs), n, n))
    for j, X in enumerate(inputs):
        sq = _sq_distances(X, X)
        bandwidth = bandwidths[j] = _median_pairwise_distance(sq)
        systems[j] = _rbf_kernel(sq, bandwidth) + CALIMERA_RIDGE * np.eye(n)
    return inputs, bandwidths, systems


def fit_calimera(train: TriggerTrainSet, costs: Sequence[CostModel]) -> CalimeraTrigger:
    """Per non-final timestamp, regress the cost difference between halting
    now and the best realized future cost onto the probability vector, with
    an RBF kernel ridge. The kernel systems are built once per sweep; one
    stacked solve then solves each (alpha, timestamp) system once, against
    that alpha's full and myopic targets as two columns.

    The myopic targets (next-step cost instead of the backward minimum) are
    the second column of the same system.
    """
    base = sweep_base(costs)
    inputs, bandwidths, systems = _calimera_systems(train)
    mis = np.asarray(base.mis_matrix)[train.stats.pred, train.labels[:, None]]
    alphas = np.array([cost.alpha for cost in costs])[:, None, None]
    realized = weighted_costs(alphas, mis, delay_costs(base, train.timeline))  # (alphas, n, L)
    targets = np.stack([realized - backward_min_costs(realized, m) for m in (False, True)], axis=-1)
    # One LU per (alpha, timestamp), as a one-alpha sweep's, so each alpha's
    # bits do not depend on the others; one (n, 2A) solve per timestamp would.
    duals = np.linalg.solve(systems, targets[:, :, :-1].swapaxes(1, 2))  # (alphas, L-1, n, 2)
    # Each (alpha, timestamp, target) row of the duals is contiguous.
    return CalimeraTrigger(train.timeline, inputs, bandwidths, np.ascontiguousarray(duals.swapaxes(-1, -2)))


def make_myopic(model: TriggerModel) -> TriggerModel:
    """The sweep a *_myopic method halts by: its base method's sweep itself,
    asked for the horizon-1 halts (halts(stats, (True,))), so nothing is
    copied. Only the anticipation-based sweeps have that horizon."""
    if not isinstance(model, (EconomyTrigger, CalimeraTrigger)):
        raise ValueError(f"make_myopic only applies to economy/calimera, got {type(model).__name__}")
    return model


def fit_methods(methods: Sequence[str], train: TriggerTrainSet, costs: Sequence[CostModel]) -> Dict[str, TriggerModel]:
    """The sweep of each of METHODS named in methods. Each base method is
    fitted once by its fit_<name>, in order of first appearance, so the
    first error does not depend on the rest; each *_myopic method's sweep is
    make_myopic of its base method's. The fits are looked up on the module
    when called, so a rebinding of fit_<name> is seen."""
    bases = {method: method.removesuffix("_myopic") for method in methods}
    fitted = {base: globals()[f"fit_{base}"](train, costs) for base in dict.fromkeys(bases.values())}
    return {method: fitted[base] if base == method else make_myopic(fitted[base]) for method, base in bases.items()}


def first_halts(fitted: Dict[str, TriggerModel], stats: TraceStats) -> np.ndarray:
    """(A, M, n): the timeline index of each series' first halt on stats
    under every (alpha, method) of fitted, methods in its order. Each base
    method's sweep is asked once, for every horizon its methods name; a
    *_myopic method takes the myopic one."""
    first: Dict[str, np.ndarray] = {}
    for sweep in dict.fromkeys(fitted.values()):  # a *_myopic method shares its base method's sweep
        methods = [method for method, fit in fitted.items() if fit is sweep]
        halts = sweep.halts(stats, [method.endswith("_myopic") for method in methods])
        first.update(zip(methods, halts.argmax(axis=-1)))
    return np.stack([first[method] for method in fitted], axis=1)
