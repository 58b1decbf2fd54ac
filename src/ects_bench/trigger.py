"""Halting policies over probability traces.

A trace is an (L, K) array of calibrated class-probability vectors, one per
timeline timestamp. A trigger model sees only the prefix observed so far and
answers halt-or-wait; every model halts at the final index.

Implemented policies: the Asap/Alap baselines, a max-probability threshold,
a linear stopping rule over (p1, p2, t/T), an expected-cost Markov-chain
model over equal-frequency confidence bins, a precision-sequence confidence
rule, and a cost-difference kernel-ridge regressor. The two expected-cost
policies have myopic (horizon-1) variants.

Each tuned fit runs in two steps. The state that does not depend on alpha
(candidate first halts, the Markov model and its expected misclassification
paths, kernel factorizations) is built on first use and kept on the
TriggerTrainSet, so a sweep over alpha builds it once per dataset. The
selection step, run per call, is only the cost arithmetic and the
tie-breaking scan.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .core import CostModel, Decision, SampledTimeline, delay_cost
from .errors import DataError, NumericError

PROBA_GRID = tuple((i + 1) / 40.0 for i in range(40))  # 1/40 .. 1
STOPPING_RULE_AXIS = tuple(np.linspace(-1.0, 1.0, 10))
STOPPING_RULE_GRID = tuple(itertools.product(STOPPING_RULE_AXIS, repeat=3))  # 10^3 gammas


@dataclass(frozen=True)
class TriggerTrainSet:
    """Probability traces plus true labels for the trigger partition."""

    traces: Tuple[np.ndarray, ...]
    labels: Tuple[int, ...]
    timeline: SampledTimeline
    # Alpha-independent fit state, keyed by fit and its alpha-free settings.
    _state: Dict[tuple, object] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.traces) != len(self.labels):
            raise DataError("traces and labels length mismatch")
        if not self.traces:
            raise DataError("empty trigger train set")
        L = len(self.timeline)
        for tr in self.traces:
            if tr.shape[0] != L:
                raise DataError("trace length differs from timeline length")

    @property
    def prob_array(self) -> np.ndarray:
        return np.stack(self.traces)


class TriggerModel:
    """Base halting policy; subclasses override _halt."""

    variant = "base"

    def __init__(self, timeline: SampledTimeline, cost: Optional[CostModel] = None):
        self.timeline = timeline
        self.cost = cost

    def decide(self, trace_prefix: np.ndarray, i: int) -> bool:
        """True = halt now. Forced halt at the last timeline index."""
        if i >= len(self.timeline):
            raise ValueError(f"index {i} outside timeline")
        if i == len(self.timeline) - 1:
            return True
        return self._halt(trace_prefix, i)

    def _halt(self, trace_prefix: np.ndarray, i: int) -> bool:
        raise NotImplementedError

    def params(self) -> dict:
        return {}

    def to_json(self) -> str:
        doc = {
            "variant": self.variant,
            "timeline": list(self.timeline.timestamps),
            "series_length": self.timeline.series_length,
            "params": self.params(),
        }
        if self.cost is not None:
            doc["cost"] = {
                "mis_matrix": [list(r) for r in self.cost.mis_matrix],
                "delay": self.cost.delay.value,
                "alpha": self.cost.alpha,
            }
        return json.dumps(doc)


def simulate_online(model: TriggerModel, trace: np.ndarray) -> Decision:
    """Replay the online process: scan indices in order, feed only the prefix,
    return the first halt's (timestamp, argmax label)."""
    timeline = model.timeline
    for i in range(len(timeline)):
        if model.decide(trace[: i + 1], i):
            return Decision(int(np.argmax(trace[i])), timeline.timestamps[i])
    raise AssertionError("unreachable: forced halt at last index")


class AsapTrigger(TriggerModel):
    variant = "asap"

    def _halt(self, trace_prefix, i):
        return True


class AlapTrigger(TriggerModel):
    variant = "alap"

    def _halt(self, trace_prefix, i):
        return False


def decide_proba_threshold(p_t: np.ndarray, theta: float) -> bool:
    return bool(np.max(p_t) >= theta)


class ProbaThresholdTrigger(TriggerModel):
    variant = "proba_threshold"

    def __init__(self, timeline, theta: float, cost=None):
        super().__init__(timeline, cost)
        if not 0.0 < theta <= 1.0:
            raise ValueError(f"theta must be in (0, 1], got {theta}")
        self.theta = theta

    def _halt(self, trace_prefix, i):
        return decide_proba_threshold(trace_prefix[i], self.theta)

    def params(self):
        return {"theta": self.theta}


def decide_stopping_rule(p1: float, p2: float, t: int, length: int, gamma) -> bool:
    g1, g2, g3 = gamma
    return g1 * p1 + g2 * p2 + g3 * (t / length) > 0.0


class StoppingRuleTrigger(TriggerModel):
    variant = "stopping_rule"

    def __init__(self, timeline, gamma: Tuple[float, float, float], cost=None):
        super().__init__(timeline, cost)
        self.gamma = tuple(float(g) for g in gamma)

    def _halt(self, trace_prefix, i):
        p = np.sort(trace_prefix[i])[::-1]
        p1 = float(p[0])
        p2 = float(p[0] - p[1])
        return decide_stopping_rule(p1, p2, self.timeline.timestamps[i], self.timeline.series_length, self.gamma)

    def params(self):
        return {"gamma": list(self.gamma)}


# ---------------------------------------------------------------------------
# Policy simulation shared by the grid searches.
# ---------------------------------------------------------------------------


def _fit_state(train: TriggerTrainSet, key: tuple, build: Callable[[], object]):
    """The train set's state under key, built on first use. A build that
    raises stores nothing, so every later call raises the same error."""
    if key not in train._state:
        train._state[key] = build()
    return train._state[key]


def _cost_key(cost: CostModel) -> tuple:
    """The alpha-free part of a cost model."""
    return (cost.mis_matrix, cost.delay)


def _trace_stats(train: TriggerTrainSet):
    """Stacked per-trace quantities used by policy simulation."""

    def build():
        P = train.prob_array  # (n, L, K)
        pred = P.argmax(axis=2)  # (n, L)
        top2 = -np.partition(-P, 1, axis=2)[:, :, :2]
        maxp = top2[:, :, 0]
        p2 = top2[:, :, 0] - top2[:, :, 1]
        return P, pred, maxp, p2

    return _fit_state(train, ("trace_stats",), build)


def _delays(cost: CostModel, timeline: SampledTimeline) -> np.ndarray:
    """Unweighted delay cost at each timeline index."""
    return np.array([delay_cost(cost, t, timeline.series_length) for t in timeline.timestamps])


def _halt_outcomes(
    train: TriggerTrainSet, cost: CostModel, candidate_halts: Iterable[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Unweighted C_m and C_d of every series at its first halt (last index
    forced), one row per candidate (n, L) halts matrix."""
    _, pred, _, _ = _trace_stats(train)
    labels = np.array(train.labels)
    mis = np.asarray(cost.mis_matrix)
    d = _delays(cost, train.timeline)
    rows = np.arange(len(labels))
    c_m, c_d = [], []
    for halts in candidate_halts:
        h = halts.copy()
        h[:, -1] = True
        first = h.argmax(axis=1)
        c_m.append(mis[pred[rows, first], labels])
        c_d.append(d[first])
    return np.array(c_m), np.array(c_d)


def _select(outcomes: Tuple[np.ndarray, np.ndarray], alpha: float) -> int:
    """Index of the candidate with the least mean weighted cost; a later
    candidate must win by more than 1e-15, so ties keep the earliest."""
    c_m, c_d = outcomes
    weighted = alpha * c_m + (1.0 - alpha) * c_d
    best, best_cost = None, math.inf
    for idx, row in enumerate(weighted):
        c = float(np.mean(row))
        if c < best_cost - 1e-15:
            best, best_cost = idx, c
    return best


def fit_proba_threshold(train: TriggerTrainSet, cost: CostModel) -> ProbaThresholdTrigger:
    """Pick theta from the 40-point grid minimizing empirical mean weighted
    cost of the simulated policy; ties go to the smaller theta."""
    _, _, maxp, _ = _trace_stats(train)
    outcomes = _fit_state(
        train, ("proba_threshold",) + _cost_key(cost),
        lambda: _halt_outcomes(train, cost, (maxp >= theta for theta in PROBA_GRID)),
    )
    return ProbaThresholdTrigger(train.timeline, PROBA_GRID[_select(outcomes, cost.alpha)], cost)


def fit_stopping_rule(train: TriggerTrainSet, cost: CostModel) -> StoppingRuleTrigger:
    """Exhaustive 10x10x10 grid over gamma; ties go to the lexicographically
    smallest vector."""
    _, _, maxp, p2 = _trace_stats(train)
    tt = np.array(train.timeline.timestamps) / train.timeline.series_length
    outcomes = _fit_state(
        train, ("stopping_rule",) + _cost_key(cost),
        lambda: _halt_outcomes(
            train, cost, (g1 * maxp + g2 * p2 + g3 * tt > 0.0 for g1, g2, g3 in STOPPING_RULE_GRID)
        ),
    )
    return StoppingRuleTrigger(train.timeline, STOPPING_RULE_GRID[_select(outcomes, cost.alpha)], cost)


# ---------------------------------------------------------------------------
# Expected-cost model over equal-frequency confidence bins with Markov
# transitions between consecutive timestamps.
# ---------------------------------------------------------------------------


class EconomyTrigger(TriggerModel):
    variant = "economy"

    def __init__(
        self,
        timeline: SampledTimeline,
        cost: CostModel,
        k: int,
        bin_edges: List[np.ndarray],
        transitions: np.ndarray,
        class_counts: np.ndarray,
        confusion_counts: np.ndarray,
        smoothing: float = 1.0,
        myopic: bool = False,
    ):
        super().__init__(timeline, cost)
        self.k = k
        self.bin_edges = bin_edges  # per timestamp, (k-1,) interior edges
        self.transitions = transitions  # (L-1, k, k), rows normalized
        self.class_counts = class_counts  # (L, k, K)
        self.confusion_counts = confusion_counts  # (L, k, K true, K predicted)
        self.smoothing = smoothing
        self.myopic = myopic
        self._mis = self._expected_mis()

    def _expected_mis(self) -> np.ndarray:
        """Expected unweighted misclassification cost per (timestamp, group)."""
        L = len(self.timeline)
        K = self.class_counts.shape[2]
        mis_matrix = np.asarray(self.cost.mis_matrix)
        s = self.smoothing
        out = np.zeros((L, self.k))
        for j in range(L):
            for g in range(self.k):
                cc = self.class_counts[j, g]
                p_y = (cc + s) / (cc.sum() + s * K)
                total = 0.0
                for y in range(K):
                    conf = self.confusion_counts[j, g, y]
                    p_pred = (conf + s) / (conf.sum() + s * K)
                    # mis_matrix is [predicted][true]
                    total += p_y[y] * float(p_pred @ mis_matrix[:, y])
                out[j, g] = total
        return out

    def group_of(self, p_t: np.ndarray, i: int) -> int:
        return int(np.searchsorted(self.bin_edges[i], float(np.max(p_t)), side="right"))

    def expected_mis_path(self, group: int, t_idx: int) -> np.ndarray:
        """Expected unweighted misclassification cost of halting at each
        tau = t_idx..last, starting from the given group at t_idx."""
        L = len(self.timeline)
        reach = np.zeros(self.k)
        reach[group] = 1.0
        out = np.empty(L - t_idx)
        for tau in range(t_idx, L):
            out[tau - t_idx] = reach @ self._mis[tau]
            if tau < L - 1:
                reach = reach @ self.transitions[tau]
        return out

    def expected_costs(self, group: int, t_idx: int) -> np.ndarray:
        """Expected weighted cost for each tau = t_idx..last, starting from
        the given group at t_idx."""
        a = self.cost.alpha
        d = _delays(self.cost, self.timeline)
        return a * self.expected_mis_path(group, t_idx) + (1.0 - a) * d[t_idx:]

    def _halt(self, trace_prefix, i):
        group = self.group_of(trace_prefix[i], i)
        costs = self.expected_costs(group, i)
        horizon = costs[1:2] if self.myopic else costs[1:]
        return bool(costs[0] <= horizon.min())

    def params(self):
        return {
            "k": self.k,
            "bin_edges": [e.tolist() for e in self.bin_edges],
            "transitions": self.transitions.tolist(),
            "class_counts": self.class_counts.tolist(),
            "confusion_counts": self.confusion_counts.tolist(),
            "smoothing": self.smoothing,
            "myopic": self.myopic,
        }


def _build_economy(
    train: TriggerTrainSet, cost: CostModel, k: int, smoothing: float
) -> Optional[EconomyTrigger]:
    """Build the k-bin model; None if some bin is empty at some timestamp."""
    P, pred, maxp, _ = _trace_stats(train)
    n, L, K = P.shape
    labels = np.array(train.labels)
    bin_edges: List[np.ndarray] = []
    groups = np.zeros((n, L), dtype=int)
    for j in range(L):
        col = maxp[:, j]
        edges = np.quantile(col, [i / k for i in range(1, k)]) if k > 1 else np.array([])
        g = np.searchsorted(edges, col, side="right")
        if len(set(g.tolist())) < k:
            return None
        bin_edges.append(np.asarray(edges, dtype=float))
        groups[:, j] = g
    transitions = np.zeros((max(L - 1, 1), k, k))
    for j in range(L - 1):
        counts = np.zeros((k, k))
        np.add.at(counts, (groups[:, j], groups[:, j + 1]), 1.0)
        counts += smoothing
        row_sums = counts.sum(axis=1, keepdims=True)
        if np.any(row_sums == 0):
            return None
        transitions[j] = counts / row_sums
    class_counts = np.zeros((L, k, K))
    confusion_counts = np.zeros((L, k, K, K))
    for j in range(L):
        np.add.at(class_counts, (j, groups[:, j], labels), 1.0)
        np.add.at(confusion_counts, (j, groups[:, j], labels, pred[:, j]), 1.0)
    return EconomyTrigger(
        train.timeline, cost, k, bin_edges, transitions[: L - 1] if L > 1 else transitions[:0],
        class_counts, confusion_counts, smoothing,
    )


def _economy_state(
    train: TriggerTrainSet, cost: CostModel, k_grid: Sequence[int], smoothing: float
) -> List[Tuple[EconomyTrigger, np.ndarray, np.ndarray]]:
    """Per feasible k: the model, each series' group per timestamp (n, L),
    and M[j, g, tau], the expected misclassification cost of halting at tau
    from group g at index j (zero for tau < j). None of it depends on alpha."""
    _, _, maxp, _ = _trace_stats(train)
    L = len(train.timeline)
    candidates = []
    for k in k_grid:
        model = _build_economy(train, cost, k, smoothing)
        if model is None:
            continue
        groups = np.stack(
            [np.searchsorted(model.bin_edges[j], maxp[:, j], side="right") for j in range(L)],
            axis=1,
        )
        mis_paths = np.zeros((L, k, L))
        for j in range(L):
            for g in range(k):
                mis_paths[j, g, j:] = model.expected_mis_path(g, j)
        candidates.append((model, groups, mis_paths))
    if not candidates:
        raise DataError("no feasible k for the confidence partition")
    return candidates


def _economy_halt_table(
    mis_paths: np.ndarray, d: np.ndarray, alpha: float, myopic: bool = False
) -> np.ndarray:
    """(L, k) halt decisions of EconomyTrigger._halt, from _economy_state's
    M and the delay vector; the last index always halts."""
    L, k, _ = mis_paths.shape
    costs = alpha * mis_paths + (1.0 - alpha) * d
    table = np.ones((L, k), dtype=bool)
    for j in range(L - 1):
        horizon = costs[j, :, j + 1 : j + 2] if myopic else costs[j, :, j + 1 :]
        table[j] = costs[j, :, j] <= horizon.min(axis=1)
    return table


def fit_economy(
    train: TriggerTrainSet,
    cost: CostModel,
    k_grid: Sequence[int] = tuple(range(1, 21)),
    smoothing: float = 1.0,
) -> EconomyTrigger:
    """Select k by empirical mean weighted cost of the induced policy on the
    trigger train set; infeasible k (empty bin) are skipped; ties favor the
    smaller k."""
    candidates = _fit_state(
        train, ("economy",) + _cost_key(cost) + (tuple(k_grid), smoothing),
        lambda: _economy_state(train, cost, k_grid, smoothing),
    )
    d = _delays(cost, train.timeline)
    steps = np.arange(len(train.timeline))[None, :]
    halts = (
        _economy_halt_table(mis_paths, d, cost.alpha)[steps, groups]
        for _, groups, mis_paths in candidates
    )
    best = candidates[_select(_halt_outcomes(train, cost, halts), cost.alpha)][0]
    model = copy.copy(best)  # shares the alpha-free arrays, _mis included
    model.cost = cost
    return model


def economy_expected_costs(model: EconomyTrigger, group: int, t_idx: int) -> np.ndarray:
    return model.expected_costs(group, t_idx)


def decide_economy(model: EconomyTrigger, trace_prefix: np.ndarray, t_idx: int) -> bool:
    return model.decide(trace_prefix, t_idx)


# ---------------------------------------------------------------------------
# Precision-sequence confidence rule.
# ---------------------------------------------------------------------------


def ecec_confidence(pred_sequence: Sequence[int], current_label: int, precisions: np.ndarray) -> float:
    """1 - prod over agreeing past steps of (1 - precision); precisions is
    (L, K) indexed by (timeline index, class)."""
    acc = 1.0
    for tau, p in enumerate(pred_sequence):
        if p == current_label:
            acc *= 1.0 - precisions[tau, current_label]
    return 1.0 - acc


class EcecTrigger(TriggerModel):
    variant = "ecec"

    def __init__(self, timeline, cost, precisions: np.ndarray, gamma: float):
        super().__init__(timeline, cost)
        if not 0.0 <= gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {gamma}")
        self.precisions = precisions  # (L, K)
        self.gamma = gamma

    def _halt(self, trace_prefix, i):
        preds = [int(np.argmax(trace_prefix[j])) for j in range(i + 1)]
        conf = ecec_confidence(preds, preds[-1], self.precisions)
        return conf >= self.gamma

    def params(self):
        return {"gamma": self.gamma, "precisions": self.precisions.tolist()}


def _ecec_precisions(pred: np.ndarray, labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Add-one smoothed per-(timestamp, class) precision on the train set."""
    n, L = pred.shape
    prec = np.zeros((L, num_classes))
    for j in range(L):
        for c in range(num_classes):
            predicted = pred[:, j] == c
            correct = predicted & (labels == c)
            prec[j, c] = (correct.sum() + 1.0) / (predicted.sum() + 2.0)
    return prec


def fit_ecec(train: TriggerTrainSet, cost: CostModel) -> EcecTrigger:
    """Tune the confidence threshold on the 40-point grid; ties go to the
    smaller gamma."""
    P, pred, _, _ = _trace_stats(train)
    n, L, K = P.shape

    def build():
        prec = _ecec_precisions(pred, np.array(train.labels), K)
        # Running confidence per series and timestamp: product over past
        # agreeing steps of (1 - precision).
        conf = np.zeros((n, L))
        for s in range(n):
            for j in range(L):
                acc = 1.0
                cur = pred[s, j]
                for tau in range(j + 1):
                    if pred[s, tau] == cur:
                        acc *= 1.0 - prec[tau, cur]
                conf[s, j] = 1.0 - acc
        return prec, _halt_outcomes(train, cost, (conf >= gamma for gamma in PROBA_GRID))

    prec, outcomes = _fit_state(train, ("ecec",) + _cost_key(cost), build)
    return EcecTrigger(train.timeline, cost, prec, PROBA_GRID[_select(outcomes, cost.alpha)])


# ---------------------------------------------------------------------------
# Cost-difference kernel-ridge regression.
# ---------------------------------------------------------------------------


def backward_min_costs(costs: np.ndarray) -> np.ndarray:
    """b[..., tau] = min over tau' > tau of costs[..., tau']; +inf at the last
    index. Works along the last axis."""
    costs = np.asarray(costs, dtype=float)
    out = np.full(costs.shape, math.inf)
    out[..., :-1] = np.minimum.accumulate(costs[..., :0:-1], axis=-1)[..., ::-1]
    return out


def _rbf_kernel(A: np.ndarray, B: np.ndarray, bandwidth: float) -> np.ndarray:
    sq = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-sq / (2.0 * bandwidth**2))


def _median_pairwise_distance(X: np.ndarray) -> float:
    n = X.shape[0]
    if n < 2:
        return 1.0
    sq = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
    d = np.sqrt(sq[np.triu_indices(n, k=1)])
    med = float(np.median(d))
    return med if med > 1e-12 else 1.0


@dataclass
class _KrrStep:
    X: np.ndarray
    bandwidth: float
    dual_full: np.ndarray
    dual_myopic: np.ndarray


class CalimeraTrigger(TriggerModel):
    variant = "calimera"

    def __init__(self, timeline, cost, steps: List[_KrrStep], ridge: float, myopic: bool = False):
        super().__init__(timeline, cost)
        self.steps = steps  # one per non-final timestamp
        self.ridge = ridge
        self.myopic = myopic

    def predicted_delta(self, p_t: np.ndarray, i: int) -> float:
        step = self.steps[i]
        x = np.concatenate([p_t, [self.timeline.timestamps[i] / self.timeline.series_length]])
        k_vec = _rbf_kernel(x[None, :], step.X, step.bandwidth)[0]
        dual = step.dual_myopic if self.myopic else step.dual_full
        return float(k_vec @ dual)

    def _halt(self, trace_prefix, i):
        return self.predicted_delta(trace_prefix[i], i) <= 0.0

    def params(self):
        return {
            "ridge": self.ridge,
            "myopic": self.myopic,
            "bandwidths": [s.bandwidth for s in self.steps],
        }


def _calimera_factors(
    train: TriggerTrainSet, ridge: float, rbf_bandwidth: Optional[float]
) -> List[Tuple[np.ndarray, float, np.ndarray]]:
    """Per non-final timestamp: the inputs X, the RBF bandwidth and the
    Cholesky factor of gram + ridge * I. None of it depends on alpha."""
    P, _, _, _ = _trace_stats(train)
    n, L, _ = P.shape
    tt = np.array(train.timeline.timestamps) / train.timeline.series_length
    factors = []
    for j in range(L - 1):
        X = np.concatenate([P[:, j, :], np.full((n, 1), tt[j])], axis=1)
        bandwidth = rbf_bandwidth if rbf_bandwidth is not None else _median_pairwise_distance(X)
        gram = _rbf_kernel(X, X, bandwidth)
        system = gram + ridge * np.eye(n)
        try:
            chol = np.linalg.cholesky(system)
        except np.linalg.LinAlgError:
            raise NumericError(
                f"kernel system not positive definite at timestamp {train.timeline.timestamps[j]}"
            ) from None
        factors.append((X, bandwidth, chol))
    return factors


def fit_calimera(
    train: TriggerTrainSet,
    cost: CostModel,
    ridge: float = 1e-2,
    rbf_bandwidth: Optional[float] = None,
) -> CalimeraTrigger:
    """Per non-final timestamp, regress the cost difference between halting
    now and the best realized future cost onto the probability vector plus
    normalized time, with an RBF kernel-ridge solved by Cholesky.

    The myopic targets (next-step cost instead of the backward minimum) are
    fitted alongside from the same factorization.
    """
    factors = _fit_state(
        train, ("calimera", ridge, rbf_bandwidth),
        lambda: _calimera_factors(train, ridge, rbf_bandwidth),
    )
    _, pred, _, _ = _trace_stats(train)
    labels = np.array(train.labels)
    mis = np.asarray(cost.mis_matrix)
    d = _delays(cost, train.timeline)
    a = cost.alpha
    realized = a * mis[pred, labels[:, None]] + (1.0 - a) * d[None, :]  # (n, L)
    later = backward_min_costs(realized)

    def solve(chol, rhs):
        y = np.linalg.solve(chol, rhs)
        return np.linalg.solve(chol.T, y)

    steps = [
        _KrrStep(
            X, bandwidth,
            solve(chol, realized[:, j] - later[:, j]),
            solve(chol, realized[:, j] - realized[:, j + 1]),
        )
        for j, (X, bandwidth, chol) in enumerate(factors)
    ]
    return CalimeraTrigger(train.timeline, cost, steps, ridge)


def decide_calimera(model: CalimeraTrigger, trace_prefix: np.ndarray, t_idx: int) -> bool:
    return model.decide(trace_prefix, t_idx)


def make_myopic(model: TriggerModel) -> TriggerModel:
    """Horizon-1 variant of an anticipation-based model; shares its fit."""
    if not isinstance(model, (EconomyTrigger, CalimeraTrigger)):
        raise ValueError(f"make_myopic only applies to economy/calimera, got {model.variant}")
    myopic = copy.copy(model)
    myopic.myopic = True
    return myopic
