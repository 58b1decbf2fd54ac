"""Seeded input generators for the benchmark workloads.

They use numpy only and never import ects_bench: the program under test sees
nothing but the files written here. The same seed gives byte-identical files.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Sequence, Tuple

import numpy as np

METHODS = (
    "asap", "alap", "proba_threshold", "stopping_rule", "economy", "ecec",
    "calimera", "economy_myopic", "calimera_myopic",
)
ALPHAS = tuple(round(0.1 * i, 1) for i in range(11))
RECORD_HEADER = (
    "dataset,method,alpha,series_id,true_label,predicted_label,trigger_time,"
    "weighted_cost,misclassification_cost,delay_cost,oracle_time,oracle_cost,regret"
)


def write_raw_series(path: str, rng: np.random.Generator, classes: int, length: int,
                     per_class: int, noise: float) -> None:
    """Headerless ``label,v1,...,vT`` rows: class c carries a +1 level on its
    own 1/K segment of the series plus Gaussian noise of std ``noise``."""
    labels = np.repeat(np.arange(classes), per_class)
    templates = np.zeros((classes, length))
    for c in range(classes):
        templates[c, c * length // classes:(c + 1) * length // classes] = 1.0
    values = templates[labels] + rng.normal(0.0, noise, size=(labels.size, length))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        np.savetxt(fh, np.column_stack([labels, values]),
                   fmt=["%d"] + ["%.6f"] * length, delimiter=",")


def make_raw_datasets(out_dir: str, seed: int, datasets: int, classes: int, length: int,
                      train_per_class: int, test_per_class: int,
                      noise: float) -> List[Tuple[str, str, str]]:
    """Write a train/test file pair per dataset; returns (name, train, test)."""
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    pairs = []
    for d in range(datasets):
        name = f"ds{d:02d}"
        train = os.path.join(out_dir, f"{name}_train.csv")
        test = os.path.join(out_dir, f"{name}_test.csv")
        write_raw_series(train, rng, classes, length, train_per_class, noise)
        write_raw_series(test, rng, classes, length, test_per_class, noise)
        pairs.append((name, train, test))
    return pairs


def make_results(out_dir: str, seed: int, datasets: int, classes: int, length: int,
                 series: int) -> Dict[Tuple[str, str, float], float]:
    """Write ``records.csv`` and ``timelines.json`` as a run under the standard
    cost model would (0/1 misclassification, linear delay t/T).

    Each series gets a true label and an argmax-label path over the timeline
    that is wrong before a random index and right from it on. Every method's
    decision is a point on that path; the oracle is the path's cheapest point,
    so ``oracle_cost <= weighted_cost`` holds by construction. Returns the mean
    weighted cost per (dataset, method, alpha) group.
    """
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    times = np.arange(1, length + 1)
    delay = times / length
    steps = times.size
    means: Dict[Tuple[str, str, float], float] = {}
    rows: List[str] = []
    names = [f"ds{d:02d}" for d in range(datasets)]
    ids = [f"s{i:04d}" for i in range(series)]
    for name in names:
        truth = rng.integers(0, classes, size=series)
        wrong = (truth + rng.integers(1, classes, size=series)) % classes
        right_from = rng.integers(0, steps, size=series)
        right = np.arange(steps)[None, :] >= right_from[:, None]
        predicted = np.where(right, truth[:, None], wrong[:, None])  # (series, steps)
        mis = (~right).astype(float)
        for method in sorted(METHODS):
            for alpha in ALPHAS:
                path_cost = alpha * mis + (1.0 - alpha) * delay[None, :]
                oracle_idx = path_cost.argmin(axis=1)
                oracle_cost = path_cost[np.arange(series), oracle_idx]
                if method == "asap":
                    idx = np.zeros(series, dtype=int)
                elif method == "alap":
                    idx = np.full(series, steps - 1)
                else:
                    idx = rng.integers(0, steps, size=series)
                c_m = mis[np.arange(series), idx]
                c_d = delay[idx]
                weighted = alpha * c_m + (1.0 - alpha) * c_d
                regret = weighted - oracle_cost
                means[(name, method, alpha)] = float(np.mean(weighted))
                for s, (sid, y, p, t, w, cm, cd, ot, oc, r) in enumerate(zip(
                        ids, truth.tolist(), predicted[np.arange(series), idx].tolist(),
                        times[idx].tolist(), weighted.tolist(), c_m.tolist(), c_d.tolist(),
                        times[oracle_idx].tolist(), oracle_cost.tolist(), regret.tolist())):
                    rows.append(f"{name},{method},{alpha!r},{sid},{y},{p},{t},{w!r},{cm!r},"
                                f"{cd!r},{ot},{oc!r},{r!r}\n")
    with open(os.path.join(out_dir, "records.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(RECORD_HEADER + "\n")
        fh.writelines(rows)
    timeline = {"series_length": length, "timestamps": times.tolist()}
    with open(os.path.join(out_dir, "timelines.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump({name: timeline for name in names}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return means
