"""Benchmark orchestration: the config and the split / fit / simulate /
score pipeline that turns it into a bundle of priced records.

The pipeline per dataset: stratified split of the train set (40% classifier
part, 60% trigger part; 30% of the classifier part held out for calibration),
one classifier collection fitted once, trigger-train probability traces
computed once. Each base method is fitted once per dataset, as one sweep
over every alpha; a *_myopic method halts by its base method's sweep at the
myopic horizon. Each sweep halts the stacked test traces once, for every
alpha and every horizon its methods name, and a series' decision is its
first halt. The oracle takes one scan of the test stack per alpha, and the
whole sweep's halts are priced in one block. Datasets that cannot satisfy
the split are skipped with a recorded reason. Seeds are derived by hashing
(master seed, dataset, method, alpha) so results do not depend on
scheduling order. The records are summarised and written by `report`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import classify, metrics, trigger
from .core import CostModel, RecordTable, SampledTimeline, anomaly_cost_model, standard_cost_model
from .data import Dataset, SplitSpec, dataset_from_manifest, load_manifest, stratified_split
from .errors import ConfigError, DataError
from .report import ReportBundle, bundle_from_records, derive_seed
# perfbench's tracer wraps these two by their bench.* names.
from .report import load_records_csv, write_reports  # noqa: F401

DEFAULT_ALPHA_GRID = tuple(round(0.1 * i, 1) for i in range(11))


@dataclass(frozen=True)
class BenchConfig:
    datasets: Tuple[object, ...]  # manifest paths or inline manifest dicts
    methods: Tuple[str, ...]
    cost_setting: str = "standard"
    alpha_grid: Tuple[float, ...] = DEFAULT_ALPHA_GRID
    classifier: classify.ClassifierHyper = classify.ClassifierHyper()
    split: SplitSpec = SplitSpec()
    seed: int = 0
    output_dir: str = "bench-out"

    def __post_init__(self):
        # + 0.0 turns -0.0 into 0.0, so every file writes one alpha as one text.
        object.__setattr__(self, "alpha_grid", tuple(a + 0.0 for a in self.alpha_grid))
        for m in self.methods:
            if m not in trigger.METHODS:
                raise ConfigError(f"unknown method {m!r}; valid: {', '.join(trigger.METHODS)}")
        if self.cost_setting not in ("standard", "anomaly"):
            raise ConfigError(f"unknown cost_setting {self.cost_setting!r}")
        for a in self.alpha_grid:
            if not 0.0 <= a <= 1.0:
                raise ConfigError(f"alpha {a} outside [0, 1]")
        for name, values in (("methods", self.methods), ("alpha_grid", self.alpha_grid)):
            if not values:
                raise ConfigError(f"{name} must be nonempty")
            if len(set(values)) < len(values):
                raise ConfigError(f"{name} repeats an entry: {list(values)}")
        if not self.datasets:
            raise ConfigError("datasets must be nonempty")


_CONFIG_KEYS = {
    "datasets", "methods", "cost_setting", "alpha_grid", "classifier", "split",
    "seed", "output_dir",
}


def _typed(value, kinds, what: str):
    """value if it has one of the JSON kinds (a boolean has none), else a
    ConfigError."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigError(f"{what} has the wrong type: {value!r}")
    return value


def _number(value, what: str) -> float:
    """A JSON number as a float; one too large for a float is a ConfigError."""
    try:
        return float(_typed(value, (int, float), what))
    except OverflowError:
        raise ConfigError(f"{what} is too large for a float") from None


def _section(doc: dict, key: str, allowed: Sequence[str]) -> dict:
    """doc[key] as an object whose keys are all allowed."""
    value = _typed(doc[key], dict, key)
    bad = sorted(set(value) - set(allowed))
    if bad:
        raise ConfigError(f"unknown {key} keys: {', '.join(bad)}")
    return value


def parse_config(path: str) -> BenchConfig:
    """Load and validate a JSON config file; unknown keys are rejected."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, not UTF-8, or a too-long integer
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = sorted(set(doc) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    kwargs: Dict[str, object] = {}
    kwargs["datasets"] = tuple(_typed(doc.get("datasets", []), list, "datasets"))
    kwargs["methods"] = tuple(_typed(doc.get("methods", []), list, "methods"))
    if "cost_setting" in doc:
        kwargs["cost_setting"] = doc["cost_setting"]
    if "alpha_grid" in doc:
        alphas = _typed(doc["alpha_grid"], list, "alpha_grid")
        kwargs["alpha_grid"] = tuple(_number(a, "alpha") for a in alphas)
    if "classifier" in doc:
        clf = _section(doc, "classifier", ("l2", "iters", "lr"))
        kwargs["classifier"] = classify.ClassifierHyper(
            **{k: _typed(v, int, "classifier iters") if k == "iters" else _number(v, f"classifier {k}")
               for k, v in clf.items()}
        )
    if "split" in doc:
        sp = _section(doc, "split", ("classifier_fraction", "calibration_fraction_of_classifier_part"))
        kwargs["split"] = SplitSpec(**{k: _number(v, f"split {k}") for k, v in sp.items()})
    if "seed" in doc:
        kwargs["seed"] = _typed(doc["seed"], int, "seed")
    if "output_dir" in doc:
        kwargs["output_dir"] = _typed(doc["output_dir"], str, "output_dir")
    return BenchConfig(**kwargs)



def cost_model_for(setting: str, num_classes: int, alpha: float) -> CostModel:
    if setting == "standard":
        return standard_cost_model(num_classes, alpha)
    if num_classes != 2:
        raise DataError("anomaly cost setting requires binary datasets")
    return anomaly_cost_model(alpha)


def _load_config_dataset(entry, position: int) -> Dataset:
    """A config dataset entry: a manifest path, or an inline manifest object
    whose relative series paths are taken from the working directory."""
    if isinstance(entry, str):
        return load_manifest(entry)
    if isinstance(entry, dict):
        return dataset_from_manifest(entry, f"config datasets[{position}]")
    raise ConfigError(f"dataset entry must be a manifest path or object, got {type(entry).__name__}")


def run_dataset(dataset: Dataset, config: BenchConfig) -> Tuple[RecordTable, SampledTimeline]:
    """All records for one dataset across methods and alphas. Each base
    method is fitted once over the sweep, in method order, so a dataset's
    first error does not depend on alpha; the sweeps give each test series'
    first halt under every (alpha, method), and are freed before the records
    are priced in one block."""
    split_seed = derive_seed(config.seed, dataset.name, "split")
    clf_part, trig_part = stratified_split(
        dataset.train, config.split.classifier_fraction, split_seed
    )
    calib_part, fit_part = stratified_split(
        clf_part,
        config.split.calibration_fraction_of_classifier_part,
        derive_seed(config.seed, dataset.name, "calibration"),
    )
    timeline = classify.default_timeline(dataset.length)
    collection = classify.fit_collection(fit_part, timeline, config.classifier, calib_part)
    train_set = trigger.TriggerTrainSet(collection.prob_trace(trig_part.values), trig_part.labels, timeline)
    test = dataset.test
    test_traces = collection.prob_trace(test.values)
    test_stats = trigger.trigger_stats(test_traces)
    # optimal_time takes the labels as a tuple: hashable, so a caller may key on it.
    oracle_labels = tuple(test.labels.tolist())

    costs = [cost_model_for(config.cost_setting, dataset.num_classes, a) for a in config.alpha_grid]
    first = trigger.first_halts(trigger.fit_methods(config.methods, train_set, costs), test_stats)
    # One oracle call per alpha: perfbench's tracer reads each call's cost model.
    oracles = [metrics.optimal_time(test_traces, oracle_labels, cost, timeline) for cost in costs]
    predicted = test_stats.pred[np.arange(len(test)), first]
    table = metrics.price_records(
        dataset.name, config.methods, test.ids, test.labels, predicted, first, oracles, costs, timeline
    )
    return table, timeline


def run_benchmark(config: BenchConfig) -> ReportBundle:
    """Run every dataset in turn. A DataError while running a loaded dataset
    skips it with its reason recorded; a NumericError aborts the run. The
    records key on dataset names, so a name loaded twice is a ConfigError."""
    tables: List[RecordTable] = []
    timelines: Dict[str, SampledTimeline] = {}
    skipped: List[Tuple[str, str]] = []
    names = set()
    for position, entry in enumerate(config.datasets):
        dataset = _load_config_dataset(entry, position)
        if dataset.name in names:
            raise ConfigError(f"config datasets[{position}]: dataset name {dataset.name!r} repeats an earlier one")
        names.add(dataset.name)
        try:
            table, timeline = run_dataset(dataset, config)
        except DataError as exc:
            skipped.append((dataset.name, str(exc)))
            continue
        tables.append(table)
        timelines[dataset.name] = timeline
    bundle = bundle_from_records(RecordTable.concat(tables), timelines)
    bundle.skipped = skipped
    return bundle
