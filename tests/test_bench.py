import collections
import dataclasses
import io
import json
import math
import os
import pickle
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ects_bench import bench, cli, metrics, report, trigger
from ects_bench.core import RECORD_FIELDS, DelayCurve, RecordTable, SeriesSet, delay_costs, weighted_costs
from ects_bench.data import Dataset, generate_synthetic, save_dataset
from ects_bench.errors import ConfigError, DataError

from conftest import write_series_text


def assert_same_table(a, b):
    for name in RECORD_FIELDS + ("text",):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@pytest.fixture(scope="module")
def tiny_manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    ds = generate_synthetic(9, 10, 4, 0.3, seed=0, name="tiny")
    save_dataset(ds, str(root))
    return os.path.join(str(root), "manifest.json")


@pytest.fixture(scope="module")
def tiny_text(tmp_path_factory):
    """The tiny dataset's parts as series text files: {"train": path, "test": path}."""
    root = str(tmp_path_factory.mktemp("tiny_text"))
    ds = generate_synthetic(9, 10, 4, 0.3, seed=0, name="tiny")
    return {part: write_series_text(os.path.join(root, f"{part}.csv"), series.labels, series.values)
            for part, series in (("train", ds.train), ("test", ds.test))}


def _npy_bytes(array, header=None):
    """The bytes np.save writes for array, or, given a header dict, that
    header followed by the array's data bytes."""
    buffer = io.BytesIO()
    if header is None:
        np.save(buffer, array, allow_pickle=True)
    else:
        np.lib.format.write_array_header_1_0(buffer, header)
        buffer.write(array.tobytes())
    return buffer.getvalue()


def _legacy_npy_bytes(array):
    """array's version 1.0 .npy bytes with the header Python 2's numpy
    wrote: each integer of its shape carries an 'L' suffix, (2L, 3L)."""
    shape = ", ".join(f"{n}L" for n in array.shape)
    header = f"{{'descr': '<f8', 'fortran_order': False, 'shape': ({shape}), }}"
    text = header + " " * (-(len(header) + 11) % 64) + "\n"  # magic, length and header: 64-byte aligned
    return b"\x93NUMPY\x01\x00" + len(text).to_bytes(2, "little") + text.encode("ascii") + array.tobytes()


def _npz_bytes(array):
    buffer = io.BytesIO()
    np.savez(buffer, train=array)
    return buffer.getvalue()


def _config_file(tmp_path, manifest, **overrides):
    doc = {
        "datasets": [manifest],
        "methods": ["asap", "alap", "proba_threshold"],
        "alpha_grid": [0.0, 0.5, 1.0],
        "output_dir": os.path.join(str(tmp_path), "out"),
    }
    doc.update(overrides)
    path = os.path.join(str(tmp_path), "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


class TestParseConfig:
    def test_defaults_applied(self, tmp_path, tiny_manifest):
        path = _config_file(tmp_path, tiny_manifest)
        with open(path) as fh:
            doc = json.load(fh)
        del doc["alpha_grid"]
        with open(path, "w") as fh:
            json.dump(doc, fh)
        config = bench.parse_config(path)
        assert config.alpha_grid == bench.DEFAULT_ALPHA_GRID
        assert config.seed == 0

    def test_unknown_method(self, tmp_path, tiny_manifest):
        path = _config_file(tmp_path, tiny_manifest, methods=["teaser"])
        with pytest.raises(ConfigError, match="unknown method 'teaser'.*asap"):
            bench.parse_config(path)

    def test_alpha_out_of_range(self, tmp_path, tiny_manifest):
        path = _config_file(tmp_path, tiny_manifest, alpha_grid=[1.5])
        with pytest.raises(ConfigError, match="1.5"):
            bench.parse_config(path)

    def test_unknown_key_rejected(self, tmp_path, tiny_manifest):
        path = _config_file(tmp_path, tiny_manifest, bogus=1)
        with pytest.raises(ConfigError, match="bogus"):
            bench.parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            bench.parse_config(os.path.join(str(tmp_path), "nope.json"))


class TestDeriveSeed:
    def test_stable(self):
        assert report.derive_seed(0, "a", 1) == report.derive_seed(0, "a", 1)

    def test_part_sensitive(self):
        assert report.derive_seed(0, "a") != report.derive_seed(0, "b")
        assert report.derive_seed(0, "a") != report.derive_seed(1, "a")


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory, tiny_manifest):
    tmp = tmp_path_factory.mktemp("run")
    config = bench.BenchConfig(
        datasets=(tiny_manifest,),
        methods=("asap", "alap", "proba_threshold"),
        alpha_grid=(0.0, 0.5, 1.0),
        output_dir=os.path.join(str(tmp), "out"),
    )
    bundle = bench.run_benchmark(config)
    return config, bundle


class TestRunBenchmark:
    def test_coverage_exactly_once(self, tiny_run):
        config, bundle = tiny_run
        keys = [(s.dataset, s.method, s.alpha) for s in bundle.summaries]
        assert len(keys) == len(set(keys))
        assert set(keys) == {
            ("tiny", m, a) for m in config.methods for a in config.alpha_grid
        }

    def test_asap_and_alap_times(self, tiny_run):
        config, bundle = tiny_run
        timeline = bundle.timelines["tiny"]
        r = bundle.records
        assert (r.trigger_time[r.method == "asap"] == timeline.timestamps[0]).all()
        assert (r.trigger_time[r.method == "alap"] == timeline.timestamps[-1]).all()

    def test_regret_nonnegative(self, tiny_run):
        _, bundle = tiny_run
        assert (bundle.records.regret >= -1e-12).all()

    def test_standard_cost_components(self, tiny_run):
        _, bundle = tiny_run
        timeline = bundle.timelines["tiny"]
        T = timeline.series_length
        r = bundle.records.take(slice(0, 200))
        assert np.isin(r.misclassification_cost, (0.0, 1.0)).all()
        assert r.delay_cost == pytest.approx(r.trigger_time / T)
        assert r.weighted_cost == pytest.approx(
            r.alpha * r.misclassification_cost + (1 - r.alpha) * r.delay_cost
        )

    def test_skip_reason_recorded(self, tmp_path, tiny_manifest):
        # a dataset with a singleton class cannot satisfy the split
        train = SeriesSet(("a", "b", "c"), [(0.0, 1.0), (0.5, 1.0), (1.0, 0.0)], [0, 0, 1])
        bad = Dataset("bad", train, train.take([0]), 2, 2)
        out = os.path.join(str(tmp_path), "bad")
        save_dataset(bad, out)
        config = bench.BenchConfig(
            datasets=(os.path.join(out, "manifest.json"),),
            methods=("asap",),
            alpha_grid=(0.5,),
            output_dir=os.path.join(str(tmp_path), "o"),
        )
        bundle = bench.run_benchmark(config)
        assert not bundle.records
        assert bundle.skipped and bundle.skipped[0][0] == "bad"

    def test_anomaly_setting_cost_components(self, tmp_path):
        binary = _binary(generate_synthetic(9, 12, 3, 0.3, seed=1, name="bin"))
        out = os.path.join(str(tmp_path), "bin")
        save_dataset(binary, out)
        config = bench.BenchConfig(
            datasets=(os.path.join(out, "manifest.json"),),
            methods=("asap", "alap"),
            cost_setting="anomaly",
            alpha_grid=(0.5,),
            output_dir=os.path.join(str(tmp_path), "o"),
        )
        bundle = bench.run_benchmark(config)
        assert bundle.records
        T = bundle.timelines["bin"].series_length
        r = bundle.records
        assert r.delay_cost == pytest.approx(np.exp((r.trigger_time / T) * np.log(100.0)))
        assert np.isin(r.misclassification_cost, (0.0, 1.0, 100.0)).all()
        missed = (r.true_label == 1) & (r.predicted_label == 0)
        assert (r.misclassification_cost[missed] == 100.0).all()


@pytest.fixture(scope="module")
def sweep_dataset():
    return generate_synthetic(9, 15, 4, 0.3, seed=4, name="sweep")


def _sweep_config(tmp_path):
    return bench.BenchConfig(
        datasets=("unused",),
        methods=trigger.METHODS,
        output_dir=os.path.join(str(tmp_path), "o"),
    )


class TestAlphaSweep:
    def test_alpha_free_state_built_once_per_dataset(self, tmp_path, monkeypatch, sweep_dataset):
        calls = collections.defaultdict(list)  # name -> one key per call

        def counting(name, fn, key=lambda *args: None):
            def wrapped(*args, **kwargs):
                calls[name].append(key(*args))
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(trigger, "_build_economy", counting(
            "build_economy", trigger._build_economy, lambda train, cost, k, smoothing: k))
        monkeypatch.setattr(np.linalg, "cholesky", counting("cholesky", np.linalg.cholesky))
        monkeypatch.setattr(np.linalg, "solve", counting("solve", np.linalg.solve))
        monkeypatch.setattr(trigger, "_rbf_kernel", counting("rbf_kernel", trigger._rbf_kernel))
        monkeypatch.setattr(trigger, "_groups", counting("groups", trigger._groups, lambda edges, maxp: maxp))
        monkeypatch.setattr(trigger.TriggerModel, "halts", counting(
            "halts", trigger.TriggerModel.halts, lambda model, stats, *myopic: stats))
        monkeypatch.setattr(trigger, "make_myopic", counting("make_myopic", trigger.make_myopic))
        economy, fit_economy = {}, trigger.fit_economy

        def economy_spy(train, costs):
            economy["train"], economy["sweep"] = train, fit_economy(train, costs)
            return economy["sweep"]

        monkeypatch.setattr(trigger, "fit_economy", economy_spy)
        monkeypatch.setattr(metrics, "optimal_time", counting(
            "oracle", metrics.optimal_time,
            lambda traces, labels, cost, timeline: (id(traces), traces.shape[0], labels, cost.alpha)))
        config = _sweep_config(tmp_path)
        records, timeline = bench.run_dataset(sweep_dataset, config)

        assert len(records) == 9 * 11 * len(sweep_dataset.test)
        assert calls["build_economy"] == list(range(1, 21))
        assert calls["cholesky"] == []  # calimera's kernel systems are positive definite by construction
        # The whole sweep's duals: one stacked solve of every (alpha, timestamp) system.
        assert len(calls["solve"]) == 1
        # Per non-final timestamp: one train gram and one test-kernel block.
        assert len(calls["rbf_kernel"]) == 2 * (len(timeline) - 1)
        # On the test stack, one halts call per base method answers every alpha
        # and both horizons; each *_myopic method takes its base method's sweep once.
        train_stats = economy["train"].stats
        test_halts = [stats for stats in calls["halts"] if stats is not train_stats]
        assert len(test_halts) == 7
        assert all(stats is test_halts[0] and len(stats.pred) == len(sweep_dataset.test) for stats in test_halts)
        assert len(calls["make_myopic"]) == 2
        # On the train stack, each grid fit asks one sweep per block of its candidates.
        step = max(1, trigger._BLOCK_ELEMENTS // train_stats.maxp.size)
        grids = (trigger.PROBA_GRID, trigger.STOPPING_RULE_GRID, trigger.PROBA_GRID)
        assert len(calls["halts"]) - len(test_halts) == sum(-(-len(grid) // step) for grid in grids)
        # Economy groups the train partition once per k, and the test stack
        # once per distinct winning k, for all the alphas that chose it.
        train_maxp = train_stats.maxp
        test_groups = [maxp for maxp in calls["groups"] if maxp is not train_maxp]
        assert len(calls["groups"]) - len(test_groups) == 20
        assert len(test_groups) == len(set(economy["sweep"].ks))
        assert all(maxp is test_groups[0] and len(maxp) == len(sweep_dataset.test) for maxp in test_groups)
        # One oracle call per alpha, each over the whole stack of test traces.
        oracle = calls["oracle"]
        labels = tuple(sweep_dataset.test.labels.tolist())
        assert [key[3] for key in oracle] == list(config.alpha_grid)
        assert {key[:3] for key in oracle} == {(oracle[0][0], len(sweep_dataset.test), labels)}

    def test_myopic_records_equal_fresh_myopic_fits(self, tmp_path, monkeypatch, sweep_dataset):
        seen = {}
        fit_methods = trigger.fit_methods

        def spy(methods, train_set, costs):
            seen["train_set"] = train_set
            return fit_methods(methods, train_set, costs)

        def spy_collection(*args, **kwargs):
            seen["collection"] = fit_collection(*args, **kwargs)
            return seen["collection"]

        fit_collection = bench.classify.fit_collection
        monkeypatch.setattr(trigger, "fit_methods", spy)
        monkeypatch.setattr(bench.classify, "fit_collection", spy_collection)
        config = _sweep_config(tmp_path)
        records, _ = bench.run_dataset(sweep_dataset, config)

        shared = seen["train_set"]
        test_traces = seen["collection"].prob_trace(sweep_dataset.test.values)
        for alpha in config.alpha_grid:
            cost = bench.cost_model_for(config.cost_setting, sweep_dataset.num_classes, alpha)
            for method in config.methods:
                fresh = trigger.TriggerTrainSet(shared.traces, shared.labels, shared.timeline)
                model = fit_methods((method,), fresh, [cost])[method]
                rows = (records.method == method) & (records.alpha == alpha)
                got = list(zip(records.predicted_label[rows].tolist(),
                               records.trigger_time[rows].tolist()))
                myopic = method.endswith("_myopic")
                want = [trigger.simulate_online(model, trace, myopic)[0] for trace in test_traces]
                assert got == want, (method, alpha)


def reference_price_block(dataset, method, series_ids, true, predicted, index, oracle, cost, timeline):
    """One (dataset, method, alpha) block of records, priced on its own."""
    n = len(series_ids)
    c_m = np.asarray(cost.mis_matrix)[predicted, true]
    c_d = delay_costs(cost, timeline)[index]
    w = weighted_costs(cost.alpha, c_m, c_d)
    oracle_times, oracle_costs = oracle
    return RecordTable.from_columns(
        dataset=[dataset] * n, method=[method] * n, alpha=np.full(n, cost.alpha), series_id=series_ids,
        true_label=true, predicted_label=predicted, trigger_time=np.asarray(timeline.timestamps)[index],
        weighted_cost=w, misclassification_cost=c_m, delay_cost=c_d, oracle_time=oracle_times,
        oracle_cost=oracle_costs, regret=w - oracle_costs,
    )


def _binary(ds):
    """ds with classes {1, 2} merged into class 1."""
    def part(series, prefix):
        ids = tuple(f"{prefix}-{i}" for i in range(len(series)))
        return SeriesSet(ids, series.values, np.minimum(series.labels, 1))
    return Dataset(ds.name, part(ds.train, "train"), part(ds.test, "test"), 2, ds.length)


@pytest.mark.parametrize("setting", ["standard", "anomaly"])
def test_one_priced_block_equals_per_alpha_method_blocks(tmp_path, monkeypatch, sweep_dataset, setting):
    dataset = sweep_dataset if setting == "standard" else _binary(sweep_dataset)
    seen = []
    price_records = metrics.price_records

    def spy(*args):
        seen.append(args)
        return price_records(*args)

    monkeypatch.setattr(metrics, "price_records", spy)
    config = dataclasses.replace(_sweep_config(tmp_path), cost_setting=setting)
    records, _ = bench.run_dataset(dataset, config)

    [(name, methods, ids, true, predicted, first, oracles, costs, timeline)] = seen
    assert [c.alpha for c in costs] == list(config.alpha_grid) and tuple(methods) == config.methods
    blocks = [reference_price_block(name, method, ids, true, predicted[i, j], first[i, j], oracles[i], cost,
                                    timeline)
              for i, cost in enumerate(costs) for j, method in enumerate(methods)]
    assert_same_table(records, RecordTable.concat(blocks))


@pytest.fixture(scope="module", params=[(9, 12, 14, 5), (15, 20, 14, 6), (20, 14, 21, 7)],
                ids=["T9", "T15", "T20"])
def full_sweep(request):
    """A small dataset (length, train and test per class, seed) and its
    records under all 9 methods and the default alpha grid."""
    length, per_train, per_test, seed = request.param
    dataset = generate_synthetic(length, per_train, per_test, 0.3, seed=seed, name=f"inv{length}")
    config = bench.BenchConfig(datasets=("unused",), methods=trigger.METHODS, output_dir="unused")
    return dataset, config, bench.run_dataset(dataset, config)[0]


def _rows(records, keep=slice(None)):
    """The records.csv lines of the kept records, sorted."""
    return sorted(records.text[keep].tolist())


class TestRecordInvariants:
    """A record depends only on its own dataset, method, alpha and series,
    which is what makes per-dataset and per-chunk work safe."""

    @pytest.mark.parametrize("methods", [
        trigger.METHODS[::-1],
        ("calimera_myopic", "asap"),
        ("economy_myopic", "ecec", "stopping_rule"),
        ("alap", "proba_threshold", "calimera", "economy"),
    ])
    def test_records_do_not_depend_on_the_method_list(self, full_sweep, methods):
        dataset, config, records = full_sweep
        got = bench.run_dataset(dataset, dataclasses.replace(config, methods=methods))[0]
        assert _rows(got) == _rows(records, np.isin(records.method, methods))

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 1.0])
    def test_one_alpha_config_gives_the_sweeps_rows(self, full_sweep, alpha):
        dataset, config, records = full_sweep
        got = bench.run_dataset(dataset, dataclasses.replace(config, alpha_grid=(alpha,)))[0]
        assert _rows(got) == _rows(records, records.alpha == alpha)

    def test_records_do_not_depend_on_the_other_test_series(self, full_sweep):
        dataset, config, records = full_sweep
        kept = dataset.test.take(np.arange(0, len(dataset.test), 7))
        got = bench.run_dataset(dataclasses.replace(dataset, test=kept), config)[0]
        assert _rows(got) == _rows(records, np.isin(records.series_id, kept.ids))


class TestReports:
    def test_written_files_and_row_counts(self, tmp_path, tiny_run):
        config, bundle = tiny_run
        out = os.path.join(str(tmp_path), "reports")
        written = report.write_reports(bundle, out)
        names = ["timelines.json", "records.csv", "summaries.csv", "ranks.csv", "pairwise.csv", "pareto.csv"]
        assert written == [os.path.join(out, name) for name in names]
        with open(os.path.join(out, "summaries.csv")) as fh:
            rows = fh.read().splitlines()
        assert len(rows) - 1 == len(config.methods) * len(config.alpha_grid)
        skipped = dataclasses.replace(bundle, skipped=[("ghost", "no series")])
        for case, emit_svg, more in ((bundle, True, ["ranks.svg"]), (skipped, False, ["skipped.csv"]),
                                     (skipped, True, ["skipped.csv", "ranks.svg"])):
            out = str(tmp_path / "+".join(more))
            written = report.write_reports(case, out, emit_svg)
            assert written == [os.path.join(out, name) for name in names + more]
            assert all(map(os.path.isfile, written))

    def test_readme_names_every_report_file(self, tmp_path, tiny_run):
        _, bundle = tiny_run
        skipped = dataclasses.replace(bundle, skipped=[("ghost", "no series")])
        names = map(os.path.basename, report.write_reports(skipped, str(tmp_path), emit_svg=True))
        with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as fh:
            readme = fh.read()
        assert [name for name in names if f"`{name}`" not in readme] == []

    def test_svg_emitted_on_request(self, tmp_path, tiny_run):
        _, bundle = tiny_run
        out = os.path.join(str(tmp_path), "reports-svg")
        written = report.write_reports(bundle, out, emit_svg=True)
        svg = [p for p in written if p.endswith(".svg")]
        assert len(svg) == 1
        with open(svg[0]) as fh:
            assert fh.read().startswith("<svg")

    def test_rerun_byte_identical(self, tmp_path, tiny_run):
        config, _ = tiny_run
        out_a = os.path.join(str(tmp_path), "a")
        out_b = os.path.join(str(tmp_path), "b")
        report.write_reports(bench.run_benchmark(config), out_a)
        report.write_reports(bench.run_benchmark(config), out_b)
        for name in sorted(os.listdir(out_a)):
            with open(os.path.join(out_a, name), "rb") as fh:
                a = fh.read()
            with open(os.path.join(out_b, name), "rb") as fh:
                b = fh.read()
            assert a == b, name

    def test_incomplete_dataset_drops_out_of_its_alpha_only(self, tmp_path):
        # Per alpha, the methods each dataset has: b lacks m2 at alpha 0.7,
        # and no dataset has both methods at alpha 0.5.
        cells = {("0.3", "a"): ("m1", "m2"), ("0.3", "b"): ("m1", "m2"), ("0.7", "a"): ("m1", "m2"),
                 ("0.7", "b"): ("m1",), ("0.5", "a"): ("m1",), ("0.5", "b"): ("m2",)}
        lines = {}
        for k, ((alpha, dataset), methods) in enumerate(cells.items()):
            for method in methods:  # m1 is cheaper on even cells, m2 on odd ones
                c_m, c_d = float(k % 2), (k + 3 * ((method == "m2") == (k % 2 == 0))) / 10.0
                weighted = repr(float(alpha) * c_m + (1.0 - float(alpha)) * c_d)
                lines[alpha, dataset, method] = _line(dataset, method, alpha, weighted=weighted, c_m=repr(c_m),
                                                      c_d=repr(c_d), oracle_cost="0.0", regret=weighted)

        def report_rows(keep):
            """The ranks.csv and pairwise.csv rows of a report over the lines whose key keep accepts."""
            results = tempfile.mkdtemp(dir=tmp_path)
            _write_results(results, [line for key, line in lines.items() if keep(*key)])
            files = _report(results, os.path.join(results, "out"))
            return [files[name].decode().splitlines()[1:] for name in ("ranks.csv", "pairwise.csv")]

        ranks, pairs = report_rows(lambda alpha, dataset, method: True)
        ranks_03, pairs_03 = report_rows(lambda alpha, dataset, method: alpha == "0.3")
        ranks_07, pairs_07 = report_rows(lambda alpha, dataset, method: alpha == "0.7" and dataset == "a")
        assert ranks == ranks_03 + ranks_07 and len(ranks_03) == len(ranks_07) == 2
        assert pairs == pairs_03 + pairs_07
        # wins + ties + losses counts the complete datasets: 2 at alpha 0.3, 1 at 0.7
        assert [(row.split(",")[0], sum(map(int, row.split(",")[3:6]))) for row in pairs] == [("0.3", 2), ("0.7", 1)]

    def test_records_round_trip(self, tmp_path, tiny_run):
        _, bundle = tiny_run
        out = os.path.join(str(tmp_path), "rt")
        report.write_reports(bundle, out)
        timelines = report.load_timelines_json(os.path.join(out, "timelines.json"))
        records = report.load_records_csv(os.path.join(out, "records.csv"), timelines)
        assert_same_table(records, bundle.records)
        rebuilt = report.bundle_from_records(records, timelines)
        assert rebuilt.summaries == bundle.summaries


# Timelines of the hand-written results directories below.
TIMELINES = {"a": {"timestamps": [1, 3, 5], "series_length": 5},
             "b": {"timestamps": [2, 4], "series_length": 4}}
REPORT_FILES = ("records.csv", "summaries.csv", "ranks.csv", "pairwise.csv", "pareto.csv",
                "timelines.json")


def _write_results(directory, lines):
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "timelines.json"), "w") as fh:
        json.dump(TIMELINES, fh)
    with open(os.path.join(directory, "records.csv"), "w", newline="\n") as fh:
        fh.write(",".join(RECORD_FIELDS) + "\n" + "".join(lines))


def _report(results, out):
    timelines = report.load_timelines_json(os.path.join(results, "timelines.json"))
    records = report.load_records_csv(os.path.join(results, "records.csv"), timelines)
    report.write_reports(report.bundle_from_records(records, timelines), out)
    files = {}
    for name in REPORT_FILES:
        with open(os.path.join(out, name), "rb") as fh:
            files[name] = fh.read()
    return files


def _line(dataset="a", method="m", alpha="0.5", series="s1", true=0, predicted=0, t=None,
          weighted="0.5", c_m="0.0", c_d="1.0", oracle_t=None, oracle_cost="0.25", regret="0.25"):
    last = TIMELINES[dataset]["timestamps"][-1]
    t, oracle_t = (last if value is None else value for value in (t, oracle_t))
    return (f"{dataset},{method},{alpha},{series},{true},{predicted},{t},{weighted},{c_m},{c_d},"
            f"{oracle_t},{oracle_cost},{regret}\n")


@st.composite
def _records_lines(draw):
    """records.csv lines with distinct (dataset, method, alpha value,
    series_id) keys (a repeated key is a data error), in whole groups: each
    drawn (dataset, method, alpha) group holds its dataset's one drawn
    series set (a group that lacks one of them is a data error too). As
    `run` writes them, a series has one true label, and one oracle time and
    cost per alpha value (else a data error as well), and that oracle cost
    is no more than any method's weighted cost there (else a data error)."""
    series_sets = {dataset: draw(st.lists(st.sampled_from(["s9", "s10", "s1", "s1\x00"]), min_size=1, unique=True))
                   for dataset in sorted(TIMELINES)}
    groups = draw(st.lists(st.tuples(
        st.sampled_from(sorted(TIMELINES)),
        st.sampled_from(["m1", "m10"]),
        st.sampled_from(["0.3", "0.30000000000000004", "0.10"]),
    ), min_size=1, max_size=12, unique_by=lambda g: (g[0], g[1], float(g[2]))))
    keys = [group + (sid,) for group in groups for sid in series_sets[group[0]]]
    costs = ["0.0", "0.5", "0.50", "1.0", "0.1", "1e-300", "0.30000000000000004"]
    times = {dataset: st.sampled_from(entry["timestamps"]) for dataset, entry in TIMELINES.items()}
    true, least = {}, {}  # per (dataset, series), and per (dataset, alpha value, series)
    decisions = []
    for dataset, method, alpha, series in keys:
        if (dataset, series) not in true:
            true[dataset, series] = draw(st.integers(0, 2))
        c_m, c_d = draw(st.sampled_from(costs)), draw(st.sampled_from(costs))
        # The derived fields are their float64 formula, as `run` writes them.
        weighted = float(alpha) * float(c_m) + (1.0 - float(alpha)) * float(c_d)
        oracle_key = (dataset, float(alpha), series)
        least[oracle_key] = min(least.get(oracle_key, weighted), weighted)
        decisions.append((dataset, method, alpha, series, draw(st.integers(0, 2)), draw(times[dataset]),
                          repr(weighted), c_m, c_d))
    # The oracle costs no more than any method's decision on its series.
    oracle = {key: (draw(times[key[0]]), draw(st.sampled_from([c for c in costs if float(c) <= weighted])))
              for key, weighted in least.items()}
    lines = []
    for dataset, method, alpha, series, predicted, t, weighted, c_m, c_d in decisions:
        oracle_t, oracle_cost = oracle[dataset, float(alpha), series]
        lines.append(_line(dataset, method, alpha, series, true[dataset, series], predicted, t, weighted,
                           c_m, c_d, oracle_t, oracle_cost, repr(float(weighted) - float(oracle_cost))))
    return draw(st.permutations(lines))


class TestRecordTable:
    @given(_records_lines(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_report_independent_of_row_order(self, lines, rnd):
        with tempfile.TemporaryDirectory() as tmp:
            _write_results(os.path.join(tmp, "drawn"), lines)
            first = _report(os.path.join(tmp, "drawn"), os.path.join(tmp, "sorted"))
            sorted_lines = first["records.csv"].decode().splitlines(keepends=True)[1:]
            assert sorted(sorted_lines) == sorted(lines)  # each row written as read
            shuffled = list(sorted_lines)
            rnd.shuffle(shuffled)
            _write_results(os.path.join(tmp, "shuffled"), shuffled)
            assert _report(os.path.join(tmp, "shuffled"), os.path.join(tmp, "again")) == first
            assert _report(os.path.join(tmp, "sorted"), os.path.join(tmp, "fixed")) == first

    @given(_records_lines())
    @settings(max_examples=60, deadline=None)
    def test_summaries_equal_one_group_summaries(self, lines):
        # Datasets hold different series sets, so one table mixes group
        # sizes across its datasets' blocks; a dataset may lack a group.
        with tempfile.TemporaryDirectory() as tmp:
            _write_results(tmp, lines)
            timelines = report.load_timelines_json(os.path.join(tmp, "timelines.json"))
            records = report.load_records_csv(os.path.join(tmp, "records.csv"), timelines)
        summaries = report.bundle_from_records(records, timelines).summaries
        groups = collections.defaultdict(list)  # (dataset, method, alpha) -> rows, as read
        for i, key in enumerate(zip(records.dataset.tolist(), records.method.tolist(), records.alpha.tolist())):
            groups[key].append(i)
        assert [(s.dataset, s.method, s.alpha) for s in summaries] == sorted(groups)
        for s in summaries:
            rows = sorted(groups[s.dataset, s.method, s.alpha], key=records.series_id.__getitem__)
            assert s == metrics.summarize(records.take(rows), timelines[s.dataset])

    @pytest.mark.parametrize("lineno", [2, 4097, 4098, 5001])
    def test_type_error_names_its_line_in_any_block(self, tmp_path, lineno):
        lines = [_line(series=f"s{i}") for i in range(5000)]
        lines[lineno - 2] = _line(true="x")
        _write_results(str(tmp_path), lines)
        path = os.path.join(str(tmp_path), "records.csv")
        timelines = report.load_timelines_json(os.path.join(str(tmp_path), "timelines.json"))
        with pytest.raises(DataError, match=f"^{path}:{lineno}: true_label: invalid literal"):
            report.load_records_csv(path, timelines)

    def test_unknown_dataset_named_before_a_bad_float(self, tmp_path):
        lines = [_line(series="s1"), "ghost" + _line(series="s2", weighted="x")[len("a"):]]
        _write_results(str(tmp_path), lines)
        path = os.path.join(str(tmp_path), "records.csv")
        timelines = report.load_timelines_json(os.path.join(str(tmp_path), "timelines.json"))
        with pytest.raises(DataError, match=f"^{path}:3: dataset 'ghost' has no timeline$"):
            report.load_records_csv(path, timelines)

    def test_non_canonical_float_kept_as_read(self, tmp_path):
        lines = [_line(series="s1", weighted="0.50"), _line(series="s2", weighted="1.0", c_m="1.0", regret="0.75")]
        _write_results(str(tmp_path / "in"), lines)
        files = _report(str(tmp_path / "in"), str(tmp_path / "out"))
        assert files["records.csv"].decode().splitlines(keepends=True)[1:] == lines
        summary = files["summaries.csv"].decode().splitlines()[1].split(",")
        assert summary[:4] == ["a", "m", "0.5", "0.75"]

    def test_sorted_and_shuffled_records_same_reports(self, tmp_path, tiny_run):
        # `run` writes records.csv sorted, so `report` keeps its table as
        # read; the shuffled copy is sorted first. Both give the same bytes.
        report.write_reports(tiny_run[1], str(tmp_path / "sorted"))
        with open(tmp_path / "sorted" / "records.csv") as fh:
            header, *lines = fh.readlines()
        np.random.default_rng(0).shuffle(lines)
        os.makedirs(tmp_path / "shuffled")
        with open(tmp_path / "shuffled" / "records.csv", "w", newline="\n") as fh:
            fh.write(header + "".join(lines))
        shutil.copy(tmp_path / "sorted" / "timelines.json", tmp_path / "shuffled")
        first = _report(str(tmp_path / "sorted"), str(tmp_path / "out-sorted"))
        assert _report(str(tmp_path / "shuffled"), str(tmp_path / "out-shuffled")) == first


class TestCli:
    def test_prepare_and_screen(self, tmp_path, monkeypatch, capsys):
        ds = generate_synthetic(12, 12, 3, 0.1, seed=2)
        train = write_series_text(os.path.join(str(tmp_path), "train.csv"), ds.train.labels, ds.train.values)
        test = write_series_text(os.path.join(str(tmp_path), "test.csv"), ds.test.labels, ds.test.values)
        monkeypatch.chdir(tmp_path)
        out = os.path.join("rel", "ds")  # relative to the working directory
        assert cli.main(["prepare", "--train", train, "--test", test, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "manifest.json"))
        assert cli.main(["screen", "--manifest", os.path.join(out, "manifest.json")]) == 0
        captured = capsys.readouterr()
        assert "accepted=" in captured.out

    def test_run_and_report(self, tmp_path, tiny_manifest, capsys):
        config_path = _config_file(tmp_path, tiny_manifest, methods=["asap", "alap"],
                                   alpha_grid=[0.0, 1.0])
        assert cli.main(["run", "--config", config_path]) == 0
        out_dir = json.load(open(config_path))["output_dir"]
        assert os.path.exists(os.path.join(out_dir, "records.csv"))
        report_dir = os.path.join(str(tmp_path), "rep")
        assert cli.main(["report", "--results", out_dir, "--out", report_dir]) == 0
        assert os.path.exists(os.path.join(report_dir, "summaries.csv"))

    def test_header_only_records_report_header_only_tables(self, tmp_path, tiny_run):
        _write_results(str(tmp_path / "results"), [])
        out = str(tmp_path / "out")
        assert cli.main(["report", "--results", str(tmp_path / "results"), "--out", out]) == 0
        report.write_reports(tiny_run[1], str(tmp_path / "full"))
        for name in ("summaries.csv", "ranks.csv", "pairwise.csv", "pareto.csv"):
            with open(os.path.join(out, name)) as fh, open(tmp_path / "full" / name) as full:
                assert fh.read() == full.readline(), name

    def test_negative_zero_alpha_written_as_zero(self, tmp_path, tiny_manifest):
        files = {}
        for name, zero in (("negative", -0.0), ("positive", 0.0)):
            out = os.path.join(str(tmp_path), name)
            config_path = _config_file(tmp_path, tiny_manifest, alpha_grid=[zero, 0.5], output_dir=out)
            assert cli.main(["run", "--config", config_path]) == 0
            files[name] = {}
            for report_file in sorted(os.listdir(out)):
                with open(os.path.join(out, report_file), "rb") as fh:
                    files[name][report_file] = fh.read()
        assert files["negative"] == files["positive"]
        assert b",-0.0," not in files["negative"]["records.csv"]

    def test_config_error_exit_code(self, tmp_path, tiny_manifest):
        config_path = _config_file(tmp_path, tiny_manifest, methods=["teaser"])
        assert cli.main(["run", "--config", config_path]) == 1

    def test_data_error_exit_code(self, tmp_path):
        missing = os.path.join(str(tmp_path), "missing.csv")
        with open(missing, "w") as fh:
            fh.write("")
        out = os.path.join(str(tmp_path), "o")
        code = cli.main(["prepare", "--train", missing, "--test", missing, "--out", out])
        assert code == 2

    # Series file bytes by case, and the file line the message must name.
    BAD_SERIES_FILES = {
        "nan_value": (b"0,1.0,2.0\n1,nan,2.0\n", 2),
        "inf_value": (b"0,1.0,2.0\n1,-inf,2.0\n", 2),
        "non_utf8": (b"0,1.0,2.0\n1,\xff\xfe,3.0\n", 2),
        "ragged_after_blank": (b"0,1.0,2.0\n\n1,1.0,2.0,3.0\n", 3),
        "digit_separator": (b"0,1.0,2.0\n1_0,1_000,2.5\n", 2),
        "inner_space": (b"0,1.0, 2.0\n1,1.0,2.0\n", 1),
        "non_ascii_digit": ("0,1.0,2.0\n\u0661,1.0,2.0\n".encode(), 2),
    }
    # .npy series file bytes by case; each error names the file. Every case
    # but the zip, pickle and text bodies starts with a .npy magic string.
    GOOD_MATRIX = np.array([[0.0, 1.0, 2.0], [1.0, 2.0, 1.0]])
    BAD_MATRIX_FILES = {
        "npy_truncated": _npy_bytes(GOOD_MATRIX)[:-8],
        # 10**13 x 4 float64 values would take 291 TiB.
        "npy_huge_header": _npy_bytes(np.zeros(12), {"descr": "<f8", "fortran_order": False,
                                                     "shape": (10**13, 4)}),
        "npy_zip": _npz_bytes(GOOD_MATRIX),
        "npy_pickle_body": pickle.dumps(GOOD_MATRIX),
        "npy_object_array": _npy_bytes(GOOD_MATRIX.astype(object)),
        "npy_text_body": b"0,1.0,2.0\n1,2.0,1.0\n",
        "npy_int64": _npy_bytes(GOOD_MATRIX.astype(np.int64)),
        "npy_one_dimensional": _npy_bytes(GOOD_MATRIX.ravel()),
        "npy_length_one": _npy_bytes(GOOD_MATRIX[:, :2]),
        "npy_no_rows": _npy_bytes(GOOD_MATRIX[:0]),
        "npy_nan": _npy_bytes(np.array([[0.0, 1.0, np.nan], [1.0, 2.0, 1.0]])),
        "npy_label_not_integral": _npy_bytes(np.array([[0.5, 1.0, 2.0], [1.0, 2.0, 1.0]])),
        "npy_legacy_header_nan": _legacy_npy_bytes(np.array([[0.0, 1.0, np.nan], [1.0, 2.0, 1.0]])),
    }
    # Manifest contents by case: None = no file, "dir" = a directory in its
    # place, str = raw text, dict = JSON object. A series file named bad.csv
    # holds its case's BAD_SERIES_FILES bytes, and one named bad.npy its
    # BAD_MATRIX_FILES bytes. A BAD_NAMES case names a valid
    # good.csv and a dataset name, with the text its error names (None: the
    # manifest path). A BAD_KEYS case names good.csv and adds its entries,
    # with the text its error names.
    BAD_NAMES = {
        "name_number": (5, None),
        "name_list": (["x"], None),
        "name_comma": ("a,b", "'a,b'"),
        "name_newline": ("a\nb", "'a\\nb'"),
    }
    BAD_KEYS = {
        "unknown_key": ({"num_clases": 5}, "unknown key 'num_clases'"),
        "length_float": ({"length": 2.0}, "length must be an integer"),
        "num_classes_bool": ({"num_classes": True}, "num_classes must be an integer"),
        "num_classes_string": ({"num_classes": "2"}, "num_classes must be an integer"),
    }
    BAD_MANIFESTS = {
        "missing": None,
        "directory": "dir",
        "invalid_json": "{not json",
        "not_an_object": "[1, 2]",
        "no_train_file": {"test_file": "test.csv"},
        "no_test_file": {"train_file": "train.csv"},
        "missing_series_file": {"train_file": "absent.csv", "test_file": "absent.csv"},
        **{case: {"train_file": "bad.csv", "test_file": "bad.csv"} for case in BAD_SERIES_FILES},
        **{case: {"train_file": "bad.npy", "test_file": "bad.npy"} for case in BAD_MATRIX_FILES},
        **{case: {"train_file": "good.csv", "test_file": "good.csv", "name": name}
           for case, (name, _) in BAD_NAMES.items()},
        **{case: {"train_file": "good.csv", "test_file": "good.csv", **entries}
           for case, (entries, _) in BAD_KEYS.items()},
    }

    @staticmethod
    def _cli_subprocess(args, launcher=("-m", "ects_bench.cli")):
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        return subprocess.run(
            [sys.executable, *launcher, *args],
            capture_output=True, text=True, env=env, timeout=120,
        )

    # Runs the CLI in a fresh process, then prints the modules it loaded on
    # the last line of stdout.
    LOADED_MODULES = (
        "import sys\n"
        "from ects_bench import cli\n"
        "try:\n"
        "    code = cli.main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(*sorted(sys.modules))\n"
        "sys.exit(code)\n"
    )

    @pytest.mark.parametrize("command, own_modules", [
        ("help", {"cli", "errors"}),
        ("prepare", {"cli", "core", "data", "errors"}),
        ("report", {"cli", "core", "errors", "metrics", "report", "stats"}),
    ])
    def test_command_loads_only_its_modules(self, tmp_path, tiny_run, tiny_text, command, own_modules):
        results = str(tmp_path / "results")
        report.write_reports(tiny_run[1], results)
        args = {
            "help": ["--help"],
            "prepare": ["prepare", "--train", tiny_text["train"], "--test", tiny_text["test"],
                        "--out", str(tmp_path / "prepared")],
            "report": ["report", "--results", results, "--out", str(tmp_path / "rebuilt")],
        }[command]
        proc = self._cli_subprocess(args, launcher=("-c", self.LOADED_MODULES))
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.splitlines()[-1].split())
        assert {m for m in loaded if m.startswith("ects_bench.")} == {f"ects_bench.{m}" for m in own_modules}
        if command == "help":
            assert "numpy" not in loaded

    @pytest.mark.parametrize("command", ["run", "report"])
    def test_command_leaves_numpy_ma_unloaded(self, tmp_path, tiny_manifest, command):
        # Every method, so economy's bin edges and calimera's bandwidth run:
        # a first np.quantile or np.median imports numpy.ma.
        config = _config_file(tmp_path, tiny_manifest, methods=list(trigger.METHODS))
        results = os.path.join(str(tmp_path), "out")
        args = ["run", "--config", config]
        if command == "report":
            assert cli.main(args) == 0
            args = ["report", "--results", results, "--out", str(tmp_path / "rebuilt")]
        proc = self._cli_subprocess(args, launcher=("-c", self.LOADED_MODULES))
        assert proc.returncode == 0, proc.stderr
        assert "numpy" in proc.stdout.splitlines()[-1].split()
        assert "numpy.ma" not in proc.stdout.splitlines()[-1].split()
        with open(os.path.join(results, "summaries.csv")) as fh:
            assert {line.split(",")[1] for line in fh.readlines()[1:]} == set(trigger.METHODS)

    def test_unreadable_config_one_line_config_error(self, tmp_path, capsys):
        for content in (b'{"seed": ' + b"1" * 5000 + b"}", b'{"output_dir": "\xff"}'):
            path = tmp_path / "config.json"
            path.write_bytes(content)
            assert cli.main(["run", "--config", str(path)]) == 1
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("config error: cannot read config "), lines

    def test_negative_seed_one_line_config_error(self, tmp_path):
        # The files do not exist: the seed is checked before any file is read.
        missing = os.path.join(str(tmp_path), "missing")
        for args in (
            ["screen", "--manifest", missing, "--seed", "-1"],
            ["prepare", "--train", missing, "--test", missing, "--out", missing, "--imbalance", "0.2", "--seed", "-3"],
        ):
            proc = self._cli_subprocess(args)
            lines = proc.stderr.splitlines()
            assert proc.returncode == 1, proc.stderr
            assert len(lines) == 1 and lines[0].startswith("config error: --seed must be >= 0"), proc.stderr
            assert "Traceback" not in proc.stderr

    def test_imbalance_outside_unit_interval_one_line_config_error(self, tmp_path):
        # The files do not exist: --imbalance is checked before any file is read.
        missing = os.path.join(str(tmp_path), "missing")
        for value in ("nan", "inf", "1.5", "0", "-0.2"):
            proc = self._cli_subprocess(
                ["prepare", "--train", missing, "--test", missing, "--out", missing, "--imbalance", value]
            )
            lines = proc.stderr.splitlines()
            assert proc.returncode == 1, proc.stderr
            assert len(lines) == 1 and lines[0].startswith("config error: --imbalance must be in (0, 1), got "), lines
            assert "Traceback" not in proc.stderr

    def _assert_one_line_data_error(self, args, named):
        proc = self._cli_subprocess(args)
        lines = proc.stderr.splitlines()
        assert proc.returncode == 2, proc.stderr
        assert len(lines) == 1 and lines[0].startswith("data error: "), proc.stderr
        assert "Traceback" not in proc.stderr
        assert named in lines[0]

    def _bad_series_file(self, tmp_path, case):
        """Writes the case's bad.csv; returns its path and the 'path:line:'
        its error names."""
        path = os.path.join(str(tmp_path), "bad.csv")
        content, line = self.BAD_SERIES_FILES[case]
        with open(path, "wb") as fh:
            fh.write(content)
        return path, f"{path}:{line}:"

    @pytest.mark.parametrize("command", ["screen", "run"])
    @pytest.mark.parametrize("case", sorted(BAD_MANIFESTS))
    def test_bad_manifest_one_line_data_error(self, tmp_path, command, case):
        content = self.BAD_MANIFESTS[case]
        manifest = os.path.join(str(tmp_path), "manifest.json")
        named = "absent.csv" if case == "missing_series_file" else manifest
        if case in self.BAD_SERIES_FILES:
            _, named = self._bad_series_file(tmp_path, case)
        if case in self.BAD_MATRIX_FILES:
            named = str(tmp_path / "bad.npy")
            with open(named, "wb") as fh:
                fh.write(self.BAD_MATRIX_FILES[case])
        if case in self.BAD_NAMES or case in self.BAD_KEYS:
            with open(os.path.join(str(tmp_path), "good.csv"), "w") as fh:
                fh.write("0,1.0,2.0\n1,2.0,1.0\n")
            named = (self.BAD_NAMES.get(case) or self.BAD_KEYS[case])[1] or manifest
        if content == "dir":
            os.mkdir(manifest)
        elif isinstance(content, str):
            with open(manifest, "w") as fh:
                fh.write(content)
        elif content is not None:
            with open(manifest, "w") as fh:
                json.dump(content, fh)
        args = ["--manifest", manifest]
        if command == "run":
            args = ["--config", _config_file(tmp_path, manifest)]
        self._assert_one_line_data_error([command, *args], named)

    @pytest.mark.parametrize("command", ["screen", "run"])
    def test_legacy_npy_header_loads_silently(self, tmp_path, tiny_manifest, command):
        """Series files whose .npy headers Python 2's numpy wrote load as
        their np.save twins do, with nothing on stderr."""
        root = os.path.dirname(tiny_manifest)
        for part in ("train", "test"):
            (tmp_path / f"{part}.npy").write_bytes(_legacy_npy_bytes(np.load(os.path.join(root, f"{part}.npy"))))
        legacy = tmp_path / "manifest.json"
        legacy.write_text(json.dumps({"name": "tiny", "train_file": "train.npy", "test_file": "test.npy"}))
        outputs = []
        for i, manifest in enumerate((tiny_manifest, str(legacy))):
            out = str(tmp_path / f"out{i}")
            args = ["--manifest", manifest] if command == "screen" else ["--config", _config_file(
                tmp_path, manifest, output_dir=out)]
            proc = self._cli_subprocess([command, *args])
            assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
            if command == "screen":
                outputs.append(proc.stdout)
            else:
                with open(os.path.join(out, "records.csv"), "rb") as fh:
                    outputs.append(fh.read())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("case", sorted(BAD_SERIES_FILES))
    def test_bad_series_file_prepare_one_line_data_error(self, tmp_path, case):
        bad, named = self._bad_series_file(tmp_path, case)
        out = os.path.join(str(tmp_path), "out")
        self._assert_one_line_data_error(["prepare", "--train", bad, "--test", bad, "--out", out], named)

    # Config overrides by case; each must end `run` with one config error line.
    BAD_CONFIGS = {
        "seed_string": {"seed": "abc"},
        "seed_float": {"seed": 1.5},
        "alpha_string": {"alpha_grid": ["a"]},
        "alpha_grid_not_list": {"alpha_grid": 0.5},
        "iters_string": {"classifier": {"iters": "many"}},
        "iters_negative": {"classifier": {"iters": -1}},
        "iters_over_cap": {"classifier": {"iters": 10**12}},
        "lr_zero": {"classifier": {"lr": 0}},
        "l2_negative": {"classifier": {"l2": -0.1}},
        "classifier_not_object": {"classifier": [1]},
        "split_seed": {"split": {"seed": 5}},
        "split_fraction": {"split": {"classifier_fraction": 1.5}},
        "alpha_grid_empty": {"alpha_grid": []},
        "alpha_grid_repeated": {"alpha_grid": [0.5, 0.5]},
        "methods_repeated": {"methods": ["asap", "asap"]},
        "output_dir_null": {"output_dir": None},
        "output_dir_number": {"output_dir": 5},
        "alpha_huge_int": {"alpha_grid": [10**400]},
        "l2_huge_int": {"classifier": {"l2": 10**400}},
        "lr_huge_int": {"classifier": {"lr": 10**400}},
        "l2_inf": {"classifier": {"l2": math.inf}},  # json writes and reads the literal Infinity
        "lr_inf": {"classifier": {"lr": math.inf}},
    }

    @pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
    def test_bad_config_one_line_config_error(self, tmp_path, tiny_manifest, monkeypatch, capsys, case):
        monkeypatch.chdir(tmp_path)  # where a misread output_dir would be written

        def no_fit(*args, **kwargs):
            raise AssertionError("a bad config must be rejected before any classifier is fitted")

        monkeypatch.setattr(bench.classify, "fit_multinomial", no_fit)
        path = _config_file(tmp_path, tiny_manifest, **self.BAD_CONFIGS[case])
        assert cli.main(["run", "--config", path]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: "), lines

    @pytest.mark.parametrize("case", ["run_empty_dir", "run_file_as_dir", "run_under_file",
                                      "report_file_as_dir", "prepare_empty_dir",
                                      "prepare_file_as_dir", "prepare_under_file"])
    def test_unusable_output_directory_one_line_config_error(self, tmp_path, tiny_run, tiny_text,
                                                             monkeypatch, capsys, case):
        a_file = str(tmp_path / "a_file")
        with open(a_file, "w") as fh:
            fh.write("kept\n")
        command, kind = case.split("_", 1)
        out = {"empty_dir": "", "file_as_dir": a_file, "under_file": os.path.join(a_file, "sub")}[kind]
        what = "reports"
        if command == "run":
            args = ["run", "--config", _config_file(tmp_path, tiny_run[0].datasets[0], output_dir=out)]

            def no_load(path):  # the output directory is checked before any dataset is loaded
                raise AssertionError(f"loaded {path}")
            monkeypatch.setattr(bench, "load_manifest", no_load)
        elif command == "report":
            results = str(tmp_path / "results")
            report.write_reports(tiny_run[1], results)
            args = ["report", "--results", results, "--out", out]
        else:
            args = ["prepare", "--train", tiny_text["train"], "--test", tiny_text["test"], "--out", out]
            what = "dataset"
        assert cli.main(args) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"config error: cannot write {what} to {out!r}"), lines
        with open(a_file) as fh:
            assert fh.read() == "kept\n"

    def test_inline_dataset_validated_like_a_manifest(self, tmp_path, tiny_text, capsys):
        files = {"train_file": tiny_text["train"], "test_file": tiny_text["test"]}
        cases = [
            ({"test_file": files["test_file"]}, 2, "data error: config datasets[0]: missing train_file"),
            (dict(files, length=99), 2, "data error: config datasets[0]: says T=99"),
            (dict(files, num_classes=2), 2, "data error: config datasets[0]: says K=2"),
            (dict(files, name=5), 2, "data error: config datasets[0]: name must be a string"),
            (dict(files, name=["x"]), 2, "data error: config datasets[0]: name must be a string"),
            (dict(files, num_clases=3), 2, "data error: config datasets[0]: unknown key 'num_clases'"),
            (dict(files, length=9.0), 2, "data error: config datasets[0]: length must be an integer"),
            (dict(files, num_classes=True), 2, "data error: config datasets[0]: num_classes must be an integer"),
            (dict(files, name="a\rb"), 2, "data error: dataset 'a\\rb': a name cannot hold"),
            (dict(files, name="inline", num_classes=3, length=9), 0, None),
        ]
        for entry, code, message in cases:
            path = _config_file(tmp_path, entry, methods=["asap"], alpha_grid=[0.5])
            assert cli.main(["run", "--config", path]) == code, entry
            err = capsys.readouterr().err.splitlines()
            if message is None:
                assert err == []
            else:
                assert len(err) == 1 and err[0].startswith(message), err

    def test_repeated_dataset_name_one_line_config_error(self, tmp_path, capsys):
        # records.csv and timelines.json key on the name: two datasets under
        # one name would be pooled in the summaries.
        manifests = []
        for length in (9, 12):
            root = os.path.join(str(tmp_path), f"t{length}")
            save_dataset(generate_synthetic(length, 10, 4, 0.3, seed=0, name="same"), root)
            manifests.append(os.path.join(root, "manifest.json"))
        out = os.path.join(str(tmp_path), "out")
        config = _config_file(tmp_path, manifests[0], datasets=manifests, output_dir=out)
        assert cli.main(["run", "--config", config]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: config datasets[1]: dataset name 'same' repeats an earlier one"], err
        assert not os.path.exists(out)

    def test_data_error_skips_dataset_numeric_error_aborts_run(self, tmp_path, tiny_manifest):
        # A class with a single train member cannot be split: that dataset is
        # skipped with its reason, and the run still succeeds.
        train = SeriesSet(("a", "b", "c"), [(0.0, 1.0), (0.5, 1.0), (1.0, 0.0)], [0, 0, 1])
        single = os.path.join(str(tmp_path), "single")
        save_dataset(Dataset("single", train, train.take([0]), 2, 2), single)
        datasets = [tiny_manifest, os.path.join(single, "manifest.json")]
        config = _config_file(tmp_path, tiny_manifest, datasets=datasets)
        proc = self._cli_subprocess(["run", "--config", config])
        reason = "class 1 has a single member; cannot split"
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == [f"skipped single: {reason}"]
        with open(os.path.join(str(tmp_path), "out", "skipped.csv")) as fh:
            assert fh.read() == f"dataset,reason\nsingle,{reason}\n"

        # A diverging classifier fit aborts the whole run before any report.
        out = os.path.join(str(tmp_path), "aborted")
        config = _config_file(tmp_path, tiny_manifest, classifier={"lr": 1e300}, output_dir=out)
        proc = self._cli_subprocess(["run", "--config", config])
        lines = proc.stderr.splitlines()
        assert proc.returncode == 3, proc.stderr
        assert len(lines) == 1 and lines[0].startswith("numeric error: "), proc.stderr
        assert not os.path.exists(out)

    def test_fit_diverged_to_finite_weights_one_line_numeric_error(self, tmp_path):
        # One huge step on values scaled by 100: every loss the descent sees
        # is finite, the weights end near 1e301 and the loss after them is not.
        ds = generate_synthetic(9, 10, 4, 0.3, seed=0, name="scaled")
        ds = Dataset(
            ds.name,
            *(SeriesSet(part.ids, 100.0 * part.values, part.labels) for part in (ds.train, ds.test)),
            ds.num_classes, ds.length,
        )
        save_dataset(ds, str(tmp_path / "ds"))
        out = str(tmp_path / "out")
        config = _config_file(tmp_path, str(tmp_path / "ds" / "manifest.json"),
                              classifier={"lr": 1e300, "iters": 1}, output_dir=out)
        proc = self._cli_subprocess(["run", "--config", config])
        lines = proc.stderr.splitlines()
        assert proc.returncode == 3, proc.stderr
        assert len(lines) == 1 and lines[0].startswith("numeric error: timestamp "), proc.stderr
        assert "Warning" not in proc.stderr
        assert not os.path.exists(out)

    # Damage to a results directory by case: the file, and None to delete it,
    # an edit of the fields of line 3 of records.csv (repeated_row follows it
    # with a copy of itself, and missing_series deletes it), or an edit of the
    # "tiny" entry of timelines.json. `report` must end with one data error
    # line that names the file (and line, or dataset), for a repeated row its
    # key, for a missing row its group and series id, and for a row whose
    # true label or oracle field differs from another group's its group and
    # series id.
    BAD_RESULTS = {
        "missing_records": ("records.csv", None),
        "missing_timelines": ("timelines.json", None),
        "non_integer_label": ("records.csv", lambda f: f[:4] + ["1.5"] + f[5:]),
        "short_row": ("records.csv", lambda f: f[:-1]),
        "long_row": ("records.csv", lambda f: f + ["0"]),
        "unknown_dataset": ("records.csv", lambda f: ["ghost"] + f[1:]),
        "trigger_time_off_timeline": ("records.csv", lambda f: f[:6] + ["99"] + f[7:]),
        "oracle_time_off_timeline": ("records.csv", lambda f: f[:10] + ["99"] + f[11:]),
        "alpha_nan": ("records.csv", lambda f: f[:2] + ["nan"] + f[3:]),
        "alpha_above_one": ("records.csv", lambda f: f[:2] + ["1.5"] + f[3:]),
        "weighted_cost_inf": ("records.csv", lambda f: f[:7] + ["inf"] + f[8:]),
        "misclassification_cost_negative": ("records.csv", lambda f: f[:8] + ["-3.0"] + f[9:]),
        "oracle_cost_negative": ("records.csv", lambda f: f[:11] + ["-0.5"] + f[12:]),
        "weighted_cost_off_formula": ("records.csv", lambda f: f[:7] + [repr(float(f[7]) + 0.25)] + f[8:]),
        "regret_off_formula": ("records.csv", lambda f: f[:12] + ["-7.0"]),
        # Numbers int() and float() read but `run` never writes.
        "trigger_time_spaces": ("records.csv", lambda f: f[:6] + [f"  {f[6]} "] + f[7:]),
        "true_label_underscore": ("records.csv", lambda f: f[:4] + ["0_" + f[4]] + f[5:]),
        "true_label_non_ascii_digit": ("records.csv", lambda f: f[:4] + [chr(0x660 + int(f[4]))] + f[5:]),
        "regret_trailing_tab": ("records.csv", lambda f: f[:12] + [f[12] + "\t"]),
        "oracle_cost_above_weighted_cost": ("records.csv", lambda f: f[:11] + [
            repr(float(f[7]) + 0.25), repr(float(f[7]) - (float(f[7]) + 0.25))]),
        "repeated_row": ("records.csv", lambda f: f[:12] + [f[12] + "\n" + ",".join(f)]),
        "missing_series": ("records.csv", lambda f: None),
        # A class that is neither line 3's true nor its predicted label (tiny has K = 3).
        "true_label_differs": ("records.csv", lambda f: f[:4] + [str(min({0, 1, 2} - {int(f[4]), int(f[5])}))]
                               + f[5:]),
        "oracle_time_differs": ("records.csv", lambda f: f[:10] + [str(int(f[10]) + 1)] + f[11:]),
        "oracle_cost_differs": ("records.csv", lambda f: f[:11] + [repr(float(f[11]) + 0.25),
                                                                   repr(float(f[7]) - (float(f[11]) + 0.25))]),
        "timestamp_float": ("timelines.json", lambda e: e["timestamps"].__setitem__(0, 1.5)),
        "timestamp_string": ("timelines.json", lambda e: e["timestamps"].__setitem__(0, "1")),
        "timestamp_true": ("timelines.json", lambda e: e["timestamps"].__setitem__(0, True)),
        "series_length_float": ("timelines.json", lambda e: e.update(series_length=9.0)),
    }

    @pytest.mark.parametrize("case", sorted(BAD_RESULTS))
    def test_bad_results_report_one_line_data_error(self, tmp_path, tiny_run, case):
        results = str(tmp_path / "results")
        report.write_reports(tiny_run[1], results)
        name, edit = self.BAD_RESULTS[case]
        path = os.path.join(results, name)
        if edit is None:
            os.remove(path)
            named = path
        elif name == "timelines.json":
            with open(path) as fh:
                doc = json.load(fh)
            edit(doc["tiny"])
            with open(path, "w") as fh:
                json.dump(doc, fh)
            named = f"{path}: dataset 'tiny'"
        else:
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            fields = lines[2].split(",")
            edited = edit(fields)
            if edited is None:
                del lines[2]
            else:
                lines[2] = ",".join(edited)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            named = f"{path}:3:"
            # Found once the rows are sorted: the error names the key, or the group and series.
            if case == "repeated_row":
                named = f"key ({fields[0]!r}, {fields[1]!r}, {fields[2]}, {fields[3]!r})"
            if case == "missing_series":
                named = f"({fields[0]!r}, {fields[1]!r}, {fields[2]}) lack series_id {fields[3]!r}, which"
            if case.endswith("_differs"):
                named = f"({fields[0]!r}, {fields[1]!r}, {fields[2]}) give series_id {fields[3]!r} {case[:-8]}"
        out = str(tmp_path / "rebuilt")
        self._assert_one_line_data_error(["report", "--results", results, "--out", out], named)

    def test_prepare_with_imbalance(self, tmp_path):
        rng = np.random.default_rng(3)
        values = np.array([rng.normal(loc=float(c), size=6) for c in range(2) for i in range(20)])
        labels = np.repeat([0, 1], 20)
        train = write_series_text(os.path.join(str(tmp_path), "train.csv"), labels, values)
        test = write_series_text(os.path.join(str(tmp_path), "test.csv"), labels, values + 0.1)
        out = os.path.join(str(tmp_path), "imb")
        code = cli.main([
            "prepare", "--train", train, "--test", test, "--out", out,
            "--znorm", "--imbalance", "0.2",
        ])
        assert code == 0
        doc = json.load(open(os.path.join(out, "manifest.json")))
        assert doc["num_classes"] == 2


def test_cost_model_for_switch():
    std = bench.cost_model_for("standard", 3, 0.4)
    assert std.delay is DelayCurve.LINEAR
    assert std.mis_matrix[0][1] == 1.0
    anom = bench.cost_model_for("anomaly", 2, 0.4)
    assert anom.delay is DelayCurve.EXPONENTIAL
    assert anom.mis_matrix[0][1] == 100.0
